//! The complete FPGA decode pipeline (Fig. 4).
//!
//! Executes the paper's sorted-DFS sphere decoder *functionally* (the
//! symbol decisions are checked bit-identical to `sd-core`'s
//! `SphereDecoder<f32>`) while charging cycles to the hardware stages:
//!
//! ```text
//! pop ──▶ prefetch (MST walk, addr gen) ──▶ GEMM (systolic) ──▶ NORM ──▶ sort ──▶ commit/prune
//! ```
//!
//! In the **baseline** variant the stages execute back-to-back and every
//! block fetch pays the irregular-access penalty at 253 MHz. In the
//! **optimized** variant the dataflow stages overlap (the per-expansion
//! cost is the bottleneck stage), the prefetch unit hides fetch latency
//! behind the GEMM, and the clock is 300 MHz. Decode time is
//! `cycles / f_clk`; the node counts — and therefore the SNR shape of
//! every figure — come from the real search.

use crate::config::{FpgaConfig, Variant};
use crate::device::DeviceModel;
use crate::mst::{MetaStateTable, NodeId, ROOT_PARENT};
use crate::prefetch::PrefetchUnit;
use crate::sort_unit::BitonicSorter;
use crate::systolic::SystolicGemm;
use sd_core::pd::{eval_children, EvalStrategy, PdScratch};
use sd_core::InitialRadius;
use sd_core::{preprocess, Detection, DetectionStats, Detector, Prepared};
use sd_wireless::{Constellation, FrameData};
use serde::{Deserialize, Serialize};

/// NORM unit pipeline depth (subtract + squared-magnitude + accumulate).
const NORM_LATENCY: u64 = 12;

/// Per-expansion control overhead (state machine, list update).
const CONTROL_OPTIMIZED: u64 = 4;
/// Baseline control overhead: the un-specialized sequencing logic the
/// paper eliminates by building one design per modulation.
const CONTROL_BASELINE: u64 = 16;

/// Cycles to pop and discard a pruned list entry.
const PRUNE_POP_CYCLES: u64 = 2;

/// Cycles to broadcast a radius update to the pruning unit.
const RADIUS_BROADCAST_CYCLES: u64 = 3;

/// HLS dataflow FIFO handshake + FSM transition per stage activation.
///
/// Expansions cannot be pipelined against each other: the LIFO pop that
/// selects the next node depends on the sorted result of the current one
/// (the "synchronization step" of Sec. III-A). Every expansion therefore
/// pays the full stage-handoff latency chain — this, not arithmetic, is
/// what keeps the measured per-expansion cost in the paper's microsecond
/// range.
const STAGE_HANDOFF: u64 = 30;
/// Dataflow stages in the Fig. 4 pipeline (branch, prefetch, GEMM, NORM,
/// sort/prune).
const PIPELINE_STAGES: u64 = 5;

/// Initiation interval of the floating-point accumulation recurrence in
/// the optimized engine's drain path.
const ACC_II_OPTIMIZED: u64 = 4;
/// The baseline's direct HLS port performs sequential scalar MACs with
/// the full fp32 adder dependency (no tree reduction).
const ACC_II_BASELINE: u64 = 8;
/// Baseline per-word URAM port-contention penalty (no partitioning).
const URAM_CONTENTION: u64 = 2;
/// Cycles per MST parent-link hop (optimized: indexed bank read).
const WALK_OPTIMIZED: u64 = 3;
/// Cycles per parent hop in the baseline's pointer-chasing port.
const WALK_BASELINE: u64 = 5;

/// Per-stage cycle accounting of one decode.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct CycleBreakdown {
    /// One-time host→HBM transfer.
    pub host_transfer: u64,
    /// Visible (un-hidden) prefetch cycles.
    pub prefetch: u64,
    /// Systolic GEMM cycles.
    pub gemm: u64,
    /// NORM unit cycles.
    pub norm: u64,
    /// Bitonic sort cycles.
    pub sort: u64,
    /// Control, list management, radius broadcast, pruned pops.
    pub control: u64,
}

impl CycleBreakdown {
    /// Total cycles on the critical path.
    pub fn total(&self) -> u64 {
        self.host_transfer + self.prefetch + self.gemm + self.norm + self.sort + self.control
    }

    /// Render the cycle accounting through the unified observability
    /// schema ([`sd_core::PhaseProfile`], unit = cycles): host transfer
    /// and prefetch are decode preparation, GEMM + NORM are expansion,
    /// the bitonic sorter is the sort phase, and control/list management
    /// is leaf/bookkeeping work. `total()` is preserved exactly.
    pub fn phase_profile(&self) -> sd_core::PhaseProfile {
        let mut p = sd_core::PhaseProfile::new(sd_core::PhaseUnit::Cycles);
        p.record(sd_core::Phase::Prepare, self.host_transfer + self.prefetch);
        p.record(sd_core::Phase::Expand, self.gemm + self.norm);
        p.record(sd_core::Phase::Sort, self.sort);
        p.record(sd_core::Phase::Leaf, self.control);
        p
    }
}

/// Full report of one FPGA decode.
#[derive(Clone, Debug)]
pub struct FpgaDecodeReport {
    /// The decoded symbols and search statistics.
    pub detection: Detection,
    /// Cycle accounting.
    pub cycles: CycleBreakdown,
    /// Wall-clock decode time implied by the cycle count and clock.
    pub decode_seconds: f64,
    /// Peak nodes simultaneously live in the MST.
    pub mst_peak_nodes: usize,
    /// On-chip bits the MST contents occupied at the end of the decode.
    pub mst_bits: u64,
    /// `true` when the MST fits the device's on-chip memory budget
    /// (URAM + BRAM, 60 % usable for the table).
    pub mst_fits_onchip: bool,
}

impl FpgaDecodeReport {
    /// The cycle accounting in the unified [`sd_core::PhaseProfile`]
    /// schema (see [`CycleBreakdown::phase_profile`]).
    pub fn phase_profile(&self) -> sd_core::PhaseProfile {
        self.cycles.phase_profile()
    }
}

/// The FPGA sphere-decoder accelerator model.
#[derive(Clone, Debug)]
pub struct FpgaSphereDecoder {
    config: FpgaConfig,
    device: DeviceModel,
    constellation: Constellation,
    engine: SystolicGemm,
    sorter: BitonicSorter,
    prefetch: PrefetchUnit,
    /// Initial radius policy (default: infinite, as in `sd-core`).
    pub initial_radius: InitialRadius,
}

impl FpgaSphereDecoder {
    /// Instantiate the accelerator for a configuration on a device.
    pub fn new(config: FpgaConfig, constellation: Constellation) -> Self {
        assert_eq!(
            config.modulation,
            constellation.modulation(),
            "bitstream was synthesized for a different modulation"
        );
        let engine = SystolicGemm::new(config.array_rows, config.array_cols);
        let sorter = BitonicSorter::new(constellation.order());
        let prefetch = if config.has_prefetch() {
            PrefetchUnit::enabled()
        } else {
            PrefetchUnit::disabled()
        };
        FpgaSphereDecoder {
            config,
            device: DeviceModel::alveo_u280(),
            constellation,
            engine,
            sorter,
            prefetch,
            initial_radius: InitialRadius::Infinite,
        }
    }

    /// The configuration this accelerator was built with.
    pub fn config(&self) -> &FpgaConfig {
        &self.config
    }

    /// The device model hosting the accelerator.
    pub fn device(&self) -> &DeviceModel {
        &self.device
    }

    /// Decode with full cycle/occupancy reporting.
    pub fn decode_with_report(&self, frame: &FrameData) -> FpgaDecodeReport {
        let prep: Prepared<f32> = preprocess(frame, &self.constellation);
        let m = prep.n_tx;
        let p = prep.order;
        let mut cycles = CycleBreakdown::default();

        // One-time host → HBM transfer of H, y and the constellation
        // (Sec. III-B: evaluated to be <3 % of execution).
        let transfer_bytes = (frame.h.rows() * m + frame.h.rows() + p) as u64 * 8;
        let transfer_seconds = transfer_bytes as f64 / self.device.pcie_bandwidth as f64;
        cycles.host_transfer = (transfer_seconds * self.config.freq_mhz() * 1e6).ceil() as u64;

        let mut stats = DetectionStats {
            per_level_generated: vec![0; m],
            ..Default::default()
        };
        let mut scratch = PdScratch::new(p);
        let mut mst = MetaStateTable::new(m);

        let mut r2 = self
            .initial_radius
            .resolve(frame.h.rows(), frame.noise_variance) as f32;
        let mut best: Option<(f32, Vec<usize>)> = None;

        loop {
            mst.clear();
            // LIFO list of open nodes; `None` marks the root.
            let mut list: Vec<(f32, Option<NodeId>)> = vec![(0.0, None)];
            while let Some((pd, id)) = list.pop() {
                let bound = best.as_ref().map_or(r2, |(b, _)| *b);
                if !(pd < bound) {
                    // Pruned at pop time: the radius shrank since insertion.
                    stats.nodes_pruned += 1;
                    cycles.control += PRUNE_POP_CYCLES;
                    if let Some(id) = id {
                        mst.release(id);
                    }
                    continue;
                }
                if let Some(id) = id {
                    mst.mark_expanded(id);
                }
                let depth = id.map_or(0, |n| n.level as usize + 1);
                let path = id.map_or_else(Vec::new, |n| mst.path(n));
                debug_assert_eq!(path.len(), depth);

                // ---- Phase 1-2: branch + evaluate (prefetch + GEMM + NORM)
                stats.nodes_expanded += 1;
                stats.flops += eval_children(&prep, &path, EvalStrategy::Gemm, &mut scratch);
                stats.nodes_generated += p as u64;
                stats.per_level_generated[depth] += p as u64;

                // R row block + tree-state block + ȳ element, in 32-bit
                // complex words.
                let fetch_words = 4 * depth + 4;

                // ---- Phase 3: sort + prune + commit
                let mut children: Vec<(f32, usize)> = scratch
                    .increments
                    .iter()
                    .enumerate()
                    .map(|(c, &inc)| (pd + inc, c))
                    .collect();
                self.sorter.sort(&mut children);

                // Cycle charging. Expansions are serialized by the LIFO
                // dependency (the next pop needs this sort's result), so
                // every expansion pays its full stage chain.
                if self.config.stages_overlap() {
                    // Optimized: MST walk via indexed banks, prefetch
                    // hidden under the walk+GEMM, systolic engine, then a
                    // stage-handoff chain.
                    let walk = WALK_OPTIMIZED * depth as u64;
                    let gemm_cycles =
                        self.engine.cycles(1, depth + 1, p) + ACC_II_OPTIMIZED * (depth as u64 + 1);
                    let exposed = self
                        .prefetch
                        .exposed_cycles(fetch_words, walk + gemm_cycles);
                    cycles.prefetch += exposed;
                    cycles.gemm += gemm_cycles;
                    cycles.norm += NORM_LATENCY + 2 * p as u64;
                    cycles.sort += self.sorter.cycles();
                    cycles.control += walk
                        + 3 * p as u64 // MST/list commit of the children
                        + CONTROL_OPTIMIZED
                        + PIPELINE_STAGES * STAGE_HANDOFF;
                } else {
                    // Baseline direct port: pointer walk, un-prefetched
                    // irregular reads with URAM contention, sequential
                    // scalar MACs (full fp-add dependency), sequential
                    // norms, insertion sort, heavyweight control.
                    let walk = WALK_BASELINE * depth as u64;
                    cycles.prefetch += self.prefetch.fetch_cycles(fetch_words)
                        + URAM_CONTENTION * fetch_words as u64;
                    cycles.gemm += (p as u64) * (depth as u64 + 1) * ACC_II_BASELINE;
                    cycles.norm += (p as u64) * NORM_LATENCY;
                    cycles.sort += 2 * (p * p) as u64;
                    cycles.control +=
                        walk + 4 * p as u64 + CONTROL_BASELINE + PIPELINE_STAGES * STAGE_HANDOFF;
                }

                let bound = best.as_ref().map_or(r2, |(b, _)| *b);
                if depth + 1 == m {
                    // Children are leaves: Algorithm 1 lines 7–9 register
                    // the decoded symbols immediately, so leaves are never
                    // stored in the MST.
                    for &(child_pd, c) in &children {
                        if child_pd < best.as_ref().map_or(r2, |(b, _)| *b) {
                            stats.leaves_reached += 1;
                            stats.radius_updates += 1;
                            cycles.control += RADIUS_BROADCAST_CYCLES;
                            let mut leaf = path.clone();
                            leaf.push(c);
                            best = Some((child_pd, leaf));
                        } else {
                            stats.nodes_pruned += 1;
                        }
                    }
                    // Leaf parents never gain MST children: retire now.
                    if let Some(id) = id {
                        mst.release(id);
                    }
                } else {
                    // Sorted insertion (Fig. 3): push worst-first so the
                    // best child pops first (LIFO).
                    let mut survivors = 0usize;
                    for &(child_pd, c) in children.iter().rev() {
                        if child_pd < bound {
                            let parent_slot = id.map_or(ROOT_PARENT, |n| n.slot);
                            let node = mst.insert(depth, parent_slot, c as u16, child_pd);
                            list.push((child_pd, Some(node)));
                            survivors += 1;
                        } else {
                            stats.nodes_pruned += 1;
                        }
                    }
                    if survivors == 0 {
                        // Fully pruned expansion: retire the record (and
                        // cascade to finished ancestors).
                        if let Some(id) = id {
                            mst.release(id);
                        }
                    }
                }
            }
            if best.is_some() {
                break;
            }
            r2 *= InitialRadius::RESTART_GROWTH as f32;
            stats.restarts += 1;
            assert!(stats.restarts < 64, "radius failed to capture any leaf");
        }

        let (best_pd, best_path) = best.expect("loop exits only with a solution");
        stats.final_radius_sqr = best_pd as f64;
        stats.flops += prep.prep_flops;
        let indices = prep.indices_from_path(&best_path);

        let mst_bits = mst.storage_bits();
        let budget = (self.device.onchip_bits() as f64 * 0.6) as u64;
        FpgaDecodeReport {
            detection: Detection { indices, stats },
            cycles,
            decode_seconds: cycles.total() as f64 * self.config.cycle_time(),
            mst_peak_nodes: mst.peak(),
            mst_bits,
            mst_fits_onchip: mst_bits <= budget,
        }
    }
}

impl Detector for FpgaSphereDecoder {
    fn name(&self) -> &'static str {
        match self.config.variant {
            Variant::Baseline => "FPGA baseline",
            Variant::Optimized => "FPGA optimized",
        }
    }

    fn detect(&self, frame: &FrameData) -> Detection {
        self.decode_with_report(frame).detection
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use sd_core::SphereDecoder;
    use sd_wireless::{noise_variance, Modulation};

    fn frames(
        n: usize,
        m: Modulation,
        snr_db: f64,
        count: usize,
        seed: u64,
    ) -> (Constellation, Vec<FrameData>) {
        let c = Constellation::new(m);
        let sigma2 = noise_variance(snr_db, n);
        let mut rng = StdRng::seed_from_u64(seed);
        let f = (0..count)
            .map(|_| FrameData::generate(n, n, &c, sigma2, &mut rng))
            .collect();
        (c, f)
    }

    #[test]
    fn decisions_match_software_f32_decoder() {
        let (c, frames) = frames(8, Modulation::Qam4, 8.0, 20, 200);
        let hw = FpgaSphereDecoder::new(FpgaConfig::optimized(Modulation::Qam4, 8), c.clone());
        let sw: SphereDecoder<f32> = SphereDecoder::new(c);
        for f in &frames {
            let a = hw.detect(f);
            let b = sw.detect(f);
            assert_eq!(a.indices, b.indices, "hardware must match software");
            assert_eq!(a.stats.nodes_expanded, b.stats.nodes_expanded);
            assert_eq!(a.stats.nodes_generated, b.stats.nodes_generated);
        }
    }

    #[test]
    fn phase_profile_preserves_cycle_total() {
        let (c, frames) = frames(6, Modulation::Qam4, 8.0, 5, 205);
        let hw = FpgaSphereDecoder::new(FpgaConfig::optimized(Modulation::Qam4, 6), c);
        for f in &frames {
            let report = hw.decode_with_report(f);
            let profile = report.phase_profile();
            assert_eq!(profile.unit, sd_core::PhaseUnit::Cycles);
            assert_eq!(
                profile.total(),
                report.cycles.total(),
                "schema mapping must not lose cycles"
            );
            assert_eq!(
                profile.get(sd_core::Phase::Expand),
                report.cycles.gemm + report.cycles.norm
            );
            assert_eq!(profile.get(sd_core::Phase::Sort), report.cycles.sort);
            assert!(profile.render().ends_with("cyc"));
        }
    }

    #[test]
    fn baseline_and_optimized_same_answer_different_time() {
        let (c, frames) = frames(6, Modulation::Qam4, 8.0, 10, 201);
        let base = FpgaSphereDecoder::new(FpgaConfig::baseline(Modulation::Qam4, 6), c.clone());
        let opt = FpgaSphereDecoder::new(FpgaConfig::optimized(Modulation::Qam4, 6), c);
        for f in &frames {
            let rb = base.decode_with_report(f);
            let ro = opt.decode_with_report(f);
            assert_eq!(rb.detection.indices, ro.detection.indices);
            assert!(
                ro.decode_seconds < rb.decode_seconds,
                "optimized ({}) must beat baseline ({})",
                ro.decode_seconds,
                rb.decode_seconds
            );
        }
    }

    #[test]
    fn optimized_speedup_is_substantial() {
        // The paper reports ~3.5× baseline→optimized at 10×10 4-QAM
        // (Fig. 6: 1.4× vs 5× over CPU). Require at least 2×.
        let (c, frames) = frames(10, Modulation::Qam4, 8.0, 10, 202);
        let base = FpgaSphereDecoder::new(FpgaConfig::baseline(Modulation::Qam4, 10), c.clone());
        let opt = FpgaSphereDecoder::new(FpgaConfig::optimized(Modulation::Qam4, 10), c);
        let tb: f64 = frames
            .iter()
            .map(|f| base.decode_with_report(f).decode_seconds)
            .sum();
        let to: f64 = frames
            .iter()
            .map(|f| opt.decode_with_report(f).decode_seconds)
            .sum();
        let speedup = tb / to;
        assert!(
            speedup > 2.0,
            "baseline/optimized speedup only {speedup:.2}×"
        );
    }

    #[test]
    fn decode_time_decreases_with_snr() {
        let (c, lo) = frames(10, Modulation::Qam4, 4.0, 10, 203);
        let (_, hi) = frames(10, Modulation::Qam4, 16.0, 10, 203);
        let opt = FpgaSphereDecoder::new(FpgaConfig::optimized(Modulation::Qam4, 10), c);
        let t_lo: f64 = lo
            .iter()
            .map(|f| opt.decode_with_report(f).decode_seconds)
            .sum();
        let t_hi: f64 = hi
            .iter()
            .map(|f| opt.decode_with_report(f).decode_seconds)
            .sum();
        assert!(
            t_hi * 2.0 < t_lo,
            "time must shrink with SNR: {t_lo} vs {t_hi}"
        );
    }

    #[test]
    fn host_transfer_is_negligible() {
        // Sec. III-B: < 3 % of overall execution.
        let (c, frames) = frames(10, Modulation::Qam4, 4.0, 5, 204);
        let opt = FpgaSphereDecoder::new(FpgaConfig::optimized(Modulation::Qam4, 10), c);
        for f in &frames {
            let r = opt.decode_with_report(f);
            let frac = r.cycles.host_transfer as f64 / r.cycles.total() as f64;
            assert!(frac < 0.03, "transfer fraction {frac}");
        }
    }

    #[test]
    fn sixteen_qam_slower_than_four_qam() {
        // Sec. IV-E: modulation dominates complexity.
        let (c4, f4) = frames(6, Modulation::Qam4, 8.0, 8, 205);
        let (c16, f16) = frames(6, Modulation::Qam16, 8.0, 8, 205);
        let d4 = FpgaSphereDecoder::new(FpgaConfig::optimized(Modulation::Qam4, 6), c4);
        let d16 = FpgaSphereDecoder::new(FpgaConfig::optimized(Modulation::Qam16, 6), c16);
        let t4: f64 = f4
            .iter()
            .map(|f| d4.decode_with_report(f).decode_seconds)
            .sum();
        let t16: f64 = f16
            .iter()
            .map(|f| d16.decode_with_report(f).decode_seconds)
            .sum();
        assert!(t16 > 3.0 * t4, "16-QAM ({t16}) must dwarf 4-QAM ({t4})");
    }

    #[test]
    fn mst_fits_onchip_for_paper_configs() {
        let (c, frames) = frames(20, Modulation::Qam4, 4.0, 3, 206);
        let opt = FpgaSphereDecoder::new(FpgaConfig::optimized(Modulation::Qam4, 20), c);
        for f in &frames {
            let r = opt.decode_with_report(f);
            assert!(r.mst_fits_onchip, "20×20 4-QAM MST must fit URAM");
            assert!(r.mst_peak_nodes > 0);
        }
    }

    #[test]
    fn breakdown_sums_to_total() {
        let (c, frames) = frames(6, Modulation::Qam4, 8.0, 3, 207);
        let opt = FpgaSphereDecoder::new(FpgaConfig::optimized(Modulation::Qam4, 6), c);
        for f in &frames {
            let r = opt.decode_with_report(f);
            let b = r.cycles;
            assert_eq!(
                b.total(),
                b.host_transfer + b.prefetch + b.gemm + b.norm + b.sort + b.control
            );
            assert!(b.gemm > 0 && b.control > 0);
        }
    }

    #[test]
    #[should_panic(expected = "different modulation")]
    fn mismatched_bitstream_rejected() {
        FpgaSphereDecoder::new(
            FpgaConfig::optimized(Modulation::Qam4, 4),
            Constellation::new(Modulation::Qam16),
        );
    }
}
