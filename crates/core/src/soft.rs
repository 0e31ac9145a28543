//! Soft-output (list) sphere decoding.
//!
//! Coded systems want per-bit log-likelihood ratios, not hard decisions.
//! The list sphere decoder (Hochwald & ten Brink style) reuses the exact
//! search: the traversal prunes against an *inflated* bound
//! `γ · d²_best` instead of `d²_best`, so it keeps visiting leaves that
//! are slightly worse than the optimum and collects them into a
//! candidate list. Max-log LLRs follow per bit:
//!
//! ```text
//! L_j = ( min_{s ∈ list, b_j(s)=1} ‖y−Hs‖² − min_{s ∈ list, b_j(s)=0} ‖y−Hs‖² ) / σ²
//! ```
//!
//! (positive ⇒ bit 0 more likely). Bits with no counter-hypothesis in
//! the list are clamped to ±[`SoftSphereDecoder::llr_clamp`]. The hard
//! decision (sign of the LLRs) is exactly the ML decision because the
//! ML leaf is always in the list.

use crate::arena::SearchWorkspace;
use crate::detector::{Detection, DetectionStats};
use crate::engine::{impl_detector_via_prepared, DecodeBudget, PreparedDetector};
use crate::pd::{eval_children, sorted_children, EvalStrategy, PdScratch};
use crate::preprocess::{preprocess, Prepared};
use sd_math::Float;
use sd_wireless::{Constellation, FrameData};

/// One collected leaf candidate.
#[derive(Clone, Debug)]
struct Candidate {
    metric: f64,
    /// Physical-antenna-order constellation indices.
    indices: Vec<usize>,
}

/// Soft detection result.
#[derive(Clone, Debug)]
pub struct SoftDetection {
    /// Hard (ML) symbol decisions.
    pub detection: Detection,
    /// Max-log LLR per information bit, MSB-first per antenna
    /// (`n_tx · bits_per_symbol` values). Positive favours bit 0.
    pub llrs: Vec<f64>,
    /// Number of leaf candidates that contributed.
    pub list_len: usize,
}

impl SoftDetection {
    /// Hard bit decisions implied by the LLR signs.
    pub fn hard_bits(&self) -> Vec<u8> {
        self.llrs.iter().map(|&l| u8::from(l < 0.0)).collect()
    }
}

/// List sphere decoder producing max-log LLRs.
#[derive(Clone, Debug)]
pub struct SoftSphereDecoder<F: Float = f64> {
    constellation: Constellation,
    /// Bound inflation: leaves with metric < γ·d²_best stay in the list.
    pub gamma: f64,
    /// Maximum candidates retained (worst evicted first).
    pub max_list: usize,
    /// Clamp for bits lacking a counter-hypothesis.
    pub llr_clamp: f64,
    _precision: std::marker::PhantomData<F>,
}

impl<F: Float> SoftSphereDecoder<F> {
    /// List decoder with γ = 2.5, list of 64, clamp ±25.
    pub fn new(constellation: Constellation) -> Self {
        SoftSphereDecoder {
            constellation,
            gamma: 2.5,
            max_list: 64,
            llr_clamp: 25.0,
            _precision: std::marker::PhantomData,
        }
    }

    /// Builder: bound inflation factor (≥ 1).
    pub fn with_gamma(mut self, gamma: f64) -> Self {
        assert!(gamma >= 1.0, "gamma must be >= 1");
        self.gamma = gamma;
        self
    }

    /// Builder: list capacity.
    pub fn with_max_list(mut self, cap: usize) -> Self {
        assert!(cap >= 2, "list needs at least two entries");
        self.max_list = cap;
        self
    }

    /// Soft decode one frame.
    pub fn detect_soft(&self, frame: &FrameData) -> SoftDetection {
        let prep: Prepared<F> = preprocess(frame, &self.constellation);
        self.detect_soft_prepared(&prep)
    }

    /// Soft decode a prepared problem; the LLR noise variance is read
    /// from the prepared frame view.
    pub fn detect_soft_prepared(&self, prep: &Prepared<F>) -> SoftDetection {
        let m = prep.n_tx;
        let p = prep.order;
        let mut scratch = PdScratch::new(p);
        let mut stats = DetectionStats {
            per_level_generated: vec![0; m],
            ..Default::default()
        };
        let mut list: Vec<Candidate> = Vec::new();
        let mut best_metric = f64::INFINITY;

        // Iterative sorted DFS with the inflated bound.
        let mut stack: Vec<(F, Vec<usize>)> = vec![(F::ZERO, Vec::new())];
        while let Some((pd, path)) = stack.pop() {
            let bound = if best_metric.is_finite() {
                self.gamma * best_metric
            } else {
                f64::INFINITY
            };
            if pd.to_f64() >= bound {
                stats.nodes_pruned += 1;
                continue;
            }
            let depth = path.len();
            stats.nodes_expanded += 1;
            stats.flops += eval_children(prep, &path, EvalStrategy::Gemm, &mut scratch);
            stats.nodes_generated += p as u64;
            stats.per_level_generated[depth] += p as u64;
            let children = sorted_children(&scratch.increments);
            if depth + 1 == m {
                for (inc, c) in children {
                    let metric = pd.to_f64() + inc.to_f64();
                    let bound = if best_metric.is_finite() {
                        self.gamma * best_metric
                    } else {
                        f64::INFINITY
                    };
                    if metric >= bound {
                        stats.nodes_pruned += 1;
                        continue;
                    }
                    stats.leaves_reached += 1;
                    let mut leaf = path.clone();
                    leaf.push(c);
                    if metric < best_metric {
                        best_metric = metric;
                        stats.radius_updates += 1;
                    }
                    list.push(Candidate {
                        metric,
                        indices: prep.indices_from_path(&leaf),
                    });
                    if list.len() > self.max_list {
                        // Evict the worst candidate.
                        let worst = list
                            .iter()
                            .enumerate()
                            .max_by(|a, b| a.1.metric.total_cmp(&b.1.metric))
                            .map(|(i, _)| i)
                            .expect("non-empty list");
                        list.swap_remove(worst);
                    }
                }
            } else {
                // Push worst-first (LIFO explores best child first).
                for (inc, c) in children.into_iter().rev() {
                    let child_pd = pd + inc;
                    let mut child = path.clone();
                    child.push(c);
                    stack.push((child_pd, child));
                }
            }
        }
        // Drop list entries that ended above the final inflated bound.
        let final_bound = self.gamma * best_metric;
        list.retain(|cand| cand.metric < final_bound);
        stats.final_radius_sqr = best_metric;
        stats.flops += prep.prep_flops;

        // Hard decision = best candidate.
        let best = list
            .iter()
            .min_by(|a, b| a.metric.total_cmp(&b.metric))
            .expect("at least the ML leaf is listed")
            .clone();

        // Max-log LLRs.
        let bps = self.constellation.bits_per_symbol();
        let sigma2 = prep.noise_variance.max(1e-30);
        let mut llrs = vec![0.0f64; m * bps];
        for (ant, llr_chunk) in llrs.chunks_mut(bps).enumerate() {
            for (bit, llr) in llr_chunk.iter_mut().enumerate() {
                let mut min0 = f64::INFINITY;
                let mut min1 = f64::INFINITY;
                for cand in &list {
                    let bits = self.constellation.index_to_bits(cand.indices[ant]);
                    if bits[bit] == 0 {
                        min0 = min0.min(cand.metric);
                    } else {
                        min1 = min1.min(cand.metric);
                    }
                }
                *llr = match (min0.is_finite(), min1.is_finite()) {
                    (true, true) => ((min1 - min0) / sigma2).clamp(-self.llr_clamp, self.llr_clamp),
                    (true, false) => self.llr_clamp,
                    (false, true) => -self.llr_clamp,
                    (false, false) => 0.0,
                };
            }
        }

        SoftDetection {
            detection: Detection {
                indices: best.indices,
                stats,
            },
            llrs,
            list_len: list.len(),
        }
    }
}

impl<F: Float> PreparedDetector<F> for SoftSphereDecoder<F> {
    fn constellation(&self) -> &Constellation {
        &self.constellation
    }

    /// Hard-decision entry point: runs the list search (the inflated
    /// bound replaces the sphere radius, so `radius_sqr` is ignored) and
    /// keeps only the best candidate. Use
    /// [`SoftSphereDecoder::detect_soft_prepared`] when the LLRs are
    /// wanted.
    fn detect_prepared_budgeted_into(
        &self,
        prep: &Prepared<F>,
        _radius_sqr: f64,
        _budget: &DecodeBudget,
        _ws: &mut SearchWorkspace<F>,
        out: &mut Detection,
    ) {
        *out = self.detect_soft_prepared(prep).detection;
    }
}

impl_detector_via_prepared!(SoftSphereDecoder<F>, "SD soft-output (list)");

#[cfg(test)]
mod tests {
    use super::*;
    use crate::detector::Detector;
    use crate::ml::MlDetector;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use sd_wireless::{noise_variance, Modulation};

    fn frames(n: usize, snr_db: f64, count: usize, seed: u64) -> (Constellation, Vec<FrameData>) {
        let c = Constellation::new(Modulation::Qam4);
        let sigma2 = noise_variance(snr_db, n);
        let mut rng = StdRng::seed_from_u64(seed);
        let f = (0..count)
            .map(|_| FrameData::generate(n, n, &c, sigma2, &mut rng))
            .collect();
        (c, f)
    }

    #[test]
    fn hard_decisions_are_ml() {
        let (c, frames) = frames(5, 8.0, 25, 130);
        let soft: SoftSphereDecoder<f64> = SoftSphereDecoder::new(c.clone());
        let ml = MlDetector::new(c);
        for f in &frames {
            let s = soft.detect_soft(f);
            assert_eq!(s.detection.indices, ml.detect(f).indices);
            assert!(s.list_len >= 1);
        }
    }

    #[test]
    fn llr_signs_match_hard_bits() {
        let (c, frames) = frames(6, 10.0, 20, 131);
        let soft: SoftSphereDecoder<f64> = SoftSphereDecoder::new(c.clone());
        for f in &frames {
            let s = soft.detect_soft(f);
            let decided_bits: Vec<u8> = s
                .detection
                .indices
                .iter()
                .flat_map(|&i| c.index_to_bits(i))
                .collect();
            assert_eq!(s.hard_bits(), decided_bits, "LLR signs must match ML bits");
        }
    }

    #[test]
    fn llr_magnitudes_grow_with_snr() {
        let (c, lo) = frames(6, 4.0, 30, 132);
        let (_, hi) = frames(6, 16.0, 30, 132);
        let soft: SoftSphereDecoder<f64> = SoftSphereDecoder::new(c);
        let mean_abs = |fs: &[FrameData]| -> f64 {
            let mut acc = 0.0;
            let mut n = 0usize;
            for f in fs {
                for l in soft.detect_soft(f).llrs {
                    acc += l.abs();
                    n += 1;
                }
            }
            acc / n as f64
        };
        let lo_mag = mean_abs(&lo);
        let hi_mag = mean_abs(&hi);
        assert!(
            hi_mag > 2.0 * lo_mag,
            "confidence must grow with SNR: {lo_mag:.2} vs {hi_mag:.2}"
        );
    }

    #[test]
    fn wider_gamma_grows_the_list() {
        let (c, frames) = frames(6, 8.0, 15, 133);
        let narrow: SoftSphereDecoder<f64> = SoftSphereDecoder::new(c.clone())
            .with_gamma(1.2)
            .with_max_list(256);
        let wide: SoftSphereDecoder<f64> =
            SoftSphereDecoder::new(c).with_gamma(4.0).with_max_list(256);
        let ln: usize = frames.iter().map(|f| narrow.detect_soft(f).list_len).sum();
        let lw: usize = frames.iter().map(|f| wide.detect_soft(f).list_len).sum();
        assert!(
            lw > ln,
            "gamma 4 ({lw}) must list more than gamma 1.2 ({ln})"
        );
    }

    #[test]
    fn llrs_are_clamped() {
        let (c, frames) = frames(4, 20.0, 10, 134);
        let soft: SoftSphereDecoder<f64> = SoftSphereDecoder::new(c);
        for f in &frames {
            for l in soft.detect_soft(f).llrs {
                assert!(l.abs() <= soft.llr_clamp + 1e-12);
            }
        }
    }

    #[test]
    #[should_panic(expected = "gamma must be >= 1")]
    fn sub_unit_gamma_rejected() {
        let _ = SoftSphereDecoder::<f64>::new(Constellation::new(Modulation::Qam4)).with_gamma(0.5);
    }
}
