//! Globally best-first sphere decoding.
//!
//! Where the paper's sorted DFS orders *siblings* and then commits to a
//! LIFO descent, this variant maintains a global priority queue over all
//! open nodes and always expands the lowest-PD node (the Geosphere-style
//! "best quality leaf first" taken to its limit). It reaches the first
//! leaf with the minimum possible number of expansions, at the cost of a
//! heap and larger memory footprint — the trade the paper's hardware MST
//! sidesteps with per-level sorting.
//!
//! Open nodes live in the [`crate::arena`] slab: a heap entry is twelve
//! bytes of `(pd, id, depth)` instead of an owned path, so pushing a child
//! is a slab append rather than a `Vec` clone, and the winning path is
//! materialized exactly once at the end.

use crate::arena::{SearchWorkspace, NIL};
use crate::detector::Detection;
use crate::engine::{impl_detector_via_prepared, DecodeBudget, PreparedDetector};
use crate::pd::{eval_children_from_arena, EvalStrategy};
use crate::preprocess::Prepared;
use crate::radius::InitialRadius;
use crate::trace::{span_clock, span_ns, Phase};
use sd_math::Float;
use sd_wireless::Constellation;
use std::cmp::Ordering;

/// Priority-queue (min-PD-first) sphere decoder.
#[derive(Clone, Debug)]
pub struct BestFirstSd<F: Float = f64> {
    constellation: Constellation,
    /// Child-evaluation strategy.
    pub eval: EvalStrategy,
    /// Initial sphere radius policy.
    pub initial_radius: InitialRadius,
    _precision: std::marker::PhantomData<F>,
}

/// Heap entry; ordered so that `BinaryHeap` pops the *smallest* PD.
pub(crate) struct OpenNode {
    /// Accumulated partial distance.
    pub(crate) pd: f64,
    /// Arena id of the node ([`NIL`] for the root / empty path).
    pub(crate) id: u32,
    /// Path length (cached: the arena treats `NIL` as depth 0).
    pub(crate) depth: u32,
}

impl PartialEq for OpenNode {
    fn eq(&self, other: &Self) -> bool {
        self.pd == other.pd
    }
}
impl Eq for OpenNode {}
impl PartialOrd for OpenNode {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for OpenNode {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reverse: smaller PD = "greater" for the max-heap. Tie-break on
        // depth (deeper first) to reach leaves sooner. `total_cmp` keeps
        // the order total even if a reduced-precision PD overflows to NaN
        // (NaN sorts past +∞, i.e. expanded last — effectively pruned).
        other
            .pd
            .total_cmp(&self.pd)
            .then_with(|| self.depth.cmp(&other.depth))
    }
}

impl<F: Float> BestFirstSd<F> {
    /// Best-first decoder with GEMM evaluation and infinite initial
    /// radius.
    pub fn new(constellation: Constellation) -> Self {
        BestFirstSd {
            constellation,
            eval: EvalStrategy::Gemm,
            initial_radius: InitialRadius::Infinite,
            _precision: std::marker::PhantomData,
        }
    }

    /// Builder: evaluation strategy.
    pub fn with_eval(mut self, eval: EvalStrategy) -> Self {
        self.eval = eval;
        self
    }

    /// Builder: initial radius policy.
    pub fn with_initial_radius(mut self, r: InitialRadius) -> Self {
        self.initial_radius = r;
        self
    }
}

impl<F: Float> PreparedDetector<F> for BestFirstSd<F> {
    fn constellation(&self) -> &Constellation {
        &self.constellation
    }

    fn initial_radius_sqr(&self, n_rx: usize, noise_variance: f64) -> f64 {
        self.initial_radius.resolve(n_rx, noise_variance)
    }

    fn channel_cacheable(&self) -> bool {
        true
    }

    /// Best-first search into a caller-owned [`Detection`]: after the
    /// workspace buffers reach steady-state capacity, the search loop
    /// performs no heap allocation.
    fn detect_prepared_budgeted_into(
        &self,
        prep: &Prepared<F>,
        radius_sqr: f64,
        _budget: &DecodeBudget,
        ws: &mut SearchWorkspace<F>,
        out: &mut Detection,
    ) {
        let m = prep.n_tx;
        let p = prep.order;
        ws.prepare(p, m);
        out.stats.reset(m);
        let mut trace = ws.trace.take();
        if let Some(t) = trace.as_deref_mut() {
            t.on_decode_start(m);
        }
        let stats = &mut out.stats;
        let mut r2 = radius_sqr;
        // Winning leaf as (pd, parent id, leaf symbol): the arena is only
        // cleared on restart, which can only happen while `best` is None,
        // so the parent id stays valid until materialization.
        let mut best: Option<(f64, u32, usize)> = None;

        loop {
            ws.arena.clear();
            ws.heap.clear();
            ws.heap.push(OpenNode {
                pd: 0.0,
                id: NIL,
                depth: 0,
            });
            while let Some(node) = ws.heap.pop() {
                if let Some((best_pd, _, _)) = &best {
                    if node.pd >= *best_pd {
                        // Min-heap ⇒ nothing better remains.
                        break;
                    }
                }
                let depth = node.depth as usize;
                stats.nodes_expanded += 1;
                let t0 = span_clock(trace.is_some());
                stats.flops +=
                    eval_children_from_arena(prep, &ws.arena, node.id, self.eval, &mut ws.scratch);
                if let Some(t) = trace.as_deref_mut() {
                    t.on_phase(Phase::Expand, span_ns(t0));
                    t.on_expand(depth, 1, p as u64);
                }
                stats.nodes_generated += p as u64;
                stats.per_level_generated[depth] += p as u64;

                for c in 0..p {
                    let child_pd = node.pd + ws.scratch.increments[c].to_f64();
                    let bound = best.as_ref().map_or(r2, |(b, _, _)| b.min(r2));
                    if child_pd < bound {
                        if depth + 1 == m {
                            stats.leaves_reached += 1;
                            stats.radius_updates += 1;
                            best = Some((child_pd, node.id, c));
                            if let Some(t) = trace.as_deref_mut() {
                                t.on_accept(depth, 1);
                                t.on_radius_update(depth, child_pd);
                            }
                        } else {
                            let id = ws.arena.alloc(node.id, c);
                            ws.heap.push(OpenNode {
                                pd: child_pd,
                                id,
                                depth: node.depth + 1,
                            });
                            if let Some(t) = trace.as_deref_mut() {
                                t.on_accept(depth, 1);
                            }
                        }
                    } else {
                        stats.nodes_pruned += 1;
                        if let Some(t) = trace.as_deref_mut() {
                            t.on_prune(depth, 1);
                        }
                    }
                }
            }
            if best.is_some() {
                break;
            }
            r2 *= InitialRadius::RESTART_GROWTH;
            stats.restarts += 1;
            if let Some(t) = trace.as_deref_mut() {
                t.on_restart();
            }
            assert!(stats.restarts < 64, "radius failed to capture any leaf");
        }

        let (best_pd, parent, leaf_sym) = best.expect("loop exits only with a solution");
        let t0 = span_clock(trace.is_some());
        ws.arena.path_into(parent, &mut ws.path_buf);
        ws.path_buf.push(leaf_sym);
        if let Some(t) = trace.as_deref_mut() {
            t.on_phase(Phase::Leaf, span_ns(t0));
        }
        ws.trace = trace;
        stats.final_radius_sqr = best_pd;
        stats.flops += prep.prep_flops;
        prep.indices_from_path_into(&ws.path_buf, &mut out.indices);
    }
}

impl_detector_via_prepared!(BestFirstSd<F>, "SD best-first");

#[cfg(test)]
mod tests {
    use super::*;
    use crate::detector::Detector;
    use crate::dfs::SphereDecoder;
    use crate::ml::MlDetector;
    use crate::preprocess::preprocess;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use sd_wireless::{noise_variance, FrameData, Modulation};
    use std::collections::BinaryHeap;

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
    fn matches_ml() {
        let (c, frames) = frames(5, Modulation::Qam4, 8.0, 25, 60);
        let bf: BestFirstSd<f64> = BestFirstSd::new(c.clone());
        let ml = MlDetector::new(c);
        for f in &frames {
            assert_eq!(bf.detect(f).indices, ml.detect(f).indices);
        }
    }

    #[test]
    fn matches_sorted_dfs_metric() {
        let (c, frames) = frames(7, Modulation::Qam4, 8.0, 15, 61);
        let bf: BestFirstSd<f64> = BestFirstSd::new(c.clone());
        let dfs: SphereDecoder<f64> = SphereDecoder::new(c);
        for f in &frames {
            let a = bf.detect(f);
            let b = dfs.detect(f);
            assert_eq!(a.indices, b.indices);
            assert!((a.stats.final_radius_sqr - b.stats.final_radius_sqr).abs() < 1e-9);
        }
    }

    #[test]
    fn expands_no_more_nodes_than_sorted_dfs() {
        // Best-first is expansion-optimal among admissible strategies;
        // aggregate over frames it must not exceed sorted DFS.
        let (c, frames) = frames(7, Modulation::Qam4, 6.0, 20, 62);
        let bf: BestFirstSd<f64> = BestFirstSd::new(c.clone());
        let dfs: SphereDecoder<f64> = SphereDecoder::new(c);
        let nb: u64 = frames
            .iter()
            .map(|f| bf.detect(f).stats.nodes_expanded)
            .sum();
        let nd: u64 = frames
            .iter()
            .map(|f| dfs.detect(f).stats.nodes_expanded)
            .sum();
        assert!(nb <= nd, "best-first expanded {nb} > DFS {nd}");
    }

    #[test]
    fn finite_radius_restarts_and_stays_exact() {
        let (c, frames) = frames(4, Modulation::Qam4, 4.0, 20, 63);
        let tight: BestFirstSd<f64> =
            BestFirstSd::new(c.clone()).with_initial_radius(InitialRadius::ScaledNoise(0.01));
        let ml = MlDetector::new(c);
        let mut saw_restart = false;
        for f in &frames {
            let d = tight.detect(f);
            assert_eq!(d.indices, ml.detect(f).indices);
            saw_restart |= d.stats.restarts > 0;
        }
        assert!(saw_restart);
    }

    #[test]
    fn workspace_reuse_is_transparent() {
        let (c, frames) = frames(6, Modulation::Qam16, 12.0, 10, 64);
        let bf: BestFirstSd<f64> = BestFirstSd::new(c.clone());
        let mut ws = SearchWorkspace::new();
        for f in &frames {
            let prep: Prepared<f64> = preprocess(f, &c);
            let fresh = bf.detect_prepared(&prep, f64::INFINITY);
            let reused = bf.detect_prepared_in(&prep, f64::INFINITY, &mut ws);
            assert_eq!(fresh.indices, reused.indices);
            assert_eq!(fresh.stats, reused.stats);
        }
    }

    #[test]
    fn heap_ordering_pops_smallest_pd() {
        let mut heap = BinaryHeap::new();
        for pd in [3.0, 1.0, 2.0] {
            heap.push(OpenNode {
                pd,
                id: NIL,
                depth: 0,
            });
        }
        assert_eq!(heap.pop().unwrap().pd, 1.0);
        assert_eq!(heap.pop().unwrap().pd, 2.0);
        assert_eq!(heap.pop().unwrap().pd, 3.0);
    }

    #[test]
    fn deeper_node_wins_ties() {
        let mut heap = BinaryHeap::new();
        heap.push(OpenNode {
            pd: 1.0,
            id: 0,
            depth: 1,
        });
        heap.push(OpenNode {
            pd: 1.0,
            id: 1,
            depth: 3,
        });
        assert_eq!(heap.pop().unwrap().depth, 3);
    }

    #[test]
    fn nan_pd_orders_last_instead_of_panicking() {
        // Regression: the seed ordering used `partial_cmp().expect(..)`
        // and aborted the decode on the first NaN partial distance.
        let mut heap = BinaryHeap::new();
        for pd in [2.0, f64::NAN, 1.0] {
            heap.push(OpenNode {
                pd,
                id: NIL,
                depth: 0,
            });
        }
        assert_eq!(heap.pop().unwrap().pd, 1.0);
        assert_eq!(heap.pop().unwrap().pd, 2.0);
        assert!(heap.pop().unwrap().pd.is_nan(), "NaN expands last");
    }
}
