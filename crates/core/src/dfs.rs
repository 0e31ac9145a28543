//! The paper's sphere decoder: sorted-children depth-first traversal.
//!
//! Children of each expanded node are evaluated with the GEMM formulation
//! (Phase 1–2 of the pipeline), *sorted by partial distance* (Phase 3,
//! Fig. 3), and visited in LIFO order — so the search dives toward the
//! most promising leaf first, establishes a tight sphere radius early, and
//! prunes aggressively on the way back up. With an admissible radius the
//! result is exactly the ML solution; with a finite initial radius the
//! decoder restarts with an enlarged sphere when no leaf survives, so
//! exactness holds for every [`InitialRadius`].
//!
//! ## One iterative walker
//!
//! The search is a loop, not a recursion. Its per-depth state lives in
//! flat [`SearchWorkspace`] buffers that grow once per problem shape: an
//! `M × P` table of child lists (row `d` holds depth `d`'s `(increment,
//! child)` pairs in visit order), a cursor and a partial distance per
//! depth, and a fixed `M`-slot path. Descending writes one path slot and
//! one row; backing up moves a cursor. Nothing is allocated, taken or put
//! back per node, and the PD kernel reads the suffix symbols straight off
//! the path. The same walker runs sorted and unsorted (ablation) order and
//! both [`EvalStrategy`]s, and it is generic over its sink, so the traced
//! and untraced decodes walk the same code.
//!
//! ## Why it is monomorphised on the order
//!
//! The walker takes the constellation order as a const parameter `P`,
//! dispatched once per decode for 2, 4, 16 and 64; `P = 0` is the same code
//! reading `prep.order` at run time, for any other alphabet (the
//! real-valued decomposition's PAM trees). A constant `P` is what makes an
//! expansion cheap: the GEMM kernel's children-inner loop over SoA lanes
//! and the rank sort of the children become fixed-width vector code with
//! no trip-count logic. The same walker with a run-time `P` measured
//! within noise of the recursion it replaced.
//!
//! ## Why it is bit-identical to the recursive search
//!
//! The walk visits nodes in the recursion's order and applies the same
//! rules at each step: the budget check before every expansion (the root
//! included; the deadline sampled when `nodes_expanded & 63 == 0`), the
//! sorted prune that discards a child and all its later siblings, the
//! unsorted prune that discards one child, and the leaf acceptance that
//! shrinks the radius. Each increment comes from the same FMA sequence
//! (see [`crate::pd`]), and children are ordered by the same total key
//! (`total_cmp` on the increment, then the index). So the decoded indices,
//! every [`DetectionStats`] counter and the final radius bits equal those
//! of the seed recursive DFS kept in [`crate::reference`]
//! (`tests/arena_vs_reference.rs`); budget truncation is pinned exactly in
//! `tests/dfs_walker.rs`.

use crate::arena::SearchWorkspace;
use crate::detector::{Detection, DetectionStats, SearchQuality};
use crate::engine::{impl_detector_via_prepared, DecodeBudget, PreparedDetector};
use crate::pd::{
    eval_children, eval_children_at, order_of, sort_children, with_order, EvalStrategy, PdScratch,
};
use crate::preprocess::{ColumnOrdering, Prepared};
use crate::radius::InitialRadius;
use crate::trace::{span_clock, span_ns, Phase, TraceSink};
use sd_math::Float;
use sd_wireless::Constellation;
use std::time::Instant;

/// Compile-time observability switch for the DFS hot path.
///
/// The search is generic over its sink so that the common untraced decode
/// monomorphizes with [`NoSink`]: every `on_*` call inlines to nothing and
/// `S::ACTIVE == false` makes [`span_clock`] skip the `Instant` reads —
/// the traced and untraced paths share one source of truth for the
/// traversal and accounting, but the untraced binary carries zero
/// per-node branches for it. (Boxing the sink into an `Option<&mut dyn>`
/// field cost ~11% end-to-end on 16×16/16-QAM; see BENCH_expansion.json.)
trait DfsSink {
    /// Whether phase spans should read the clock.
    const ACTIVE: bool;
    fn on_phase(&mut self, phase: Phase, ns: u64);
    fn on_expand(&mut self, level: usize, parents: u64, children: u64);
    fn on_sort(&mut self, level: usize, elements: u64);
    fn on_prune(&mut self, level: usize, n: u64);
    fn on_accept(&mut self, level: usize, n: u64);
    fn on_radius_update(&mut self, level: usize, radius_sqr: f64);
    fn on_restart(&mut self);
}

/// The untraced decode: all hooks are no-ops and the optimizer deletes
/// them (and the clock reads guarded by `ACTIVE`).
struct NoSink;

impl DfsSink for NoSink {
    const ACTIVE: bool = false;
    #[inline(always)]
    fn on_phase(&mut self, _: Phase, _: u64) {}
    #[inline(always)]
    fn on_expand(&mut self, _: usize, _: u64, _: u64) {}
    #[inline(always)]
    fn on_sort(&mut self, _: usize, _: u64) {}
    #[inline(always)]
    fn on_prune(&mut self, _: usize, _: u64) {}
    #[inline(always)]
    fn on_accept(&mut self, _: usize, _: u64) {}
    #[inline(always)]
    fn on_radius_update(&mut self, _: usize, _: f64) {}
    #[inline(always)]
    fn on_restart(&mut self) {}
}

/// The traced decode: forwards every hook to the workspace's
/// [`TraceSink`].
struct DynSink<'a>(&'a mut (dyn TraceSink + 'static));

impl DfsSink for DynSink<'_> {
    const ACTIVE: bool = true;
    #[inline]
    fn on_phase(&mut self, phase: Phase, ns: u64) {
        self.0.on_phase(phase, ns);
    }
    #[inline]
    fn on_expand(&mut self, level: usize, parents: u64, children: u64) {
        self.0.on_expand(level, parents, children);
    }
    #[inline]
    fn on_sort(&mut self, level: usize, elements: u64) {
        self.0.on_sort(level, elements);
    }
    #[inline]
    fn on_prune(&mut self, level: usize, n: u64) {
        self.0.on_prune(level, n);
    }
    #[inline]
    fn on_accept(&mut self, level: usize, n: u64) {
        self.0.on_accept(level, n);
    }
    #[inline]
    fn on_radius_update(&mut self, level: usize, radius_sqr: f64) {
        self.0.on_radius_update(level, radius_sqr);
    }
    #[inline]
    fn on_restart(&mut self) {
        self.0.on_restart();
    }
}

/// Sorted-DFS sphere decoder (the paper's algorithm), generic over the
/// working precision `F`.
#[derive(Clone, Debug)]
pub struct SphereDecoder<F: Float = f64> {
    constellation: Constellation,
    /// Child-evaluation strategy (GEMM-based by default).
    pub eval: EvalStrategy,
    /// Initial sphere radius policy.
    pub initial_radius: InitialRadius,
    /// Sort children by PD before descending (`false` reproduces a plain
    /// DFS for the ablation study).
    pub sort_children: bool,
    /// Detection-order preprocessing (column permutation before QR).
    pub ordering: ColumnOrdering,
    _precision: std::marker::PhantomData<F>,
}

impl<F: Float> SphereDecoder<F> {
    /// Decoder with the paper's defaults: GEMM evaluation, sorted
    /// children, infinite initial radius.
    pub fn new(constellation: Constellation) -> Self {
        SphereDecoder {
            constellation,
            eval: EvalStrategy::Gemm,
            initial_radius: InitialRadius::Infinite,
            sort_children: true,
            ordering: ColumnOrdering::Natural,
            _precision: std::marker::PhantomData,
        }
    }

    /// Builder: detection-order preprocessing.
    pub fn with_ordering(mut self, ordering: ColumnOrdering) -> Self {
        self.ordering = ordering;
        self
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

    /// Builder: toggle child sorting (ablation).
    pub fn with_sorted_children(mut self, sort: bool) -> Self {
        self.sort_children = sort;
        self
    }

    /// The constellation this decoder was built for.
    pub fn constellation(&self) -> &Constellation {
        &self.constellation
    }
}

impl<F: Float> PreparedDetector<F> for SphereDecoder<F> {
    fn constellation(&self) -> &Constellation {
        &self.constellation
    }

    fn ordering(&self) -> ColumnOrdering {
        self.ordering
    }

    fn initial_radius_sqr(&self, n_rx: usize, noise_variance: f64) -> f64 {
        self.initial_radius.resolve(n_rx, noise_variance)
    }

    fn channel_cacheable(&self) -> bool {
        true
    }

    /// Decode an already-preprocessed problem into a caller-owned
    /// [`Detection`]: the walker's path, best path, child lists, cursors
    /// and partial distances all come from `ws`, and `out`'s index vector and
    /// per-level histogram keep their capacity — with a warm `ws` and
    /// `out`, a decode performs zero heap allocations.
    fn detect_prepared_budgeted_into(
        &self,
        prep: &Prepared<F>,
        radius_sqr: f64,
        budget: &DecodeBudget,
        ws: &mut SearchWorkspace<F>,
        out: &mut Detection,
    ) {
        self.decode_budgeted(prep, radius_sqr, budget, ws, out);
    }
}

impl<F: Float> SphereDecoder<F> {
    /// The shared decode body: the unbudgeted entry point passes
    /// [`DecodeBudget::UNLIMITED`], which can never trip, so both paths
    /// run literally the same code.
    fn decode_budgeted(
        &self,
        prep: &Prepared<F>,
        radius_sqr: f64,
        budget: &DecodeBudget,
        ws: &mut SearchWorkspace<F>,
        out: &mut Detection,
    ) {
        ws.prepare(prep.order, prep.n_tx);
        out.stats.reset(prep.n_tx);
        // The sink leaves the workspace for the duration of the decode so
        // the search can borrow it alongside the other buffers. Dispatch
        // on its presence ONCE, here, so the per-node hot path is
        // monomorphized trace-free when no sink is installed.
        let mut trace = ws.trace.take();
        let best_metric = match trace.as_deref_mut() {
            Some(t) => {
                t.on_decode_start(prep.n_tx);
                self.run(prep, radius_sqr, budget, ws, out, DynSink(t))
            }
            None => self.run(prep, radius_sqr, budget, ws, out, NoSink),
        };
        ws.trace = trace;
        prep.indices_from_path_into(&ws.best_path, &mut out.indices);
        out.stats.final_radius_sqr = best_metric.to_f64();
        out.stats.flops += prep.prep_flops;
    }
}

impl<F: Float> SphereDecoder<F> {
    /// Dispatch ONCE per decode onto the walker monomorphised for the
    /// constellation order; `P = 0` is the same code reading `prep.order`
    /// at run time, for every other order (e.g. the real-valued
    /// decomposition's PAM alphabets).
    fn run<S: DfsSink>(
        &self,
        prep: &Prepared<F>,
        radius_sqr: f64,
        budget: &DecodeBudget,
        ws: &mut SearchWorkspace<F>,
        out: &mut Detection,
        sink: S,
    ) -> F {
        with_order!(prep.order, P => {
            self.run_order::<P, S>(prep, radius_sqr, budget, ws, out, sink)
        })
    }

    /// The restart loop, monomorphized per order and sink type. Returns
    /// the final squared radius.
    fn run_order<const P: usize, S: DfsSink>(
        &self,
        prep: &Prepared<F>,
        radius_sqr: f64,
        budget: &DecodeBudget,
        ws: &mut SearchWorkspace<F>,
        out: &mut Detection,
        sink: S,
    ) -> F {
        let m = prep.n_tx;
        let p = order_of::<F, P>(prep);
        ws.path.clear();
        ws.path.resize(m, 0);
        let mut walker = Walker::<F, S, P> {
            prep,
            scratch: &mut ws.scratch,
            stats: &mut out.stats,
            path: &mut ws.path,
            best_path: &mut ws.best_path,
            children: &mut ws.walk_children[..m * p],
            cursor: &mut ws.walk_cursor[..m],
            pd: &mut ws.walk_pd[..m],
            best_metric: F::from_f64(radius_sqr),
            sort: self.sort_children,
            eval: self.eval,
            max_nodes: budget.max_nodes,
            deadline: budget.deadline,
            sink,
        };
        let mut r2 = radius_sqr;
        loop {
            if !walker.walk() {
                // The budget tripped: keep the best-so-far leaf, or
                // complete one greedily if the budget expired before the
                // first dive reached the bottom. Never restart — the
                // spend is gone either way.
                let spent = walker.stats.nodes_generated;
                if walker.best_path.is_empty() {
                    walker.greedy_complete();
                }
                walker.stats.quality = SearchQuality::BudgetTruncated { nodes_spent: spent };
                break;
            }
            if !walker.best_path.is_empty() {
                break;
            }
            // Empty sphere: enlarge and retry (keeps the decoder exact
            // for finite initial radii).
            r2 *= InitialRadius::RESTART_GROWTH;
            walker.stats.restarts += 1;
            walker.sink.on_restart();
            walker.best_metric = F::from_f64(r2);
            assert!(
                walker.stats.restarts < 64,
                "sphere radius failed to capture any leaf"
            );
        }
        walker.best_metric
    }
}

impl_detector_via_prepared!(SphereDecoder<F>, "SD sorted-DFS (paper)");

/// One in-flight tree search at constellation order `P` (`0`: read
/// `prep.order`), its per-depth state borrowed from a
/// [`SearchWorkspace`].
struct Walker<'a, F: Float, S: DfsSink, const P: usize> {
    prep: &'a Prepared<F>,
    scratch: &'a mut PdScratch<F>,
    stats: &'a mut DetectionStats,
    /// Current path, `M` slots in depth order (`path[d]` = antenna
    /// `M−1−d`); the node open at depth `d` is `path[..d]`.
    path: &'a mut Vec<usize>,
    best_path: &'a mut Vec<usize>,
    /// `M × P` child lists: row `d` holds depth `d`'s `(increment,
    /// child)` pairs in visit order (sorted, or natural for the ablation).
    children: &'a mut [(F, usize)],
    /// Per depth: index of the next child of row `d` to visit.
    cursor: &'a mut [usize],
    /// Per depth: partial distance of the node open at depth `d`.
    pd: &'a mut [F],
    /// Current squared sphere radius (shrinks on every accepted leaf).
    best_metric: F,
    sort: bool,
    eval: EvalStrategy,
    /// Node-generation ceiling ([`DecodeBudget::max_nodes`]); `u64::MAX`
    /// when unbudgeted.
    max_nodes: u64,
    /// Wall-clock cutoff, sampled every 64 expansions.
    deadline: Option<Instant>,
    /// Observability sink ([`NoSink`] on the untraced hot path).
    sink: S,
}

impl<F: Float, S: DfsSink, const P: usize> Walker<'_, F, S, P> {
    /// Whether the budget has expired. The node check is one integer
    /// compare per expansion; the deadline is sampled every 64
    /// expansions and only when one is set, so the unbudgeted hot path
    /// pays (almost) nothing. A budget only ever *stops* the traversal —
    /// it never reorders it — which is what keeps budgeted decodes
    /// bit-identical to unbudgeted ones whenever the budget is not hit.
    #[inline]
    fn budget_tripped(&self) -> bool {
        if self.stats.nodes_generated >= self.max_nodes {
            return true;
        }
        match self.deadline {
            Some(d) => (self.stats.nodes_expanded & 63) == 0 && Instant::now() >= d,
            None => false,
        }
    }

    /// One pass over the sphere from the root: depth-first, each depth's
    /// children visited in list order until the list runs out or (sorted)
    /// the first child falls outside the sphere. Returns `false` when the
    /// budget tripped; the walk then stops where it stands, expanding and
    /// accepting nothing further.
    fn walk(&mut self) -> bool {
        let m = self.prep.n_tx;
        let p = order_of::<F, P>(self.prep);
        self.pd[0] = F::ZERO;
        if !self.expand(0) {
            return false;
        }
        let mut depth = 0;
        loop {
            let rank = self.cursor[depth];
            if rank == p {
                // Row exhausted: back up to the parent's next sibling.
                if depth == 0 {
                    return true;
                }
                depth -= 1;
                continue;
            }
            self.cursor[depth] = rank + 1;
            let (inc, child) = self.children[depth * p + rank];
            let child_pd = self.pd[depth] + inc;
            if !(child_pd < self.best_metric) {
                if self.sort {
                    // Sorted order ⇒ every remaining sibling is pruned too.
                    self.stats.nodes_pruned += (p - rank) as u64;
                    self.sink.on_prune(depth, (p - rank) as u64);
                    self.cursor[depth] = p;
                } else {
                    self.stats.nodes_pruned += 1;
                    self.sink.on_prune(depth, 1);
                }
                continue;
            }
            self.sink.on_accept(depth, 1);
            if depth + 1 == m {
                // Leaf inside the sphere: Algorithm 1 lines 7–9.
                self.stats.leaves_reached += 1;
                self.stats.radius_updates += 1;
                self.best_metric = child_pd;
                let t0 = span_clock(S::ACTIVE);
                self.best_path.clear();
                self.best_path.extend_from_slice(&self.path[..depth]);
                self.best_path.push(child);
                self.sink.on_phase(Phase::Leaf, span_ns(t0));
                self.sink.on_radius_update(depth, child_pd.to_f64());
                continue;
            }
            self.path[depth] = child;
            depth += 1;
            self.pd[depth] = child_pd;
            if !self.expand(depth) {
                return false;
            }
        }
    }

    /// Expand the node open at `depth` (`path[..depth]`): evaluate its `P`
    /// children and lay them out in row `depth` in visit order. Returns
    /// `false`, expanding nothing, when the budget has tripped.
    #[inline(always)]
    fn expand(&mut self, depth: usize) -> bool {
        if self.budget_tripped() {
            return false;
        }
        let p = order_of::<F, P>(self.prep);
        self.stats.nodes_expanded += 1;
        let t0 = span_clock(S::ACTIVE);
        self.stats.flops +=
            eval_children_at::<F, P>(self.prep, &self.path[..depth], self.eval, self.scratch);
        self.sink.on_phase(Phase::Expand, span_ns(t0));
        self.sink.on_expand(depth, 1, p as u64);
        self.stats.nodes_generated += p as u64;
        self.stats.per_level_generated[depth] += p as u64;

        let row = &mut self.children[depth * p..(depth + 1) * p];
        let increments = &self.scratch.increments[..p];
        if self.sort {
            let t0 = span_clock(S::ACTIVE);
            sort_children(increments, row);
            self.sink.on_phase(Phase::Sort, span_ns(t0));
            self.sink.on_sort(depth, p as u64);
        } else {
            // Plain DFS ablation: natural constellation order.
            for (c, (slot, &inc)) in row.iter_mut().zip(increments).enumerate() {
                *slot = (inc, c);
            }
        }
        self.cursor[depth] = 0;
        true
    }

    /// The budget expired before the first dive reached a leaf: finish a
    /// path greedily so a truncated decode still returns a complete
    /// symbol vector (SIC-style, the weakest anytime answer).
    fn greedy_complete(&mut self) {
        self.best_metric = greedy_leaf(
            self.prep,
            self.eval,
            self.scratch,
            self.stats,
            self.path,
            self.best_path,
        );
    }
}

/// Greedily complete one root-to-leaf path — the minimum-increment child
/// at every level, radius ignored — charging the evaluations to `stats`
/// like any others. Returns the leaf metric; the path lands in
/// `best_path` (depth order). Shared by the budget-truncation fallbacks
/// of the sequential and subtree-parallel decoders.
pub(crate) fn greedy_leaf<F: Float>(
    prep: &Prepared<F>,
    eval: EvalStrategy,
    scratch: &mut PdScratch<F>,
    stats: &mut DetectionStats,
    path: &mut Vec<usize>,
    best_path: &mut Vec<usize>,
) -> F {
    let m = prep.n_tx;
    let p = prep.order;
    path.clear();
    let mut pd = F::ZERO;
    for depth in 0..m {
        stats.nodes_expanded += 1;
        stats.flops += eval_children(prep, path, eval, scratch);
        stats.nodes_generated += p as u64;
        stats.per_level_generated[depth] += p as u64;
        let mut best_child = 0usize;
        let mut best_inc = scratch.increments[0];
        for (i, &inc) in scratch.increments.iter().enumerate().skip(1) {
            if inc < best_inc {
                best_inc = inc;
                best_child = i;
            }
        }
        pd += best_inc;
        path.push(best_child);
    }
    stats.leaves_reached += 1;
    stats.radius_updates += 1;
    best_path.clear();
    best_path.extend_from_slice(path);
    path.clear();
    pd
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::detector::Detector;
    use crate::ml::MlDetector;
    use crate::preprocess::preprocess;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use sd_wireless::FrameData;
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
    fn matches_exhaustive_ml_qam4() {
        let (c, frames) = frames(5, Modulation::Qam4, 8.0, 30, 42);
        let sd: SphereDecoder<f64> = SphereDecoder::new(c.clone());
        let ml = MlDetector::new(c);
        for f in &frames {
            let a = sd.detect(f);
            let b = ml.detect(f);
            assert_eq!(a.indices, b.indices, "SD must be ML-exact");
        }
    }

    #[test]
    fn matches_exhaustive_ml_qam16() {
        let (c, frames) = frames(3, Modulation::Qam16, 6.0, 20, 43);
        let sd: SphereDecoder<f64> = SphereDecoder::new(c.clone());
        let ml = MlDetector::new(c);
        for f in &frames {
            assert_eq!(sd.detect(f).indices, ml.detect(f).indices);
        }
    }

    #[test]
    fn finite_radius_still_exact() {
        let (c, frames) = frames(4, Modulation::Qam4, 4.0, 25, 44);
        let inf: SphereDecoder<f64> = SphereDecoder::new(c.clone());
        // Deliberately tiny radius to force restarts.
        let tight: SphereDecoder<f64> =
            SphereDecoder::new(c.clone()).with_initial_radius(InitialRadius::ScaledNoise(0.01));
        let mut saw_restart = false;
        for f in &frames {
            let a = inf.detect(f);
            let b = tight.detect(f);
            assert_eq!(a.indices, b.indices);
            saw_restart |= b.stats.restarts > 0;
        }
        assert!(saw_restart, "0.01·N·σ² should be empty at least once");
    }

    #[test]
    fn unsorted_dfs_same_answer_more_work() {
        let (c, frames) = frames(6, Modulation::Qam4, 8.0, 15, 45);
        let sorted: SphereDecoder<f64> = SphereDecoder::new(c.clone());
        let plain: SphereDecoder<f64> = SphereDecoder::new(c.clone()).with_sorted_children(false);
        let mut n_sorted = 0u64;
        let mut n_plain = 0u64;
        for f in &frames {
            let a = sorted.detect(f);
            let b = plain.detect(f);
            assert_eq!(a.indices, b.indices, "both are exact");
            n_sorted += a.stats.nodes_generated;
            n_plain += b.stats.nodes_generated;
        }
        assert!(
            n_sorted < n_plain,
            "sorting must shrink the search: {n_sorted} vs {n_plain}"
        );
    }

    #[test]
    fn incremental_eval_same_answer_fewer_flops() {
        let (c, frames) = frames(6, Modulation::Qam4, 8.0, 10, 46);
        let gemm: SphereDecoder<f64> = SphereDecoder::new(c.clone());
        let inc: SphereDecoder<f64> =
            SphereDecoder::new(c.clone()).with_eval(EvalStrategy::Incremental);
        for f in &frames {
            let a = gemm.detect(f);
            let b = inc.detect(f);
            assert_eq!(a.indices, b.indices);
            assert!(a.stats.flops > b.stats.flops);
            assert_eq!(a.stats.nodes_generated, b.stats.nodes_generated);
        }
    }

    #[test]
    fn high_snr_explores_fewer_nodes() {
        let (c, lo) = frames(8, Modulation::Qam4, 4.0, 20, 47);
        let (_, hi) = frames(8, Modulation::Qam4, 20.0, 20, 47);
        let sd: SphereDecoder<f64> = SphereDecoder::new(c);
        let count = |fs: &[FrameData]| -> u64 {
            fs.iter().map(|f| sd.detect(f).stats.nodes_generated).sum()
        };
        let n_lo = count(&lo);
        let n_hi = count(&hi);
        assert!(
            n_hi * 2 < n_lo,
            "tree must shrink with SNR: {n_lo} @4dB vs {n_hi} @20dB"
        );
    }

    #[test]
    fn stats_are_consistent() {
        let (c, frames) = frames(5, Modulation::Qam4, 8.0, 5, 48);
        let sd: SphereDecoder<f64> = SphereDecoder::new(c);
        for f in &frames {
            let d = sd.detect(f);
            let s = &d.stats;
            assert_eq!(s.nodes_generated, s.per_level_generated.iter().sum::<u64>());
            assert_eq!(s.nodes_generated, s.nodes_expanded * 4);
            assert!(s.leaves_reached >= 1);
            assert_eq!(s.leaves_reached, s.radius_updates);
            assert!(s.final_radius_sqr.is_finite());
            assert!(s.flops > 0);
        }
    }

    #[test]
    fn returned_metric_matches_solution() {
        let (c, frames) = frames(6, Modulation::Qam16, 12.0, 5, 49);
        let sd: SphereDecoder<f64> = SphereDecoder::new(c.clone());
        for f in &frames {
            let d = sd.detect(f);
            let prep: Prepared<f64> = preprocess(f, &c);
            let metric = prep.full_metric(&d.indices) - prep.tail_energy;
            assert!(
                (metric - d.stats.final_radius_sqr).abs() < 1e-8,
                "metric {metric} != reported {}",
                d.stats.final_radius_sqr
            );
        }
    }

    #[test]
    fn f32_precision_usually_matches_f64() {
        let (c, frames) = frames(6, Modulation::Qam4, 12.0, 20, 50);
        let sd64: SphereDecoder<f64> = SphereDecoder::new(c.clone());
        let sd32: SphereDecoder<f32> = SphereDecoder::new(c);
        let agree = frames
            .iter()
            .filter(|f| sd64.detect(f).indices == sd32.detect(f).indices)
            .count();
        assert!(agree >= 19, "f32 disagreed on {} of 20 frames", 20 - agree);
    }

    #[test]
    fn ordering_preserves_ml_exactness() {
        let (c, frames) = frames(6, Modulation::Qam4, 6.0, 20, 52);
        let ml = MlDetector::new(c.clone());
        for ordering in [
            ColumnOrdering::Natural,
            ColumnOrdering::NormDescending,
            ColumnOrdering::NormAscending,
        ] {
            let sd: SphereDecoder<f64> = SphereDecoder::new(c.clone()).with_ordering(ordering);
            for f in &frames {
                assert_eq!(sd.detect(f).indices, ml.detect(f).indices, "{ordering:?}");
            }
        }
    }

    #[test]
    fn good_ordering_shrinks_the_search() {
        // Detecting reliable streams first is the classic V-BLAST trick:
        // aggregate node counts must improve over the pessimal order.
        let (c, frames) = frames(10, Modulation::Qam4, 8.0, 25, 53);
        let best: SphereDecoder<f64> =
            SphereDecoder::new(c.clone()).with_ordering(ColumnOrdering::NormDescending);
        let worst: SphereDecoder<f64> =
            SphereDecoder::new(c.clone()).with_ordering(ColumnOrdering::NormAscending);
        let n_best: u64 = frames
            .iter()
            .map(|f| best.detect(f).stats.nodes_generated)
            .sum();
        let n_worst: u64 = frames
            .iter()
            .map(|f| worst.detect(f).stats.nodes_generated)
            .sum();
        assert!(
            n_best < n_worst,
            "descending ({n_best}) must beat ascending ({n_worst})"
        );
    }

    /// An unexhausted budget must leave the decode bit-identical —
    /// indices, stats, metric bits — to the unbudgeted engine.
    #[test]
    fn generous_budget_is_bit_identical() {
        let (c, frames) = frames(6, Modulation::Qam4, 8.0, 20, 54);
        let sd: SphereDecoder<f64> = SphereDecoder::new(c);
        let mut ws = SearchWorkspace::new();
        let mut plain = Detection::default();
        let mut budgeted = Detection::default();
        for f in &frames {
            let prep = sd.prepare_frame(f);
            sd.detect_prepared_into(&prep, f64::INFINITY, &mut ws, &mut plain);
            // One node more than the decode needs: the check can never trip.
            let budget = DecodeBudget::nodes(plain.stats.nodes_generated + 1);
            sd.detect_prepared_budgeted_into(&prep, f64::INFINITY, &budget, &mut ws, &mut budgeted);
            assert_eq!(budgeted, plain, "unexhausted budget must change nothing");
            assert_eq!(budgeted.stats.quality, SearchQuality::Exact);
            // The unlimited budget is the plain decode by construction.
            sd.detect_prepared_budgeted_into(
                &prep,
                f64::INFINITY,
                &DecodeBudget::UNLIMITED,
                &mut ws,
                &mut budgeted,
            );
            assert_eq!(budgeted, plain);
        }
    }

    /// A tight budget must truncate, flag the result, and still return a
    /// complete symbol vector whose reported metric matches it.
    #[test]
    fn exhausted_budget_returns_best_so_far_leaf() {
        let (c, frames) = frames(8, Modulation::Qam4, 4.0, 20, 55);
        let sd: SphereDecoder<f64> = SphereDecoder::new(c.clone());
        let mut ws = SearchWorkspace::new();
        let mut out = Detection::default();
        let mut saw_truncation = false;
        for f in &frames {
            let prep = sd.prepare_frame(f);
            let full = sd.detect_prepared_in(&prep, f64::INFINITY, &mut ws);
            // Half the full spend: low-SNR 8x8 searches blow well past it.
            let budget = DecodeBudget::nodes(full.stats.nodes_generated / 2);
            sd.detect_prepared_budgeted_into(&prep, f64::INFINITY, &budget, &mut ws, &mut out);
            assert_eq!(out.indices.len(), 8, "always a complete vector");
            if let SearchQuality::BudgetTruncated { nodes_spent } = out.stats.quality {
                saw_truncation = true;
                assert!(nodes_spent >= budget.max_nodes);
                // The reported radius is the returned leaf's metric, and
                // an anytime answer can never beat the exact one.
                let metric = prep.full_metric(&out.indices) - prep.tail_energy;
                assert!((metric - out.stats.final_radius_sqr).abs() < 1e-8);
                assert!(out.stats.final_radius_sqr >= full.stats.final_radius_sqr - 1e-12);
            }
        }
        assert!(saw_truncation, "half-spend budgets must trip somewhere");
    }

    /// A budget of zero nodes degenerates to the greedy (SIC-style)
    /// completion: still a complete, flagged answer.
    #[test]
    fn zero_budget_degenerates_to_greedy_completion() {
        let (c, frames) = frames(6, Modulation::Qam4, 10.0, 5, 56);
        let sd: SphereDecoder<f64> = SphereDecoder::new(c);
        let mut ws = SearchWorkspace::new();
        let mut out = Detection::default();
        for f in &frames {
            let prep = sd.prepare_frame(f);
            sd.detect_prepared_budgeted_into(
                &prep,
                f64::INFINITY,
                &DecodeBudget::nodes(0),
                &mut ws,
                &mut out,
            );
            assert_eq!(out.indices.len(), 6);
            assert!(out.stats.quality.is_truncated());
            assert_eq!(out.stats.leaves_reached, 1);
            let metric = prep.full_metric(&out.indices) - prep.tail_energy;
            assert!((metric - out.stats.final_radius_sqr).abs() < 1e-8);
        }
    }

    /// An already-expired deadline truncates immediately.
    #[test]
    fn expired_deadline_truncates() {
        let (c, frames) = frames(6, Modulation::Qam4, 8.0, 3, 57);
        let sd: SphereDecoder<f64> = SphereDecoder::new(c);
        let mut ws = SearchWorkspace::new();
        let mut out = Detection::default();
        let budget = DecodeBudget {
            max_nodes: u64::MAX,
            deadline: Some(Instant::now() - std::time::Duration::from_millis(1)),
        };
        for f in &frames {
            let prep = sd.prepare_frame(f);
            sd.detect_prepared_budgeted_into(&prep, f64::INFINITY, &budget, &mut ws, &mut out);
            assert!(out.stats.quality.is_truncated());
            assert_eq!(out.indices.len(), 6);
        }
    }

    #[test]
    fn bpsk_single_antenna() {
        // Degenerate 1×1 system: SD must slice correctly.
        let c = Constellation::new(Modulation::Bpsk);
        let mut rng = StdRng::seed_from_u64(51);
        for _ in 0..10 {
            let f = FrameData::generate(1, 1, &c, 0.01, &mut rng);
            let sd: SphereDecoder<f64> = SphereDecoder::new(c.clone());
            let d = sd.detect(&f);
            assert_eq!(d.indices, f.tx.indices, "near-noiseless 1x1 decode");
        }
    }
}
