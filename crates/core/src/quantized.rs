//! Quantized (i16/i32 fixed-point) search engines — the software model of
//! the paper's DSP-slice datapath.
//!
//! [`FxPrepared`] quantizes a QR-[`Prepared`] problem into the Q-format of
//! [`sd_math::fixed`] (symbols Q3.12, `R` block-scaled to an 11-bit
//! target, `ȳ` on the product grid), and three engines search it with the
//! exact integer kernels of [`sd_math::fxkernel`]:
//!
//! * [`QuantizedSphereDecoder`] — depth-first with sorted children and
//!   integer-strict pruning; exact ML *in the quantized domain*;
//! * [`QuantizedKBestSd`] — level-synchronous K-best, the batched
//!   fixed-throughput rung for the serve ladder;
//! * [`QuantizedFsd`] — fixed-complexity: full expansion of the top
//!   levels, then per-node argmin SIC, with no data-dependent control
//!   flow at all (the hardware-shaped variant).
//!
//! All three take [`MetricKind::L2`] (the ML metric) or
//! [`MetricKind::LInf`] (Seethaler–Bölcskei infinity-norm, compares
//! instead of multiplies). Both metrics are monotone non-decreasing along
//! a path, so sphere pruning stays admissible — pinned by the proptests
//! in `tests/quantized.rs`.
//!
//! The f64 engines remain the exactness oracle: quantization *rounds*, so
//! the gate for these engines is not bit-identity with the float path but
//! a measured BER degradation bound, [`MAX_QUANT_DEGRADATION_DB`].
//!
//! `DetectionStats::flops` for these engines counts *integer* lane ops
//! (multiplies, adds, compares of the fixed kernels) so throughput ratios
//! against the float engines compare like for like.

use crate::arena::{NodeArena, SearchWorkspace, NIL};
use crate::detector::{Detection, SearchQuality};
use crate::engine::{impl_detector_via_prepared, DecodeBudget, PreparedDetector};
use crate::preprocess::{BlockPrep, Prepared};
use crate::radius::InitialRadius;
use crate::select::{keep_best, keep_best_slice};
use sd_math::fixed::{
    coef_scale, quantize_i16, quantize_i32, MetricKind, MAX_FX_ANTENNAS, SYM_SCALE,
};
use sd_math::fxkernel::{fx_expand_level, fx_expand_level_multi, fx_metric_update};
use sd_wireless::{Constellation, FrameData};
use std::time::Instant;

/// Measured BER-degradation budget of the quantized engines against their
/// f64 counterparts, in dB at the target BER of the standard
/// 16×16/16-QAM grid (see `tests/quantized.rs` and EXPERIMENTS.md).
///
/// This is the acceptance gate for the Q-format chosen in
/// [`sd_math::fixed`]: Q3.12 symbols against 11-bit block-scaled
/// coefficients leave the quantization noise more than 30 dB below the
/// channel noise at every SNR the sweep visits, so the measured penalty
/// sits well inside this bound; the constant is the *contract*, the
/// sweep is the evidence.
pub const MAX_QUANT_DEGRADATION_DB: f64 = 0.2;

/// One tree level of a quantized problem.
#[derive(Clone, Debug, Default)]
struct FxLevel {
    /// Suffix coefficients `r̂_{i,i+1+off}` (deepest ancestor first).
    a_re: Vec<i16>,
    a_im: Vec<i16>,
    /// Quantized received component `ŷ_i` on the product grid.
    y_re: i32,
    y_im: i32,
    /// Per-child seeds `r̂_ii ⊗ ŝ_c` (exact i32 products).
    seed_re: Vec<i32>,
    seed_im: Vec<i32>,
}

/// A [`Prepared`] problem quantized into the fixed-point Q-format.
///
/// Rebuilt per decode by the quantized engines (cheap: one pass over the
/// `R` triangle), reusing all buffers; see [`sd_math::fixed`] for the
/// scaling rules and overflow analysis that make every kernel op exact.
#[derive(Clone, Debug, Default)]
pub struct FxPrepared {
    /// Tree depth `M`.
    pub n_tx: usize,
    /// Constellation order `P`.
    pub order: usize,
    /// Dynamic coefficient scale `α` (see [`coef_scale`]).
    pub coef_scale: f64,
    /// Quantized constellation components (Q3.12).
    sym_re: Vec<i16>,
    sym_im: Vec<i16>,
    levels: Vec<FxLevel>,
}

impl FxPrepared {
    /// Empty problem; fill with [`FxPrepared::quantize_from`].
    pub fn new() -> Self {
        Self::default()
    }

    /// Quantize `prep` into this problem, reusing all buffers.
    pub fn quantize_from(&mut self, prep: &Prepared<f64>) {
        let m = prep.n_tx;
        let p = prep.order;
        assert!(
            m <= MAX_FX_ANTENNAS,
            "quantized path supports at most {MAX_FX_ANTENNAS} antennas (overflow analysis)"
        );
        self.n_tx = m;
        self.order = p;

        let mut max_abs = 0.0f64;
        for block in &prep.row_blocks {
            for l in 0..block.cols() {
                let v = block[(0, l)];
                max_abs = max_abs.max(v.re.abs()).max(v.im.abs());
            }
        }
        let alpha = coef_scale(max_abs);
        self.coef_scale = alpha;

        self.sym_re.clear();
        self.sym_im.clear();
        for pt in &prep.points {
            self.sym_re.push(quantize_i16(pt.re, SYM_SCALE));
            self.sym_im.push(quantize_i16(pt.im, SYM_SCALE));
        }

        self.levels.resize_with(m, FxLevel::default);
        for (d, level) in self.levels.iter_mut().enumerate() {
            let i = m - 1 - d;
            let block = &prep.row_blocks[d];
            level.a_re.clear();
            level.a_im.clear();
            for off in 0..d {
                let v = block[(0, 1 + off)];
                level.a_re.push(quantize_i16(v.re, alpha));
                level.a_im.push(quantize_i16(v.im, alpha));
            }
            let y = prep.ybar[i];
            level.y_re = quantize_i32(y.re, alpha * SYM_SCALE);
            level.y_im = quantize_i32(y.im, alpha * SYM_SCALE);
            let rii = block[(0, 0)];
            let (rr, ri) = (
                quantize_i16(rii.re, alpha) as i32,
                quantize_i16(rii.im, alpha) as i32,
            );
            level.seed_re.clear();
            level.seed_im.clear();
            for c in 0..p {
                let (sr, si) = (self.sym_re[c] as i32, self.sym_im[c] as i32);
                level.seed_re.push(rr * sr - ri * si);
                level.seed_im.push(rr * si + ri * sr);
            }
        }
    }

    /// Scale factor from a fixed metric back to float units:
    /// `(α·2^12)²` for ℓ2 (a squared distance), `α·2^12` for ℓ∞ (a
    /// distance).
    fn metric_unit(&self, metric: MetricKind) -> f64 {
        let unit = self.coef_scale * SYM_SCALE;
        match metric {
            MetricKind::L2 => unit * unit,
            MetricKind::LInf => unit,
        }
    }

    /// Convert a fixed path metric to float units (for
    /// `DetectionStats::final_radius_sqr`; note it is a plain distance,
    /// not squared, under ℓ∞).
    pub fn metric_to_f64(&self, metric: MetricKind, v: i64) -> f64 {
        v as f64 / self.metric_unit(metric)
    }

    /// Convert a float bound to the fixed grid (rounded up, so the fixed
    /// sphere is never smaller than the float one); infinite or
    /// overflowing bounds saturate to `i64::MAX`.
    pub fn fixed_bound(&self, metric: MetricKind, bound: f64) -> i64 {
        let scaled = bound * self.metric_unit(metric);
        if scaled.is_finite() && scaled < i64::MAX as f64 {
            scaled.ceil() as i64
        } else {
            i64::MAX
        }
    }

    /// Exact fixed-domain metric of a complete depth-order path — the
    /// scalar oracle the engines (and the admissibility proptests) are
    /// checked against.
    pub fn leaf_metric(&self, path: &[usize], metric: MetricKind) -> i64 {
        assert_eq!(path.len(), self.n_tx);
        let mut acc = 0i64;
        for (d, level) in self.levels.iter().enumerate() {
            let mut wr = 0i32;
            let mut wi = 0i32;
            for off in 0..d {
                let s = path[d - 1 - off];
                let (ar, ai) = (level.a_re[off] as i32, level.a_im[off] as i32);
                let (sr, si) = (self.sym_re[s] as i32, self.sym_im[s] as i32);
                wr += ar * sr - ai * si;
                wi += ar * si + ai * sr;
            }
            let mut inc = [0i64];
            fx_metric_update(
                level.y_re - wr,
                level.y_im - wi,
                &level.seed_re[path[d]..path[d] + 1],
                &level.seed_im[path[d]..path[d] + 1],
                metric,
                &mut inc,
            );
            acc = metric.combine(acc, inc[0]);
        }
        acc
    }

    /// Fixed-domain metric of the best leaf found by exhaustive
    /// enumeration (odometer over all `P^M` paths). Test oracle — only
    /// viable on small grids.
    pub fn brute_force_min(&self, metric: MetricKind) -> (i64, Vec<usize>) {
        let m = self.n_tx;
        let p = self.order;
        let mut path = vec![0usize; m];
        let mut best = (self.leaf_metric(&path, metric), path.clone());
        'outer: loop {
            for d in (0..m).rev() {
                path[d] += 1;
                if path[d] < p {
                    let v = self.leaf_metric(&path, metric);
                    if v < best.0 {
                        best = (v, path.clone());
                    }
                    continue 'outer;
                }
                path[d] = 0;
            }
            return best;
        }
    }
}

/// Reused integer search state of the quantized engines (the quantized
/// problem, kernel planes, frontiers, DFS stacks). It lives in the
/// caller's [`SearchWorkspace`], not in the engine: an engine shared
/// across threads holds no per-decode mutable state, so concurrent
/// decodes never serialize on it.
#[derive(Debug, Default)]
pub(crate) struct FxState {
    fx: FxPrepared,
    frontier: Vec<(i64, u32)>,
    next: Vec<(i64, u32)>,
    s_re: Vec<i16>,
    s_im: Vec<i16>,
    w_re: Vec<i32>,
    w_im: Vec<i32>,
    inc: Vec<i64>,
    /// DFS: depth-order path under construction / best leaf.
    path: Vec<usize>,
    best_path: Vec<usize>,
    children: Vec<(i64, usize)>,
    metric: MetricKind,
    /// Fused block decode: per-subcarrier quantized `ŷ_i`, level-major
    /// (`m × B`, index `depth · B + sc`). `R`'s block scale `α` depends
    /// only on the shared channel, so one quantization grid covers the
    /// whole block.
    y_multi_re: Vec<i32>,
    y_multi_im: Vec<i32>,
    /// Per-node ŷ lanes of the current fused level (node `bi` reads its
    /// subcarrier's component).
    y_lane_re: Vec<i32>,
    y_lane_im: Vec<i32>,
}

/// Integer-op count of one batched level expansion (`b` nodes of depth
/// `depth`, `p` children each): the suffix CMACs, the residual subtract,
/// and the metric reduction.
fn fx_level_ops(b: usize, depth: usize, p: usize) -> u64 {
    (b as u64) * (8 * depth as u64 + 2) + (b * p) as u64 * 5
}

/// Gather the compressed suffix-symbol planes (`depth × b`, row `off`,
/// column `node`) for a batch of arena nodes — the fixed-point analogue
/// of the float batcher's gather.
fn gather_planes(
    fx: &FxPrepared,
    arena: &NodeArena,
    ids: &[u32],
    depth: usize,
    s_re: &mut Vec<i16>,
    s_im: &mut Vec<i16>,
) {
    let b = ids.len();
    s_re.clear();
    s_re.resize(depth * b, 0);
    s_im.clear();
    s_im.resize(depth * b, 0);
    for (bi, &id) in ids.iter().enumerate() {
        for (off, sym) in arena.ancestry(id).enumerate() {
            s_re[off * b + bi] = fx.sym_re[sym];
            s_im[off * b + bi] = fx.sym_im[sym];
        }
    }
}

/// Expand one level of a batched sweep: quantized kernel over all nodes
/// in `st.frontier`, leaving increments in `st.inc` (`b × p` row-major).
/// Returns the integer-op count.
fn expand_frontier(st: &mut FxState, arena: &NodeArena, ids: &mut Vec<u32>, depth: usize) -> u64 {
    let b = st.frontier.len();
    let p = st.fx.order;
    ids.clear();
    ids.extend(st.frontier.iter().map(|&(_, id)| id));
    gather_planes(&st.fx, arena, ids, depth, &mut st.s_re, &mut st.s_im);
    let metric = st.metric;
    if st.w_re.len() < b {
        st.w_re.resize(b, 0);
        st.w_im.resize(b, 0);
    }
    st.inc.clear();
    st.inc.resize(b * p, 0);
    let level = &st.fx.levels[depth];
    fx_expand_level(
        &level.a_re,
        &level.a_im,
        &st.s_re,
        &st.s_im,
        b,
        level.y_re,
        level.y_im,
        &level.seed_re,
        &level.seed_im,
        metric,
        &mut st.w_re,
        &mut st.w_im,
        &mut st.inc,
    );
    fx_level_ops(b, depth, p)
}

/// Fused-block analogue of [`expand_frontier`]: `st.frontier` stacks
/// `b_count` subcarriers' frontiers subcarrier-major, `fl` nodes each,
/// and every node reads *its* subcarrier's `ŷ` lane
/// ([`fx_expand_level_multi`]). The suffix CMAC never touches `ŷ` and is
/// column-independent, so each node's increment is bit-identical to the
/// per-subcarrier [`expand_frontier`] call.
fn expand_frontier_fused(
    st: &mut FxState,
    arena: &NodeArena,
    ids: &mut Vec<u32>,
    depth: usize,
    fl: usize,
    b_count: usize,
) -> u64 {
    let b = st.frontier.len();
    debug_assert_eq!(b, fl * b_count, "fused frontier must stack equal blocks");
    let p = st.fx.order;
    ids.clear();
    ids.extend(st.frontier.iter().map(|&(_, id)| id));
    gather_planes(&st.fx, arena, ids, depth, &mut st.s_re, &mut st.s_im);
    st.y_lane_re.clear();
    st.y_lane_im.clear();
    for bi in 0..b {
        let sc = bi / fl;
        st.y_lane_re.push(st.y_multi_re[depth * b_count + sc]);
        st.y_lane_im.push(st.y_multi_im[depth * b_count + sc]);
    }
    let metric = st.metric;
    if st.w_re.len() < b {
        st.w_re.resize(b, 0);
        st.w_im.resize(b, 0);
    }
    st.inc.clear();
    st.inc.resize(b * p, 0);
    let level = &st.fx.levels[depth];
    fx_expand_level_multi(
        &level.a_re,
        &level.a_im,
        &st.s_re,
        &st.s_im,
        b,
        &st.y_lane_re,
        &st.y_lane_im,
        &level.seed_re,
        &level.seed_im,
        metric,
        &mut st.w_re,
        &mut st.w_im,
        &mut st.inc,
    );
    fx_level_ops(b, depth, p)
}

impl FxState {
    fn prepare(&mut self, prep: &Prepared<f64>, metric: MetricKind) {
        self.metric = metric;
        self.fx.quantize_from(prep);
    }

    /// Quantize every subcarrier's `ȳ` onto the block's product grid
    /// (level-major), for the fused sweep. Must run after
    /// [`FxState::prepare`] fixed `α` from the shared `R`.
    fn quantize_block_ys(&mut self, block: &BlockPrep<f64>, b_count: usize) {
        let m = self.fx.n_tx;
        let scale = self.fx.coef_scale * SYM_SCALE;
        self.y_multi_re.clear();
        self.y_multi_im.clear();
        for d in 0..m {
            let i = m - 1 - d;
            for sc in 0..b_count {
                let y = block.ybar_at(i, sc);
                self.y_multi_re.push(quantize_i32(y.re, scale));
                self.y_multi_im.push(quantize_i32(y.im, scale));
            }
        }
    }

    /// Point the scalar per-level `ŷ` at subcarrier `sc` of the block —
    /// the rare budget-trip path runs its greedy completion through the
    /// scalar kernels.
    fn load_sc_ys(&mut self, sc: usize, b_count: usize) {
        for (d, level) in self.fx.levels.iter_mut().enumerate() {
            level.y_re = self.y_multi_re[d * b_count + sc];
            level.y_im = self.y_multi_im[d * b_count + sc];
        }
    }
}

/// K-best (M-algorithm) sweep over the quantized problem: the cheap
/// fixed-throughput rung of the serve ladder. Level-synchronous, one
/// fused integer kernel call per level; survivors are the `K` smallest
/// fixed metrics (ties broken by arena id, so results are deterministic).
#[derive(Debug)]
pub struct QuantizedKBestSd {
    constellation: Constellation,
    /// Survivors kept per level.
    pub k: usize,
    /// Path metric (ℓ2 or ℓ∞).
    pub metric: MetricKind,
}

impl QuantizedKBestSd {
    /// Quantized K-best decoder with per-level list size `k` (ℓ2 metric).
    pub fn new(constellation: Constellation, k: usize) -> Self {
        assert!(k > 0, "K must be positive");
        QuantizedKBestSd {
            constellation,
            k,
            metric: MetricKind::L2,
        }
    }

    /// Builder: path metric.
    pub fn with_metric(mut self, metric: MetricKind) -> Self {
        self.metric = metric;
        self
    }
}

impl PreparedDetector<f64> for QuantizedKBestSd {
    fn constellation(&self) -> &Constellation {
        &self.constellation
    }

    fn channel_cacheable(&self) -> bool {
        true
    }

    fn detect_prepared_into(
        &self,
        prep: &Prepared<f64>,
        radius_sqr: f64,
        ws: &mut SearchWorkspace<f64>,
        out: &mut Detection,
    ) {
        self.detect_prepared_budgeted_into(prep, radius_sqr, &DecodeBudget::UNLIMITED, ws, out);
    }

    /// The quantized K-best sweep under an anytime budget (checked once
    /// per level, like the float engine): a trip completes the best
    /// frontier node greedily in the fixed domain and flags
    /// [`SearchQuality::BudgetTruncated`]; untripped decodes are
    /// bit-identical to [`Self::detect_prepared_into`].
    fn detect_prepared_budgeted_into(
        &self,
        prep: &Prepared<f64>,
        _radius_sqr: f64,
        budget: &DecodeBudget,
        ws: &mut SearchWorkspace<f64>,
        out: &mut Detection,
    ) {
        let m = prep.n_tx;
        let p = prep.order;
        ws.prepare(p, m);
        out.stats.reset(m);
        let SearchWorkspace {
            fx: st,
            arena,
            ids,
            path_buf,
            trace,
            ..
        } = ws;
        st.prepare(prep, self.metric);
        if let Some(t) = trace.as_deref_mut() {
            t.on_decode_start(m);
        }

        st.frontier.clear();
        st.frontier.push((0, NIL));
        let mut tripped = false;
        for depth in 0..m {
            if budget.tripped_after(out.stats.nodes_generated) {
                tripped = true;
                break;
            }
            let b = st.frontier.len();
            out.stats.flops += expand_frontier(st, arena, ids, depth);
            if let Some(t) = trace.as_deref_mut() {
                t.on_expand(depth, b as u64, (b * p) as u64);
            }
            out.stats.nodes_expanded += b as u64;
            out.stats.nodes_generated += (b * p) as u64;
            out.stats.per_level_generated[depth] += (b * p) as u64;

            let FxState {
                frontier,
                next,
                inc,
                ..
            } = &mut *st;
            next.clear();
            for (bi, &(pd, id)) in frontier.iter().enumerate() {
                for c in 0..p {
                    let child_pd = self.metric.combine(pd, inc[bi * p + c]);
                    next.push((child_pd, arena.alloc(id, c)));
                }
            }
            if next.len() > self.k {
                let sorted = next.len();
                // Partial selection under the total `(metric, id)` order:
                // the unique top-K in the full sort's order, at
                // O(n + K log K) instead of O(n log n).
                keep_best(next, self.k, |a, b| a.cmp(b));
                out.stats.nodes_pruned += (sorted - self.k) as u64;
                if let Some(t) = trace.as_deref_mut() {
                    t.on_sort(depth, sorted as u64);
                    t.on_prune(depth, (sorted - self.k) as u64);
                }
            }
            if let Some(t) = trace.as_deref_mut() {
                t.on_accept(depth, next.len() as u64);
            }
            std::mem::swap(&mut st.frontier, &mut st.next);
        }

        if tripped {
            let spent = out.stats.nodes_generated;
            let &(pd, id) = st.frontier.iter().min().expect("frontier is never empty");
            arena.path_into(id, &mut st.path);
            let final_pd = fx_greedy_tail(st, self.metric, pd, &mut out.stats);
            out.stats.leaves_reached += 1;
            out.stats.radius_updates = 1;
            out.stats.final_radius_sqr = st.fx.metric_to_f64(self.metric, final_pd);
            out.stats.flops += prep.prep_flops;
            out.stats.quality = SearchQuality::BudgetTruncated { nodes_spent: spent };
            prep.indices_from_path_into(&st.path, &mut out.indices);
            return;
        }

        out.stats.leaves_reached = st.frontier.len() as u64;
        let &(best, best_id) = st.frontier.iter().min().expect("frontier is never empty");
        out.stats.radius_updates = 1;
        out.stats.final_radius_sqr = st.fx.metric_to_f64(self.metric, best);
        out.stats.flops += prep.prep_flops;
        arena.path_into(best_id, path_buf);
        if let Some(t) = trace.as_deref_mut() {
            t.on_radius_update(m - 1, out.stats.final_radius_sqr);
        }
        prep.indices_from_path_into(path_buf, &mut out.indices);
    }

    /// Cross-subcarrier fused block decode: one quantized K-best sweep —
    /// one integer kernel call per tree level ([`fx_expand_level_multi`])
    /// — for the whole coherence block. `α` is a function of the shared
    /// `R` alone, so every subcarrier quantizes onto one grid, and the
    /// `(metric, id)` survivor cut is bit-identical per subcarrier to the
    /// loop path (arena ids renumber monotonically within a subcarrier).
    fn detect_block_prepared_budgeted_into(
        &self,
        block: &BlockPrep<f64>,
        frames: &[FrameData],
        budget: &DecodeBudget,
        prep: &mut Prepared<f64>,
        ws: &mut SearchWorkspace<f64>,
        out: &mut [Detection],
    ) -> bool {
        if ws.trace_enabled() {
            return false; // per-decode event streams need the loop path
        }
        let b_count = frames.len();
        debug_assert_eq!(out.len(), b_count);
        if b_count == 0 {
            return true;
        }
        block.fill_prepared(0, &frames[0], &self.constellation, prep);
        let m = prep.n_tx;
        let p = prep.order;
        ws.prepare(p, m);
        for d in out.iter_mut() {
            d.stats.reset(m);
        }
        let SearchWorkspace {
            fx: st,
            arena,
            ids,
            path_buf,
            ..
        } = ws;
        st.prepare(prep, self.metric);
        st.quantize_block_ys(block, b_count);

        st.frontier.clear();
        st.frontier.extend((0..b_count).map(|_| (0i64, NIL)));
        let mut fl = 1usize;
        let mut tripped = false;
        for depth in 0..m {
            if budget.tripped_after(out[0].stats.nodes_generated) {
                tripped = true;
                break;
            }
            let level_ops = expand_frontier_fused(st, arena, ids, depth, fl, b_count);
            let per_sc_ops = fx_level_ops(fl, depth, p);
            debug_assert_eq!(per_sc_ops * b_count as u64, level_ops);
            for d in out.iter_mut() {
                d.stats.flops += per_sc_ops;
                d.stats.nodes_expanded += fl as u64;
                d.stats.nodes_generated += (fl * p) as u64;
                d.stats.per_level_generated[depth] += (fl * p) as u64;
            }

            let FxState {
                frontier,
                next,
                inc,
                ..
            } = &mut *st;
            next.clear();
            for (bi, &(pd, id)) in frontier.iter().enumerate() {
                for c in 0..p {
                    let child_pd = self.metric.combine(pd, inc[bi * p + c]);
                    next.push((child_pd, arena.alloc(id, c)));
                }
            }
            let gen = fl * p;
            if gen > self.k {
                for (sc, d) in out.iter_mut().enumerate() {
                    let seg = &mut next[sc * gen..(sc + 1) * gen];
                    keep_best_slice(seg, self.k, |a, b| a.cmp(b));
                    d.stats.nodes_pruned += (gen - self.k) as u64;
                }
                frontier.clear();
                for sc in 0..b_count {
                    let start = sc * gen;
                    frontier.extend_from_slice(&next[start..start + self.k]);
                }
                fl = self.k;
            } else {
                std::mem::swap(&mut st.frontier, &mut st.next);
                fl = gen;
            }
        }

        for (sc, d) in out.iter_mut().enumerate() {
            let seg = &st.frontier[sc * fl..(sc + 1) * fl];
            let &(best, best_id) = seg.iter().min().expect("frontier is never empty");
            if tripped {
                let spent = d.stats.nodes_generated;
                st.load_sc_ys(sc, b_count);
                arena.path_into(best_id, &mut st.path);
                let final_pd = fx_greedy_tail(st, self.metric, best, &mut d.stats);
                d.stats.leaves_reached += 1;
                d.stats.radius_updates = 1;
                d.stats.final_radius_sqr = st.fx.metric_to_f64(self.metric, final_pd);
                d.stats.flops += prep.prep_flops;
                d.stats.quality = SearchQuality::BudgetTruncated { nodes_spent: spent };
                prep.indices_from_path_into(&st.path, &mut d.indices);
            } else {
                d.stats.leaves_reached = fl as u64;
                d.stats.radius_updates = 1;
                d.stats.final_radius_sqr = st.fx.metric_to_f64(self.metric, best);
                d.stats.flops += prep.prep_flops;
                arena.path_into(best_id, path_buf);
                prep.indices_from_path_into(path_buf, &mut d.indices);
            }
        }
        true
    }
}

impl_detector_via_prepared!(QuantizedKBestSd, "SD K-best fixed-i16");

/// Fixed-complexity sphere decoding on the quantized problem: the first
/// `full_expansion_levels` tree levels are fully expanded, every later
/// level keeps each node's single best child (SIC). Zero data-dependent
/// control flow — frontier sizes depend only on `(M, P, n_fe)` — which is
/// the property the FPGA schedule needs.
#[derive(Debug)]
pub struct QuantizedFsd {
    constellation: Constellation,
    /// Fully-expanded levels `n_fe`.
    pub full_expansion_levels: usize,
    /// Path metric (ℓ2 or ℓ∞).
    pub metric: MetricKind,
}

impl QuantizedFsd {
    /// Quantized FSD with one fully-expanded level (ℓ2 metric).
    pub fn new(constellation: Constellation) -> Self {
        QuantizedFsd {
            constellation,
            full_expansion_levels: 1,
            metric: MetricKind::L2,
        }
    }

    /// Builder: number of fully-expanded levels.
    pub fn with_full_expansion_levels(mut self, n_fe: usize) -> Self {
        self.full_expansion_levels = n_fe;
        self
    }

    /// Builder: path metric.
    pub fn with_metric(mut self, metric: MetricKind) -> Self {
        self.metric = metric;
        self
    }
}

impl PreparedDetector<f64> for QuantizedFsd {
    fn constellation(&self) -> &Constellation {
        &self.constellation
    }

    fn channel_cacheable(&self) -> bool {
        true
    }

    fn detect_prepared_into(
        &self,
        prep: &Prepared<f64>,
        radius_sqr: f64,
        ws: &mut SearchWorkspace<f64>,
        out: &mut Detection,
    ) {
        self.detect_prepared_budgeted_into(prep, radius_sqr, &DecodeBudget::UNLIMITED, ws, out);
    }

    /// The quantized FSD sweep under an anytime budget (checked once per
    /// level): a trip completes the best frontier node greedily in the
    /// fixed domain and flags [`SearchQuality::BudgetTruncated`];
    /// untripped decodes are bit-identical to
    /// [`Self::detect_prepared_into`].
    fn detect_prepared_budgeted_into(
        &self,
        prep: &Prepared<f64>,
        _radius_sqr: f64,
        budget: &DecodeBudget,
        ws: &mut SearchWorkspace<f64>,
        out: &mut Detection,
    ) {
        let m = prep.n_tx;
        let p = prep.order;
        let n_fe = self.full_expansion_levels.min(m);
        ws.prepare(p, m);
        out.stats.reset(m);
        let SearchWorkspace {
            fx: st,
            arena,
            ids,
            path_buf,
            trace,
            ..
        } = ws;
        st.prepare(prep, self.metric);
        if let Some(t) = trace.as_deref_mut() {
            t.on_decode_start(m);
        }

        st.frontier.clear();
        st.frontier.push((0, NIL));
        let mut tripped = false;
        for depth in 0..m {
            if budget.tripped_after(out.stats.nodes_generated) {
                tripped = true;
                break;
            }
            let b = st.frontier.len();
            out.stats.flops += expand_frontier(st, arena, ids, depth);
            if let Some(t) = trace.as_deref_mut() {
                t.on_expand(depth, b as u64, (b * p) as u64);
            }
            out.stats.nodes_expanded += b as u64;
            out.stats.nodes_generated += (b * p) as u64;
            out.stats.per_level_generated[depth] += (b * p) as u64;

            let FxState {
                frontier,
                next,
                inc,
                ..
            } = &mut *st;
            next.clear();
            if depth < n_fe {
                // Full expansion: every child survives.
                for (bi, &(pd, id)) in frontier.iter().enumerate() {
                    for c in 0..p {
                        let child_pd = self.metric.combine(pd, inc[bi * p + c]);
                        next.push((child_pd, arena.alloc(id, c)));
                    }
                }
            } else {
                // SIC tail: each node keeps its single best child
                // (lowest increment, ties to the lowest index).
                for (bi, &(pd, id)) in frontier.iter().enumerate() {
                    let row = &inc[bi * p..(bi + 1) * p];
                    let (c, &best_inc) = row
                        .iter()
                        .enumerate()
                        .min_by_key(|&(c, &v)| (v, c))
                        .expect("P > 0");
                    next.push((self.metric.combine(pd, best_inc), arena.alloc(id, c)));
                }
                out.stats.nodes_pruned += (b * (p - 1)) as u64;
                if let Some(t) = trace.as_deref_mut() {
                    t.on_prune(depth, (b * (p - 1)) as u64);
                }
            }
            if let Some(t) = trace.as_deref_mut() {
                t.on_accept(depth, next.len() as u64);
            }
            std::mem::swap(&mut st.frontier, &mut st.next);
        }

        if tripped {
            let spent = out.stats.nodes_generated;
            let &(pd, id) = st.frontier.iter().min().expect("frontier is never empty");
            arena.path_into(id, &mut st.path);
            let final_pd = fx_greedy_tail(st, self.metric, pd, &mut out.stats);
            out.stats.leaves_reached += 1;
            out.stats.radius_updates = 1;
            out.stats.final_radius_sqr = st.fx.metric_to_f64(self.metric, final_pd);
            out.stats.flops += prep.prep_flops;
            out.stats.quality = SearchQuality::BudgetTruncated { nodes_spent: spent };
            prep.indices_from_path_into(&st.path, &mut out.indices);
            return;
        }

        out.stats.leaves_reached = st.frontier.len() as u64;
        let &(best, best_id) = st.frontier.iter().min().expect("frontier is never empty");
        out.stats.radius_updates = 1;
        out.stats.final_radius_sqr = st.fx.metric_to_f64(self.metric, best);
        out.stats.flops += prep.prep_flops;
        arena.path_into(best_id, path_buf);
        if let Some(t) = trace.as_deref_mut() {
            t.on_radius_update(m - 1, out.stats.final_radius_sqr);
        }
        prep.indices_from_path_into(path_buf, &mut out.indices);
    }

    /// Cross-subcarrier fused block decode: one quantized FSD sweep for
    /// the whole coherence block. FSD has *no* data-dependent control
    /// flow — the frontier is `p^min(depth, n_fe)` nodes per subcarrier
    /// at every level — so the stacked sweep is a pure scheduling change:
    /// full-expansion levels stack trivially and the SIC argmin acts per
    /// node. Bit-identical per subcarrier to the loop path.
    fn detect_block_prepared_budgeted_into(
        &self,
        block: &BlockPrep<f64>,
        frames: &[FrameData],
        budget: &DecodeBudget,
        prep: &mut Prepared<f64>,
        ws: &mut SearchWorkspace<f64>,
        out: &mut [Detection],
    ) -> bool {
        if ws.trace_enabled() {
            return false; // per-decode event streams need the loop path
        }
        let b_count = frames.len();
        debug_assert_eq!(out.len(), b_count);
        if b_count == 0 {
            return true;
        }
        block.fill_prepared(0, &frames[0], &self.constellation, prep);
        let m = prep.n_tx;
        let p = prep.order;
        let n_fe = self.full_expansion_levels.min(m);
        ws.prepare(p, m);
        for d in out.iter_mut() {
            d.stats.reset(m);
        }
        let SearchWorkspace {
            fx: st,
            arena,
            ids,
            path_buf,
            ..
        } = ws;
        st.prepare(prep, self.metric);
        st.quantize_block_ys(block, b_count);

        st.frontier.clear();
        st.frontier.extend((0..b_count).map(|_| (0i64, NIL)));
        let mut fl = 1usize;
        let mut tripped = false;
        for depth in 0..m {
            if budget.tripped_after(out[0].stats.nodes_generated) {
                tripped = true;
                break;
            }
            let level_ops = expand_frontier_fused(st, arena, ids, depth, fl, b_count);
            let per_sc_ops = fx_level_ops(fl, depth, p);
            debug_assert_eq!(per_sc_ops * b_count as u64, level_ops);
            for d in out.iter_mut() {
                d.stats.flops += per_sc_ops;
                d.stats.nodes_expanded += fl as u64;
                d.stats.nodes_generated += (fl * p) as u64;
                d.stats.per_level_generated[depth] += (fl * p) as u64;
            }

            let FxState {
                frontier,
                next,
                inc,
                ..
            } = &mut *st;
            next.clear();
            if depth < n_fe {
                for (bi, &(pd, id)) in frontier.iter().enumerate() {
                    for c in 0..p {
                        let child_pd = self.metric.combine(pd, inc[bi * p + c]);
                        next.push((child_pd, arena.alloc(id, c)));
                    }
                }
                fl *= p;
            } else {
                for (bi, &(pd, id)) in frontier.iter().enumerate() {
                    let row = &inc[bi * p..(bi + 1) * p];
                    let (c, &best_inc) = row
                        .iter()
                        .enumerate()
                        .min_by_key(|&(c, &v)| (v, c))
                        .expect("P > 0");
                    next.push((self.metric.combine(pd, best_inc), arena.alloc(id, c)));
                }
                for d in out.iter_mut() {
                    d.stats.nodes_pruned += (fl * (p - 1)) as u64;
                }
            }
            std::mem::swap(&mut st.frontier, &mut st.next);
        }

        for (sc, d) in out.iter_mut().enumerate() {
            let seg = &st.frontier[sc * fl..(sc + 1) * fl];
            let &(best, best_id) = seg.iter().min().expect("frontier is never empty");
            if tripped {
                let spent = d.stats.nodes_generated;
                st.load_sc_ys(sc, b_count);
                arena.path_into(best_id, &mut st.path);
                let final_pd = fx_greedy_tail(st, self.metric, best, &mut d.stats);
                d.stats.leaves_reached += 1;
                d.stats.radius_updates = 1;
                d.stats.final_radius_sqr = st.fx.metric_to_f64(self.metric, final_pd);
                d.stats.flops += prep.prep_flops;
                d.stats.quality = SearchQuality::BudgetTruncated { nodes_spent: spent };
                prep.indices_from_path_into(&st.path, &mut d.indices);
            } else {
                d.stats.leaves_reached = fl as u64;
                d.stats.radius_updates = 1;
                d.stats.final_radius_sqr = st.fx.metric_to_f64(self.metric, best);
                d.stats.flops += prep.prep_flops;
                arena.path_into(best_id, path_buf);
                prep.indices_from_path_into(path_buf, &mut d.indices);
            }
        }
        true
    }
}

impl_detector_via_prepared!(QuantizedFsd, "FSD fixed-i16");

/// Depth-first sphere decoding on the quantized problem: sorted children,
/// integer pruning (`pd > min(bound, best)` discards a subtree), restart
/// doubling on an empty sphere. Exact ML in the quantized domain — the
/// engine the admissibility proptests drive.
#[derive(Debug)]
pub struct QuantizedSphereDecoder {
    constellation: Constellation,
    /// Path metric (ℓ2 or ℓ∞).
    pub metric: MetricKind,
    /// Initial-radius policy (resolved in float, converted to the grid).
    pub initial_radius: InitialRadius,
}

impl QuantizedSphereDecoder {
    /// Quantized DFS decoder (ℓ2 metric, infinite initial radius).
    pub fn new(constellation: Constellation) -> Self {
        QuantizedSphereDecoder {
            constellation,
            metric: MetricKind::L2,
            initial_radius: InitialRadius::Infinite,
        }
    }

    /// Builder: path metric.
    pub fn with_metric(mut self, metric: MetricKind) -> Self {
        self.metric = metric;
        self
    }

    /// Builder: initial-radius policy.
    pub fn with_initial_radius(mut self, policy: InitialRadius) -> Self {
        self.initial_radius = policy;
        self
    }

    /// One bounded DFS pass with a *fixed-domain* bound: returns the best
    /// leaf whose fixed metric is ≤ `bound` (and its physical-order
    /// indices), or `None` when the sphere is empty. No restarts — this
    /// is the primitive the admissibility proptests exercise.
    pub fn detect_prepared_bounded(
        &self,
        prep: &Prepared<f64>,
        bound: i64,
    ) -> Option<(i64, Vec<usize>)> {
        let mut st = FxState::default();
        st.prepare(prep, self.metric);
        let mut stats = crate::detector::DetectionStats::default();
        stats.reset(prep.n_tx);
        let best = dfs_bounded(
            &mut st,
            self.metric,
            bound,
            &mut FxBudget::unlimited(),
            &mut stats,
            &mut None,
        );
        best.map(|b| {
            let mut indices = Vec::new();
            prep.indices_from_path_into(&st.best_path, &mut indices);
            (b, indices)
        })
    }
}

/// Mutable budget ledger for the recursive integer DFS: the fixed-point
/// analogue of the float DFS's in-struct budget fields. `tripped` latches
/// so every frame of the recursion unwinds without charging further work.
struct FxBudget {
    max_nodes: u64,
    deadline: Option<Instant>,
    tripped: bool,
}

impl FxBudget {
    fn unlimited() -> Self {
        FxBudget {
            max_nodes: u64::MAX,
            deadline: None,
            tripped: false,
        }
    }

    fn from_budget(budget: &DecodeBudget) -> Self {
        FxBudget {
            max_nodes: budget.max_nodes,
            deadline: budget.deadline,
            tripped: false,
        }
    }

    /// Latching trip check against work already charged to `stats`. The
    /// deadline is sampled every 64 expansions so the common (node-only)
    /// budget costs one integer compare per node.
    #[inline]
    fn tripping(&mut self, stats: &crate::detector::DetectionStats) -> bool {
        if self.tripped {
            return true;
        }
        if stats.nodes_generated >= self.max_nodes
            || self
                .deadline
                .is_some_and(|d| (stats.nodes_expanded & 63) == 0 && Instant::now() >= d)
        {
            self.tripped = true;
        }
        self.tripped
    }
}

/// Greedy (SIC-style) completion to the nearest leaf when a budget trips
/// before any leaf was reached: per level, keep the single lowest-
/// increment child, ignoring the sphere bound. The fixed-point analogue
/// of `crate::dfs::greedy_leaf`; work is charged to `stats` like any
/// other expansion. Leaves the leaf in `st.best_path` and returns its
/// fixed-domain metric.
fn fx_greedy_leaf(
    st: &mut FxState,
    metric: MetricKind,
    stats: &mut crate::detector::DetectionStats,
) -> i64 {
    st.path.clear();
    let pd = fx_greedy_tail(st, metric, 0, stats);
    stats.leaves_reached += 1;
    stats.radius_updates += 1;
    st.best_path.clear();
    st.best_path.extend_from_slice(&st.path);
    st.path.clear();
    pd
}

/// Greedy SIC completion of the partial path in `st.path` down to a
/// leaf, starting from path metric `pd0`: the level-synchronous engines'
/// budget-trip completion (shared with [`fx_greedy_leaf`], which starts
/// it from the root). Charges `stats` per expansion and leaves the full
/// depth-order path in `st.path`.
fn fx_greedy_tail(
    st: &mut FxState,
    metric: MetricKind,
    pd0: i64,
    stats: &mut crate::detector::DetectionStats,
) -> i64 {
    let m = st.fx.n_tx;
    let p = st.fx.order;
    let mut pd = pd0;
    for depth in st.path.len()..m {
        stats.nodes_expanded += 1;
        stats.nodes_generated += p as u64;
        stats.per_level_generated[depth] += p as u64;
        let level = &st.fx.levels[depth];
        let mut wr = 0i32;
        let mut wi = 0i32;
        for off in 0..depth {
            let s = st.path[depth - 1 - off];
            let (ar, ai) = (level.a_re[off] as i32, level.a_im[off] as i32);
            let (sr, si) = (st.fx.sym_re[s] as i32, st.fx.sym_im[s] as i32);
            wr += ar * sr - ai * si;
            wi += ar * si + ai * sr;
        }
        st.inc.clear();
        st.inc.resize(p, 0);
        fx_metric_update(
            level.y_re - wr,
            level.y_im - wi,
            &level.seed_re,
            &level.seed_im,
            metric,
            &mut st.inc,
        );
        stats.flops += fx_level_ops(1, depth, p);
        let (c, &best_inc) = st
            .inc
            .iter()
            .enumerate()
            .min_by_key(|&(c, &v)| (v, c))
            .expect("P > 0");
        pd = metric.combine(pd, best_inc);
        st.path.push(c);
    }
    pd
}

/// Recursive bounded integer DFS over `st.fx`. Keeps a leaf when its
/// metric is ≤ the *initial* bound and < the best found so far; prunes a
/// subtree only when its prefix metric already exceeds that limit, which
/// (by metric monotonicity) can never discard a qualifying leaf.
fn dfs_bounded(
    st: &mut FxState,
    metric: MetricKind,
    bound: i64,
    budget: &mut FxBudget,
    stats: &mut crate::detector::DetectionStats,
    trace: &mut Option<Box<dyn crate::trace::TraceSink>>,
) -> Option<i64> {
    st.path.clear();
    let mut best: Option<i64> = None;
    descend(st, metric, 0, bound, budget, &mut best, stats, trace);
    best
}

#[allow(clippy::too_many_arguments)]
fn descend(
    st: &mut FxState,
    metric: MetricKind,
    pd: i64,
    bound: i64,
    budget: &mut FxBudget,
    best: &mut Option<i64>,
    stats: &mut crate::detector::DetectionStats,
    trace: &mut Option<Box<dyn crate::trace::TraceSink>>,
) {
    // Budget gate *before* charging this expansion, so an untripped
    // budget leaves every counter bit-identical to the unbudgeted run.
    if budget.tripping(stats) {
        return;
    }
    let depth = st.path.len();
    let m = st.fx.n_tx;
    let p = st.fx.order;
    stats.nodes_expanded += 1;
    stats.nodes_generated += p as u64;
    stats.per_level_generated[depth] += p as u64;
    if let Some(t) = trace.as_deref_mut() {
        t.on_expand(depth, 1, p as u64);
    }

    // Children of the current prefix: one scalar kernel row.
    let level = &st.fx.levels[depth];
    let mut wr = 0i32;
    let mut wi = 0i32;
    for off in 0..depth {
        let s = st.path[depth - 1 - off];
        let (ar, ai) = (level.a_re[off] as i32, level.a_im[off] as i32);
        let (sr, si) = (st.fx.sym_re[s] as i32, st.fx.sym_im[s] as i32);
        wr += ar * sr - ai * si;
        wi += ar * si + ai * sr;
    }
    st.inc.clear();
    st.inc.resize(p, 0);
    fx_metric_update(
        level.y_re - wr,
        level.y_im - wi,
        &level.seed_re,
        &level.seed_im,
        metric,
        &mut st.inc,
    );
    stats.flops += fx_level_ops(1, depth, p);
    st.children.clear();
    for c in 0..p {
        st.children.push((metric.combine(pd, st.inc[c]), c));
    }
    let mut children = std::mem::take(&mut st.children);
    children.sort_unstable();
    if let Some(t) = trace.as_deref_mut() {
        t.on_sort(depth, p as u64);
    }

    for (rank, &(child_pd, c)) in children.iter().enumerate() {
        if budget.tripped {
            break;
        }
        // Admissible cut: > the initial bound discards nothing ≤ bound;
        // ≥ the running best only discards non-improving leaves.
        if child_pd > bound || best.is_some_and(|b| child_pd >= b) {
            stats.nodes_pruned += (p - rank) as u64;
            if let Some(t) = trace.as_deref_mut() {
                t.on_prune(depth, (p - rank) as u64);
            }
            break;
        }
        if let Some(t) = trace.as_deref_mut() {
            t.on_accept(depth, 1);
        }
        st.path.push(c);
        if depth + 1 == m {
            stats.leaves_reached += 1;
            stats.radius_updates += 1;
            *best = Some(child_pd);
            st.best_path.clear();
            st.best_path.extend_from_slice(&st.path);
            if let Some(t) = trace.as_deref_mut() {
                t.on_radius_update(depth, child_pd as f64);
            }
        } else {
            descend(st, metric, child_pd, bound, budget, best, stats, trace);
        }
        st.path.pop();
    }
    st.children = children;
}

impl PreparedDetector<f64> for QuantizedSphereDecoder {
    fn constellation(&self) -> &Constellation {
        &self.constellation
    }

    fn channel_cacheable(&self) -> bool {
        true
    }

    fn initial_radius_sqr(&self, n_rx: usize, noise_variance: f64) -> f64 {
        self.initial_radius.resolve(n_rx, noise_variance)
    }

    fn detect_prepared_into(
        &self,
        prep: &Prepared<f64>,
        radius_sqr: f64,
        ws: &mut SearchWorkspace<f64>,
        out: &mut Detection,
    ) {
        self.decode_budgeted(prep, radius_sqr, &DecodeBudget::UNLIMITED, ws, out);
    }

    fn detect_prepared_budgeted_into(
        &self,
        prep: &Prepared<f64>,
        radius_sqr: f64,
        budget: &DecodeBudget,
        ws: &mut SearchWorkspace<f64>,
        out: &mut Detection,
    ) {
        self.decode_budgeted(prep, radius_sqr, budget, ws, out);
    }
}

impl QuantizedSphereDecoder {
    fn decode_budgeted(
        &self,
        prep: &Prepared<f64>,
        radius_sqr: f64,
        decode_budget: &DecodeBudget,
        ws: &mut SearchWorkspace<f64>,
        out: &mut Detection,
    ) {
        let m = prep.n_tx;
        ws.prepare(prep.order, m);
        out.stats.reset(m);
        let SearchWorkspace { fx: st, trace, .. } = ws;
        st.prepare(prep, self.metric);
        if let Some(t) = trace.as_deref_mut() {
            t.on_decode_start(m);
        }

        let mut fx_budget = FxBudget::from_budget(decode_budget);
        let mut bound = st.fx.fixed_bound(self.metric, radius_sqr);
        let mut best;
        loop {
            best = dfs_bounded(
                st,
                self.metric,
                bound,
                &mut fx_budget,
                &mut out.stats,
                trace,
            );
            if fx_budget.tripped {
                // Anytime exit: keep the best-so-far leaf, or complete
                // one greedily when the trip came before any leaf. The
                // spend is what the search cost *at the trip*; the
                // greedy completion's extra work still lands in the
                // plain counters. Never restart a truncated search.
                let spent = out.stats.nodes_generated;
                if best.is_none() {
                    best = Some(fx_greedy_leaf(st, self.metric, &mut out.stats));
                }
                out.stats.quality = SearchQuality::BudgetTruncated { nodes_spent: spent };
                break;
            }
            if best.is_some() || bound == i64::MAX {
                break;
            }
            out.stats.restarts += 1;
            assert!(out.stats.restarts < 64, "runaway quantized restart loop");
            if let Some(t) = trace.as_deref_mut() {
                t.on_restart();
            }
            bound = bound
                .saturating_mul(InitialRadius::RESTART_GROWTH as i64)
                .max(1);
        }
        let best = best.expect("infinite sphere always contains a leaf");
        out.stats.final_radius_sqr = st.fx.metric_to_f64(self.metric, best);
        out.stats.flops += prep.prep_flops;
        prep.indices_from_path_into(&st.best_path, &mut out.indices);
    }
}

impl_detector_via_prepared!(QuantizedSphereDecoder, "SD DFS fixed-i16");

#[cfg(test)]
mod tests {
    use super::*;
    use crate::detector::Detector;
    use crate::kbest::KBestSd;
    use crate::ml::MlDetector;
    use crate::preprocess::preprocess;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use sd_wireless::{noise_variance, FrameData, Modulation};

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
    fn quantization_is_reusable_and_deterministic() {
        let (c, fs) = frames(6, Modulation::Qam16, 12.0, 3, 1);
        let mut fx = FxPrepared::new();
        for f in &fs {
            let prep = preprocess::<f64>(f, &c);
            fx.quantize_from(&prep);
            let mut fx2 = FxPrepared::new();
            fx2.quantize_from(&prep);
            assert_eq!(fx.coef_scale, fx2.coef_scale);
            assert_eq!(fx.sym_re, fx2.sym_re);
            assert_eq!(
                fx.leaf_metric(&[0; 6], MetricKind::L2),
                fx2.leaf_metric(&[0; 6], MetricKind::L2)
            );
        }
    }

    #[test]
    fn quantized_dfs_matches_brute_force_both_metrics() {
        for (seed, m) in [(2u64, Modulation::Qam4), (3, Modulation::Qam16)] {
            let (c, fs) = frames(3, m, 10.0, 8, seed);
            for metric in [MetricKind::L2, MetricKind::LInf] {
                let sd = QuantizedSphereDecoder::new(c.clone()).with_metric(metric);
                for f in &fs {
                    let prep = preprocess::<f64>(f, &c);
                    let det = sd.detect_prepared(&prep, f64::INFINITY);
                    let mut fx = FxPrepared::new();
                    fx.quantize_from(&prep);
                    let (want, _) = fx.brute_force_min(metric);
                    // Undo the physical-order mapping to score the leaf.
                    let mut tree_path = vec![0usize; prep.n_tx];
                    for (d, slot) in tree_path.iter_mut().enumerate() {
                        *slot = det.indices[prep.perm[prep.n_tx - 1 - d]];
                    }
                    let got = fx.leaf_metric(&tree_path, metric);
                    assert_eq!(got, want, "fixed metric must be ML-min");
                }
            }
        }
    }

    #[test]
    fn quantized_kbest_full_width_is_fixed_ml() {
        // K ≥ P^M keeps everything: the K-best sweep must find the same
        // fixed-domain minimum as brute force.
        let (c, fs) = frames(3, Modulation::Qam4, 8.0, 10, 4);
        for metric in [MetricKind::L2, MetricKind::LInf] {
            let kb = QuantizedKBestSd::new(c.clone(), 64).with_metric(metric);
            for f in &fs {
                let prep = preprocess::<f64>(f, &c);
                let det = kb.detect_prepared(&prep, f64::INFINITY);
                let mut fx = FxPrepared::new();
                fx.quantize_from(&prep);
                let (want, _) = fx.brute_force_min(metric);
                let tree_path: Vec<usize> = (0..prep.n_tx)
                    .map(|d| det.indices[prep.perm[prep.n_tx - 1 - d]])
                    .collect();
                assert_eq!(fx.leaf_metric(&tree_path, metric), want);
            }
        }
    }

    #[test]
    fn quantized_kbest_tracks_float_kbest_closely() {
        // Same K, same frames: the quantized K-best should almost always
        // agree with the float K-best at moderate SNR (quantization noise
        // ≪ channel noise).
        let (c, fs) = frames(8, Modulation::Qam16, 18.0, 40, 5);
        let fkb: KBestSd<f64> = KBestSd::new(c.clone(), 16);
        let qkb = QuantizedKBestSd::new(c.clone(), 16);
        let mut disagreements = 0;
        for f in &fs {
            if fkb.detect(f).indices != qkb.detect(f).indices {
                disagreements += 1;
            }
        }
        assert!(
            disagreements <= 2,
            "quantized K-best diverged from float on {disagreements}/40 frames"
        );
    }

    #[test]
    fn quantized_dfs_l2_matches_float_ml_on_most_frames() {
        let (c, fs) = frames(4, Modulation::Qam16, 14.0, 30, 6);
        let qsd = QuantizedSphereDecoder::new(c.clone());
        let ml = MlDetector::new(c.clone());
        let mut disagreements = 0;
        for f in &fs {
            if qsd.detect(f).indices != ml.detect(f).indices {
                disagreements += 1;
            }
        }
        assert!(
            disagreements <= 2,
            "quantized DFS diverged from float ML on {disagreements}/30 frames"
        );
    }

    #[test]
    fn fsd_is_fixed_complexity_and_exact_when_everything_expands() {
        let (c, fs) = frames(4, Modulation::Qam4, 6.0, 10, 7);
        // n_fe = M: FSD degenerates to exhaustive search.
        let fsd = QuantizedFsd::new(c.clone()).with_full_expansion_levels(4);
        let mut gen_counts = std::collections::HashSet::new();
        for f in &fs {
            let prep = preprocess::<f64>(f, &c);
            let det = fsd.detect_prepared(&prep, f64::INFINITY);
            gen_counts.insert(det.stats.nodes_generated);
            let mut fx = FxPrepared::new();
            fx.quantize_from(&prep);
            let (want, _) = fx.brute_force_min(MetricKind::L2);
            let tree_path: Vec<usize> = (0..prep.n_tx)
                .map(|d| det.indices[prep.perm[prep.n_tx - 1 - d]])
                .collect();
            assert_eq!(fx.leaf_metric(&tree_path, MetricKind::L2), want);
        }
        assert_eq!(gen_counts.len(), 1, "workload must be data-independent");
    }

    #[test]
    fn fsd_workload_is_snr_independent() {
        let (c, lo) = frames(8, Modulation::Qam16, 4.0, 5, 8);
        let (_, hi) = frames(8, Modulation::Qam16, 24.0, 5, 8);
        let fsd = QuantizedFsd::new(c);
        let n_lo: u64 = lo.iter().map(|f| fsd.detect(f).stats.nodes_generated).sum();
        let n_hi: u64 = hi.iter().map(|f| fsd.detect(f).stats.nodes_generated).sum();
        assert_eq!(n_lo, n_hi);
    }

    #[test]
    fn bounded_search_empty_sphere_returns_none() {
        let (c, fs) = frames(3, Modulation::Qam4, 10.0, 3, 9);
        let sd = QuantizedSphereDecoder::new(c.clone());
        for f in &fs {
            let prep = preprocess::<f64>(f, &c);
            let mut fx = FxPrepared::new();
            fx.quantize_from(&prep);
            let (min, _) = fx.brute_force_min(MetricKind::L2);
            if min > 0 {
                assert!(sd.detect_prepared_bounded(&prep, min - 1).is_none());
            }
            let found = sd.detect_prepared_bounded(&prep, min);
            assert_eq!(found.expect("min leaf is in the sphere").0, min);
        }
    }

    #[test]
    fn restart_loop_recovers_from_tiny_radius() {
        let (c, fs) = frames(4, Modulation::Qam4, 10.0, 5, 10);
        let tight = QuantizedSphereDecoder::new(c.clone())
            .with_initial_radius(InitialRadius::ScaledNoise(1e-6));
        let open = QuantizedSphereDecoder::new(c.clone());
        for f in &fs {
            let a = tight.detect(f);
            let b = open.detect(f);
            assert_eq!(a.indices, b.indices, "restarts must not change the answer");
            assert!(a.stats.restarts > 0, "tiny radius must actually restart");
        }
    }

    #[test]
    fn stats_invariants_hold() {
        let (c, fs) = frames(5, Modulation::Qam16, 12.0, 5, 11);
        let engines: Vec<Box<dyn PreparedDetector<f64>>> = vec![
            Box::new(QuantizedKBestSd::new(c.clone(), 8)),
            Box::new(QuantizedFsd::new(c.clone())),
            Box::new(QuantizedSphereDecoder::new(c.clone())),
        ];
        for f in &fs {
            let prep = preprocess::<f64>(f, &c);
            for e in &engines {
                let det = e.detect_prepared(&prep, f64::INFINITY);
                assert_eq!(det.indices.len(), 5);
                assert!(det.stats.nodes_generated >= det.stats.nodes_pruned);
                assert!(det.stats.leaves_reached > 0);
                assert!(det.stats.flops > prep.prep_flops);
                assert!(det.stats.final_radius_sqr.is_finite());
                let total: u64 = det.stats.per_level_generated.iter().sum();
                assert_eq!(total, det.stats.nodes_generated);
            }
        }
    }

    #[test]
    fn linf_metric_is_max_of_level_increments() {
        let (c, fs) = frames(4, Modulation::Qam4, 8.0, 3, 12);
        for f in &fs {
            let prep = preprocess::<f64>(f, &c);
            let mut fx = FxPrepared::new();
            fx.quantize_from(&prep);
            let path = vec![1usize, 0, 3, 2];
            let linf = fx.leaf_metric(&path, MetricKind::LInf);
            let l2 = fx.leaf_metric(&path, MetricKind::L2);
            // ℓ∞ ≤ √ℓ2 (component max vs Euclidean norm, fixed grid).
            assert!((linf as f64) <= (l2 as f64).sqrt() + 1.0);
        }
    }

    #[test]
    #[should_panic(expected = "K must be positive")]
    fn zero_k_rejected() {
        let _ = QuantizedKBestSd::new(Constellation::new(Modulation::Qam4), 0);
    }

    /// An unexhausted budget must leave the quantized DFS bit-identical
    /// to the unbudgeted decode — indices, stats, metric bits.
    #[test]
    fn generous_budget_is_bit_identical_in_fixed_point() {
        use crate::engine::DecodeBudget;
        let (c, fs) = frames(6, Modulation::Qam16, 10.0, 10, 13);
        let sd = QuantizedSphereDecoder::new(c.clone());
        let mut ws = SearchWorkspace::new();
        let mut plain = Detection::default();
        let mut budgeted = Detection::default();
        for f in &fs {
            let prep = preprocess::<f64>(f, &c);
            sd.detect_prepared_into(&prep, f64::INFINITY, &mut ws, &mut plain);
            let budget = DecodeBudget::nodes(plain.stats.nodes_generated + 1);
            sd.detect_prepared_budgeted_into(&prep, f64::INFINITY, &budget, &mut ws, &mut budgeted);
            assert_eq!(budgeted, plain, "unexhausted budget must change nothing");
            assert_eq!(
                budgeted.stats.quality,
                crate::detector::SearchQuality::Exact
            );
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

    /// A tight budget truncates the quantized DFS, flags the result, and
    /// still returns a complete vector whose reported metric matches it.
    #[test]
    fn exhausted_budget_truncates_quantized_dfs() {
        use crate::detector::SearchQuality;
        use crate::engine::DecodeBudget;
        let (c, fs) = frames(8, Modulation::Qam4, 4.0, 20, 14);
        let sd = QuantizedSphereDecoder::new(c.clone());
        let mut ws = SearchWorkspace::new();
        let mut out = Detection::default();
        let mut saw_truncation = false;
        for f in &fs {
            let prep = preprocess::<f64>(f, &c);
            let full = sd.detect_prepared(&prep, f64::INFINITY);
            let budget = DecodeBudget::nodes(full.stats.nodes_generated / 2);
            sd.detect_prepared_budgeted_into(&prep, f64::INFINITY, &budget, &mut ws, &mut out);
            assert_eq!(out.indices.len(), 8, "always a complete vector");
            if let SearchQuality::BudgetTruncated { nodes_spent } = out.stats.quality {
                saw_truncation = true;
                assert!(nodes_spent >= budget.max_nodes);
                // The reported radius is the returned leaf's fixed metric,
                // and an anytime answer can never beat the exact one.
                let mut fx = FxPrepared::new();
                fx.quantize_from(&prep);
                let tree_path: Vec<usize> = (0..prep.n_tx)
                    .map(|d| out.indices[prep.perm[prep.n_tx - 1 - d]])
                    .collect();
                let leaf = fx.leaf_metric(&tree_path, MetricKind::L2);
                let reported = fx.fixed_bound(MetricKind::L2, out.stats.final_radius_sqr);
                assert!((leaf - reported).abs() <= 1);
                assert!(out.stats.final_radius_sqr >= full.stats.final_radius_sqr - 1e-12);
            }
        }
        assert!(saw_truncation, "half-spend budgets must trip somewhere");
    }

    /// A zero-node budget degenerates to the greedy (SIC) completion:
    /// one leaf, complete vector, flagged truncated.
    #[test]
    fn zero_budget_is_greedy_completion_in_fixed_point() {
        use crate::engine::DecodeBudget;
        let (c, fs) = frames(6, Modulation::Qam4, 10.0, 5, 15);
        let sd = QuantizedSphereDecoder::new(c.clone());
        let mut ws = SearchWorkspace::new();
        let mut out = Detection::default();
        for f in &fs {
            let prep = preprocess::<f64>(f, &c);
            sd.detect_prepared_budgeted_into(
                &prep,
                f64::INFINITY,
                &DecodeBudget::nodes(0),
                &mut ws,
                &mut out,
            );
            assert_eq!(out.indices.len(), 6);
            assert_eq!(out.stats.leaves_reached, 1, "exactly the greedy leaf");
            assert!(out.stats.quality.is_truncated());
        }
    }
}
