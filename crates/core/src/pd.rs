//! Partial-distance (PD) evaluation — Phase 2 of the paper's pipeline.
//!
//! Expanding a node at depth `ℓ` (antenna `i = M−1−ℓ`) generates the `P`
//! children obtained by trying every constellation point for `s_i`; each
//! child's PD increment is (Eq. 6)
//!
//! ```text
//! g = | ȳ_i − Σ_{j ≥ i} r_{ij} s_j |²
//! ```
//!
//! Two evaluation strategies are provided:
//!
//! * [`EvalStrategy::Gemm`] — the paper's compute-bound refactoring: the
//!   row block `R[i, i..M]` is multiplied against the *tree-state matrix*
//!   `S` whose `P` columns are the candidate symbol vectors. The suffix
//!   sum is recomputed for every child — more flops, but one dense
//!   Level-3 kernel per expansion, which is what the FPGA systolic array
//!   and the MKL/GPU baselines execute. On the CPU the kernel holds the
//!   `P` child accumulators in SoA re/im lanes and loops
//!   suffix-term-outer, children-inner: each `(r_ij, s_j)` pair is read
//!   once and fed to every child, the suffix symbols come straight from
//!   the path (no gather), and with the order fixed at compile time the
//!   children loop is fixed-width vector code. Each child's own FMA
//!   sequence is unchanged — the seed `r_ii·ω_c` from zero, then
//!   `j = i+1..M−1` in order, each term as [`Complex::mul_acc`] — so the
//!   increments are bit-identical to the per-child scalar loop.
//! * [`EvalStrategy::Incremental`] — the classic memory-bound SD
//!   evaluation: the suffix sum `b = ȳ_i − Σ_{j>i} r_{ij} s_j` is computed
//!   once and each child costs one scalar MAC. Used as the ablation
//!   contrast to quantify what the refactoring trades.
//!
//! Both produce identical increments (up to rounding) and are
//! cross-checked by tests.
//!
//! ## Arena and batched entry points
//!
//! The arena-based searches ([`crate::arena`]) never materialize paths, so
//! [`eval_children_from_arena`] reads the suffix straight off the parent
//! chain. Level-synchronous searches (BFS, K-best) go further with
//! [`eval_children_batch`]: the tree-state matrices of up to
//! [`MAX_BATCH`] open nodes at the same level form one `k × (B·P)` suffix
//! operand — held in compressed broadcast form, since each node's fixed
//! suffix symbol spans its `P` child columns — the output row is seeded
//! with the level-constant diagonal products `r_ii·ω_c`, and a *single*
//! [`sd_math::gemm_broadcast_acc_into`] call accumulates the suffix terms
//! — the software realization of the paper's "one GEMM per level" claim
//! instead of one small GEMM per node. The seed equals the scalar loop's
//! first `mul_acc` from zero and the kernels accumulate each output
//! column left-to-right over the inner dimension, exactly like the scalar
//! loop here, so the batched increments are bit-identical to per-node
//! evaluation.

use crate::arena::NodeArena;
use crate::preprocess::Prepared;
use sd_math::{gemm_acc_into, gemm_broadcast_acc_into, Complex, Float, GemmAlgo};
use serde::{Deserialize, Serialize};

/// Child PD evaluation strategy.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub enum EvalStrategy {
    /// GEMM-based, compute-bound (the paper's formulation).
    #[default]
    Gemm,
    /// Incremental, memory-bound (classic SD).
    Incremental,
}

/// Cap on nodes folded into one batched GEMM call. Bounds the per-chunk
/// output row `E` to `1 × (MAX_BATCH·P)` and the compressed tree-state
/// operand to `M × MAX_BATCH` — tens of KiB, matching the paper's
/// double-buffered on-chip tile budget — while leaving the kernel enough
/// columns to amortize its per-tile setup.
pub const MAX_BATCH: usize = 128;

/// Scratch buffers reused across expansions of one decode — the software
/// analogue of the FPGA's double-buffered BRAM blocks.
pub struct PdScratch<F: Float> {
    /// Per-child metric increments (length `P`).
    pub increments: Vec<F>,
    /// Per-child increments of a batched evaluation, laid out
    /// `[node 0's P children, node 1's P children, …]`.
    pub batch_increments: Vec<F>,
    /// Batched tree-state operand `S` in compressed broadcast form,
    /// `k × B`: entry `(off, bi)` is node `bi`'s fixed symbol for suffix
    /// level `off`, implicitly spanning the node's `P` child columns.
    s_mat: sd_math::Matrix<F>,
    /// Width-`P` materialization of `s_mat`, `k × (B·P)` — only built by
    /// the [`GemmAlgo::Naive`] oracle path.
    s_wide: sd_math::Matrix<F>,
    /// Batched GEMM output `E`, `1 × (B·P)`, seeded with the diagonal
    /// products `r_ii·ω_c` before the suffix rows accumulate.
    e_mat: sd_math::Matrix<F>,
    /// The level's suffix coefficients `R[i, i+1..M]`, `1 × k`.
    a_tail: sd_math::Matrix<F>,
    /// Diagonal products `r_ii·ω_c`, one per constellation point.
    seeds: Vec<Complex<F>>,
}

impl<F: Float> PdScratch<F> {
    /// Allocate scratch for a problem with branching factor `order`.
    pub fn new(order: usize) -> Self {
        let mut s = Self::empty();
        s.ensure(order);
        s
    }

    /// Zero-capacity scratch; size it later with [`PdScratch::ensure`].
    pub fn empty() -> Self {
        PdScratch {
            increments: Vec::new(),
            batch_increments: Vec::new(),
            s_mat: sd_math::Matrix::zeros(0, 0),
            s_wide: sd_math::Matrix::zeros(0, 0),
            e_mat: sd_math::Matrix::zeros(0, 0),
            a_tail: sd_math::Matrix::zeros(0, 0),
            seeds: Vec::new(),
        }
    }

    /// Size the buffers for branching factor `order`, allocating only on
    /// growth.
    pub fn ensure(&mut self, order: usize) {
        self.increments.clear();
        self.increments.resize(order, F::ZERO);
    }
}

/// Children per SoA lane block of the [`EvalStrategy::Gemm`] kernel: the
/// largest stock constellation order, so every order the exact DFS
/// monomorphises on is evaluated as one block.
const LANES: usize = 64;

/// The branching factor a kernel instance works at: the compile-time `P`
/// when the caller monomorphised on the constellation order, `prep.order`
/// when `P == 0` (the same code, with a run-time trip count).
#[inline(always)]
pub(crate) fn order_of<F: Float, const P: usize>(prep: &Prepared<F>) -> usize {
    if P == 0 {
        prep.order
    } else {
        debug_assert_eq!(prep.order, P, "kernel monomorphised for another order");
        P
    }
}

/// Evaluate `$body` with the const `$p` bound to `$order` when it is a
/// stock constellation order (2, 4, 16, 64) and to `0` — "read
/// `prep.order` at run time" — otherwise: the one place the order-specialised
/// monomorphs are chosen.
macro_rules! with_order {
    ($order:expr, $p:ident => $body:expr) => {
        match $order {
            2 => {
                const $p: usize = 2;
                $body
            }
            4 => {
                const $p: usize = 4;
                $body
            }
            16 => {
                const $p: usize = 16;
                $body
            }
            64 => {
                const $p: usize = 64;
                $body
            }
            _ => {
                const $p: usize = 0;
                $body
            }
        }
    };
}
pub(crate) use with_order;

/// Evaluate the `P` child PD increments of the node identified by `path`.
///
/// `path[d]` is the constellation index fixed at depth `d`, i.e. antenna
/// `M−1−d`. The expansion happens at depth `path.len()`. Returns the
/// number of real flops charged; increments land in
/// `scratch.increments`.
pub fn eval_children<F: Float>(
    prep: &Prepared<F>,
    path: &[usize],
    strategy: EvalStrategy,
    scratch: &mut PdScratch<F>,
) -> u64 {
    with_order!(prep.order, P => eval_children_at::<F, P>(prep, path, strategy, scratch))
}

/// [`eval_children`] with the branching factor fixed at compile time
/// (`P == 0`: read `prep.order`) — the form the exact DFS walker calls
/// from its order-specialised monomorphs; [`eval_children`] picks the
/// monomorph per call.
#[inline(always)]
pub(crate) fn eval_children_at<F: Float, const P: usize>(
    prep: &Prepared<F>,
    path: &[usize],
    strategy: EvalStrategy,
    scratch: &mut PdScratch<F>,
) -> u64 {
    let depth = path.len();
    assert!(depth < prep.n_tx, "cannot expand a leaf");
    // path[d] fixed antenna M−1−d, so walking the path backwards yields
    // the suffix s_{i+1}, s_{i+2}, … in PD order — read in place, never
    // gathered.
    eval_suffix::<F, P>(
        prep,
        depth,
        path.iter().rev().copied(),
        strategy,
        &mut scratch.increments,
    )
}

/// [`eval_children`] for an arena node — the suffix is read straight off
/// the parent chain (which yields symbols deepest-first, exactly the PD
/// suffix order), so no path is ever materialized.
pub fn eval_children_from_arena<F: Float>(
    prep: &Prepared<F>,
    arena: &NodeArena,
    node: u32,
    strategy: EvalStrategy,
    scratch: &mut PdScratch<F>,
) -> u64 {
    let depth = arena.depth(node);
    assert!(depth < prep.n_tx, "cannot expand a leaf");
    let increments = &mut scratch.increments;
    with_order!(prep.order, P => {
        eval_suffix::<F, P>(prep, depth, arena.ancestry(node), strategy, increments)
    })
}

/// Shared core of the scalar entry points: `suffix` yields the symbol
/// indices of `s_{i+1} … s_{M−1}` (deepest-first); evaluate all `P`
/// increments into `increments`. The module doc describes the
/// [`EvalStrategy::Gemm`] arm's lane layout and why it is bit-identical.
#[inline(always)]
fn eval_suffix<F: Float, const P: usize>(
    prep: &Prepared<F>,
    depth: usize,
    suffix: impl Iterator<Item = usize> + Clone,
    strategy: EvalStrategy,
    increments: &mut [F],
) -> u64 {
    let m = prep.n_tx;
    let i = m - 1 - depth; // antenna index fixed by this expansion
    let p = order_of::<F, P>(prep);
    let increments = &mut increments[..p];

    let ybar_i = prep.ybar[i];
    let r_row = prep.r.row(i);
    let r_ii = r_row[i];
    // R[i, i+1..M]: suffix level `off` pairs with r_{i,i+1+off}.
    let r_tail = &r_row[i + 1..];
    debug_assert_eq!(r_tail.len(), depth);

    match strategy {
        EvalStrategy::Gemm => {
            // One (1 × k+1) · (k+1 × P) product: for every child, the full
            // suffix sum is recomputed inside the dense kernel.
            let mut base = 0;
            while base < p {
                let w = (p - base).min(LANES);
                let mut lane_re = [F::ZERO; LANES];
                let mut lane_im = [F::ZERO; LANES];
                let (re, im) = (&mut lane_re[..w], &mut lane_im[..w]);
                for ((lr, li), &point) in re
                    .iter_mut()
                    .zip(im.iter_mut())
                    .zip(&prep.points[base..base + w])
                {
                    mul_acc_lane(lr, li, r_ii, point);
                }
                for (&a, sym) in r_tail.iter().zip(suffix.clone()) {
                    let s = prep.points[sym];
                    for (lr, li) in re.iter_mut().zip(im.iter_mut()) {
                        mul_acc_lane(lr, li, a, s);
                    }
                }
                for ((inc, &lr), &li) in increments[base..base + w].iter_mut().zip(&*re).zip(&*im) {
                    *inc = (ybar_i - Complex::new(lr, li)).norm_sqr();
                }
                base += LANES;
            }
            // 8 real flops per complex MAC, (depth+1) MACs per child, plus
            // the subtraction + norm (≈ 5 flops) per child.
            (p as u64) * (8 * (depth as u64 + 1) + 5)
        }
        EvalStrategy::Incremental => {
            // Suffix sum once …
            let mut b = ybar_i;
            for (&a, sym) in r_tail.iter().zip(suffix) {
                let delta = a * prep.points[sym];
                b -= delta;
            }
            // … then one MAC per child.
            for (inc, &point) in increments.iter_mut().zip(&prep.points) {
                let e = r_ii * point;
                *inc = (b - e).norm_sqr();
            }
            8 * depth as u64 + (p as u64) * 13
        }
    }
}

/// One [`Complex::mul_acc`] on an SoA lane pair: the same four fused
/// multiply-adds, in the same order, as on an array-of-structs value.
#[inline(always)]
fn mul_acc_lane<F: Float>(re: &mut F, im: &mut F, a: Complex<F>, b: Complex<F>) {
    let mut acc = Complex::new(*re, *im);
    Complex::mul_acc(&mut acc, a, b);
    *re = acc.re;
    *im = acc.im;
}

/// Evaluate the children of a whole *level* of arena nodes with batched
/// GEMM: the tree-state matrices of all `B = nodes.len()` open nodes form
/// one `k × (B·P)` suffix operand `S`, held in compressed broadcast form
/// (`k × B` — each node's fixed suffix symbol spans its `P` child
/// columns); the output `E` is seeded with the level-constant diagonal
/// products `r_ii·ω_c` and the suffix rows accumulate on top via one
/// [`sd_math::gemm_broadcast_acc_into`] call against `A' = R[i, i+1..M]`,
/// in chunks of at most [`MAX_BATCH`] nodes. The compressed operand is
/// what makes the batch fast: materializing `S` costs `P ×` more stores
/// than the whole fma chain (see `sd-math`'s kernel docs), and the
/// broadcast kernel is bit-identical to materializing
/// (`sd_math::fill_tiles`) and calling [`sd_math::gemm_acc_into`] — a
/// property both crates' tests pin down exactly.
///
/// All nodes must sit at the same tree depth (level-synchronous searches
/// guarantee this). Results land in `scratch.batch_increments`, child `c`
/// of `nodes[b]` at index `b·P + c`, and are bit-identical to evaluating
/// each node with [`eval_children_from_arena`] under
/// [`EvalStrategy::Gemm`]: the seed is the scalar loop's first `mul_acc`
/// from zero, and every kernel accumulates each output column
/// left-to-right over the inner dimension, matching the scalar loop's
/// summation order term for term.
///
/// Returns the flops charged — exactly `B ×` the per-node GEMM formula,
/// so batching never changes [`crate::DetectionStats`] accounting.
pub fn eval_children_batch<F: Float>(
    prep: &Prepared<F>,
    arena: &NodeArena,
    nodes: &[u32],
    algo: GemmAlgo,
    scratch: &mut PdScratch<F>,
) -> u64 {
    let m = prep.n_tx;
    let p = prep.order;
    assert!(!nodes.is_empty(), "empty batch");
    let depth = arena.depth(nodes[0]);
    assert!(depth < m, "cannot expand a leaf");
    let k1 = depth + 1;
    let a_row = &prep.row_blocks[depth];
    debug_assert_eq!(a_row.shape(), (1, k1));
    let ybar_i = prep.ybar[m - 1 - depth];
    let r_ii = a_row.as_slice()[0];

    // The diagonal term r_ii·ω_c is the same for every node of the level:
    // compute the P seed products once (the scalar loop's first
    // `mul_acc` from zero, so seeding E with them and accumulating the
    // suffix rows is bit-identical to the full per-node product).
    scratch.seeds.clear();
    for &point in prep.points.iter() {
        let mut e = Complex::zero();
        Complex::mul_acc(&mut e, r_ii, point);
        scratch.seeds.push(e);
    }
    // The level's suffix coefficients A' = R[i, i+1..M].
    scratch.a_tail.resize_for_overwrite(1, depth);
    scratch
        .a_tail
        .as_mut_slice()
        .copy_from_slice(&a_row.as_slice()[1..]);

    // Grow-only resize: every element is overwritten chunk by chunk below.
    if scratch.batch_increments.len() != nodes.len() * p {
        scratch.batch_increments.clear();
        scratch.batch_increments.resize(nodes.len() * p, F::ZERO);
    }

    for (chunk_idx, chunk) in nodes.chunks(MAX_BATCH).enumerate() {
        let b = chunk.len();
        let n = b * p;
        // Every S entry and every E entry is written below, so neither
        // operand pays `resize`'s zero-fill pass.
        scratch.s_mat.resize_for_overwrite(depth, b);
        scratch.e_mat.resize_for_overwrite(1, n);
        // Gather each node's suffix (ancestry is deepest-first = the PD
        // suffix order) straight into the compressed operand: row `off`,
        // column `bi` holds node `bi`'s fixed symbol for suffix level
        // `off`, implicitly spanning the node's P child columns.
        let s = scratch.s_mat.as_mut_slice();
        for (bi, &node) in chunk.iter().enumerate() {
            debug_assert_eq!(arena.depth(node), depth, "batch must be level-synchronous");
            for (off, sym) in arena.ancestry(node).enumerate() {
                s[off * b + bi] = prep.points[sym];
            }
        }
        // Seed E with the diagonal products, tiled across the batch.
        for tile in scratch.e_mat.as_mut_slice().chunks_exact_mut(p) {
            tile.copy_from_slice(&scratch.seeds);
        }
        // One accumulate-GEMM per level: E += A' × (S ⊗ 1ᵀ_P). At the
        // root (depth 0) the operands are empty and E is already the
        // answer. `Naive` materializes the width-P operand and runs the
        // reference kernel — the oracle formulation the fast paths are
        // tested against; `Blocked`/`Parallel` consume the compressed
        // operand directly.
        match algo {
            GemmAlgo::Naive => {
                scratch.s_wide.resize_for_overwrite(depth, n);
                let sw = scratch.s_wide.as_mut_slice();
                let sv = scratch.s_mat.as_slice();
                for off in 0..depth {
                    sd_math::fill_tiles(
                        &mut sw[off * n..(off + 1) * n],
                        &sv[off * b..(off + 1) * b],
                        p,
                    );
                }
                gemm_acc_into(&scratch.a_tail, &scratch.s_wide, &mut scratch.e_mat, algo);
            }
            GemmAlgo::Blocked | GemmAlgo::Parallel => {
                gemm_broadcast_acc_into(&scratch.a_tail, &scratch.s_mat, p, &mut scratch.e_mat);
            }
        }
        let e = scratch.e_mat.as_slice();
        let base = chunk_idx * MAX_BATCH * p;
        let out = &mut scratch.batch_increments[base..base + n];
        for (o, &ev) in out.iter_mut().zip(e) {
            *o = (ybar_i - ev).norm_sqr();
        }
    }

    (nodes.len() as u64) * (p as u64) * (8 * (depth as u64 + 1) + 5)
}

/// Cross-subcarrier fused form of [`eval_children_batch`]: one GEMM batch
/// per tree level for a whole coherence block.
///
/// `nodes` stacks the same-depth frontiers of `nodes.len() / stride`
/// subcarriers, subcarrier-major with exactly `stride` nodes each;
/// `ybars[sc]` is subcarrier `sc`'s received component `ȳ_i` for this
/// level. All subcarriers must share `prep`'s channel factorization
/// (`R`, hence `row_blocks`, `points` and the seeds) — the coherence-block
/// invariant — because the GEMM operand stacks their tree states against
/// the ONE suffix row `A' = R[i, i+1..M]`.
///
/// Exactness: ȳ never enters the GEMM. Every output column accumulates
/// independently (the stacking lemma pinned by
/// [`sd_math::gemm_broadcast_acc_stacked_into`]), and the per-subcarrier
/// ȳ is subtracted column-wise afterwards, so node `bi`'s increments are
/// bit-identical to a per-subcarrier [`eval_children_batch`] call on its
/// own frontier — chunk boundaries included, since chunking only splits
/// columns. Chunks are drawn at whole-subcarrier granularity (the largest
/// multiple of `stride` under [`MAX_BATCH`], or one subcarrier when
/// `stride` exceeds it) so each kernel call is a clean stack of blocks.
///
/// Returns the flops charged for the whole fused level — linear in the
/// node count, so callers can attribute `stride · P · (8(depth+1) + 5)`
/// to each subcarrier and reproduce the per-subcarrier accounting
/// exactly.
pub fn eval_children_batch_fused<F: Float>(
    prep: &Prepared<F>,
    arena: &NodeArena,
    nodes: &[u32],
    ybars: &[Complex<F>],
    stride: usize,
    algo: GemmAlgo,
    scratch: &mut PdScratch<F>,
) -> u64 {
    let m = prep.n_tx;
    let p = prep.order;
    assert!(!nodes.is_empty(), "empty batch");
    assert!(stride > 0, "empty per-subcarrier frontier");
    assert_eq!(
        nodes.len(),
        ybars.len() * stride,
        "fused batch must stack equal frontiers"
    );
    let depth = arena.depth(nodes[0]);
    assert!(depth < m, "cannot expand a leaf");
    let a_row = &prep.row_blocks[depth];
    debug_assert_eq!(a_row.shape(), (1, depth + 1));
    let r_ii = a_row.as_slice()[0];

    scratch.seeds.clear();
    for &point in prep.points.iter() {
        let mut e = Complex::zero();
        Complex::mul_acc(&mut e, r_ii, point);
        scratch.seeds.push(e);
    }
    scratch.a_tail.resize_for_overwrite(1, depth);
    scratch
        .a_tail
        .as_mut_slice()
        .copy_from_slice(&a_row.as_slice()[1..]);

    if scratch.batch_increments.len() != nodes.len() * p {
        scratch.batch_increments.clear();
        scratch.batch_increments.resize(nodes.len() * p, F::ZERO);
    }

    // Whole subcarriers per chunk: ⌊MAX_BATCH / stride⌋ of them, floored
    // at one so oversized frontiers still fuse (one block per call).
    let sc_per_chunk = (MAX_BATCH / stride).max(1);
    let chunk_nodes = sc_per_chunk * stride;
    for (chunk_idx, chunk) in nodes.chunks(chunk_nodes).enumerate() {
        let b = chunk.len();
        let n = b * p;
        scratch.s_mat.resize_for_overwrite(depth, b);
        scratch.e_mat.resize_for_overwrite(1, n);
        let s = scratch.s_mat.as_mut_slice();
        for (bi, &node) in chunk.iter().enumerate() {
            debug_assert_eq!(arena.depth(node), depth, "batch must be level-synchronous");
            for (off, sym) in arena.ancestry(node).enumerate() {
                s[off * b + bi] = prep.points[sym];
            }
        }
        for tile in scratch.e_mat.as_mut_slice().chunks_exact_mut(p) {
            tile.copy_from_slice(&scratch.seeds);
        }
        match algo {
            GemmAlgo::Naive => {
                scratch.s_wide.resize_for_overwrite(depth, n);
                let sw = scratch.s_wide.as_mut_slice();
                let sv = scratch.s_mat.as_slice();
                for off in 0..depth {
                    sd_math::fill_tiles(
                        &mut sw[off * n..(off + 1) * n],
                        &sv[off * b..(off + 1) * b],
                        p,
                    );
                }
                gemm_acc_into(&scratch.a_tail, &scratch.s_wide, &mut scratch.e_mat, algo);
            }
            GemmAlgo::Blocked | GemmAlgo::Parallel => {
                sd_math::gemm_broadcast_acc_stacked_into(
                    &scratch.a_tail,
                    &scratch.s_mat,
                    p,
                    b / stride,
                    &mut scratch.e_mat,
                );
            }
        }
        let e = scratch.e_mat.as_slice();
        let base = chunk_idx * chunk_nodes * p;
        let out = &mut scratch.batch_increments[base..base + n];
        for (local_bi, node_out) in out.chunks_exact_mut(p).enumerate() {
            let sc = (chunk_idx * chunk_nodes + local_bi) / stride;
            let ybar_i = ybars[sc];
            for (o, &ev) in node_out.iter_mut().zip(&e[local_bi * p..]) {
                *o = (ybar_i - ev).norm_sqr();
            }
        }
    }

    (nodes.len() as u64) * (p as u64) * (8 * (depth as u64 + 1) + 5)
}

/// Greedy (successive-interference-cancellation) completion of a partial
/// path: extend `path` to a leaf by taking the locally best child at each
/// remaining level, charging the search stats as it goes. Returns the
/// completed leaf's partial distance, starting from `pd0`.
///
/// This is the shared best-so-far finisher of the budget-truncated
/// breadth-first engines — both the per-subcarrier and the fused block
/// paths call it, which is what keeps their truncated outputs
/// bit-identical. Ties take the lowest child index (strict `<` scan).
pub(crate) fn greedy_tail<F: Float>(
    prep: &Prepared<F>,
    path: &mut Vec<usize>,
    pd0: F,
    stats: &mut crate::detector::DetectionStats,
    scratch: &mut PdScratch<F>,
) -> F {
    let m = prep.n_tx;
    let p = prep.order;
    let mut pd = pd0;
    for depth in path.len()..m {
        stats.flops += eval_children(prep, path, EvalStrategy::Gemm, scratch);
        stats.nodes_expanded += 1;
        stats.nodes_generated += p as u64;
        stats.per_level_generated[depth] += p as u64;
        let mut best_c = 0usize;
        let mut best_inc = scratch.increments[0];
        for (c, &inc) in scratch.increments.iter().enumerate().skip(1) {
            if inc < best_inc {
                best_c = c;
                best_inc = inc;
            }
        }
        pd += best_inc;
        path.push(best_c);
    }
    pd
}

/// Write `(increment, child_index)` pairs into `out` (same length as
/// `increments`) ascending by increment, ties broken by child index — the
/// order of [`sorted_children_into`] and of the paper's sorted insertion.
/// The key (`to_f64().total_cmp`, then index) is a total order, so every
/// correct sort puts each child in the same slot.
///
/// This one is a branchless rank sort: a child's slot is the number of
/// siblings ordered before it — earlier siblings whose key is `≤` its own,
/// later ones whose key is `<`. Its `P²` compares are integer ops with no
/// data-dependent branch, and for a constant `P` they vectorise. Against
/// an insertion sort it is faster at 4 and 64 children and ~7% slower at
/// 16; the insertion sort's mispredicted exits made 64-QAM slower than the
/// general sort this replaced. NaN increments (possible in reduced
/// precision) order last via the `total_cmp` key instead of panicking.
#[inline(always)]
pub(crate) fn sort_children<F: Float>(increments: &[F], out: &mut [(F, usize)]) {
    debug_assert_eq!(increments.len(), out.len());
    /// `f64::total_cmp`'s key: the bits as a signed integer, with the
    /// magnitude bits flipped for negative values.
    #[inline(always)]
    fn key<F: Float>(x: F) -> i64 {
        let b = x.to_f64().to_bits() as i64;
        b ^ ((((b >> 63) as u64) >> 1) as i64)
    }
    for (c, &inc) in increments.iter().enumerate() {
        let k = key(inc);
        let before = increments[..c].iter().filter(|&&o| key(o) <= k).count();
        let after = increments[c + 1..].iter().filter(|&&o| key(o) < k).count();
        out[before + after] = (inc, c);
    }
}

/// [`sorted_children`] into a caller-owned buffer — the allocation-free
/// form the subtree-parallel searches use.
pub fn sorted_children_into<F: Float>(increments: &[F], out: &mut Vec<(F, usize)>) {
    out.clear();
    out.resize(increments.len(), (F::ZERO, 0));
    sort_children(increments, out);
}

/// Sort child indices ascending by increment — the paper's sorted
/// insertion (Fig. 3) that biases the traversal toward promising leaves.
/// Returns `(increment, child_index)` pairs.
pub fn sorted_children<F: Float>(increments: &[F]) -> Vec<(F, usize)> {
    let mut order = Vec::new();
    sorted_children_into(increments, &mut order);
    order
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::arena::NIL;
    use crate::preprocess::preprocess;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use sd_wireless::{Constellation, FrameData, Modulation};

    fn setup(n: usize, m: Modulation, seed: u64) -> (Constellation, Prepared<f64>) {
        let c = Constellation::new(m);
        let mut rng = StdRng::seed_from_u64(seed);
        let f = FrameData::generate(n, n, &c, 0.2, &mut rng);
        let prep = preprocess(&f, &c);
        (c, prep)
    }

    #[test]
    fn strategies_agree() {
        let (_, prep) = setup(6, Modulation::Qam16, 1);
        let mut s1 = PdScratch::new(16);
        let mut s2 = PdScratch::new(16);
        let paths: [&[usize]; 4] = [&[], &[3], &[3, 7], &[0, 15, 8, 2, 11]];
        for path in paths {
            eval_children(&prep, path, EvalStrategy::Gemm, &mut s1);
            eval_children(&prep, path, EvalStrategy::Incremental, &mut s2);
            for (a, b) in s1.increments.iter().zip(s2.increments.iter()) {
                assert!((a - b).abs() < 1e-10, "path {path:?}: {a} vs {b}");
            }
        }
    }

    #[test]
    fn arena_eval_is_bit_identical_to_path_eval() {
        let (_, prep) = setup(6, Modulation::Qam16, 6);
        let mut arena = NodeArena::new();
        let mut s1 = PdScratch::new(16);
        let mut s2 = PdScratch::new(16);
        let path = [0usize, 15, 8, 2, 11];
        let mut id = NIL;
        for strategy in [EvalStrategy::Gemm, EvalStrategy::Incremental] {
            for depth in 0..=path.len() {
                let f1 = eval_children(&prep, &path[..depth], strategy, &mut s1);
                let f2 = eval_children_from_arena(&prep, &arena, id, strategy, &mut s2);
                assert_eq!(f1, f2, "flops must match");
                assert_eq!(s1.increments, s2.increments, "depth {depth}");
                if depth < path.len() {
                    id = arena.alloc(id, path[depth]);
                }
            }
            arena.clear();
            id = NIL;
        }
    }

    #[test]
    fn batched_eval_is_bit_identical_per_node() {
        // A level of heterogeneous nodes: batch once, compare every node's
        // slice against its scalar arena evaluation, bit for bit.
        let (_, prep) = setup(7, Modulation::Qam16, 7);
        let p = 16;
        let mut arena = NodeArena::new();
        let mut nodes = Vec::new();
        for c0 in 0..8 {
            let a = arena.alloc(NIL, c0);
            let b = arena.alloc(a, (c0 + 5) % p);
            nodes.push(arena.alloc(b, (3 * c0) % p));
        }
        let mut batch = PdScratch::new(p);
        let mut scalar = PdScratch::new(p);
        for algo in [GemmAlgo::Naive, GemmAlgo::Blocked, GemmAlgo::Parallel] {
            let flops = eval_children_batch(&prep, &arena, &nodes, algo, &mut batch);
            let mut scalar_flops = 0;
            for (bi, &node) in nodes.iter().enumerate() {
                scalar_flops +=
                    eval_children_from_arena(&prep, &arena, node, EvalStrategy::Gemm, &mut scalar);
                for c in 0..p {
                    assert_eq!(
                        batch.batch_increments[bi * p + c],
                        scalar.increments[c],
                        "{algo:?} node {bi} child {c} must be bit-identical"
                    );
                }
            }
            assert_eq!(
                flops, scalar_flops,
                "{algo:?}: batching must not change accounting"
            );
        }
    }

    #[test]
    fn batched_eval_chunks_beyond_max_batch() {
        // More level-1 nodes than MAX_BATCH forces the chunk loop; QAM-4
        // at depth 1 keeps it cheap (root fan-out repeated).
        let (_, prep) = setup(4, Modulation::Qam4, 8);
        let p = 4;
        let mut arena = NodeArena::new();
        let nodes: Vec<u32> = (0..MAX_BATCH + 37)
            .map(|i| arena.alloc(NIL, i % p))
            .collect();
        let mut batch = PdScratch::new(p);
        let mut scalar = PdScratch::new(p);
        eval_children_batch(&prep, &arena, &nodes, GemmAlgo::Blocked, &mut batch);
        assert_eq!(batch.batch_increments.len(), nodes.len() * p);
        for (bi, &node) in nodes.iter().enumerate() {
            eval_children_from_arena(&prep, &arena, node, EvalStrategy::Gemm, &mut scalar);
            assert_eq!(
                &batch.batch_increments[bi * p..(bi + 1) * p],
                &scalar.increments[..],
                "chunk boundary node {bi}"
            );
        }
    }

    #[test]
    fn fused_eval_is_bit_identical_per_subcarrier() {
        // Stack several subcarriers' frontiers (each with its own ȳ) and
        // compare every subcarrier's slice against its own
        // eval_children_batch run — bit for bit, across chunk boundaries.
        let c = Constellation::new(Modulation::Qam4);
        let mut rng = StdRng::seed_from_u64(11);
        let n = 6;
        let p = 4;
        let base = FrameData::generate(n, n, &c, 0.1, &mut rng);
        // Per-subcarrier preps sharing one H: regenerate y on a fixed H.
        let preps: Vec<Prepared<f64>> = (0..5)
            .map(|_| {
                let mut f = FrameData::generate(n, n, &c, 0.1, &mut rng);
                f.h = base.h.clone();
                preprocess(&f, &c)
            })
            .collect();
        // stride chosen so MAX_BATCH is not a multiple: forces the fused
        // chunking to realign at whole-subcarrier boundaries.
        let stride = 48;
        let mut arena = NodeArena::new();
        let mut nodes = Vec::new();
        for sc in 0..preps.len() {
            for i in 0..stride {
                let a = arena.alloc(NIL, (sc + i) % p);
                let b = arena.alloc(a, (3 * i) % p);
                nodes.push(arena.alloc(b, (i + 2 * sc) % p));
            }
        }
        let depth = 3;
        let i_ant = n - 1 - depth;
        let ybars: Vec<_> = preps.iter().map(|pr| pr.ybar[i_ant]).collect();
        let mut fused = PdScratch::new(p);
        let mut per_sc = PdScratch::new(p);
        for algo in [GemmAlgo::Naive, GemmAlgo::Blocked, GemmAlgo::Parallel] {
            let flops = eval_children_batch_fused(
                &preps[0], &arena, &nodes, &ybars, stride, algo, &mut fused,
            );
            let mut want_flops = 0;
            for (sc, pr) in preps.iter().enumerate() {
                want_flops += eval_children_batch(
                    pr,
                    &arena,
                    &nodes[sc * stride..(sc + 1) * stride],
                    algo,
                    &mut per_sc,
                );
                assert_eq!(
                    &fused.batch_increments[sc * stride * p..(sc + 1) * stride * p],
                    &per_sc.batch_increments[..],
                    "{algo:?} subcarrier {sc} must be bit-identical"
                );
            }
            assert_eq!(
                flops, want_flops,
                "{algo:?}: fusion must not change accounting"
            );
        }
    }

    #[test]
    fn increments_match_full_metric_difference() {
        // Summing increments along a root-to-leaf path must equal the full
        // metric of the leaf (minus the constant tail).
        let (_, prep) = setup(5, Modulation::Qam4, 2);
        let mut scratch = PdScratch::new(4);
        let leaf = [2usize, 0, 3, 1, 2]; // depth order (antenna 4 .. 0)
        let mut pd = 0.0f64;
        for depth in 0..5 {
            eval_children(&prep, &leaf[..depth], EvalStrategy::Gemm, &mut scratch);
            pd += scratch.increments[leaf[depth]];
        }
        // Convert path (depth order) to antenna order for full_metric.
        let mut indices = vec![0usize; 5];
        for (d, &idx) in leaf.iter().enumerate() {
            indices[5 - 1 - d] = idx;
        }
        let full = prep.full_metric(&indices);
        assert!(
            (pd + prep.tail_energy - full).abs() < 1e-9,
            "pd sum {pd} + tail != {full}"
        );
    }

    #[test]
    fn gemm_charges_more_flops_at_depth() {
        let (_, prep) = setup(8, Modulation::Qam4, 3);
        let mut scratch = PdScratch::new(4);
        let path = vec![0usize, 1, 2, 3, 0, 1];
        let f_gemm = eval_children(&prep, &path, EvalStrategy::Gemm, &mut scratch);
        let f_inc = eval_children(&prep, &path, EvalStrategy::Incremental, &mut scratch);
        assert!(
            f_gemm > f_inc,
            "GEMM refactoring must be compute-heavier: {f_gemm} vs {f_inc}"
        );
    }

    #[test]
    fn root_expansion_uses_only_diagonal() {
        // At the root, increment for child c is |ȳ_{M−1} − r_{M−1,M−1}·ω_c|².
        let (_, prep) = setup(4, Modulation::Qam4, 4);
        let mut scratch = PdScratch::new(4);
        eval_children(&prep, &[], EvalStrategy::Gemm, &mut scratch);
        let i = 3;
        for c in 0..4 {
            let expected = (prep.ybar[i] - prep.r[(i, i)] * prep.points[c]).norm_sqr();
            assert!((scratch.increments[c] - expected).abs() < 1e-12);
        }
    }

    #[test]
    fn sorted_children_is_ascending_and_stable() {
        let incs = vec![3.0f64, 1.0, 2.0, 1.0];
        let sorted = sorted_children(&incs);
        assert_eq!(
            sorted.iter().map(|&(_, i)| i).collect::<Vec<_>>(),
            vec![1, 3, 2, 0],
            "ties broken by index"
        );
        assert!(sorted.windows(2).all(|w| w[0].0 <= w[1].0));
    }

    #[test]
    fn rank_sort_matches_a_total_cmp_sort() {
        // The rank sort must land every child where a general sort on the
        // same key (`total_cmp`, then index) does: duplicates, signed
        // zeros, infinities and NaNs of both signs included.
        use rand::Rng;
        let specials = [
            0.0f64,
            -0.0,
            1.0,
            1.0,
            f64::INFINITY,
            -f64::NAN,
            f64::NAN,
            0.5,
        ];
        let mut rng = StdRng::seed_from_u64(12);
        for p in [1usize, 2, 4, 8, 16, 64] {
            for _ in 0..50 {
                let incs: Vec<f64> = (0..p)
                    .map(|_| {
                        let r = rng.gen_range(0..3 * specials.len());
                        specials.get(r).copied().unwrap_or(r as f64 * 0.25)
                    })
                    .collect();
                let mut want: Vec<(f64, usize)> = incs.iter().copied().zip(0..).collect();
                want.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
                let mut got = vec![(0.0, usize::MAX); p];
                sort_children(&incs, &mut got);
                let bits = |v: &[(f64, usize)]| -> Vec<(u64, usize)> {
                    v.iter().map(|&(x, i)| (x.to_bits(), i)).collect()
                };
                assert_eq!(bits(&got), bits(&want), "{incs:?}");
            }
        }
    }

    #[test]
    fn sorted_children_tolerates_nan() {
        // A NaN increment (overflow in reduced precision) must order last,
        // not panic the decode.
        let incs = vec![2.0f64, f64::NAN, 1.0];
        let sorted = sorted_children(&incs);
        assert_eq!(sorted[0].1, 2);
        assert_eq!(sorted[1].1, 0);
        assert!(sorted[2].0.is_nan());
    }

    #[test]
    #[should_panic(expected = "cannot expand a leaf")]
    fn leaf_expansion_rejected() {
        let (_, prep) = setup(3, Modulation::Qam4, 5);
        let mut scratch = PdScratch::new(4);
        eval_children(&prep, &[0, 1, 2], EvalStrategy::Gemm, &mut scratch);
    }
}
