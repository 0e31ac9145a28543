//! Exactness pins for the iterative exact DFS walker (`sd_core::dfs`).
//!
//! * **Budget truncation, pinned exactly.** One fixed 10×10 QAM4 frame at
//!   4 dB is decoded under node budgets around every trip point — `0`,
//!   `P−1`, `P`, `37`, half the full spend, the full spend minus one — and
//!   under an already-expired deadline. Every `Detection` field (indices,
//!   every stats counter, `nodes_spent`, the radius bits, the per-level
//!   histogram) must equal the values the recursive search produced before
//!   it was replaced by the walker. A trip point that moves by one
//!   expansion changes a row.
//! * **Traced and untraced decodes agree bit for bit.** The walker is
//!   monomorphised per (order, sink) pair; installing a telemetry sink must
//!   not change a single bit of any decode, sorted or unsorted, at every
//!   order — the run-time-order form included.

use rand::rngs::StdRng;
use rand::SeedableRng;
use sd_core::{
    DecodeBudget, Detection, InitialRadius, PreparedDetector, RvdSphereDecoder, SearchQuality,
    SearchWorkspace, SphereDecoder,
};
use sd_wireless::{noise_variance, Constellation, FrameData, Modulation};
use std::time::{Duration, Instant};

/// FNV-1a over the little-endian bytes of `words`.
fn fnv(words: impl IntoIterator<Item = u64>) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for w in words {
        for b in w.to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

/// How a pinned decode was budgeted.
#[derive(Clone, Copy, Debug)]
enum Budget {
    Unlimited,
    Nodes(u64),
    ExpiredDeadline,
}

impl Budget {
    fn resolve(self) -> DecodeBudget {
        match self {
            Budget::Unlimited => DecodeBudget::UNLIMITED,
            Budget::Nodes(k) => DecodeBudget::nodes(k),
            Budget::ExpiredDeadline => DecodeBudget {
                max_nodes: u64::MAX,
                deadline: Some(Instant::now() - Duration::from_millis(1)),
            },
        }
    }
}

/// One pinned decode: every field of the `Detection`.
struct Pin {
    budget: Budget,
    nodes_expanded: u64,
    nodes_generated: u64,
    nodes_pruned: u64,
    leaves_reached: u64,
    radius_updates: u64,
    flops: u64,
    restarts: u64,
    /// `None`: the decode ran to completion (`SearchQuality::Exact`).
    nodes_spent: Option<u64>,
    radius_bits: u64,
    indices: [usize; 10],
    /// FNV-1a of `per_level_generated`.
    levels: u64,
}

#[allow(clippy::too_many_arguments)]
const fn pin(
    budget: Budget,
    nodes_expanded: u64,
    nodes_generated: u64,
    nodes_pruned: u64,
    leaves_reached: u64,
    flops: u64,
    nodes_spent: Option<u64>,
    radius_bits: u64,
    indices: [usize; 10],
    levels: u64,
) -> Pin {
    Pin {
        budget,
        nodes_expanded,
        nodes_generated,
        nodes_pruned,
        leaves_reached,
        // One radius update per accepted leaf and no restarts at an
        // infinite initial radius — still compared field by field below.
        radius_updates: leaves_reached,
        flops,
        restarts: 0,
        nodes_spent,
        radius_bits,
        indices,
        levels,
    }
}

/// Full spend of the unbudgeted sorted decode on the fixture; the budgets
/// below are `0`, `P−1`, `P`, `37`, `FULL/2` and `FULL−1` with `P = 4`.
const SORTED_FULL: u64 = 4988;
const UNSORTED_FULL: u64 = 4404;

/// The greedy completion every budget that trips before the first leaf
/// falls back to.
const GREEDY: [usize; 10] = [2, 2, 3, 0, 0, 2, 1, 1, 2, 0];
const GREEDY_BITS: u64 = 0x405b_71ff_bb17_f696;
/// The ML answer.
const ML: [usize; 10] = [3, 0, 3, 0, 0, 3, 0, 3, 1, 0];
const ML_BITS: u64 = 0x404d_23db_aab6_b473;

use Budget::{ExpiredDeadline, Nodes, Unlimited};

#[rustfmt::skip]
const SORTED: [Pin; 8] = [
    pin(Unlimited,       1247, 4988, 3733, 9, 295_308, None,       ML_BITS, ML, 0xd906_0d16_4f04_b02f),
    pin(Nodes(0),          10,   40,    0, 1,   2_760, Some(0),    GREEDY_BITS, GREEDY, 0xc221_eb8c_04c2_2ee5),
    pin(Nodes(3),          11,   44,    0, 1,   2_812, Some(4),    GREEDY_BITS, GREEDY, 0x276e_721a_137d_48e9),
    pin(Nodes(4),          11,   44,    0, 1,   2_812, Some(4),    GREEDY_BITS, GREEDY, 0x276e_721a_137d_48e9),
    pin(Nodes(37),         10,   40,    3, 1,   2_760, Some(40),   GREEDY_BITS, GREEDY, 0xc221_eb8c_04c2_2ee5),
    pin(Nodes(2494),      624, 2496, 1853, 7, 157_568, Some(2496), 0x4051_5ffb_008c_a4ea,
        [0, 0, 3, 2, 0, 3, 1, 3, 3, 0], 0xec02_ddeb_631d_fcda),
    // The last check runs before the last expansion, at 4984 < 4987.
    pin(Nodes(4987),     1247, 4988, 3733, 9, 295_308, None,       ML_BITS, ML, 0xd906_0d16_4f04_b02f),
    pin(ExpiredDeadline,   10,   40,    0, 1,   2_760, Some(0),    GREEDY_BITS, GREEDY, 0xc221_eb8c_04c2_2ee5),
];

#[rustfmt::skip]
const UNSORTED: [Pin; 8] = [
    pin(Unlimited,       1101, 4404, 3289, 15, 257_252, None,       ML_BITS, ML, 0xae45_d949_34b5_81a0),
    pin(Nodes(0),          10,   40,    0,  1,   2_760, Some(0),    GREEDY_BITS, GREEDY, 0xc221_eb8c_04c2_2ee5),
    pin(Nodes(3),          11,   44,    0,  1,   2_812, Some(4),    GREEDY_BITS, GREEDY, 0x276e_721a_137d_48e9),
    pin(Nodes(4),          11,   44,    0,  1,   2_812, Some(4),    GREEDY_BITS, GREEDY, 0x276e_721a_137d_48e9),
    // The first dive reached a leaf, so the truncated answer is that leaf.
    pin(Nodes(37),         10,   40,    3,  2,   2_760, Some(40),   0x406a_363b_49e5_4b26,
        [1, 0, 0, 0, 0, 0, 0, 0, 0, 0], 0xc221_eb8c_04c2_2ee5),
    pin(Nodes(2202),      551, 2204, 1626, 14, 137_900, Some(2204), 0x404e_c26c_4408_988c,
        [3, 0, 3, 0, 0, 3, 0, 2, 1, 0], 0x0a0e_6957_a156_5329),
    pin(Nodes(4403),     1101, 4404, 3289, 15, 257_252, None,       ML_BITS, ML, 0xae45_d949_34b5_81a0),
    pin(ExpiredDeadline,   10,   40,    0,  1,   2_760, Some(0),    GREEDY_BITS, GREEDY, 0xc221_eb8c_04c2_2ee5),
];

fn fixture() -> (Constellation, FrameData) {
    let c = Constellation::new(Modulation::Qam4);
    let n = 10;
    let mut rng = StdRng::seed_from_u64(0x5D_7A1C);
    let frame = FrameData::generate(n, n, &c, noise_variance(4.0, n), &mut rng);
    (c, frame)
}

fn assert_pinned(name: &str, d: &Detection, want: &Pin) {
    let s = &d.stats;
    let ctx = format!("{name} {:?}", want.budget);
    assert_eq!(d.indices, want.indices, "{ctx}: indices");
    assert_eq!(
        s.nodes_expanded, want.nodes_expanded,
        "{ctx}: nodes_expanded"
    );
    assert_eq!(
        s.nodes_generated, want.nodes_generated,
        "{ctx}: nodes_generated"
    );
    assert_eq!(s.nodes_pruned, want.nodes_pruned, "{ctx}: nodes_pruned");
    assert_eq!(
        s.leaves_reached, want.leaves_reached,
        "{ctx}: leaves_reached"
    );
    assert_eq!(
        s.radius_updates, want.radius_updates,
        "{ctx}: radius_updates"
    );
    assert_eq!(s.flops, want.flops, "{ctx}: flops");
    assert_eq!(s.restarts, want.restarts, "{ctx}: restarts");
    let quality = match want.nodes_spent {
        None => SearchQuality::Exact,
        Some(nodes_spent) => SearchQuality::BudgetTruncated { nodes_spent },
    };
    assert_eq!(s.quality, quality, "{ctx}: quality / nodes_spent");
    assert_eq!(
        s.final_radius_sqr.to_bits(),
        want.radius_bits,
        "{ctx}: final_radius_sqr bits ({})",
        s.final_radius_sqr
    );
    assert_eq!(
        fnv(s.per_level_generated.iter().copied()),
        want.levels,
        "{ctx}: per_level_generated {:?}",
        s.per_level_generated
    );
}

#[test]
fn budget_truncation_is_pinned_exactly() {
    let (c, frame) = fixture();
    for (sort, full, pins) in [
        (true, SORTED_FULL, &SORTED),
        (false, UNSORTED_FULL, &UNSORTED),
    ] {
        let name = if sort { "sorted" } else { "unsorted" };
        let sd = SphereDecoder::<f64>::new(c.clone()).with_sorted_children(sort);
        let prep = sd.prepare_frame(&frame);
        let mut ws = SearchWorkspace::new();
        let mut out = Detection::default();
        sd.detect_prepared_into(&prep, f64::INFINITY, &mut ws, &mut out);
        assert_eq!(out.stats.nodes_generated, full, "{name}: full spend");
        for want in pins {
            let budget = want.budget.resolve();
            sd.detect_prepared_budgeted_into(&prep, f64::INFINITY, &budget, &mut ws, &mut out);
            assert_pinned(name, &out, want);
        }
    }
}

/// Decode `frames` through `det` twice per frame — once on a bare
/// workspace, once with telemetry installed — unbudgeted and with half the
/// full spend, and require bit-identical `Detection`s. Returns how many
/// decodes the half-spend budget truncated.
fn assert_trace_invariant(
    det: &dyn PreparedDetector<f64>,
    frames: &[FrameData],
    r2: f64,
    name: &str,
) -> usize {
    let mut bare = SearchWorkspace::new();
    let mut traced = SearchWorkspace::new();
    traced.install_telemetry();
    let (mut a, mut b) = (Detection::default(), Detection::default());
    let mut truncated = 0;
    for f in frames {
        let prep = det.prepare_frame(f);
        det.detect_prepared_into(&prep, r2, &mut bare, &mut a);
        let half = DecodeBudget::nodes(a.stats.nodes_generated / 2);
        for budget in [DecodeBudget::UNLIMITED, half] {
            det.detect_prepared_budgeted_into(&prep, r2, &budget, &mut bare, &mut a);
            det.detect_prepared_budgeted_into(&prep, r2, &budget, &mut traced, &mut b);
            assert_eq!(a, b, "{name}: a trace sink changed the decode");
            assert_eq!(
                a.stats.final_radius_sqr.to_bits(),
                b.stats.final_radius_sqr.to_bits(),
                "{name}: radius bits"
            );
            let t = traced.telemetry().expect("telemetry stays installed");
            assert!(t.nodes_generated() > 0, "{name}: the sink saw the walk");
            truncated += usize::from(b.stats.quality.is_truncated());
        }
    }
    truncated
}

#[test]
fn traced_and_untraced_decodes_are_bit_identical() {
    // One fixture per order the walker is monomorphised for, plus the
    // real-valued decomposition of 64-QAM (8-PAM: the run-time order).
    let cases = [
        (Modulation::Bpsk, 10, 2.0),
        (Modulation::Qam4, 8, 4.0),
        (Modulation::Qam16, 4, 8.0),
        (Modulation::Qam64, 3, 14.0),
    ];
    for (i, (m, n, snr_db)) in cases.into_iter().enumerate() {
        let c = Constellation::new(m);
        let mut rng = StdRng::seed_from_u64(0xDF5 + i as u64);
        let frames: Vec<FrameData> = (0..6)
            .map(|_| FrameData::generate(n, n, &c, noise_variance(snr_db, n), &mut rng))
            .collect();
        let tight = InitialRadius::ScaledNoise(0.5).resolve(n, frames[0].noise_variance);
        for sort in [true, false] {
            let sd = SphereDecoder::<f64>::new(c.clone()).with_sorted_children(sort);
            for r2 in [f64::INFINITY, tight] {
                let name = format!("{m:?} sort={sort} r2={r2}");
                let truncated = assert_trace_invariant(&sd, &frames, r2, &name);
                assert!(truncated > 0, "{name}: half-spend budgets must trip");
            }
        }
        if m == Modulation::Qam64 {
            // RVD decodes unbudgeted whatever the budget says.
            let rvd = RvdSphereDecoder::<f64>::new(c.clone());
            assert_trace_invariant(&rvd, &frames, f64::INFINITY, "rvd 64-QAM");
        }
    }
}
