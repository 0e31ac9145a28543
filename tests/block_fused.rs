//! Cross-subcarrier fused block decode: exactness pins.
//!
//! The fused path ([`decode_block_fused_into`]) runs ONE level-synchronous
//! tree search — one GEMM batch per level — for a whole coherence block.
//! Its entire contract is that fusion is a *scheduling* change, never a
//! numeric one: every subcarrier's detection (indices, statistics, metric
//! bit patterns) must be bit-identical to the per-subcarrier loop
//! ([`decode_block_budgeted_into`]) and to a standalone per-vector
//! prepare+detect of that subcarrier. This suite pins that identity for
//! every fusable engine (float K-best, quantized K-best, quantized FSD in
//! both metrics), under unlimited and tripped budgets, for degenerate
//! blocks (B = 1, K = 1), and property-tested over random grids. Engines
//! that cannot fuse must report `fused == false` and still produce the
//! loop path's exact results through the same entry point.
//!
//! Engines hold no per-decode state of their own (it lives in the
//! caller's workspace), so one engine shared by two threads must decode
//! exactly as it does on one thread — pinned for the quantized engines,
//! whose integer scratch moved out of the engine.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use sd_core::preprocess::{BlockPrep, PrepScratch, Prepared};
use sd_core::{
    decode_block_budgeted_into, decode_block_fused_into, BfsGemmSd, DecodeBudget, Detection,
    FixedComplexitySd, KBestSd, MetricKind, MmseDetector, PreparedDetector, QuantizedFsd,
    QuantizedKBestSd, QuantizedSphereDecoder, SearchQuality, SearchWorkspace, SphereDecoder,
};
use sd_wireless::{noise_variance, Constellation, FrameData, Modulation};
use std::sync::{Arc, Barrier};

/// A coherence block: `b` subcarriers sharing one channel matrix, each
/// with an independently drawn transmit vector and noise realization.
fn coherent_block(
    b: usize,
    n: usize,
    c: &Constellation,
    sigma2: f64,
    rng: &mut StdRng,
) -> Vec<FrameData> {
    let base = FrameData::generate(n, n, c, sigma2, rng);
    (0..b)
        .map(|_| {
            let mut f = base.clone();
            let fresh = FrameData::generate(n, n, c, sigma2, rng);
            f.y = fresh.y;
            f.tx = fresh.tx;
            f
        })
        .collect()
}

/// Decode `frames` through the fused entry point. Returns the detections
/// and whether the engine actually fused.
fn run_fused(
    det: &dyn PreparedDetector<f64>,
    frames: &[FrameData],
    budget: &DecodeBudget,
) -> (Vec<Detection>, bool) {
    let mut scratch = PrepScratch::new();
    let mut block = BlockPrep::new();
    let mut prep = Prepared::empty();
    let mut ws = SearchWorkspace::new();
    let mut out = vec![Detection::default(); frames.len()];
    let (_, fused) = decode_block_fused_into(
        det,
        frames,
        budget,
        &mut scratch,
        &mut block,
        &mut prep,
        &mut ws,
        &mut out,
    );
    (out, fused)
}

/// The per-subcarrier loop over the same shared preparation — the
/// reference the fused path must match bit for bit.
fn run_loop(
    det: &dyn PreparedDetector<f64>,
    frames: &[FrameData],
    budget: &DecodeBudget,
) -> Vec<Detection> {
    let mut scratch = PrepScratch::new();
    let mut block = BlockPrep::new();
    let mut prep = Prepared::empty();
    let mut ws = SearchWorkspace::new();
    let mut out = vec![Detection::default(); frames.len()];
    decode_block_budgeted_into(
        det,
        frames,
        budget,
        &mut scratch,
        &mut block,
        &mut prep,
        &mut ws,
        &mut out,
    );
    out
}

/// Standalone per-vector decode: fresh `prepare_frame_into` per
/// subcarrier, no block sharing at all.
fn run_per_vector(
    det: &dyn PreparedDetector<f64>,
    frames: &[FrameData],
    budget: &DecodeBudget,
) -> Vec<Detection> {
    let mut scratch = PrepScratch::new();
    let mut prep = Prepared::empty();
    let mut ws = SearchWorkspace::new();
    frames
        .iter()
        .map(|f| {
            let mut d = Detection::default();
            det.prepare_frame_into(f, &mut scratch, &mut prep);
            let r2 = det.initial_radius_sqr(f.h.rows(), f.noise_variance);
            det.detect_prepared_budgeted_into(&prep, r2, budget, &mut ws, &mut d);
            d
        })
        .collect()
}

fn assert_block_identical(got: &[Detection], want: &[Detection], what: &str) {
    assert_eq!(got.len(), want.len(), "{what}: block shape");
    for (k, (g, w)) in got.iter().zip(want).enumerate() {
        assert_eq!(g.indices, w.indices, "{what} subcarrier {k}: decisions");
        assert_eq!(g.stats, w.stats, "{what} subcarrier {k}: statistics");
        assert_eq!(
            g.stats.final_radius_sqr.to_bits(),
            w.stats.final_radius_sqr.to_bits(),
            "{what} subcarrier {k}: metric bits"
        );
    }
}

/// Every level-synchronous engine the fused path claims: label, builder.
fn fusable_engines(
    c: &Constellation,
    k: usize,
) -> Vec<(&'static str, Box<dyn PreparedDetector<f64>>)> {
    vec![
        ("k-best", Box::new(KBestSd::<f64>::new(c.clone(), k))),
        ("k-best-fx", Box::new(QuantizedKBestSd::new(c.clone(), k))),
        ("fsd-fx", Box::new(QuantizedFsd::new(c.clone()))),
        (
            "fsd-fx-linf",
            Box::new(QuantizedFsd::new(c.clone()).with_metric(MetricKind::LInf)),
        ),
    ]
}

#[test]
fn fused_is_bit_identical_to_loop_and_per_vector() {
    let c = Constellation::new(Modulation::Qam4);
    let sigma2 = noise_variance(10.0, 8);
    let mut rng = StdRng::seed_from_u64(0xF05ED);
    let frames = coherent_block(16, 8, &c, sigma2, &mut rng);
    for (label, det) in fusable_engines(&c, 16) {
        let (fused, did_fuse) = run_fused(&*det, &frames, &DecodeBudget::UNLIMITED);
        assert!(did_fuse, "{label}: level-synchronous engine must fuse");
        let looped = run_loop(&*det, &frames, &DecodeBudget::UNLIMITED);
        let solo = run_per_vector(&*det, &frames, &DecodeBudget::UNLIMITED);
        assert_block_identical(&fused, &looped, &format!("{label} fused-vs-loop"));
        assert_block_identical(&fused, &solo, &format!("{label} fused-vs-solo"));
        assert!(
            fused.iter().all(|d| !d.stats.quality.is_truncated()),
            "{label}: unlimited budget must stay exact"
        );
    }
}

#[test]
fn non_fusable_engines_fall_back_to_the_exact_loop() {
    let c = Constellation::new(Modulation::Qam4);
    let sigma2 = noise_variance(10.0, 4);
    let mut rng = StdRng::seed_from_u64(0xFA11);
    let frames = coherent_block(6, 4, &c, sigma2, &mut rng);
    let dets: Vec<(&str, Box<dyn PreparedDetector<f64>>)> = vec![
        ("dfs", Box::new(SphereDecoder::<f64>::new(c.clone()))),
        ("bfs", Box::new(BfsGemmSd::<f64>::new(c.clone()))),
        ("fsd", Box::new(FixedComplexitySd::<f64>::new(c.clone()))),
        ("mmse", Box::new(MmseDetector::new(c.clone()))),
    ];
    for (label, det) in dets {
        let (fused, did_fuse) = run_fused(&*det, &frames, &DecodeBudget::UNLIMITED);
        assert!(!did_fuse, "{label}: data-dependent search must not fuse");
        let looped = run_loop(&*det, &frames, &DecodeBudget::UNLIMITED);
        assert_block_identical(&fused, &looped, &format!("{label} fallback"));
    }
}

/// A trace sink forces the loop path (per-decode event streams cannot be
/// interleaved), and the results must still be exact.
#[test]
fn installed_telemetry_forces_the_loop_without_changing_results() {
    let c = Constellation::new(Modulation::Qam4);
    let sigma2 = noise_variance(10.0, 4);
    let mut rng = StdRng::seed_from_u64(0x7E1E);
    let frames = coherent_block(4, 4, &c, sigma2, &mut rng);
    let det = KBestSd::<f64>::new(c.clone(), 8);

    let mut scratch = PrepScratch::new();
    let mut block = BlockPrep::new();
    let mut prep = Prepared::empty();
    let mut ws = SearchWorkspace::new();
    ws.install_telemetry();
    let mut out = vec![Detection::default(); frames.len()];
    let (_, fused) = decode_block_fused_into(
        &det,
        &frames,
        &DecodeBudget::UNLIMITED,
        &mut scratch,
        &mut block,
        &mut prep,
        &mut ws,
        &mut out,
    );
    assert!(!fused, "a trace sink must force the per-subcarrier loop");
    let looped = run_loop(&det, &frames, &DecodeBudget::UNLIMITED);
    assert_block_identical(&out, &looped, "traced fallback");
}

#[test]
fn degenerate_blocks_fuse_exactly() {
    let c = Constellation::new(Modulation::Qam16);
    let sigma2 = noise_variance(14.0, 4);
    let mut rng = StdRng::seed_from_u64(0xB1);
    // B = 1: a single-subcarrier "block".
    let single = coherent_block(1, 4, &c, sigma2, &mut rng);
    // K = 1: the frontier never widens past one survivor.
    for (label, det) in fusable_engines(&c, 1) {
        let (fused, did_fuse) = run_fused(&*det, &single, &DecodeBudget::UNLIMITED);
        assert!(did_fuse, "{label}: B=1 must still take the fused path");
        let looped = run_loop(&*det, &single, &DecodeBudget::UNLIMITED);
        assert_block_identical(&fused, &looped, &format!("{label} B=1"));
    }
    let wide = coherent_block(5, 4, &c, sigma2, &mut rng);
    for (label, det) in fusable_engines(&c, 1) {
        let (fused, _) = run_fused(&*det, &wide, &DecodeBudget::UNLIMITED);
        let looped = run_loop(&*det, &wide, &DecodeBudget::UNLIMITED);
        assert_block_identical(&fused, &looped, &format!("{label} K=1"));
    }
}

/// Budgets thread through the fused search: an untripped node cap changes
/// nothing, a tripped one truncates *identically* to the per-subcarrier
/// loop — same flags, same best-so-far decisions, same node accounting.
#[test]
fn budgets_trip_identically_on_both_paths() {
    let c = Constellation::new(Modulation::Qam4);
    let sigma2 = noise_variance(10.0, 8);
    let mut rng = StdRng::seed_from_u64(0xB0D6E7);
    let frames = coherent_block(8, 8, &c, sigma2, &mut rng);
    for (label, det) in fusable_engines(&c, 16) {
        // Untripped: generous cap ≡ unlimited, bit for bit, flagged exact.
        let generous = DecodeBudget::nodes(u64::MAX / 2);
        let (fused, _) = run_fused(&*det, &frames, &generous);
        let unlimited = run_loop(&*det, &frames, &DecodeBudget::UNLIMITED);
        assert_block_identical(&fused, &unlimited, &format!("{label} untripped"));
        assert!(fused
            .iter()
            .all(|d| d.stats.quality == SearchQuality::Exact));

        // Tripped: a cap below the full sweep truncates both paths at the
        // same level with complete best-so-far decisions.
        let tight = DecodeBudget::nodes(32);
        let (fused_t, _) = run_fused(&*det, &frames, &tight);
        let looped_t = run_loop(&*det, &frames, &tight);
        assert_block_identical(&fused_t, &looped_t, &format!("{label} tripped"));
        for (k, d) in fused_t.iter().enumerate() {
            assert!(
                d.stats.quality.is_truncated(),
                "{label} subcarrier {k}: a 32-node cap must trip an 8x8 sweep"
            );
            assert_eq!(
                d.indices.len(),
                8,
                "{label} subcarrier {k}: truncation still returns a complete vector"
            );
        }
    }
}

fn fused_modulation() -> impl Strategy<Value = Modulation> {
    prop_oneof![Just(Modulation::Qam4), Just(Modulation::Qam16)]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Fused ≡ loop over random grids: any antenna count, block size,
    /// modulation, K, SNR, and seed.
    #[test]
    fn fused_matches_loop_on_random_grids(
        n in 2usize..6,
        b in 1usize..9,
        k in 1usize..12,
        modu in fused_modulation(),
        snr_db in 2.0f64..20.0,
        seed in any::<u64>(),
    ) {
        let c = Constellation::new(modu);
        let sigma2 = noise_variance(snr_db, n);
        let mut rng = StdRng::seed_from_u64(seed);
        let frames = coherent_block(b, n, &c, sigma2, &mut rng);
        for (label, det) in fusable_engines(&c, k) {
            let (fused, did_fuse) = run_fused(&*det, &frames, &DecodeBudget::UNLIMITED);
            prop_assert!(did_fuse, "{} must fuse", label);
            let looped = run_loop(&*det, &frames, &DecodeBudget::UNLIMITED);
            for (g, w) in fused.iter().zip(&looped) {
                prop_assert_eq!(&g.indices, &w.indices);
                prop_assert_eq!(&g.stats, &w.stats);
            }
        }
    }
}

/// One thread's share of the concurrent workload: a coherence block and a
/// run of i.i.d. vectors, different for every thread.
struct ThreadWork {
    block: Vec<FrameData>,
    vectors: Vec<FrameData>,
}

/// Decode a thread's work on one workspace: the block through the fused
/// entry point, then every vector through the per-vector path.
fn decode_work(
    det: &dyn PreparedDetector<f64>,
    work: &ThreadWork,
    ws: &mut SearchWorkspace<f64>,
) -> (Vec<Detection>, Vec<Detection>) {
    let mut scratch = PrepScratch::new();
    let mut block = BlockPrep::new();
    let mut prep = Prepared::empty();
    let mut out = vec![Detection::default(); work.block.len()];
    decode_block_fused_into(
        det,
        &work.block,
        &DecodeBudget::UNLIMITED,
        &mut scratch,
        &mut block,
        &mut prep,
        ws,
        &mut out,
    );
    let vectors = work
        .vectors
        .iter()
        .map(|f| {
            let mut d = Detection::default();
            det.prepare_frame_into(f, &mut scratch, &mut prep);
            let r2 = det.initial_radius_sqr(f.h.rows(), f.noise_variance);
            det.detect_prepared_into(&prep, r2, ws, &mut d);
            d
        })
        .collect();
    (out, vectors)
}

/// Two threads share ONE `Arc` of each quantized engine, each with its own
/// workspace, released together by a barrier and decoding different
/// blocks and vectors at the same time. Every result must be bit-identical
/// to the same work decoded sequentially on one thread — indices, node
/// counts, metric bits and quality.
#[test]
fn shared_quantized_engines_decode_concurrently_bit_identically() {
    const THREADS: usize = 2;
    const ROUNDS: usize = 32;
    let c = Constellation::new(Modulation::Qam4);
    let sigma2 = noise_variance(10.0, 8);
    let mut rng = StdRng::seed_from_u64(0xC0C0);
    let work: Vec<ThreadWork> = (0..THREADS)
        .map(|_| ThreadWork {
            block: coherent_block(16, 8, &c, sigma2, &mut rng),
            vectors: (0..8)
                .map(|_| FrameData::generate(8, 8, &c, sigma2, &mut rng))
                .collect(),
        })
        .collect();
    let engines: Vec<(&str, Arc<dyn PreparedDetector<f64>>)> = vec![
        ("k-best-fx", Arc::new(QuantizedKBestSd::new(c.clone(), 16))),
        ("fsd-fx", Arc::new(QuantizedFsd::new(c.clone()))),
        (
            "fsd-fx-linf",
            Arc::new(QuantizedFsd::new(c.clone()).with_metric(MetricKind::LInf)),
        ),
        ("dfs-fx", Arc::new(QuantizedSphereDecoder::new(c.clone()))),
    ];
    for (label, det) in &engines {
        // Sequential reference: one thread, one workspace, in order.
        let mut ws = SearchWorkspace::new();
        let reference: Vec<_> = work
            .iter()
            .map(|w| decode_work(&**det, w, &mut ws))
            .collect();

        let barrier = Barrier::new(THREADS);
        std::thread::scope(|scope| {
            for (t, (w, want)) in work.iter().zip(&reference).enumerate() {
                let det = Arc::clone(det);
                let barrier = &barrier;
                scope.spawn(move || {
                    let mut ws = SearchWorkspace::new();
                    barrier.wait();
                    for round in 0..ROUNDS {
                        let (block, vectors) = decode_work(&*det, w, &mut ws);
                        let what = format!("{label} thread {t} round {round}");
                        assert_block_identical(&block, &want.0, &format!("{what} block"));
                        assert_block_identical(&vectors, &want.1, &format!("{what} vectors"));
                    }
                });
            }
        });
    }
}
