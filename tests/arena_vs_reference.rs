//! Differential property tests: the arena-based searches with batched GEMM
//! expansion, and the iterative exact DFS walker, must be *observationally
//! indistinguishable* from the seed path-cloning implementations preserved
//! in [`sd_core::reference`] — identical decoded indices and identical
//! `DetectionStats` (node counts, pruning counts, flops, radius bits) on
//! random frames, for all four search variants and both child-evaluation
//! strategies. The DFS property covers every constellation order the
//! walker is monomorphised for (2, 4, 16, 64), the run-time-order form
//! (the real-valued decomposition's 8-PAM), finite radii with restarts,
//! and both precisions.

use proptest::prelude::*;
use proptest::test_runner::TestCaseError;
use rand::rngs::StdRng;
use rand::SeedableRng;
use sd_core::preprocess::{preprocess, Prepared};
use sd_core::reference::{best_first_reference, bfs_reference, dfs_reference, kbest_reference};
use sd_core::{
    BestFirstSd, BfsGemmSd, EvalStrategy, InitialRadius, KBestSd, PreparedDetector,
    RvdSphereDecoder, SphereDecoder,
};
use sd_math::{Float, GemmAlgo};
use sd_wireless::{noise_variance, Constellation, FrameData, Modulation};

fn make_frame(n: usize, m: Modulation, snr_db: f64, seed: u64) -> (Constellation, FrameData) {
    let c = Constellation::new(m);
    let sigma2 = noise_variance(snr_db, n);
    let mut rng = StdRng::seed_from_u64(seed);
    let f = FrameData::generate(n, n, &c, sigma2, &mut rng);
    (c, f)
}

fn modulation() -> impl Strategy<Value = Modulation> {
    prop_oneof![
        Just(Modulation::Bpsk),
        Just(Modulation::Qam4),
        Just(Modulation::Qam16),
    ]
}

/// Every order the exact DFS walker is monomorphised for.
fn dfs_modulation() -> impl Strategy<Value = Modulation> {
    prop_oneof![
        Just(Modulation::Bpsk),
        Just(Modulation::Qam4),
        Just(Modulation::Qam16),
        Just(Modulation::Qam64),
    ]
}

/// The walker against the seed recursive DFS on one prepared problem, both
/// eval strategies: indices, every stats field, and the radius bits.
fn dfs_agrees<F: Float>(
    c: &Constellation,
    prep: &Prepared<F>,
    r2: f64,
    sort: bool,
) -> Result<(), TestCaseError> {
    for eval in [EvalStrategy::Gemm, EvalStrategy::Incremental] {
        let walker = SphereDecoder::<F>::new(c.clone())
            .with_sorted_children(sort)
            .with_eval(eval)
            .detect_prepared(prep, r2);
        let seed_impl = dfs_reference(prep, r2, eval, sort);
        prop_assert_eq!(&walker.indices, &seed_impl.indices);
        prop_assert_eq!(&walker.stats, &seed_impl.stats);
        prop_assert_eq!(
            walker.stats.final_radius_sqr.to_bits(),
            seed_impl.stats.final_radius_sqr.to_bits()
        );
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    /// Sorted and plain DFS, both eval strategies, both precisions, with
    /// a finite radius sometimes forcing restarts.
    #[test]
    fn dfs_matches_reference(
        n in 2usize..7,
        m in dfs_modulation(),
        snr_db in 2.0f64..20.0,
        seed in any::<u64>(),
        sort in any::<bool>(),
        tight in any::<bool>(),
    ) {
        prop_assume!(m.order().pow(n as u32) <= 1 << 14);
        let (c, frame) = make_frame(n, m, snr_db, seed);
        let r2 = if tight {
            InitialRadius::ScaledNoise(0.5).resolve(frame.h.rows(), frame.noise_variance)
        } else {
            f64::INFINITY
        };
        dfs_agrees(&c, &preprocess::<f64>(&frame, &c), r2, sort)?;
        dfs_agrees(&c, &preprocess::<f32>(&frame, &c), r2, sort)?;
        if m == Modulation::Qam64 {
            // The real-valued decomposition of 64-QAM searches an 8-PAM
            // tree: an order the walker reads at run time.
            let rvd = RvdSphereDecoder::<f64>::new(c.clone());
            dfs_agrees(&c, &rvd.prepare_frame(&frame), r2, sort)?;
        }
    }

    /// Globally best-first, both eval strategies, with a finite radius
    /// sometimes forcing restarts.
    #[test]
    fn best_first_matches_reference(
        n in 2usize..7,
        m in modulation(),
        snr_db in 2.0f64..20.0,
        seed in any::<u64>(),
        tight in any::<bool>(),
    ) {
        prop_assume!(m.order().pow(n as u32) <= 1 << 14);
        let (c, frame) = make_frame(n, m, snr_db, seed);
        let prep = preprocess::<f64>(&frame, &c);
        let r2 = if tight {
            InitialRadius::ScaledNoise(0.5).resolve(frame.h.rows(), frame.noise_variance)
        } else {
            f64::INFINITY
        };
        for eval in [EvalStrategy::Gemm, EvalStrategy::Incremental] {
            let arena = BestFirstSd::<f64>::new(c.clone())
                .with_eval(eval)
                .detect_prepared(&prep, r2);
            let seed_impl = best_first_reference(&prep, r2, eval);
            prop_assert_eq!(&arena.indices, &seed_impl.indices);
            prop_assert_eq!(&arena.stats, &seed_impl.stats);
        }
    }

    /// Level-synchronous BFS: the single batched GEMM per level (all three
    /// kernels) against the seed's per-node scalar evaluation, including
    /// frontier-cap truncation.
    #[test]
    fn bfs_matches_reference(
        n in 2usize..7,
        m in modulation(),
        snr_db in 2.0f64..20.0,
        seed in any::<u64>(),
        cap in prop_oneof![Just(4usize), Just(32), Just(1 << 20)],
    ) {
        prop_assume!(m.order().pow(n as u32) <= 1 << 14);
        let (c, frame) = make_frame(n, m, snr_db, seed);
        let prep = preprocess::<f64>(&frame, &c);
        let r2 = InitialRadius::ScaledNoise(2.0).resolve(frame.h.rows(), frame.noise_variance);
        let seed_impl = bfs_reference(&prep, r2, cap);
        for algo in [GemmAlgo::Naive, GemmAlgo::Blocked, GemmAlgo::Parallel] {
            let arena = BfsGemmSd::<f64>::new(c.clone())
                .with_max_frontier(cap)
                .with_batch_algo(algo)
                .detect_prepared_traced(&prep, r2)
                .0;
            prop_assert_eq!(&arena.indices, &seed_impl.indices);
            prop_assert_eq!(&arena.stats, &seed_impl.stats);
        }
    }

    /// K-best sweep, with K sometimes truncating and sometimes covering
    /// whole levels.
    #[test]
    fn kbest_matches_reference(
        n in 2usize..7,
        m in modulation(),
        snr_db in 2.0f64..20.0,
        seed in any::<u64>(),
        k in prop_oneof![Just(2usize), Just(8), Just(64)],
    ) {
        prop_assume!(m.order().pow(n as u32) <= 1 << 14);
        let (c, frame) = make_frame(n, m, snr_db, seed);
        let prep = preprocess::<f64>(&frame, &c);
        let arena = KBestSd::<f64>::new(c.clone(), k).detect_prepared(&prep, f64::INFINITY);
        let seed_impl = kbest_reference(&prep, k);
        prop_assert_eq!(&arena.indices, &seed_impl.indices);
        prop_assert_eq!(&arena.stats, &seed_impl.stats);
    }
}
