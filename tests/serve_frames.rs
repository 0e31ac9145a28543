//! Frame-path exactness: submitting a coherence block as one
//! [`FrameRequest`] must produce detections **bit-identical** — indices
//! *and* search statistics — to submitting the same subcarriers one
//! [`DetectionRequest`] at a time through the same registry tier. The
//! check spans the stock and quantized registries (adaptive, fixed,
//! fixed-point, and linear rungs), survives overload/shedding, and the
//! mixed-traffic prep-accounting invariant
//! `hits + misses + bypass == served` holds throughout. A one-subcarrier
//! frame is served exactly like a vector, prep cache included.
//!
//! Also demonstrates the `sd-wireless` satellite: `OfdmSymbol`'s
//! `(frame, new_channel)` decode protocol lets a caller holding a
//! [`ChannelPrep`] factor each distinct channel exactly once.

use rand::rngs::StdRng;
use rand::SeedableRng;
use sd_core::{
    decode_block_fused_into, prepare_channel_into, prepare_with_channel_into, BlockPrep,
    ChannelPrep, DecodeBudget, Detection, PrepScratch, Prepared, PreparedDetector,
    QuantizedKBestSd, SearchWorkspace, SphereDecoder,
};
use sd_serve::{
    build_frame_requests, default_registry, explode_frames, quantized_registry, FrameLoadConfig,
    FrameRequest, LadderConfig, RejectReason, ServeConfig, ServeRuntime, Tier, TierCostClass,
};
use sd_wireless::{Constellation, GridConfig, Modulation, OfdmConfig, OfdmSymbol};
use std::collections::HashMap;
use std::time::Duration;

fn grid_workload() -> FrameLoadConfig {
    FrameLoadConfig {
        grid: GridConfig::new(24, 4, 4, 4)
            .with_coherence(8, 2)
            .with_snr(10.0, 3.0),
        modulation: Modulation::Qam4,
        offered_rate_hz: 0.0,
        deadline: Duration::from_secs(5),
        seed: 0xF8A3E5,
    }
}

fn ladder_off() -> LadderConfig {
    LadderConfig {
        enabled: false,
        kbest_k: 16,
        anytime: false,
    }
}

/// Single-tier runtime, one worker, ladder disabled: the deterministic
/// harness both submission shapes run through.
fn single_tier_runtime(tier: Tier, queue: usize) -> ServeRuntime {
    ServeRuntime::start_with_registry(
        ServeConfig::default()
            .with_workers(1)
            .with_queue_capacity(queue)
            .with_ladder(ladder_off()),
        vec![tier],
    )
}

/// Serve the workload frame-by-frame; detections keyed by frame id.
fn serve_frames(
    tier: Tier,
    cfg: &FrameLoadConfig,
    c: &Constellation,
) -> HashMap<u64, Vec<Detection>> {
    let requests = build_frame_requests(cfg, c);
    let n = requests.len();
    let rt = single_tier_runtime(tier, n);
    for req in requests {
        rt.submit_frame(req).expect("queue sized for the stream");
    }
    let mut served = HashMap::new();
    for _ in 0..n {
        let resp = rt
            .collect_frame_timeout(Duration::from_secs(10))
            .expect("frame path stalled");
        assert_eq!(resp.tier, 0, "ladder disabled: tier 0 only");
        served.insert(resp.request.id, resp.detections);
    }
    let (snap, _, leftover) = rt.shutdown();
    assert!(leftover.is_empty());
    assert_eq!(snap.frames_served, n as u64);
    assert_eq!(
        snap.prep_cache_hits + snap.prep_cache_misses + snap.prep_cache_bypass,
        snap.served,
        "prep accounting must close over frame traffic"
    );
    served
}

/// Serve the identical traffic one vector at a time; detections in
/// submission order.
fn serve_vectors(tier: Tier, cfg: &FrameLoadConfig, c: &Constellation) -> Vec<Detection> {
    let requests = explode_frames(&build_frame_requests(cfg, c));
    let n = requests.len();
    let rt = single_tier_runtime(tier, n);
    for req in requests {
        rt.submit(req).expect("queue sized for the stream");
    }
    let mut served: HashMap<u64, Detection> = HashMap::new();
    for _ in 0..n {
        let resp = rt
            .collect_timeout(Duration::from_secs(10))
            .expect("vector path stalled");
        served.insert(resp.request.id, resp.detection);
    }
    rt.shutdown();
    (0..n as u64)
        .map(|id| served.remove(&id).unwrap())
        .collect()
}

/// All tiers under test: the stock registry plus the quantized rungs the
/// quantized registry adds (fixed-point K-best, l-inf FSD).
fn tiers_under_test(c: &Constellation) -> Vec<Tier> {
    let mut tiers = default_registry(c, &LadderConfig::default());
    for t in quantized_registry(c, &LadderConfig::default()) {
        if !tiers.iter().any(|have| have.label == t.label) {
            tiers.push(t);
        }
    }
    tiers
}

#[test]
fn frame_detections_bit_identical_to_per_vector_submission_for_every_tier() {
    let cfg = grid_workload();
    let c = Constellation::new(cfg.modulation);
    let labels: Vec<String> = tiers_under_test(&c)
        .iter()
        .map(|t| t.label.to_string())
        .collect();
    for (i, label) in labels.iter().enumerate() {
        let by_frame = serve_frames(tiers_under_test(&c).remove(i), &cfg, &c);
        let by_vector = serve_vectors(tiers_under_test(&c).remove(i), &cfg, &c);
        let frames = build_frame_requests(&cfg, &c);
        let mut k = 0usize;
        for fr in &frames {
            let block = &by_frame[&fr.id];
            assert_eq!(block.len(), fr.block_len(), "{label}: block shape");
            for d in block {
                let solo = &by_vector[k];
                assert_eq!(d.indices, solo.indices, "{label} subcarrier {k}: decisions");
                assert_eq!(d.stats, solo.stats, "{label} subcarrier {k}: statistics");
                assert_eq!(
                    d.stats.final_radius_sqr.to_bits(),
                    solo.stats.final_radius_sqr.to_bits(),
                    "{label} subcarrier {k}: metric bits"
                );
                k += 1;
            }
        }
        assert_eq!(k, by_vector.len(), "{label}: all subcarriers compared");
    }
}

#[test]
fn frame_exactness_survives_overload_and_shedding() {
    let cfg = grid_workload();
    let c = Constellation::new(cfg.modulation);
    let requests = build_frame_requests(&cfg, &c);
    let n = requests.len();
    assert!(n >= 4, "workload must have enough blocks to overflow");
    let cap = n / 2;
    // Paused single-tier runtime with a queue half the stream: the tail
    // must be shed at the door and handed back intact.
    let rt = ServeRuntime::start_with_registry(
        ServeConfig::default()
            .with_workers(1)
            .with_queue_capacity(cap)
            .with_ladder(ladder_off())
            .paused(),
        default_registry(&c, &LadderConfig::default())
            .into_iter()
            .take(1)
            .collect(),
    );
    let mut admitted = Vec::new();
    let mut shed = 0u64;
    for req in requests {
        let id = req.id;
        let len = req.block_len();
        match rt.submit_frame(req) {
            Ok(()) => admitted.push(id),
            Err(rej) => {
                shed += 1;
                assert!(matches!(rej.reason, RejectReason::QueueFull { .. }));
                assert_eq!(rej.request.id, id, "shed frame returned intact");
                assert_eq!(rej.request.block_len(), len, "block survives rejection");
            }
        }
    }
    assert_eq!(admitted.len(), cap, "bounded queue admits exactly capacity");
    assert!(shed > 0, "overload must shed");
    rt.resume();
    let mut served = HashMap::new();
    for _ in 0..cap {
        let resp = rt
            .collect_frame_timeout(Duration::from_secs(10))
            .expect("stalled after resume");
        served.insert(resp.request.id, resp.detections);
    }
    let (snap, _, _) = rt.shutdown();
    assert_eq!(snap.frames_served, cap as u64);
    assert_eq!(snap.frames_rejected_full, shed);
    assert_eq!(
        snap.prep_cache_hits + snap.prep_cache_misses + snap.prep_cache_bypass,
        snap.served,
        "prep accounting closes under shedding"
    );

    // Admitted frames must still decode bit-identically to a direct
    // per-subcarrier decode of the same engine.
    let det: SphereDecoder<f64> = SphereDecoder::new(c.clone());
    let mut scratch = PrepScratch::new();
    let mut prep = Prepared::empty();
    let mut ws = SearchWorkspace::new();
    for fr in build_frame_requests(&cfg, &c) {
        let Some(block) = served.get(&fr.id) else {
            continue;
        };
        for (f, got) in fr.subcarriers.iter().zip(block.iter()) {
            let mut truth = Detection::default();
            det.prepare_frame_into(f, &mut scratch, &mut prep);
            let r2 = det.initial_radius_sqr(f.h.rows(), f.noise_variance);
            det.detect_prepared_into(&prep, r2, &mut ws, &mut truth);
            assert_eq!(got.indices, truth.indices, "frame {} decisions", fr.id);
            assert_eq!(got.stats, truth.stats, "frame {} statistics", fr.id);
        }
    }
}

/// Two workers on one queue decode frames concurrently through ONE shared
/// fixed-point K-best engine; every served block must be bit-identical to
/// a direct fused decode of the same subcarriers.
#[test]
fn kbest_fx_frames_through_two_workers_match_direct_fused_decode() {
    let cfg = grid_workload();
    let c = Constellation::new(cfg.modulation);
    let requests = build_frame_requests(&cfg, &c);
    let n = requests.len();
    let rt = ServeRuntime::start_with_registry(
        ServeConfig::default()
            .with_workers(2)
            .with_shards(1)
            .with_queue_capacity(n)
            .with_ladder(ladder_off()),
        vec![Tier::new(
            "k-best-fx",
            TierCostClass::fixed_kbest(16),
            Box::new(QuantizedKBestSd::new(c.clone(), 16)),
        )],
    );
    for req in requests {
        rt.submit_frame(req).expect("queue sized for the stream");
    }
    let mut served = HashMap::new();
    for _ in 0..n {
        let resp = rt
            .collect_frame_timeout(Duration::from_secs(10))
            .expect("frame path stalled");
        served.insert(resp.request.id, resp.detections);
    }
    let (snap, _, _) = rt.shutdown();
    assert_eq!(snap.frames_served, n as u64);
    assert_eq!(snap.frames_fused, n as u64, "every k-best-fx frame fuses");

    let det = QuantizedKBestSd::new(c.clone(), 16);
    let mut scratch = PrepScratch::new();
    let mut block = BlockPrep::new();
    let mut prep = Prepared::empty();
    let mut ws = SearchWorkspace::new();
    for fr in build_frame_requests(&cfg, &c) {
        let mut want = vec![Detection::default(); fr.block_len()];
        decode_block_fused_into(
            &det,
            &fr.subcarriers,
            &DecodeBudget::UNLIMITED,
            &mut scratch,
            &mut block,
            &mut prep,
            &mut ws,
            &mut want,
        );
        let got = &served[&fr.id];
        assert_eq!(got.len(), want.len(), "frame {} shape", fr.id);
        for (k, (g, w)) in got.iter().zip(&want).enumerate() {
            assert_eq!(g.indices, w.indices, "frame {} sc {k}: decisions", fr.id);
            assert_eq!(g.stats, w.stats, "frame {} sc {k}: statistics", fr.id);
            assert_eq!(
                g.stats.final_radius_sqr.to_bits(),
                w.stats.final_radius_sqr.to_bits(),
                "frame {} sc {k}: metric bits",
                fr.id
            );
        }
    }
}

#[test]
fn mixed_frame_and_vector_traffic_keeps_prep_accounting_closed() {
    // The satellite-2 invariant under the mixture the cache actually
    // sees: cacheable vector traffic (hits + misses), frame traffic
    // (bypass), and a multi-worker pool.
    let cfg = grid_workload();
    let c = Constellation::new(cfg.modulation);
    let frames = build_frame_requests(&cfg, &c);
    let vectors = explode_frames(&frames);
    let n_frames = frames.len();
    let n_vectors = vectors.len();
    let rt = ServeRuntime::start(
        ServeConfig::default()
            .with_workers(2)
            .with_queue_capacity(n_frames + n_vectors)
            .with_prep_cache(4),
        c.clone(),
    );
    // Interleave: vector, frame, vector, frame, ...
    let mut frames = frames.into_iter();
    for req in vectors {
        rt.submit(req).expect("queue sized for the stream");
        if let Some(fr) = frames.next() {
            rt.submit_frame(fr).expect("queue sized for the stream");
        }
    }
    let (snap, _, _) = rt.shutdown();
    assert_eq!(snap.served, (n_vectors + n_vectors) as u64);
    assert_eq!(snap.frames_served, n_frames as u64);
    assert_eq!(snap.frame_subcarriers, n_vectors as u64);
    assert!(
        snap.prep_cache_bypass >= snap.frame_subcarriers,
        "every frame subcarrier bypasses the cache"
    );
    assert_eq!(
        snap.prep_cache_hits + snap.prep_cache_misses + snap.prep_cache_bypass,
        snap.served,
        "hits + misses + bypass == served over mixed traffic"
    );
    assert!(
        snap.prep_amortization > 1.0,
        "coherence blocks amortize preparation"
    );
}

/// A one-subcarrier frame is a vector: the same channel uses submitted
/// as vectors and as one-subcarrier frames through a cacheable tier, with
/// the prep cache on, must decode bit-identically at the same tier *and*
/// take the same path through the cache — the frames count as hits and
/// misses, never as `prep_cache_bypass`.
#[test]
fn one_subcarrier_frames_are_served_exactly_like_vectors() {
    let cfg = grid_workload();
    let c = Constellation::new(cfg.modulation);
    // Coherence-block traffic, so consecutive channel uses repeat one H
    // and the cache sees hits as well as misses.
    let vectors = explode_frames(&build_frame_requests(&cfg, &c));
    let n = vectors.len();
    let exact = || {
        let tier = default_registry(&c, &LadderConfig::default()).remove(0);
        assert!(tier.detector.channel_cacheable(), "exact tier caches preps");
        ServeRuntime::start_with_registry(
            ServeConfig::default()
                .with_workers(1)
                .with_queue_capacity(n)
                .with_ladder(ladder_off())
                .with_prep_cache(4),
            vec![tier],
        )
    };

    let rt = exact();
    let frames: Vec<FrameRequest> = vectors
        .iter()
        .map(|v| FrameRequest::new(v.id, vec![v.frame.clone()], v.snr_db, v.deadline))
        .collect();
    for req in vectors {
        rt.submit(req).expect("queue sized for the stream");
    }
    let mut by_vector = HashMap::new();
    for _ in 0..n {
        let resp = rt
            .collect_timeout(Duration::from_secs(10))
            .expect("vector path stalled");
        by_vector.insert(resp.request.id, (resp.tier, resp.detection));
    }
    let (vec_snap, _, _) = rt.shutdown();

    let rt = exact();
    for req in frames {
        rt.submit_frame(req).expect("queue sized for the stream");
    }
    let mut by_frame = HashMap::new();
    for _ in 0..n {
        let mut resp = rt
            .collect_frame_timeout(Duration::from_secs(10))
            .expect("frame path stalled");
        assert_eq!(resp.detections.len(), 1, "one subcarrier, one detection");
        by_frame.insert(resp.request.id, (resp.tier, resp.detections.remove(0)));
    }
    let (frame_snap, _, _) = rt.shutdown();

    for (id, (tier, want)) in &by_vector {
        let (got_tier, got) = &by_frame[id];
        assert_eq!(got_tier, tier, "use {id}: tier");
        assert_eq!(got.indices, want.indices, "use {id}: decisions");
        assert_eq!(got.stats, want.stats, "use {id}: statistics");
        assert_eq!(
            got.stats.final_radius_sqr.to_bits(),
            want.stats.final_radius_sqr.to_bits(),
            "use {id}: metric bits"
        );
    }
    assert!(vec_snap.prep_cache_hits > 0, "coherent traffic must hit");
    assert_eq!(frame_snap.prep_cache_hits, vec_snap.prep_cache_hits);
    assert_eq!(frame_snap.prep_cache_misses, vec_snap.prep_cache_misses);
    assert_eq!(
        frame_snap.prep_cache_bypass, 0,
        "frames of one take the cache"
    );
    assert_eq!(frame_snap.frames_served, n as u64);
    for snap in [&vec_snap, &frame_snap] {
        assert_eq!(snap.served, n as u64);
        assert_eq!(
            snap.prep_cache_hits + snap.prep_cache_misses + snap.prep_cache_bypass,
            snap.served,
            "hits + misses + bypass == served"
        );
    }
}

#[test]
fn ofdm_decode_serial_amortizes_channel_prep() {
    // The sd-wireless satellite end to end: decode an OFDM symbol through
    // a ChannelPrep held across the `(frame, new_channel)` protocol —
    // each distinct channel factored once — and check the result equals
    // the naive per-subcarrier full preparation, bit for bit.
    let c = Constellation::new(Modulation::Qam4);
    let ofdm = OfdmConfig::new(24, 4, 4, 6);
    let mut rng = StdRng::seed_from_u64(0x0FD7);
    let symbol = OfdmSymbol::generate(&ofdm, &c, 0.05, &mut rng);

    let det: SphereDecoder<f64> = SphereDecoder::new(c.clone());
    let mut scratch = PrepScratch::new();
    let mut chan: ChannelPrep<f64> = ChannelPrep::new();
    let mut prep = Prepared::empty();
    let mut ws = SearchWorkspace::new();
    let mut factorizations = 0usize;
    let mut amortized_indices: Vec<Vec<usize>> = Vec::new();
    let amortized = symbol.decode_serial(&c, |f, new_channel| {
        if new_channel {
            prepare_channel_into(f, det.ordering(), &mut scratch, &mut chan);
            factorizations += 1;
        }
        prepare_with_channel_into(f, det.constellation(), &mut scratch, &mut chan, &mut prep);
        let mut d = Detection::default();
        let r2 = det.initial_radius_sqr(f.h.rows(), f.noise_variance);
        det.detect_prepared_into(&prep, r2, &mut ws, &mut d);
        amortized_indices.push(d.indices.clone());
        d.indices
    });
    assert_eq!(
        factorizations,
        symbol.distinct_channels(),
        "one QR per distinct channel"
    );
    assert_eq!(symbol.distinct_channels(), 4);

    let mut naive_indices: Vec<Vec<usize>> = Vec::new();
    let naive = symbol.decode_serial(&c, |f, _| {
        let mut d = Detection::default();
        det.prepare_frame_into(f, &mut scratch, &mut prep);
        let r2 = det.initial_radius_sqr(f.h.rows(), f.noise_variance);
        det.detect_prepared_into(&prep, r2, &mut ws, &mut d);
        naive_indices.push(d.indices.clone());
        d.indices
    });
    assert_eq!(amortized, naive, "same (errors, bits) either way");
    assert_eq!(
        amortized_indices, naive_indices,
        "amortized prep changes nothing"
    );
}
