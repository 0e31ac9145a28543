//! The sharded runtime adds *topology*, not numerics: serving any
//! workload through N affinity shards — with or without work stealing —
//! is **bit-identical** to the single-queue runtime and to driving the
//! engines directly, for every stock and quantized registry tier and for
//! both per-vector and whole-frame submission. On top of the identity,
//! the per-shard counters must close the global invariants
//! (`Σ routed == accepted`, `Σ shard.served == served`,
//! `hits + misses + bypass == served` and
//! `affinity_served + stolen_in == served` per shard).
//!
//! `SD_SHARDS` sets the shard count under test (default 2; `ci.sh` runs
//! the matrix {1, 2, 4}); `SD_STRESS_ITERS` scales the determinism
//! stress repetitions.

use sd_core::{Detection, PrepScratch, Prepared, PreparedDetector, SearchWorkspace};
use sd_serve::{
    build_coherent_requests, build_frame_requests, default_registry, explode_frames,
    quantized_registry, DetectionRequest, FrameLoadConfig, FrameRequest, LadderConfig, LoadConfig,
    MetricsSnapshot, ServeConfig, ServeRuntime, Tier,
};
use sd_wireless::{Constellation, GridConfig, Modulation, REAL_TIME_BUDGET};
use std::collections::HashMap;
use std::time::Duration;

/// Shard count under test (`SD_SHARDS`, default 2).
fn shards_under_test() -> usize {
    std::env::var("SD_SHARDS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(2)
}

fn workload() -> LoadConfig {
    LoadConfig {
        n_tx: 4,
        n_rx: 4,
        modulation: Modulation::Qam4,
        snr_grid_db: vec![6.0, 10.0, 16.0],
        n_requests: 48,
        offered_rate_hz: 0.0,
        deadline: REAL_TIME_BUDGET,
        seed: 0x54A8D,
    }
}

/// Every tier under test: the stock registry plus the quantized rungs it
/// doesn't already contain, so the identity spans f64 and fixed-point
/// engines. `mk` is called per invocation because tiers own boxed
/// engines and cannot be cloned.
fn tiers_under_test(c: &Constellation) -> Vec<Tier> {
    let ladder = LadderConfig::default();
    let mut tiers = default_registry(c, &ladder);
    let have: Vec<String> = tiers.iter().map(|t| t.label.to_string()).collect();
    for t in quantized_registry(c, &ladder) {
        if !have.iter().any(|l| **l == *t.label) {
            tiers.push(t);
        }
    }
    tiers
}

/// Ground truth: drive the engine directly through the same prepare →
/// radius → decode-into calls the worker makes.
fn direct_decodes(
    detector: &dyn PreparedDetector<f64>,
    requests: &[DetectionRequest],
) -> Vec<Detection> {
    let mut scratch = PrepScratch::new();
    let mut prep = Prepared::empty();
    let mut ws = SearchWorkspace::new();
    requests
        .iter()
        .map(|req| {
            let mut det = Detection::default();
            detector.prepare_frame_into(&req.frame, &mut scratch, &mut prep);
            let r2 = detector.initial_radius_sqr(req.frame.h.rows(), req.frame.noise_variance);
            detector.detect_prepared_into(&prep, r2, &mut ws, &mut det);
            det
        })
        .collect()
}

/// Serve `requests` through a single-tier registry at the given shard
/// count and return the responses keyed by request id, plus the final
/// snapshot.
fn serve_sharded(
    tier: Tier,
    requests: Vec<DetectionRequest>,
    n_shards: usize,
    steal: bool,
) -> (HashMap<u64, Detection>, MetricsSnapshot) {
    let n = requests.len();
    let rt = ServeRuntime::start_with_registry(
        ServeConfig::default()
            .with_workers(n_shards.max(2))
            .with_shards(n_shards)
            .with_stealing(steal)
            .with_queue_capacity(n * n_shards)
            .with_ladder(LadderConfig {
                enabled: false,
                kbest_k: 16,
                anytime: false,
            }),
        vec![tier],
    );
    for req in requests {
        rt.submit(req).expect("queue sized for the whole stream");
    }
    let mut served = HashMap::new();
    for _ in 0..n {
        let resp = rt
            .collect_timeout(Duration::from_secs(10))
            .expect("sharded runtime stalled");
        served.insert(resp.request.id, resp.detection);
    }
    let (snap, leftover, _) = rt.shutdown();
    assert!(leftover.is_empty());
    (served, snap)
}

fn assert_identical(label: &str, served: &HashMap<u64, Detection>, truth: &[Detection]) {
    assert_eq!(served.len(), truth.len(), "{label}: response count");
    for (i, truth) in truth.iter().enumerate() {
        let det = &served[&(i as u64)];
        assert_eq!(det.indices, truth.indices, "{label} req {i}: decisions");
        assert_eq!(det.stats, truth.stats, "{label} req {i}: statistics");
        assert_eq!(
            det.stats.final_radius_sqr.to_bits(),
            truth.stats.final_radius_sqr.to_bits(),
            "{label} req {i}: metric bits"
        );
    }
}

/// Core identity: N shards ≡ 1 shard ≡ direct decode, for every tier, on
/// a coherent-block workload (the shape affinity routing concentrates).
#[test]
fn sharded_serving_is_bit_identical_for_every_tier() {
    let cfg = workload();
    let c = Constellation::new(cfg.modulation);
    let n_shards = shards_under_test();
    let requests = build_coherent_requests(&cfg, 6, &c);
    let truths: Vec<Vec<Detection>> = tiers_under_test(&c)
        .iter()
        .map(|t| direct_decodes(&*t.detector, &requests))
        .collect();
    // N-shard with stealing (requests are not Clone — the seeded builder
    // reproduces the identical stream per arm).
    for (tier, truth) in tiers_under_test(&c).into_iter().zip(&truths) {
        let label = format!("{} @{n_shards} shards", tier.label);
        let stream = build_coherent_requests(&cfg, 6, &c);
        let (served, snap) = serve_sharded(tier, stream, n_shards, true);
        assert_identical(&label, &served, truth);
        assert_eq!(snap.n_shards, n_shards, "workers ≥ shards: no clamping");
    }
    // Single-queue control arm (the pre-shard runtime), stealing moot.
    for (tier, truth) in tiers_under_test(&c).into_iter().zip(&truths) {
        let stream = build_coherent_requests(&cfg, 6, &c);
        let (served, _) = serve_sharded(tier, stream, 1, false);
        assert_identical("control @1 shard", &served, truth);
    }
}

/// Frame submission through N shards ≡ exploded per-vector submission
/// through N shards ≡ exploded per-vector through one shard.
#[test]
fn sharded_frames_match_exploded_vectors() {
    let c = Constellation::new(Modulation::Qam4);
    let n_shards = shards_under_test();
    let fcfg = FrameLoadConfig {
        grid: GridConfig::new(24, 2, 4, 4).with_coherence(8, 2),
        deadline: Duration::from_secs(5),
        ..Default::default()
    };
    let frames = build_frame_requests(&fcfg, &c);
    let n_frames = frames.len();
    let n_vec = explode_frames(&frames).len();

    let mk_rt = |shards: usize| {
        ServeRuntime::start(
            ServeConfig::default()
                .with_workers(shards.max(2))
                .with_shards(shards)
                .with_queue_capacity(n_vec.max(n_frames) * shards.max(1))
                .with_ladder(LadderConfig {
                    enabled: false,
                    kbest_k: 16,
                    anytime: false,
                }),
            c.clone(),
        )
    };

    // Frame arm at N shards.
    let rt = mk_rt(n_shards);
    for f in frames {
        rt.submit_frame(f).expect("sized for the stream");
    }
    let mut by_frame: HashMap<u64, Vec<Detection>> = HashMap::new();
    for _ in 0..n_frames {
        let resp = rt
            .collect_frame_timeout(Duration::from_secs(10))
            .expect("frame arm stalled");
        assert_eq!(resp.prep_factors, 1, "one QR per coherence block");
        by_frame.insert(resp.request.id, resp.detections);
    }
    let (snap, _, _) = rt.shutdown();
    let shard_routed: u64 = snap.shards.iter().map(|s| s.routed).sum();
    assert_eq!(shard_routed, snap.accepted, "frames weigh their block size");

    // Vector arms at N shards and at 1 shard (the stream is rebuilt from
    // the same seed, so both arms replay identical subcarriers).
    for shards in [n_shards, 1] {
        let rt = mk_rt(shards);
        for v in explode_frames(&build_frame_requests(&fcfg, &c)) {
            rt.submit(v).expect("sized for the stream");
        }
        let mut served = HashMap::new();
        for _ in 0..n_vec {
            let resp = rt
                .collect_timeout(Duration::from_secs(10))
                .expect("vector arm stalled");
            served.insert(resp.request.id, resp.detection);
        }
        rt.shutdown();
        let mut k = 0u64;
        for fid in 0..n_frames as u64 {
            for det in &by_frame[&fid] {
                let v = &served[&k];
                assert_eq!(v.indices, det.indices, "frame {fid} vs vector {k}");
                assert_eq!(v.stats, det.stats, "frame {fid} vs vector {k}");
                k += 1;
            }
        }
    }
}

/// Force stealing: every request shares ONE channel matrix, so affinity
/// routing lands the whole stream on a single shard; the other shards'
/// workers can only make progress by stealing. Stolen work must be
/// bit-identical and the attribution counters must close.
#[test]
fn stolen_work_is_bit_identical_and_attributed() {
    let n_shards = shards_under_test();
    if n_shards < 2 {
        return; // nothing to steal from a single shard
    }
    let cfg = LoadConfig {
        n_tx: 8,
        n_rx: 8,
        n_requests: 400,
        snr_grid_db: vec![10.0],
        deadline: Duration::from_secs(5),
        seed: 0x57EA1,
        ..workload()
    };
    let c = Constellation::new(cfg.modulation);
    // One coherence block spanning the whole stream = one H = one shard.
    let requests = build_coherent_requests(&cfg, cfg.n_requests, &c);
    let tier = |c: &Constellation| {
        let mut t = default_registry(c, &LadderConfig::default());
        t.truncate(1); // exact tier only
        t
    };
    let truth = direct_decodes(&*tier(&c)[0].detector, &requests);

    // The backlog drains far slower than the 500 µs steal poll, so a
    // zero-steal run is (astronomically) unlikely; retry a couple of
    // times anyway rather than flake on a pathological scheduler.
    let mut last_snap = None;
    for _attempt in 0..3 {
        let rt = ServeRuntime::start_with_registry(
            ServeConfig::default()
                .with_workers(n_shards.max(2))
                .with_shards(n_shards)
                .with_queue_capacity(cfg.n_requests * n_shards)
                .with_ladder(LadderConfig {
                    enabled: false,
                    kbest_k: 16,
                    anytime: false,
                })
                .paused(),
            tier(&c),
        );
        for req in build_coherent_requests(&cfg, cfg.n_requests, &c) {
            rt.submit(req).expect("sized for the stream");
        }
        let snap = rt.metrics();
        let loaded: Vec<_> = snap.shards.iter().filter(|s| s.routed > 0).collect();
        assert_eq!(loaded.len(), 1, "one H routes to exactly one shard");
        assert_eq!(loaded[0].routed, cfg.n_requests as u64);
        rt.resume();
        let mut served = HashMap::new();
        for _ in 0..cfg.n_requests {
            let resp = rt
                .collect_timeout(Duration::from_secs(10))
                .expect("steal runtime stalled");
            served.insert(resp.request.id, resp.detection);
        }
        let (snap, _, _) = rt.shutdown();
        assert_identical("steal", &served, &truth);
        let stolen_in: u64 = snap.shards.iter().map(|s| s.stolen_in).sum();
        let stolen_out: u64 = snap.shards.iter().map(|s| s.stolen_out).sum();
        assert_eq!(stolen_in, stolen_out, "every loot has a victim");
        for (i, s) in snap.shards.iter().enumerate() {
            assert_eq!(
                s.affinity_served + s.stolen_in,
                s.served,
                "shard {i}: served is affinity + loot"
            );
        }
        if stolen_in > 0 {
            last_snap = Some(snap);
            break;
        }
        last_snap = Some(snap);
    }
    let snap = last_snap.unwrap();
    let stolen: u64 = snap.shards.iter().map(|s| s.stolen_in).sum();
    assert!(stolen > 0, "idle shards never stole from the loaded one");
}

/// Frames are stolen whole: frame traffic concentrated on ONE shard (all
/// frames share one channel matrix) keeps block integrity — one
/// detection per subcarrier, one preparation — no matter which worker
/// ends up decoding each block.
#[test]
fn stolen_frames_stay_whole() {
    let n_shards = shards_under_test();
    if n_shards < 2 {
        return;
    }
    let c = Constellation::new(Modulation::Qam4);
    let fcfg = FrameLoadConfig {
        // One coherence block = one shared H for every frame below.
        grid: GridConfig::new(8, 2, 4, 4).with_coherence(8, 2),
        deadline: Duration::from_secs(5),
        ..Default::default()
    };
    let base = build_frame_requests(&fcfg, &c);
    assert_eq!(base.len(), 1, "one coherence block");
    // 40 frames, every one carrying the same H: they all route to one
    // shard, so any work the other shards' workers do is stolen.
    let frames: Vec<FrameRequest> = (0..40)
        .map(|id| {
            FrameRequest::new(
                id,
                base[0].subcarriers.clone(),
                base[0].snr_db,
                fcfg.deadline,
            )
        })
        .collect();
    let n_frames = frames.len();
    let block = frames[0].block_len();
    let rt = ServeRuntime::start(
        ServeConfig::default()
            .with_workers(n_shards.max(2))
            .with_shards(n_shards)
            .with_queue_capacity(n_frames * n_shards)
            .with_ladder(LadderConfig {
                enabled: false,
                kbest_k: 16,
                anytime: false,
            })
            .paused(),
        c.clone(),
    );
    for f in frames {
        rt.submit_frame(f).expect("sized for the stream");
    }
    rt.resume();
    for _ in 0..n_frames {
        let resp = rt
            .collect_frame_timeout(Duration::from_secs(10))
            .expect("frame steal stalled");
        assert_eq!(resp.detections.len(), block, "block never split");
        assert_eq!(resp.prep_factors, 1, "one preparation per block");
    }
    let (snap, _, _) = rt.shutdown();
    assert_eq!(snap.frames_served, n_frames as u64);
    let served: u64 = snap.shards.iter().map(|s| s.served).sum();
    assert_eq!(served, snap.served, "frame weight survives stealing");
}

/// Per-shard counters close every invariant over a mixed coherent +
/// i.i.d. + frame workload at the shard count under test.
#[test]
fn per_shard_counters_close_the_invariants() {
    let cfg = LoadConfig {
        n_requests: 90,
        ..workload()
    };
    let c = Constellation::new(cfg.modulation);
    let n_shards = shards_under_test();
    let coherent = build_coherent_requests(&cfg, 6, &c);
    let iid = build_coherent_requests(
        &LoadConfig {
            n_requests: 30,
            seed: cfg.seed + 1,
            ..cfg.clone()
        },
        1,
        &c,
    );
    let fcfg = FrameLoadConfig {
        grid: GridConfig::new(8, 2, 4, 4).with_coherence(4, 2),
        deadline: Duration::from_secs(5),
        ..Default::default()
    };
    let frames = build_frame_requests(&fcfg, &c);
    let n_frames = frames.len();
    let n_vec = coherent.len() + iid.len();
    let sub: usize = frames.iter().map(FrameRequest::block_len).sum();

    let rt = ServeRuntime::start(
        ServeConfig::default()
            .with_workers(n_shards.max(2))
            .with_shards(n_shards)
            .with_queue_capacity((n_vec + n_frames) * n_shards),
        c.clone(),
    );
    for (vid, mut req) in coherent.into_iter().chain(iid).enumerate() {
        req.id = vid as u64;
        rt.submit(req).expect("sized");
    }
    for f in frames {
        rt.submit_frame(f).expect("sized");
    }
    let mut got_v = 0;
    let mut got_f = 0;
    while got_v < n_vec || got_f < n_frames {
        let mut progressed = false;
        if let Some(r) = rt.try_collect() {
            got_v += 1;
            drop(r);
            progressed = true;
        }
        if let Some(r) = rt.try_collect_frame() {
            got_f += 1;
            drop(r);
            progressed = true;
        }
        if !progressed {
            std::thread::sleep(Duration::from_millis(1));
        }
    }
    let (snap, _, _) = rt.shutdown();

    let total = (n_vec + sub) as u64;
    assert_eq!(snap.accepted, total);
    assert_eq!(snap.served, total, "accepted == served after drain");
    assert_eq!(
        snap.prep_cache_hits + snap.prep_cache_misses + snap.prep_cache_bypass,
        snap.served,
        "global prep accounting closes"
    );
    assert_eq!(snap.shards.len(), snap.n_shards);
    let routed: u64 = snap.shards.iter().map(|s| s.routed).sum();
    let served: u64 = snap.shards.iter().map(|s| s.served).sum();
    assert_eq!(routed, snap.accepted, "Σ shard.routed == accepted");
    assert_eq!(served, snap.served, "Σ shard.served == served");
    for (i, s) in snap.shards.iter().enumerate() {
        assert_eq!(
            s.prep_hits + s.prep_misses + s.prep_bypass,
            s.served,
            "shard {i}: prep accounting closes"
        );
        assert_eq!(
            s.affinity_served + s.stolen_in,
            s.served,
            "shard {i}: served is affinity + loot"
        );
        assert_eq!(
            s.routed + s.stolen_in - s.stolen_out,
            s.served,
            "shard {i}: flow conservation"
        );
    }
}

/// Determinism stress: the same workload served repeatedly through the
/// sharded runtime — different thread interleavings, steals landing on
/// different workers — must return the same bits every run.
/// `SD_STRESS_ITERS` scales the repetitions (ci.sh runs 25).
#[test]
fn repeated_sharded_runs_are_deterministic() {
    let iters: usize = std::env::var("SD_STRESS_ITERS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(3);
    let cfg = LoadConfig {
        n_requests: 64,
        ..workload()
    };
    let c = Constellation::new(cfg.modulation);
    let n_shards = shards_under_test();
    let requests = build_coherent_requests(&cfg, 8, &c);
    let mut tiers = default_registry(&c, &LadderConfig::default());
    tiers.truncate(1);
    let truth = direct_decodes(&*tiers[0].detector, &requests);
    for run in 0..iters {
        let mut tiers = default_registry(&c, &LadderConfig::default());
        tiers.truncate(1);
        let (served, _) = serve_sharded(
            tiers.pop().unwrap(),
            build_coherent_requests(&cfg, 8, &c),
            n_shards,
            run % 2 == 0, // alternate stealing on and off
        );
        assert_identical(&format!("stress run {run}"), &served, &truth);
    }
}
