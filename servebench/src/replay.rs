//! Off-the-clock replay of captured answers through the public calls the
//! serve worker makes.
//!
//! Every captured decision is decoded again, on one thread, at the tier
//! that served it, and must come out bit-identical: same indices, same
//! node count, same final radius bits, same search quality. With a
//! tracer attached the replay also times each layer call (prep, QR
//! factor and apply, engine search, block prep and block decode), which
//! is where the per-layer metrics of `sd-core` and `sd-math` come from.

use crate::drive::Captured;
use crate::trace::{Tracer, NO_TIER};
use crate::workloads::Pool;
use sd_core::{
    prepare_channel_into, prepare_frame_block_into, prepare_with_channel_into, BlockPrep,
    ChannelPrep, DecodeBudget, Detection, PrepScratch, Prepared, SearchWorkspace,
};
use sd_math::{Matrix, QrFactors};
use sd_serve::{PrepCache, Tier};
use sd_wireless::FrameData;
use std::time::Instant;

/// Replayed traces are numbered from here, above any request sequence.
const REPLAY_TRACE: u64 = 1 << 62;

/// Whether `got` reproduces the served decision `want` bit for bit.
pub fn identical(got: &Detection, want: &Detection) -> bool {
    got.indices == want.indices
        && got.stats.nodes_generated == want.stats.nodes_generated
        && got.stats.final_radius_sqr.to_bits() == want.stats.final_radius_sqr.to_bits()
        && got.stats.quality == want.stats.quality
}

/// Reusable buffers for the replay.
struct Scratch {
    prep_scratch: PrepScratch<f64>,
    prep: Prepared<f64>,
    chan: ChannelPrep<f64>,
    block: BlockPrep<f64>,
    ws: SearchWorkspace<f64>,
    qr: QrFactors<f64>,
    r: Matrix<f64>,
    ybar: Vec<sd_math::Complex<f64>>,
    dets: Vec<Detection>,
}

/// Replay `captured` (decisions served from `pool`) against `registry`.
/// `prep_cache` is the runtime's per-shard cache capacity: when non-zero,
/// cacheable vector tiers prepare through a [`PrepCache`] of that size, as
/// the worker does. Returns the number of decisions that did not come out
/// identical.
pub fn replay(
    pool: &Pool,
    captured: &[Captured],
    registry: &[Tier],
    prep_cache: usize,
    mut tracer: Option<&mut Tracer>,
) -> u64 {
    let mut s = Scratch {
        prep_scratch: PrepScratch::new(),
        prep: Prepared::empty(),
        chan: ChannelPrep::new(),
        block: BlockPrep::new(),
        ws: SearchWorkspace::new(),
        qr: QrFactors::new(),
        r: Matrix::zeros(0, 0),
        ybar: Vec::new(),
        dets: Vec::new(),
    };
    let mut cache = (prep_cache > 0).then(|| PrepCache::new(prep_cache));
    let mut mismatches = 0;
    match pool {
        Pool::Vectors(reqs) => {
            for (k, cap) in captured.iter().enumerate() {
                let frame = &reqs[cap.slot].frame;
                let trace = REPLAY_TRACE + k as u64;
                let tr = tracer.as_deref_mut();
                let det =
                    replay_vector(frame, cap.tier, registry, cache.as_mut(), &mut s, trace, tr);
                mismatches += u64::from(!identical(det, &cap.det));
            }
        }
        Pool::Frames(frames) => {
            // A frame's subcarriers were captured together, in order.
            for (k, group) in captured.chunk_by(|a, b| a.slot == b.slot).enumerate() {
                let subs = &frames[group[0].slot].subcarriers;
                let trace = REPLAY_TRACE + k as u64;
                let tr = tracer.as_deref_mut();
                if !replay_frame(subs, group[0].tier, registry, &mut s, trace, tr) {
                    mismatches += subs.len() as u64;
                    continue;
                }
                for cap in group {
                    mismatches += u64::from(!identical(&s.dets[cap.sub], &cap.det));
                }
                mismatches += (subs.len() - group.len()) as u64;
            }
        }
    }
    mismatches
}

/// Prepare and decode one vector the way the worker does, timing each
/// layer call. Returns the decision.
fn replay_vector<'s>(
    frame: &FrameData,
    tier_idx: usize,
    registry: &[Tier],
    cache: Option<&mut PrepCache>,
    s: &'s mut Scratch,
    trace: u64,
    tracer: Option<&mut Tracer>,
) -> &'s Detection {
    let tier = &registry[tier_idx];
    let det = &*tier.detector;
    let t = tier_idx as u8;
    let mut spans: Vec<(u16, &'static str, u8, u64, Instant, Instant)> = Vec::with_capacity(6);
    let root = Instant::now();
    if det.channel_cacheable() {
        match cache {
            Some(cache) => {
                let t0 = Instant::now();
                let hit = cache.prepare(
                    tier_idx,
                    frame,
                    det.ordering(),
                    det.constellation(),
                    &mut s.prep_scratch,
                    &mut s.prep,
                );
                let name = if hit { "prepare_cached" } else { "prepare" };
                spans.push((1, name, NO_TIER, 0, t0, Instant::now()));
            }
            None => {
                let t0 = Instant::now();
                prepare_channel_into(frame, det.ordering(), &mut s.prep_scratch, &mut s.chan);
                let t1 = Instant::now();
                prepare_with_channel_into(
                    frame,
                    det.constellation(),
                    &mut s.prep_scratch,
                    &mut s.chan,
                    &mut s.prep,
                );
                let t2 = Instant::now();
                spans.push((1, "prepare", NO_TIER, 0, t0, t2));
                spans.push((2, "prepare_cached", NO_TIER, 0, t1, t2));
            }
        }
    } else {
        let t0 = Instant::now();
        det.prepare_frame_into(frame, &mut s.prep_scratch, &mut s.prep);
        spans.push((1, "prepare_linear", NO_TIER, 0, t0, Instant::now()));
    }
    if s.dets.is_empty() {
        s.dets.push(Detection::default());
    }
    let r2 = det.initial_radius_sqr(frame.h.rows(), frame.noise_variance);
    let t0 = Instant::now();
    det.detect_prepared_into(&s.prep, r2, &mut s.ws, &mut s.dets[0]);
    let t1 = Instant::now();
    spans.push((3, "search", t, s.dets[0].stats.nodes_generated, t0, t1));
    qr_calls(frame, s, &mut spans);
    if let Some(tr) = tracer {
        tr.record(trace, 0, 0, "replay", t, 1, 0, root, Instant::now());
        for (id, name, tier, work, a, b) in spans {
            // The cached half of a split prep is part of the full prep.
            let parent = if id == 2 { 1 } else { 0 };
            tr.record(trace, id, parent, name, tier, 1, work, a, b);
        }
    }
    &s.dets[0]
}

/// Prepare and decode one coherence block through the fused block path
/// the worker takes for a fusable tier. Decisions land in `s.dets`.
/// Returns whether the tier fused; a frame workload's tiers all do, so a
/// block that did not fuse counts as not reproduced.
fn replay_frame(
    subs: &[FrameData],
    tier_idx: usize,
    registry: &[Tier],
    s: &mut Scratch,
    trace: u64,
    tracer: Option<&mut Tracer>,
) -> bool {
    let det = &*registry[tier_idx].detector;
    let t = tier_idx as u8;
    let b = subs.len();
    s.dets.resize_with(b, Detection::default);
    let mut spans = Vec::with_capacity(5);
    let root = Instant::now();
    let t0 = Instant::now();
    prepare_frame_block_into(subs, det.ordering(), &mut s.prep_scratch, &mut s.block);
    spans.push((1, "block_prepare", NO_TIER, 0, t0, Instant::now()));
    let t1 = Instant::now();
    let fused = det.detect_block_prepared_budgeted_into(
        &s.block,
        subs,
        &DecodeBudget::UNLIMITED,
        &mut s.prep,
        &mut s.ws,
        &mut s.dets,
    );
    let t2 = Instant::now();
    let nodes: u64 = s.dets.iter().map(|d| d.stats.nodes_generated).sum();
    spans.push((2, "block_decode", t, nodes, t1, t2));
    qr_calls(&subs[0], s, &mut spans);
    if let Some(tr) = tracer {
        let items = b as u32;
        tr.record(trace, 0, 0, "replay", t, items, 0, root, Instant::now());
        for (id, name, tier, work, a, b) in spans {
            tr.record(trace, id, 0, name, tier, items, work, a, b);
        }
    }
    fused
}

/// The `sd-math` QR calls on the same channel: factor `H`, apply `Qᴴ`
/// to its `y`.
#[allow(clippy::type_complexity)]
fn qr_calls(
    frame: &FrameData,
    s: &mut Scratch,
    spans: &mut Vec<(u16, &'static str, u8, u64, Instant, Instant)>,
) {
    let t0 = Instant::now();
    s.qr.factor(&frame.h, &mut s.r);
    let t1 = Instant::now();
    s.qr.apply_qty_into(&frame.y, &mut s.ybar);
    let t2 = Instant::now();
    spans.push((4, "qr.factor", NO_TIER, 0, t0, t1));
    spans.push((5, "qr.apply", NO_TIER, 0, t1, t2));
}
