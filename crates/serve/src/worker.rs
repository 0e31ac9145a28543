//! The worker loop: drain a batch from the worker's shard, decode each
//! item at its ladder rung, push the batch of responses.
//!
//! Each worker owns every scratch buffer the decode path needs
//! ([`PrepScratch`], [`SearchWorkspace`], a reusable [`Prepared`], a
//! [`BlockPrep`] for blocks, the batch and response vectors), so the
//! steady-state path performs **zero heap allocations per request**: the
//! registry tiers are driven entirely through
//! [`sd_core::PreparedDetector`]'s `_into` entry points, which write into
//! recycled [`Detection`] slots from the runtime's response pools. The
//! ingress lock and the response push are paid once per batch; metrics
//! are relaxed atomic increments. Because every tier speaks the same
//! engine trait, the worker has no per-detector code at all — serving a
//! new tier is purely a registry entry.
//!
//! A worker is pinned to one shard: its ladder decisions consult that
//! shard's [`crate::budget::CostModel`] and its cacheable preparations go
//! through that shard's [`crate::prep_cache::PrepCache`], which affinity
//! routing keeps hot for the channels hashed there. When the shard's
//! queue runs dry (a bounded [`BatchPop::Empty`] wait), the worker
//! **steals** whole queue items from the other shards — at most half a
//! victim's backlog per raid, round-robin from its right-hand neighbor —
//! so an imbalanced hash never idles a core. Stolen work is decoded with
//! the thief's scratch and the thief shard's cache/model; results are
//! bit-identical because every tier's decode depends only on the request,
//! never on which worker ran it.
//!
//! **One serve path.** A batch item is either one vector
//! ([`crate::DetectionRequest`]) or one whole coherence block
//! ([`crate::FrameRequest`]), and both go through [`Worker::serve`]: a
//! vector is a block of `b = 1`. The ladder decision (cost scaled by
//! `b`), the prediction, the budget, the cost-model observation and every
//! shared counter are computed once from `b`. The decode step is chosen
//! by `b`, not by request kind:
//!
//! * `b == 1` keeps the per-vector preparation — through the shard's prep
//!   cache when the tier is cacheable and the cache is on (counted as the
//!   shard's `prep_hits`/`prep_misses`), else a plain
//!   `prepare_frame_into` (`prep_bypass`). A one-subcarrier frame
//!   is served exactly like a vector.
//! * `b > 1` calls [`sd_core::decode_block_fused_into`]: one shared
//!   channel preparation for the block; level-synchronous tiers run the
//!   cross-subcarrier fused sweep (one GEMM batch per tree level, counted
//!   in `frames_fused`), the rest the shared-prep per-subcarrier loop.
//!   Blocks do not go through the prep cache; every subcarrier counts as
//!   a `prep_bypass`, so `hits + misses + bypass == served` holds
//!   over mixed traffic.
//!
//! Either way the per-subcarrier results are bit-identical to a
//! per-vector submission of the same traffic. Only the response type and
//! the frame-only counters (`frames_*`, `frame_*`, and `frame_latency_ns`
//! in place of `latency_ns`) depend on the kind. Frames are never split
//! — not by the batcher and not by a steal — and batches and steals are
//! sized in decisions ([`crate::queue::Weighted`]), so a wide frame is a
//! batch of its own and concurrent frames spread across workers. The
//! registry's engines are shared by every worker and hold no per-decode
//! mutable state — the quantized engines' integer scratch is in the
//! worker's [`SearchWorkspace`] too — so two workers decoding through one
//! engine never wait on each other.

use crate::budget::CostModel;
use crate::ladder::choose_tier;
use crate::queue::{BatchPop, Weighted};
use crate::request::{DetectionResponse, FrameResponse};
use crate::runtime::{Ingress, Shared};
use sd_core::{
    decode_block_fused_into, BlockPrep, ChannelObservables, Detection, PrepScratch, Prepared,
    SearchWorkspace,
};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// How long an idle worker blocks on its own shard before scanning the
/// other shards for stealable backlog. Short enough that a core never
/// idles behind a loaded neighbor, long enough that a busy runtime pays
/// no scan overhead at all.
const STEAL_POLL: Duration = Duration::from_micros(500);

pub(crate) struct Worker {
    shared: Arc<Shared>,
    /// The shard this worker drains and attributes its serving to.
    shard_idx: usize,
    /// Constellation order `P`, an input to the analytic cost curves.
    order: usize,
    prep_scratch: PrepScratch<f64>,
    prep: Prepared<f64>,
    /// Shared-prep block state for blocks of more than one vector.
    block: BlockPrep<f64>,
    ws: SearchWorkspace<f64>,
    batch: Vec<Ingress>,
    done: Vec<DetectionResponse>,
    done_frames: Vec<FrameResponse>,
}

impl Worker {
    pub(crate) fn new(shared: Arc<Shared>, shard_idx: usize) -> Self {
        Worker {
            shard_idx,
            order: shared.tiers[0].detector.constellation().order(),
            prep_scratch: PrepScratch::new(),
            prep: Prepared::empty(),
            block: BlockPrep::new(),
            ws: SearchWorkspace::new(),
            batch: Vec::new(),
            done: Vec::new(),
            done_frames: Vec::new(),
            shared,
        }
    }

    /// This worker's shard-local cost model.
    fn model(&self) -> &CostModel {
        &self.shared.shards[self.shard_idx].model
    }

    pub(crate) fn run(mut self) {
        use std::sync::atomic::Ordering::Relaxed;
        let policy = self.shared.config.batch;
        let n_shards = self.shared.shards.len();
        let stealing = self.shared.config.steal && n_shards > 1;
        loop {
            let mut batch = std::mem::take(&mut self.batch);
            batch.clear();
            // `true` when this batch was looted from another shard.
            let mut stolen = false;
            if stealing {
                let own = &self.shared.shards[self.shard_idx].queue;
                match own.pop_batch_timeout(
                    &mut batch,
                    policy.max_batch,
                    policy.max_wait,
                    STEAL_POLL,
                ) {
                    BatchPop::Closed => {
                        self.batch = batch;
                        return; // closed and drained: shutdown
                    }
                    BatchPop::Batch => {
                        let cost: u64 = batch.iter().map(Ingress::cost_ns).sum();
                        self.shared.shards[self.shard_idx]
                            .queued_cost_ns
                            .fetch_sub(cost, Relaxed);
                    }
                    BatchPop::Empty => {
                        // Own queue is dry: raid the neighbors, starting to
                        // the right so thieves spread across victims.
                        for k in 1..n_shards {
                            let victim = (self.shard_idx + k) % n_shards;
                            let got = self.shared.shards[victim]
                                .queue
                                .steal_into(&mut batch, policy.max_batch);
                            if got > 0 {
                                let weight: u64 = batch.iter().map(Ingress::weight).sum();
                                let cost: u64 = batch.iter().map(Ingress::cost_ns).sum();
                                // Stolen work leaves the victim's backlog:
                                // its admission gauge must shrink with it.
                                self.shared.shards[victim]
                                    .queued_cost_ns
                                    .fetch_sub(cost, Relaxed);
                                let m = &self.shared.metrics;
                                m.shards[self.shard_idx]
                                    .stolen_in
                                    .fetch_add(weight, Relaxed);
                                m.shards[victim].stolen_out.fetch_add(weight, Relaxed);
                                stolen = true;
                                break;
                            }
                        }
                        if !stolen {
                            self.batch = batch;
                            continue; // nothing anywhere: block on our shard again
                        }
                    }
                }
            } else if !self.shared.shards[self.shard_idx].queue.pop_batch(
                &mut batch,
                policy.max_batch,
                policy.max_wait,
            ) {
                self.batch = batch;
                return; // closed and drained: shutdown
            } else {
                let cost: u64 = batch.iter().map(Ingress::cost_ns).sum();
                self.shared.shards[self.shard_idx]
                    .queued_cost_ns
                    .fetch_sub(cost, Relaxed);
            }
            let size = batch.len();
            for item in batch.drain(..) {
                self.serve(item, stolen);
            }
            self.batch = batch;
            let m = &self.shared.metrics;
            m.batches.fetch_add(1, Relaxed);
            m.batch_items.fetch_add(size as u64, Relaxed);
            self.shared.out.push_all(&mut self.done);
            self.shared.out_frames.push_all(&mut self.done_frames);
        }
    }

    /// Serve one queue item — a vector or a whole coherence block of
    /// `b = frames.len()` receive vectors — and queue its response for
    /// the batch push. One ladder decision (per-vector cost scaled by
    /// `b`), one decode (per-vector preparation at `b == 1`, the fused
    /// block driver for wider blocks), one cost-model observation at
    /// per-vector granularity.
    fn serve(&mut self, item: Ingress, stolen: bool) {
        use std::sync::atomic::Ordering::Relaxed;
        let started = Instant::now();
        let enqueued = item.enqueued_at().unwrap_or(started);
        let queue_wait = started.saturating_duration_since(enqueued);
        let deadline = item.deadline();
        let remaining = deadline.saturating_sub(queue_wait);
        let snr_db = item.snr_db();
        let frames = item.frames();
        let b = frames.len();
        let weight = b as u64;
        let m = frames[0].h.cols();
        // The pre-decode complexity observable: the (shared) channel's
        // conditioning proxy, computed from column norms in O(NM) — far
        // cheaper than the QR it predicts for.
        let cond = ChannelObservables::from_channel(&frames[0].h).condition_log2();
        let decision = choose_tier(
            &self.shared.config.ladder,
            self.model(),
            &self.shared.tiers,
            snr_db,
            Some(cond),
            m,
            self.order,
            remaining,
            b,
        );
        let tier_idx = decision.tier;
        let tier = &self.shared.tiers[tier_idx];
        // Sample the prediction the ladder acted on (the per-vector model
        // scaled to the item), so the validation histogram measures
        // exactly the model the decision saw.
        let predicted_ns =
            self.model()
                .predict_ns(tier_idx, &tier.cost, snr_db, Some(cond), m, self.order)
                * b as f64;

        // Pooled response buffers: one slot for a vector, a block for a
        // frame. The unused one stays an empty default (no allocation).
        let mut one = Detection::default();
        let mut block = Vec::new();
        let out: &mut [Detection] = match &item {
            Ingress::Vector(_) => {
                one = self
                    .shared
                    .pool
                    .lock()
                    .expect("detection pool poisoned")
                    .pop()
                    .unwrap_or_default();
                std::slice::from_mut(&mut one)
            }
            Ingress::Frame(_) => {
                block = self
                    .shared
                    .frame_pool
                    .lock()
                    .expect("frame pool poisoned")
                    .pop()
                    .unwrap_or_default();
                block.resize_with(b, Detection::default);
                &mut block
            }
        };

        let metrics = &self.shared.metrics;
        let sm = &metrics.shards[self.shard_idx];
        let (prep_factors, fused) = if b == 1 {
            // Channel-coherent preparation: tiers whose preprocessing is
            // the shared QR split go through the shard's factorization
            // cache, so requests repeating one H — which affinity routing
            // lands on this shard — skip the QR. Bit-identical either way;
            // `prep_flops` is charged in full on hits so complexity
            // accounting stays comparable.
            let frame = &frames[0];
            if self.shared.config.prep_cache > 0 && tier.detector.channel_cacheable() {
                let hit = self.shared.shards[self.shard_idx]
                    .prep_cache
                    .lock()
                    .expect("prep cache poisoned")
                    .prepare(
                        tier_idx,
                        frame,
                        tier.detector.ordering(),
                        tier.detector.constellation(),
                        &mut self.prep_scratch,
                        &mut self.prep,
                    );
                if hit {
                    sm.prep_hits.fetch_add(1, Relaxed);
                } else {
                    sm.prep_misses.fetch_add(1, Relaxed);
                }
            } else {
                tier.detector
                    .prepare_frame_into(frame, &mut self.prep_scratch, &mut self.prep);
                sm.prep_bypass.fetch_add(1, Relaxed);
            }
            let r2 = tier
                .detector
                .initial_radius_sqr(frame.h.rows(), frame.noise_variance);
            tier.detector.detect_prepared_budgeted_into(
                &self.prep,
                r2,
                &decision.budget,
                &mut self.ws,
                &mut out[0],
            );
            (1, false)
        } else {
            sm.prep_bypass.fetch_add(weight, Relaxed);
            decode_block_fused_into(
                &*tier.detector,
                frames,
                &decision.budget,
                &mut self.prep_scratch,
                &mut self.block,
                &mut self.prep,
                &mut self.ws,
                out,
            )
        };

        let service_time = started.elapsed();
        let latency = queue_wait + service_time;
        let deadline_missed = latency > deadline;

        let tm = &metrics.tiers[tier_idx];
        tm.served.fetch_add(weight, Relaxed);
        let service_ns = service_time.as_nanos() as u64;
        tm.predict_err_ns
            .record((predicted_ns as i64 - service_ns as i64).unsigned_abs());
        // `served` counts decisions and is bumped per item, *before* any
        // miss increment, so a concurrent snapshot never observes
        // missed > served (the old per-batch bump could report miss rates
        // above 1 mid-batch).
        metrics.served.fetch_add(weight, Relaxed);
        sm.served.fetch_add(weight, Relaxed);
        if !stolen {
            sm.affinity_served.fetch_add(weight, Relaxed);
        }
        if deadline_missed {
            metrics.deadline_missed.fetch_add(weight, Relaxed);
        }
        // Every decision is exactly one of the two:
        // quality_exact + budget_exhausted == served.
        let truncated = out
            .iter()
            .filter(|d| d.stats.quality.is_truncated())
            .count() as u64;
        metrics.budget_exhausted.fetch_add(truncated, Relaxed);
        metrics.quality_exact.fetch_add(weight - truncated, Relaxed);
        metrics.queue_wait_ns.record(queue_wait.as_nanos() as u64);

        // One observation per item at per-vector granularity, so the cost
        // model keeps predicting single-vector service time and the
        // ladder's block scaling stays dimensionally consistent.
        let nodes: u64 = out.iter().map(|d| d.stats.nodes_generated).sum();
        let leaves: u64 = out.iter().map(|d| d.stats.leaves_reached).sum();
        metrics.nodes_generated.fetch_add(nodes, Relaxed);
        metrics.leaves_reached.fetch_add(leaves, Relaxed);
        self.model().observe(
            tier_idx,
            &tier.cost,
            snr_db,
            Some(cond),
            nodes / weight,
            service_ns / weight,
        );

        let tier_label = Arc::clone(&tier.label);
        match item {
            Ingress::Vector(request) => {
                metrics.latency_ns.record(latency.as_nanos() as u64);
                self.done.push(DetectionResponse {
                    request,
                    detection: one,
                    tier: tier_idx,
                    tier_label,
                    queue_wait,
                    service_time,
                    latency,
                    deadline_missed,
                });
            }
            Ingress::Frame(request) => {
                metrics.frames_served.fetch_add(1, Relaxed);
                if fused {
                    metrics.frames_fused.fetch_add(1, Relaxed);
                }
                if deadline_missed {
                    metrics.frames_deadline_missed.fetch_add(1, Relaxed);
                }
                metrics
                    .frame_prep_factors
                    .fetch_add(prep_factors as u64, Relaxed);
                metrics.frame_subcarriers.fetch_add(weight, Relaxed);
                metrics.frame_latency_ns.record(latency.as_nanos() as u64);
                self.done_frames.push(FrameResponse {
                    request,
                    detections: block,
                    tier: tier_idx,
                    tier_label,
                    prep_factors,
                    queue_wait,
                    service_time,
                    latency,
                    deadline_missed,
                });
            }
        }
    }
}
