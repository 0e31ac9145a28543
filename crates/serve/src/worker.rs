//! The worker loop: drain a batch from the worker's shard, decode each
//! request at its ladder rung, push the batch of responses.
//!
//! Each worker owns every scratch buffer the decode path needs
//! ([`PrepScratch`], [`SearchWorkspace`], a reusable [`Prepared`], a
//! [`BlockPrep`] for the frame path, the batch and response vectors, a
//! batch-level stats accumulator), so the steady-state path performs
//! **zero heap allocations per request**: the registry tiers are driven
//! entirely through [`sd_core::PreparedDetector`]'s `_into` entry points,
//! which write into recycled [`Detection`] slots from the runtime's
//! response pools, and all synchronization costs (ingress lock, response
//! push, metrics merge) are paid once per batch. Because every tier
//! speaks the same engine trait, the worker has no per-detector code at
//! all — serving a new tier is purely a registry entry.
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
//! A batch item is either one vector ([`DetectionRequest`]) or one whole
//! coherence block ([`crate::FrameRequest`]); frames are never split —
//! not by the batcher and not by a steal — so one worker decodes the
//! block with **one** shared channel preparation
//! ([`sd_core::decode_block_fused_into`]) and one ladder decision scaled
//! by the block size. Level-synchronous tiers additionally take the
//! cross-subcarrier **fused** decode (one GEMM batch per tree level for
//! the whole block, counted in `frames_fused`); the rest run the shared-
//! prep per-subcarrier loop. Either way the per-subcarrier results are
//! bit-identical to a per-vector submission of the same traffic. Batches
//! and steals are sized in decisions ([`crate::queue::Weighted`]), so a
//! wide frame is a batch of its own and concurrent frames spread across
//! workers. The registry's engines are shared by every worker and hold no
//! per-decode mutable state — the quantized engines' integer scratch is
//! in the worker's [`SearchWorkspace`] too — so two workers decoding
//! through one engine never wait on each other.

use crate::budget::CostModel;
use crate::ladder::{choose_tier_block_budgeted, choose_tier_budgeted};
use crate::queue::{BatchPop, Weighted};
use crate::request::{DetectionRequest, DetectionResponse, FrameRequest, FrameResponse};
use crate::runtime::{Ingress, Shared};
use sd_core::{
    decode_block_fused_into, BlockPrep, ChannelObservables, Detection, DetectionStats, PrepScratch,
    Prepared, SearchWorkspace,
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
    /// Shared-prep block state for the frame path.
    block: BlockPrep<f64>,
    ws: SearchWorkspace<f64>,
    batch: Vec<Ingress>,
    done: Vec<DetectionResponse>,
    done_frames: Vec<FrameResponse>,
    batch_stats: DetectionStats,
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
            batch_stats: DetectionStats::default(),
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
            self.batch_stats.reset(0);
            for item in batch.drain(..) {
                match item {
                    Ingress::Vector(req) => {
                        let resp = self.serve_one(req, stolen);
                        self.batch_stats.merge(&resp.detection.stats);
                        self.done.push(resp);
                    }
                    Ingress::Frame(req) => {
                        let resp = self.serve_frame(req, stolen);
                        for d in &resp.detections {
                            self.batch_stats.merge(&d.stats);
                        }
                        self.done_frames.push(resp);
                    }
                }
            }
            self.batch = batch;
            let m = &self.shared.metrics;
            m.batches.fetch_add(1, Relaxed);
            m.batch_items.fetch_add(size as u64, Relaxed);
            m.batch_size.record(size as u64);
            m.merge_stats(&self.batch_stats);
            self.shared.out.push_all(&mut self.done);
            self.shared.out_frames.push_all(&mut self.done_frames);
        }
    }

    fn serve_one(&mut self, req: DetectionRequest, stolen: bool) -> DetectionResponse {
        use std::sync::atomic::Ordering::Relaxed;
        let started = Instant::now();
        let enqueued = req.enqueued_at.unwrap_or(started);
        let queue_wait = started.saturating_duration_since(enqueued);
        let remaining = req.deadline.saturating_sub(queue_wait);
        let m = req.frame.h.cols();
        // The pre-decode complexity observable: the channel's conditioning
        // proxy, computed from column norms in O(NM) — far cheaper than
        // the QR it predicts for.
        let cond = ChannelObservables::from_channel(&req.frame.h).condition_log2();
        let decision = choose_tier_budgeted(
            &self.shared.config.ladder,
            self.model(),
            &self.shared.tiers,
            req.snr_db,
            Some(cond),
            m,
            self.order,
            remaining,
        );
        let tier_idx = decision.tier;
        let tier = &self.shared.tiers[tier_idx];
        // Sample the prediction the ladder acted on, so the validation
        // histogram measures exactly the model the decision saw.
        let predicted_ns = self.model().predict_ns_with(
            tier_idx,
            &tier.cost,
            req.snr_db,
            Some(cond),
            m,
            self.order,
        );

        let mut det: Detection = self.shared.pool.lock().unwrap().pop().unwrap_or_default();
        // Channel-coherent preparation: tiers whose preprocessing is the
        // shared QR split go through the shard's factorization cache, so
        // requests repeating one H — which affinity routing lands on this
        // shard — skip the QR. Bit-identical either way; `prep_flops` is
        // charged in full on hits so complexity accounting stays
        // comparable.
        let metrics = &self.shared.metrics;
        let sm = &metrics.shards[self.shard_idx];
        if self.shared.config.prep_cache > 0 && tier.detector.channel_cacheable() {
            let hit = self.shared.shards[self.shard_idx]
                .prep_cache
                .lock()
                .unwrap()
                .prepare(
                    tier_idx,
                    &req.frame,
                    tier.detector.ordering(),
                    tier.detector.constellation(),
                    &mut self.prep_scratch,
                    &mut self.prep,
                );
            if hit {
                metrics.prep_cache_hits.fetch_add(1, Relaxed);
                sm.prep_hits.fetch_add(1, Relaxed);
            } else {
                metrics.prep_cache_misses.fetch_add(1, Relaxed);
                sm.prep_misses.fetch_add(1, Relaxed);
            }
        } else {
            tier.detector
                .prepare_frame_into(&req.frame, &mut self.prep_scratch, &mut self.prep);
            metrics.prep_cache_bypass.fetch_add(1, Relaxed);
            sm.prep_bypass.fetch_add(1, Relaxed);
        }
        let r2 = tier
            .detector
            .initial_radius_sqr(req.frame.h.rows(), req.frame.noise_variance);
        tier.detector.detect_prepared_budgeted_into(
            &self.prep,
            r2,
            &decision.budget,
            &mut self.ws,
            &mut det,
        );

        let service_time = started.elapsed();
        let latency = queue_wait + service_time;
        let deadline_missed = latency > req.deadline;

        let tm = &metrics.tiers[tier_idx];
        tm.served.fetch_add(1, Relaxed);
        let service_ns = service_time.as_nanos() as u64;
        tm.predict_err_ns
            .record((predicted_ns as i64 - service_ns as i64).unsigned_abs());
        // `served` is bumped per request, *before* any miss increment, so
        // a concurrent snapshot never observes missed > served (the old
        // per-batch bump could report miss rates above 1 mid-batch).
        metrics.served.fetch_add(1, Relaxed);
        sm.served.fetch_add(1, Relaxed);
        if !stolen {
            sm.affinity_served.fetch_add(1, Relaxed);
        }
        if deadline_missed {
            metrics.deadline_missed.fetch_add(1, Relaxed);
        }
        // Every response is exactly one of the two: quality_exact +
        // budget_exhausted == served.
        if det.stats.quality.is_truncated() {
            metrics.budget_exhausted.fetch_add(1, Relaxed);
        } else {
            metrics.quality_exact.fetch_add(1, Relaxed);
        }
        metrics.latency_ns.record(latency.as_nanos() as u64);
        metrics.queue_wait_ns.record(queue_wait.as_nanos() as u64);

        self.model().observe_with(
            tier_idx,
            &tier.cost,
            req.snr_db,
            Some(cond),
            det.stats.nodes_generated,
            service_ns,
        );

        DetectionResponse {
            request: req,
            detection: det,
            tier: tier_idx,
            tier_label: Arc::clone(&tier.label),
            queue_wait,
            service_time,
            latency,
            deadline_missed,
        }
    }

    /// Decode one whole coherence block: one ladder decision (per-vector
    /// cost scaled by the block size), one shared channel preparation on
    /// cacheable tiers ([`decode_block_fused_into`]), per-subcarrier
    /// detections into a pooled block buffer. Level-synchronous tiers run
    /// the cross-subcarrier fused sweep (one GEMM batch per tree level);
    /// the fall-back loop serves every other tier — results are
    /// bit-identical either way. Frames bypass the prep cache — every
    /// subcarrier counts as a `prep_cache_bypass` so
    /// `hits + misses + bypass == served` stays an invariant over mixed
    /// traffic.
    fn serve_frame(&mut self, req: FrameRequest, stolen: bool) -> FrameResponse {
        use std::sync::atomic::Ordering::Relaxed;
        let started = Instant::now();
        let enqueued = req.enqueued_at.unwrap_or(started);
        let queue_wait = started.saturating_duration_since(enqueued);
        let remaining = req.deadline.saturating_sub(queue_wait);
        let b = req.block_len();
        let m = req.subcarriers[0].h.cols();
        // One conditioning observable for the whole block — the frame is
        // defined by its shared channel.
        let cond = ChannelObservables::from_channel(&req.subcarriers[0].h).condition_log2();
        let decision = choose_tier_block_budgeted(
            &self.shared.config.ladder,
            self.model(),
            &self.shared.tiers,
            req.snr_db,
            Some(cond),
            m,
            self.order,
            remaining,
            b,
        );
        let tier_idx = decision.tier;
        let tier = &self.shared.tiers[tier_idx];
        // The prediction the ladder compared against the budget: the
        // per-vector model scaled to the block.
        let predicted_ns = self.model().predict_ns_with(
            tier_idx,
            &tier.cost,
            req.snr_db,
            Some(cond),
            m,
            self.order,
        ) * b as f64;

        let mut dets: Vec<Detection> = self
            .shared
            .frame_pool
            .lock()
            .unwrap()
            .pop()
            .unwrap_or_default();
        dets.resize_with(b, Detection::default);
        // Fused block dispatch: level-synchronous tiers decode the whole
        // block one GEMM batch per tree level (bit-identical per
        // subcarrier); everything else falls back to the shared-prep loop
        // inside the same call.
        let (prep_factors, fused) = decode_block_fused_into(
            &*tier.detector,
            &req.subcarriers,
            &decision.budget,
            &mut self.prep_scratch,
            &mut self.block,
            &mut self.prep,
            &mut self.ws,
            &mut dets,
        );

        let service_time = started.elapsed();
        let latency = queue_wait + service_time;
        let deadline_missed = latency > req.deadline;

        let metrics = &self.shared.metrics;
        let sm = &metrics.shards[self.shard_idx];
        let tm = &metrics.tiers[tier_idx];
        tm.served.fetch_add(b as u64, Relaxed);
        let service_ns = service_time.as_nanos() as u64;
        tm.predict_err_ns
            .record((predicted_ns as i64 - service_ns as i64).unsigned_abs());
        // Subcarriers count into the vector-level counters (served before
        // missed, factors before subcarriers — both orders keep concurrent
        // snapshots conservative), frame-level counters track blocks.
        metrics.served.fetch_add(b as u64, Relaxed);
        sm.served.fetch_add(b as u64, Relaxed);
        if !stolen {
            sm.affinity_served.fetch_add(b as u64, Relaxed);
        }
        metrics.frames_served.fetch_add(1, Relaxed);
        if fused {
            metrics.frames_fused.fetch_add(1, Relaxed);
        }
        if deadline_missed {
            metrics.deadline_missed.fetch_add(b as u64, Relaxed);
            metrics.frames_deadline_missed.fetch_add(1, Relaxed);
        }
        // Per-subcarrier quality accounting keeps the invariant over
        // mixed traffic: quality_exact + budget_exhausted == served.
        let truncated = dets
            .iter()
            .filter(|d| d.stats.quality.is_truncated())
            .count() as u64;
        metrics.budget_exhausted.fetch_add(truncated, Relaxed);
        metrics
            .quality_exact
            .fetch_add(b as u64 - truncated, Relaxed);
        metrics.prep_cache_bypass.fetch_add(b as u64, Relaxed);
        sm.prep_bypass.fetch_add(b as u64, Relaxed);
        metrics
            .frame_prep_factors
            .fetch_add(prep_factors as u64, Relaxed);
        metrics.frame_subcarriers.fetch_add(b as u64, Relaxed);
        metrics.frame_size.record(b as u64);
        metrics.frame_latency_ns.record(latency.as_nanos() as u64);
        metrics.queue_wait_ns.record(queue_wait.as_nanos() as u64);

        // One observation per frame at per-vector granularity, so the
        // cost model keeps predicting single-vector service time and the
        // ladder's block scaling stays dimensionally consistent.
        let nodes: u64 = dets.iter().map(|d| d.stats.nodes_generated).sum();
        self.model().observe_with(
            tier_idx,
            &tier.cost,
            req.snr_db,
            Some(cond),
            nodes / b as u64,
            service_ns / b as u64,
        );

        FrameResponse {
            request: req,
            detections: dets,
            tier: tier_idx,
            tier_label: Arc::clone(&tier.label),
            prep_factors,
            queue_wait,
            service_time,
            latency,
            deadline_missed,
        }
    }
}
