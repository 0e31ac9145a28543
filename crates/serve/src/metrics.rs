//! Lock-light runtime metrics: atomic counters, log2 latency histograms,
//! per-tier serve counters with cost-model validation, and one aggregated
//! [`DetectionStats`] merged per batch.
//!
//! Everything on the per-request path is a relaxed atomic increment; the
//! only lock is the per-*batch* [`DetectionStats`] merge, amortized by the
//! batcher. Tier-indexed metrics are sized from the runtime's tier
//! registry at construction, so custom registries get first-class
//! accounting with no code changes. [`Metrics::snapshot`] materializes a
//! plain-data [`MetricsSnapshot`] for reports and the load harness.

use sd_core::DetectionStats;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

const N_BUCKETS: usize = 64;

/// Histogram over power-of-two buckets: bucket `i` counts values with
/// `floor(log2(v)) == i` (value 0 lands in bucket 0). Records are one
/// relaxed atomic increment; quantiles are computed from a snapshot and
/// are upper bounds (bucket upper edge), so p50/p99 never understate.
pub struct Log2Histogram {
    buckets: [AtomicU64; N_BUCKETS],
}

impl Log2Histogram {
    /// Empty histogram.
    pub fn new() -> Self {
        Log2Histogram {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
        }
    }

    /// Record one value.
    pub fn record(&self, v: u64) {
        let idx = 63 - (v | 1).leading_zeros() as usize;
        self.buckets[idx].fetch_add(1, Ordering::Relaxed);
    }

    /// Copy the current bucket counts.
    pub fn counts(&self) -> [u64; N_BUCKETS] {
        std::array::from_fn(|i| self.buckets[i].load(Ordering::Relaxed))
    }

    /// Total records in a snapshot.
    pub fn total(counts: &[u64; N_BUCKETS]) -> u64 {
        counts.iter().sum()
    }

    /// Quantile `q` in `[0, 1]` from snapshotted counts, as the upper edge
    /// of the containing bucket; 0 when empty. The top bucket has no finite
    /// upper edge, so it saturates to its lower edge (`2^63`) — still an
    /// honest "at least this much" figure, without the `u64::MAX` sentinel
    /// poisoning every downstream µs conversion.
    pub fn quantile(counts: &[u64; N_BUCKETS], q: f64) -> u64 {
        let total = Self::total(counts);
        if total == 0 {
            return 0;
        }
        let target = ((q * total as f64).ceil() as u64).clamp(1, total);
        let mut cum = 0u64;
        for (i, &c) in counts.iter().enumerate() {
            cum += c;
            if cum >= target {
                return if i >= N_BUCKETS - 1 {
                    1u64 << (N_BUCKETS - 1)
                } else {
                    (1u64 << (i + 1)) - 1
                };
            }
        }
        1u64 << (N_BUCKETS - 1)
    }
}

impl Default for Log2Histogram {
    fn default() -> Self {
        Self::new()
    }
}

/// Per-tier hot-path counters, one slot per registry tier.
pub struct TierMetrics {
    /// The tier's registry label.
    pub label: Arc<str>,
    /// Responses served at this tier.
    pub served: AtomicU64,
    /// Cost-model validation: distribution of `|predicted − actual|`
    /// decode nanoseconds for requests served at this tier.
    pub predict_err_ns: Log2Histogram,
}

/// Per-shard hot-path counters, one slot per runtime shard. Summed over
/// shards these close the global invariants (`Σ routed == accepted`,
/// `Σ served == served`, per-shard `hits + misses + bypass == served`);
/// individually they show where affinity routing sent the traffic and how
/// much of it was stolen away.
pub struct ShardMetrics {
    /// Items admission routed to this shard (subcarriers for frames).
    pub routed: AtomicU64,
    /// Items served by this shard's workers (from its own queue or loot).
    pub served: AtomicU64,
    /// Items served from the shard's *own* queue — the affinity-routed
    /// path. `served − affinity_served` arrived by stealing.
    pub affinity_served: AtomicU64,
    /// Items this shard's workers stole from other shards.
    pub stolen_in: AtomicU64,
    /// Items other shards' workers stole from this queue.
    pub stolen_out: AtomicU64,
    /// This shard's prep-cache hits (see the global counters).
    pub prep_hits: AtomicU64,
    /// This shard's prep-cache misses.
    pub prep_misses: AtomicU64,
    /// This shard's cache bypasses (disabled, non-cacheable tier, blocks of
    /// more than one subcarrier).
    pub prep_bypass: AtomicU64,
}

/// Shared runtime counters. All fields are written on the hot path with
/// relaxed atomics except `stats`, merged once per batch.
pub struct Metrics {
    /// Logical cores the host reported at startup (the default worker and
    /// core-budget allowance derive from it).
    pub host_cores: usize,
    /// Current subtree-decoder lane allowance planned by the adaptive
    /// core-budget controller (0 until a controller is attached).
    pub core_budget: AtomicU64,
    /// Times the controller changed the plan.
    pub budget_replans: AtomicU64,
    /// Per-shard counters, indexed by shard.
    pub shards: Vec<ShardMetrics>,
    /// Requests admitted into the ingress queue.
    pub accepted: AtomicU64,
    /// Requests refused because the queue was full.
    pub rejected_full: AtomicU64,
    /// Requests refused because the runtime was shutting down.
    pub rejected_shutdown: AtomicU64,
    /// Requests refused by predictive admission control: the target
    /// shard's predicted queue wait already exceeded the whole deadline
    /// (see [`crate::RejectReason::PredictedLate`]). Always 0 with the
    /// gate off.
    pub rejected_predicted: AtomicU64,
    /// Responses produced.
    pub served: AtomicU64,
    /// Per-tier serve counters and cost-model error, indexed by tier.
    pub tiers: Vec<TierMetrics>,
    /// Responses whose end-to-end latency exceeded their deadline.
    pub deadline_missed: AtomicU64,
    /// Responses whose search ran to completion ([`sd_core::SearchQuality::Exact`]).
    /// `quality_exact + budget_exhausted == served` once the runtime is
    /// quiescent — every response is one or the other.
    pub quality_exact: AtomicU64,
    /// Responses truncated by their decode budget
    /// ([`sd_core::SearchQuality::BudgetTruncated`]): the anytime engine
    /// returned its best-so-far answer at the node cap or deadline.
    pub budget_exhausted: AtomicU64,
    /// Requests whose preparation reused a cached channel factorization.
    pub prep_cache_hits: AtomicU64,
    /// Requests whose preparation factored (and cached) their channel.
    pub prep_cache_misses: AtomicU64,
    /// Requests prepared outside the cache (cache disabled, the tier's
    /// preprocessing is not channel-cacheable, or a subcarrier of a block
    /// of more than one). Every served request is exactly one of hit /
    /// miss / bypass.
    pub prep_cache_bypass: AtomicU64,
    /// Batches drained from the ingress queue.
    pub batches: AtomicU64,
    /// Total requests across all batches (mean batch = items / batches).
    pub batch_items: AtomicU64,
    /// Frame requests admitted (their subcarriers also count in
    /// `accepted`, so vector-level accounting stays closed over mixed
    /// traffic).
    pub frames_accepted: AtomicU64,
    /// Frame requests shed at admission (queue full).
    pub frames_rejected_full: AtomicU64,
    /// Frame requests refused during shutdown.
    pub frames_rejected_shutdown: AtomicU64,
    /// Frame requests refused by predictive admission control (their
    /// subcarriers also count in `rejected_predicted`).
    pub frames_rejected_predicted: AtomicU64,
    /// Frame responses produced (their subcarriers also count in
    /// `served`).
    pub frames_served: AtomicU64,
    /// Frames decoded by the cross-subcarrier **fused** block path (one
    /// GEMM batch per tree level for the whole block); the remainder
    /// (`frames_served − frames_fused`) ran the per-subcarrier loop.
    pub frames_fused: AtomicU64,
    /// Frames whose end-to-end latency exceeded their deadline (their
    /// subcarriers also count in `deadline_missed`).
    pub frames_deadline_missed: AtomicU64,
    /// Subcarriers decoded through the frame path.
    pub frame_subcarriers: AtomicU64,
    /// Channel preparations the frame path performed — 1 per frame on the
    /// shared-prep path, `block_len` on the per-vector fallback. The
    /// prep-amortization ratio is `frame_subcarriers / frame_prep_factors`
    /// (block size when every frame shares its prep).
    pub frame_prep_factors: AtomicU64,
    /// Subcarriers-per-frame distribution.
    pub frame_size: Log2Histogram,
    /// Frame end-to-end latency distribution (nanoseconds).
    pub frame_latency_ns: Log2Histogram,
    /// End-to-end latency distribution (nanoseconds).
    pub latency_ns: Log2Histogram,
    /// Queue-wait distribution (nanoseconds).
    pub queue_wait_ns: Log2Histogram,
    /// Batch-size distribution.
    pub batch_size: Log2Histogram,
    /// Aggregated decoder instrumentation, merged per batch.
    stats: Mutex<DetectionStats>,
}

impl Metrics {
    /// Zeroed metrics with one tier slot per registry label and one shard
    /// slot per runtime shard. `host_cores` is recorded verbatim for the
    /// exports.
    pub fn new(tier_labels: Vec<Arc<str>>, n_shards: usize, host_cores: usize) -> Self {
        Metrics {
            host_cores,
            core_budget: AtomicU64::new(0),
            budget_replans: AtomicU64::new(0),
            shards: (0..n_shards)
                .map(|_| ShardMetrics {
                    routed: AtomicU64::new(0),
                    served: AtomicU64::new(0),
                    affinity_served: AtomicU64::new(0),
                    stolen_in: AtomicU64::new(0),
                    stolen_out: AtomicU64::new(0),
                    prep_hits: AtomicU64::new(0),
                    prep_misses: AtomicU64::new(0),
                    prep_bypass: AtomicU64::new(0),
                })
                .collect(),
            accepted: AtomicU64::new(0),
            rejected_full: AtomicU64::new(0),
            rejected_shutdown: AtomicU64::new(0),
            rejected_predicted: AtomicU64::new(0),
            served: AtomicU64::new(0),
            tiers: tier_labels
                .into_iter()
                .map(|label| TierMetrics {
                    label,
                    served: AtomicU64::new(0),
                    predict_err_ns: Log2Histogram::new(),
                })
                .collect(),
            deadline_missed: AtomicU64::new(0),
            quality_exact: AtomicU64::new(0),
            budget_exhausted: AtomicU64::new(0),
            prep_cache_hits: AtomicU64::new(0),
            prep_cache_misses: AtomicU64::new(0),
            prep_cache_bypass: AtomicU64::new(0),
            batches: AtomicU64::new(0),
            batch_items: AtomicU64::new(0),
            frames_accepted: AtomicU64::new(0),
            frames_rejected_full: AtomicU64::new(0),
            frames_rejected_shutdown: AtomicU64::new(0),
            frames_rejected_predicted: AtomicU64::new(0),
            frames_served: AtomicU64::new(0),
            frames_fused: AtomicU64::new(0),
            frames_deadline_missed: AtomicU64::new(0),
            frame_subcarriers: AtomicU64::new(0),
            frame_prep_factors: AtomicU64::new(0),
            frame_size: Log2Histogram::new(),
            frame_latency_ns: Log2Histogram::new(),
            latency_ns: Log2Histogram::new(),
            queue_wait_ns: Log2Histogram::new(),
            batch_size: Log2Histogram::new(),
            stats: Mutex::new(DetectionStats::default()),
        }
    }

    /// Merge one batch's aggregated decoder stats.
    pub fn merge_stats(&self, batch: &DetectionStats) {
        self.stats.lock().unwrap().merge(batch);
    }

    /// Materialize a plain-data snapshot. `shard_depths` holds each shard
    /// queue's depth, sampled by the caller (the runtime knows the queues;
    /// the metrics do not) — the aggregate `queue_depth` is their sum, and
    /// an empty slice reads as all-empty (shutdown snapshots).
    pub fn snapshot(&self, shard_depths: &[usize]) -> MetricsSnapshot {
        let queue_depth = shard_depths.iter().sum();
        let lat = self.latency_ns.counts();
        let wait = self.queue_wait_ns.counts();
        let flat = self.frame_latency_ns.counts();
        // Load `missed` before `served`: workers bump `served` first, so
        // this order can only under-report the miss rate mid-update, never
        // push it above 1. Same order for the frame-level pair.
        let missed = self.deadline_missed.load(Ordering::Relaxed);
        let served = self.served.load(Ordering::Relaxed);
        let frames_missed = self.frames_deadline_missed.load(Ordering::Relaxed);
        let frames_served = self.frames_served.load(Ordering::Relaxed);
        // Amortization ratio = subcarriers / factors. Workers bump factors
        // before subcarriers and this load order is the reverse, so a
        // mid-update read can only under-report the ratio.
        let frame_subcarriers = self.frame_subcarriers.load(Ordering::Relaxed);
        let frame_prep_factors = self.frame_prep_factors.load(Ordering::Relaxed);
        let batches = self.batches.load(Ordering::Relaxed);
        let items = self.batch_items.load(Ordering::Relaxed);
        MetricsSnapshot {
            host_cores: self.host_cores,
            n_shards: self.shards.len(),
            core_budget: self.core_budget.load(Ordering::Relaxed),
            budget_replans: self.budget_replans.load(Ordering::Relaxed),
            shards: self
                .shards
                .iter()
                .enumerate()
                .map(|(i, s)| ShardSnapshot {
                    routed: s.routed.load(Ordering::Relaxed),
                    served: s.served.load(Ordering::Relaxed),
                    affinity_served: s.affinity_served.load(Ordering::Relaxed),
                    stolen_in: s.stolen_in.load(Ordering::Relaxed),
                    stolen_out: s.stolen_out.load(Ordering::Relaxed),
                    prep_hits: s.prep_hits.load(Ordering::Relaxed),
                    prep_misses: s.prep_misses.load(Ordering::Relaxed),
                    prep_bypass: s.prep_bypass.load(Ordering::Relaxed),
                    queue_depth: shard_depths.get(i).copied().unwrap_or(0),
                })
                .collect(),
            accepted: self.accepted.load(Ordering::Relaxed),
            rejected_full: self.rejected_full.load(Ordering::Relaxed),
            rejected_shutdown: self.rejected_shutdown.load(Ordering::Relaxed),
            rejected_predicted: self.rejected_predicted.load(Ordering::Relaxed),
            served,
            tiers: self
                .tiers
                .iter()
                .map(|t| {
                    let err = t.predict_err_ns.counts();
                    TierSnapshot {
                        label: Arc::clone(&t.label),
                        served: t.served.load(Ordering::Relaxed),
                        p50_predict_err_us: Log2Histogram::quantile(&err, 0.50) as f64 / 1e3,
                        p99_predict_err_us: Log2Histogram::quantile(&err, 0.99) as f64 / 1e3,
                    }
                })
                .collect(),
            deadline_missed: missed,
            quality_exact: self.quality_exact.load(Ordering::Relaxed),
            budget_exhausted: self.budget_exhausted.load(Ordering::Relaxed),
            prep_cache_hits: self.prep_cache_hits.load(Ordering::Relaxed),
            prep_cache_misses: self.prep_cache_misses.load(Ordering::Relaxed),
            prep_cache_bypass: self.prep_cache_bypass.load(Ordering::Relaxed),
            deadline_miss_rate: if served == 0 {
                0.0
            } else {
                missed as f64 / served as f64
            },
            batches,
            mean_batch_size: if batches == 0 {
                0.0
            } else {
                items as f64 / batches as f64
            },
            frames_accepted: self.frames_accepted.load(Ordering::Relaxed),
            frames_rejected_full: self.frames_rejected_full.load(Ordering::Relaxed),
            frames_rejected_shutdown: self.frames_rejected_shutdown.load(Ordering::Relaxed),
            frames_rejected_predicted: self.frames_rejected_predicted.load(Ordering::Relaxed),
            frames_served,
            frames_fused: self.frames_fused.load(Ordering::Relaxed),
            frames_deadline_missed: frames_missed,
            frame_subcarriers,
            frame_prep_factors,
            mean_frame_size: if frames_served == 0 {
                0.0
            } else {
                frame_subcarriers as f64 / frames_served as f64
            },
            prep_amortization: if frame_prep_factors == 0 {
                0.0
            } else {
                frame_subcarriers as f64 / frame_prep_factors as f64
            },
            p99_frame_latency_us: Log2Histogram::quantile(&flat, 0.99) as f64 / 1e3,
            queue_depth,
            p50_latency_us: Log2Histogram::quantile(&lat, 0.50) as f64 / 1e3,
            p99_latency_us: Log2Histogram::quantile(&lat, 0.99) as f64 / 1e3,
            p99_queue_wait_us: Log2Histogram::quantile(&wait, 0.99) as f64 / 1e3,
            stats: self.stats.lock().unwrap().clone(),
        }
    }
}

/// One tier's plain-data view at snapshot time.
#[derive(Clone, Debug)]
pub struct TierSnapshot {
    /// The tier's registry label.
    pub label: Arc<str>,
    /// Responses served at this tier.
    pub served: u64,
    /// Median `|predicted − actual|` decode time (µs, bucket upper bound)
    /// — how well the cost model knows this tier.
    pub p50_predict_err_us: f64,
    /// 99th-percentile cost-model error (µs, bucket upper bound).
    pub p99_predict_err_us: f64,
}

/// One shard's plain-data view at snapshot time (see [`ShardMetrics`]).
#[derive(Clone, Debug)]
pub struct ShardSnapshot {
    /// Items admission routed here (subcarriers for frames).
    pub routed: u64,
    /// Items served by this shard's workers.
    pub served: u64,
    /// Items served from the shard's own (affinity-routed) queue.
    pub affinity_served: u64,
    /// Items this shard's workers stole from other shards.
    pub stolen_in: u64,
    /// Items other shards stole from this queue.
    pub stolen_out: u64,
    /// This shard's prep-cache hits.
    pub prep_hits: u64,
    /// This shard's prep-cache misses.
    pub prep_misses: u64,
    /// This shard's cache bypasses.
    pub prep_bypass: u64,
    /// This shard queue's depth when the snapshot was taken.
    pub queue_depth: usize,
}

/// Plain-data view of [`Metrics`] at one instant.
#[derive(Clone, Debug)]
pub struct MetricsSnapshot {
    /// Logical cores the host reported at startup.
    pub host_cores: usize,
    /// Number of runtime shards.
    pub n_shards: usize,
    /// Current subtree-decoder lane allowance (0 without a controller).
    pub core_budget: u64,
    /// Times the core-budget controller changed the plan.
    pub budget_replans: u64,
    /// Per-shard counters, indexed by shard.
    pub shards: Vec<ShardSnapshot>,
    /// Requests admitted.
    pub accepted: u64,
    /// Requests shed at admission (queue full).
    pub rejected_full: u64,
    /// Requests refused during shutdown.
    pub rejected_shutdown: u64,
    /// Requests shed by predictive admission control (predicted queue
    /// wait exceeded the whole deadline; 0 with the gate off).
    pub rejected_predicted: u64,
    /// Responses produced.
    pub served: u64,
    /// Per-tier serve counts and cost-model error, indexed by tier.
    pub tiers: Vec<TierSnapshot>,
    /// Deadline misses among served responses.
    pub deadline_missed: u64,
    /// Responses whose search ran to completion (exact quality).
    pub quality_exact: u64,
    /// Responses truncated by their decode budget (anytime best-so-far).
    pub budget_exhausted: u64,
    /// Requests whose preparation reused a cached channel factorization.
    pub prep_cache_hits: u64,
    /// Requests whose preparation factored (and cached) their channel.
    pub prep_cache_misses: u64,
    /// Requests prepared outside the cache (disabled, non-cacheable tier,
    /// or a subcarrier of a block of more than one). `hits + misses +
    /// bypass` counts every prepared request.
    pub prep_cache_bypass: u64,
    /// `deadline_missed / served`.
    pub deadline_miss_rate: f64,
    /// Batches drained.
    pub batches: u64,
    /// Mean requests per batch.
    pub mean_batch_size: f64,
    /// Frame requests admitted (subcarriers also count in `accepted`).
    pub frames_accepted: u64,
    /// Frame requests shed at admission.
    pub frames_rejected_full: u64,
    /// Frame requests refused during shutdown.
    pub frames_rejected_shutdown: u64,
    /// Frame requests shed by predictive admission control.
    pub frames_rejected_predicted: u64,
    /// Frame responses produced (subcarriers also count in `served`).
    pub frames_served: u64,
    /// Frames decoded by the cross-subcarrier fused block path.
    pub frames_fused: u64,
    /// Frames that exceeded their deadline.
    pub frames_deadline_missed: u64,
    /// Subcarriers decoded through the frame path.
    pub frame_subcarriers: u64,
    /// Channel preparations the frame path performed.
    pub frame_prep_factors: u64,
    /// Mean subcarriers per served frame.
    pub mean_frame_size: f64,
    /// `frame_subcarriers / frame_prep_factors` — how many subcarriers
    /// each channel factorization served (block size when every frame
    /// rode the shared-prep path; 1.0 means no amortization).
    pub prep_amortization: f64,
    /// 99th-percentile frame end-to-end latency (µs, bucket upper bound).
    pub p99_frame_latency_us: f64,
    /// Ingress depth when the snapshot was taken.
    pub queue_depth: usize,
    /// Median end-to-end latency (µs, bucket upper bound).
    pub p50_latency_us: f64,
    /// 99th-percentile end-to-end latency (µs, bucket upper bound).
    pub p99_latency_us: f64,
    /// 99th-percentile queue wait (µs, bucket upper bound).
    pub p99_queue_wait_us: f64,
    /// Aggregated decoder instrumentation across all served requests.
    pub stats: DetectionStats,
}

impl MetricsSnapshot {
    /// Serve count of the tier labelled `label` (0 if absent).
    pub fn tier_served(&self, label: &str) -> u64 {
        self.tiers
            .iter()
            .find(|t| &*t.label == label)
            .map_or(0, |t| t.served)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn labels(names: &[&str]) -> Vec<Arc<str>> {
        names.iter().map(|&n| Arc::from(n)).collect()
    }

    #[test]
    fn histogram_buckets_by_log2() {
        let h = Log2Histogram::new();
        h.record(0); // bucket 0
        h.record(1); // bucket 0
        h.record(2); // bucket 1
        h.record(3); // bucket 1
        h.record(1024); // bucket 10
        let c = h.counts();
        assert_eq!(c[0], 2);
        assert_eq!(c[1], 2);
        assert_eq!(c[10], 1);
        assert_eq!(Log2Histogram::total(&c), 5);
    }

    #[test]
    fn quantiles_are_bucket_upper_bounds() {
        let h = Log2Histogram::new();
        for _ in 0..99 {
            h.record(100); // bucket 6, upper edge 127
        }
        h.record(1 << 20); // one outlier
        let c = h.counts();
        assert_eq!(Log2Histogram::quantile(&c, 0.50), 127);
        assert_eq!(Log2Histogram::quantile(&c, 0.99), 127);
        assert_eq!(Log2Histogram::quantile(&c, 1.0), (1 << 21) - 1);
        assert_eq!(Log2Histogram::quantile(&[0; N_BUCKETS], 0.5), 0);
    }

    #[test]
    fn top_bucket_quantile_saturates() {
        // The top bucket's upper edge would overflow u64; the quantile
        // saturates to the bucket's lower edge instead of the old
        // `u64::MAX` sentinel (which rendered as ~1.8e16 µs).
        let h = Log2Histogram::new();
        h.record(u64::MAX);
        let c = h.counts();
        assert_eq!(c[N_BUCKETS - 1], 1);
        let top = Log2Histogram::quantile(&c, 1.0);
        assert_eq!(top, 1u64 << (N_BUCKETS - 1));
        assert!(top < u64::MAX);
        assert_eq!(Log2Histogram::quantile(&c, 0.5), top);
    }

    #[test]
    fn snapshot_records_shards_and_host() {
        let m = Metrics::new(labels(&["exact"]), 2, 8);
        m.shards[0].routed.store(5, Ordering::Relaxed);
        m.shards[0].served.store(4, Ordering::Relaxed);
        m.shards[0].affinity_served.store(3, Ordering::Relaxed);
        m.shards[0].stolen_out.store(1, Ordering::Relaxed);
        m.shards[1].stolen_in.store(1, Ordering::Relaxed);
        m.core_budget.store(6, Ordering::Relaxed);
        m.budget_replans.store(2, Ordering::Relaxed);
        let s = m.snapshot(&[3, 1]);
        assert_eq!(s.host_cores, 8);
        assert_eq!(s.n_shards, 2);
        assert_eq!(s.core_budget, 6);
        assert_eq!(s.budget_replans, 2);
        assert_eq!(s.queue_depth, 4, "aggregate depth sums the shards");
        assert_eq!(s.shards[0].queue_depth, 3);
        assert_eq!(s.shards[1].queue_depth, 1);
        assert_eq!(s.shards[0].routed, 5);
        assert_eq!(s.shards[0].affinity_served, 3);
        assert_eq!(s.shards[0].stolen_out, 1);
        assert_eq!(s.shards[1].stolen_in, 1);
        // A shutdown snapshot may pass an empty depth slice.
        let s = m.snapshot(&[]);
        assert_eq!(s.queue_depth, 0);
        assert_eq!(s.shards[0].queue_depth, 0);
    }

    #[test]
    fn snapshot_computes_rates() {
        let m = Metrics::new(labels(&["exact", "mmse"]), 1, 1);
        m.served.store(8, Ordering::Relaxed);
        m.deadline_missed.store(2, Ordering::Relaxed);
        m.batches.store(4, Ordering::Relaxed);
        m.batch_items.store(8, Ordering::Relaxed);
        let batch = DetectionStats {
            nodes_generated: 40,
            ..Default::default()
        };
        m.merge_stats(&batch);
        m.merge_stats(&batch);
        let s = m.snapshot(&[3]);
        assert_eq!(s.queue_depth, 3);
        assert!((s.deadline_miss_rate - 0.25).abs() < 1e-12);
        assert!((s.mean_batch_size - 2.0).abs() < 1e-12);
        assert_eq!(s.stats.nodes_generated, 80);
    }

    /// Every served response is either exact or budget-truncated; the
    /// snapshot carries both counters so exports can close the invariant
    /// `quality_exact + budget_exhausted == served`.
    #[test]
    fn snapshot_carries_search_quality_counters() {
        let m = Metrics::new(labels(&["exact"]), 1, 1);
        m.served.store(10, Ordering::Relaxed);
        m.quality_exact.store(7, Ordering::Relaxed);
        m.budget_exhausted.store(3, Ordering::Relaxed);
        let s = m.snapshot(&[0]);
        assert_eq!(s.quality_exact, 7);
        assert_eq!(s.budget_exhausted, 3);
        assert_eq!(s.quality_exact + s.budget_exhausted, s.served);
    }

    #[test]
    fn snapshot_computes_frame_rates() {
        let m = Metrics::new(labels(&["exact"]), 1, 1);
        m.frames_accepted.store(5, Ordering::Relaxed);
        m.frames_served.store(4, Ordering::Relaxed);
        m.frames_fused.store(3, Ordering::Relaxed);
        m.frames_deadline_missed.store(1, Ordering::Relaxed);
        m.frame_subcarriers.store(64, Ordering::Relaxed);
        m.frame_prep_factors.store(4, Ordering::Relaxed);
        m.frame_size.record(16);
        m.frame_latency_ns.record(2_000_000);
        let s = m.snapshot(&[0]);
        assert_eq!(s.frames_accepted, 5);
        assert_eq!(s.frames_served, 4);
        assert_eq!(s.frames_fused, 3);
        assert_eq!(s.frames_deadline_missed, 1);
        assert_eq!(s.frame_subcarriers, 64);
        assert_eq!(s.frame_prep_factors, 4);
        assert!((s.mean_frame_size - 16.0).abs() < 1e-12);
        assert!((s.prep_amortization - 16.0).abs() < 1e-12);
        assert!(s.p99_frame_latency_us >= 2_000.0);
        // Empty frame path: ratios degrade to 0, not NaN.
        let empty = Metrics::new(labels(&["exact"]), 1, 1).snapshot(&[0]);
        assert_eq!(empty.mean_frame_size, 0.0);
        assert_eq!(empty.prep_amortization, 0.0);
    }

    #[test]
    fn tier_slots_track_serves_and_predict_error() {
        let m = Metrics::new(labels(&["exact", "k-best", "mmse"]), 1, 1);
        m.tiers[0].served.fetch_add(5, Ordering::Relaxed);
        m.tiers[0].predict_err_ns.record(100_000); // 100 µs off
        m.tiers[2].served.fetch_add(1, Ordering::Relaxed);
        let s = m.snapshot(&[0]);
        assert_eq!(s.tier_served("exact"), 5);
        assert_eq!(s.tier_served("k-best"), 0);
        assert_eq!(s.tier_served("mmse"), 1);
        assert_eq!(s.tier_served("nonexistent"), 0);
        assert!(s.tiers[0].p50_predict_err_us >= 100.0);
        assert_eq!(s.tiers[1].p50_predict_err_us, 0.0);
    }
}
