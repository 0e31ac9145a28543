//! The runtime: admission control, the sharded worker pool, and the
//! shutdown contract.
//!
//! The runtime is **sharded**: `n_shards` shards each own a bounded
//! ingress queue, a slice of the worker pool, a channel-coherent
//! [`PrepCache`], and their own [`CostModel`]. Admission routes every
//! request by a hash of its channel matrix (`route_hash(H) % n_shards`),
//! so coherent traffic — requests repeating one `H`, per-vector and
//! [`FrameRequest`] alike — concentrates on one shard and its cache.
//! When a shard's queue runs dry its workers steal whole queue items
//! (never splitting a frame) from other shards, bounded to half the
//! victim's backlog, so load imbalance costs latency, not idle cores.
//!
//! Lifecycle of a request:
//!
//! 1. [`ServeRuntime::submit`] stamps the admission time and offers the
//!    request to its affinity shard's bounded queue. A full (or closing)
//!    queue returns it immediately as [`Rejected`] — load is shed at the
//!    door, never queued without bound.
//! 2. A shard worker drains it as part of a batch ([`crate::batcher`]),
//!    picks a ladder rung from the time left until its deadline
//!    ([`crate::ladder`]), decodes into a pooled [`sd_core::Detection`]
//!    slot, and pushes the response.
//! 3. The caller collects the [`DetectionResponse`] and (optionally)
//!    [`ServeRuntime::recycle`]s it, returning the detection buffer to the
//!    pool and regaining ownership of the request.
//!
//! [`ServeRuntime::shutdown`] closes every ingress queue, lets workers
//! drain every admitted request (drain-then-join — nothing admitted is
//! ever dropped), joins them, and returns the final metrics snapshot.

use crate::batcher::BatchPolicy;
use crate::budget::CostModel;
use crate::export::{render, ExportFormat};
use crate::ladder::{choose_tier, LadderConfig};
use crate::metrics::{Metrics, MetricsSnapshot};
use crate::prep_cache::{route_hash, PrepCache};
use crate::queue::{BoundedQueue, PushError, Weighted};
use crate::registry::{default_registry, Tier};
use crate::request::{
    DetectionRequest, DetectionResponse, FrameRequest, FrameResponse, RejectReason, Rejected,
    RejectedFrame,
};
use crate::worker::Worker;
use sd_core::Detection;
use sd_wireless::{Constellation, FrameData};
use std::sync::atomic::AtomicU64;
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Logical cores the host reports (1 when the host cannot say).
pub fn host_cores() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// Default worker/core allowance: [`host_cores`] clamped to `[1, 16]`.
/// The clamp keeps a default runtime from spawning an absurd pool on a
/// many-core box; the old hardcoded 4 oversubscribed small hosts (the
/// PR 5 bench showed 4/8 workers *slower* than 2 on few cores).
/// Override explicitly via [`ServeConfig::with_workers`].
pub fn default_core_allowance() -> usize {
    host_cores().clamp(1, 16)
}

/// Periodic metrics reporter: every `period`, the runtime renders a fresh
/// [`MetricsSnapshot`] in `format` to stderr from a dedicated thread.
#[derive(Clone, Debug)]
pub struct ReporterConfig {
    /// Interval between reports.
    pub period: Duration,
    /// Rendering used for each report.
    pub format: ExportFormat,
}

/// Runtime configuration.
#[derive(Clone, Debug)]
pub struct ServeConfig {
    /// Worker threads, dealt round-robin across the shards (defaults to
    /// [`default_core_allowance`]).
    pub n_workers: usize,
    /// Shards (`1` = the classic single-queue runtime; `0` = one shard
    /// per worker). Clamped to `n_workers` so every shard has a worker.
    pub n_shards: usize,
    /// Allow idle shard workers to steal queued items from other shards.
    pub steal: bool,
    /// Total bounded ingress depth (admission control), split evenly
    /// across the shard queues (each gets at least 1 slot).
    pub queue_capacity: usize,
    /// Batching policy.
    pub batch: BatchPolicy,
    /// Degradation ladder.
    pub ladder: LadderConfig,
    /// Start with the worker gate paused (deterministic tests build a
    /// backlog, then [`ServeRuntime::resume`]).
    pub start_paused: bool,
    /// Optional periodic metrics reporter.
    pub reporter: Option<ReporterConfig>,
    /// Per-shard channel-coherent preparation cache capacity (cached QR
    /// factorizations per shard; see [`crate::prep_cache`]). `0` disables
    /// the cache — every request then pays its own QR.
    pub prep_cache: usize,
    /// Predictive admission control: refuse a request at [`ServeRuntime::submit`]
    /// when its target shard's queued cost — every queued item stamped at
    /// admission with the shard model's *per-tier* service-time prediction
    /// for the rung the ladder would run it on — is already predicted to
    /// outlast the request's whole deadline
    /// ([`crate::RejectReason::PredictedLate`]). Pricing each item by its
    /// own tier (rather than a tier-blind mean) keeps a backlog of cheap
    /// floor-tier work from shedding requests it could easily absorb.
    /// A doomed request admitted anyway is a guaranteed deadline miss
    /// *and* steals service time from the requests queued behind it; the
    /// gate converts it into an explicit, immediate shed the caller can
    /// retry elsewhere. Off by default (the reactive control arm); a cold
    /// model admits everything until it has drain-rate evidence.
    pub predictive_admission: bool,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            n_workers: default_core_allowance(),
            n_shards: 1,
            steal: true,
            queue_capacity: 256,
            batch: BatchPolicy::default(),
            ladder: LadderConfig::default(),
            start_paused: false,
            reporter: None,
            prep_cache: 8,
            predictive_admission: false,
        }
    }
}

impl ServeConfig {
    /// Builder: worker count.
    pub fn with_workers(mut self, n: usize) -> Self {
        self.n_workers = n;
        self
    }

    /// Builder: shard count (`0` = one shard per worker).
    pub fn with_shards(mut self, n: usize) -> Self {
        self.n_shards = n;
        self
    }

    /// Builder: enable/disable work stealing between shards.
    pub fn with_stealing(mut self, steal: bool) -> Self {
        self.steal = steal;
        self
    }

    /// Builder: total ingress queue capacity (split across shards).
    pub fn with_queue_capacity(mut self, cap: usize) -> Self {
        self.queue_capacity = cap;
        self
    }

    /// Builder: batching policy.
    pub fn with_batch(mut self, batch: BatchPolicy) -> Self {
        self.batch = batch;
        self
    }

    /// Builder: degradation ladder.
    pub fn with_ladder(mut self, ladder: LadderConfig) -> Self {
        self.ladder = ladder;
        self
    }

    /// Builder: start with workers gated (see [`ServeRuntime::resume`]).
    pub fn paused(mut self) -> Self {
        self.start_paused = true;
        self
    }

    /// Builder: report metrics to stderr every `period` in `format`.
    pub fn with_reporter(mut self, period: Duration, format: ExportFormat) -> Self {
        self.reporter = Some(ReporterConfig { period, format });
        self
    }

    /// Builder: per-shard channel-coherent preparation cache capacity
    /// (`0` disables caching).
    pub fn with_prep_cache(mut self, capacity: usize) -> Self {
        self.prep_cache = capacity;
        self
    }

    /// Builder: enable/disable predictive admission control (see
    /// [`ServeConfig::predictive_admission`]).
    pub fn with_predictive_admission(mut self, on: bool) -> Self {
        self.predictive_admission = on;
        self
    }
}

/// One unit of admitted work: a single vector or a whole coherence
/// block. Both are served by one path — a vector is a block of one (see
/// [`Ingress::frames`]). A frame is ONE queue item, so its block travels
/// intact through the batcher — and through any steal — to one worker:
/// the invariant the shared-prep fast path depends on.
pub(crate) enum Ingress {
    Vector(DetectionRequest),
    Frame(FrameRequest),
}

impl Weighted for Ingress {
    /// Decisions carried: subcarriers for a frame, 1 for a vector. The
    /// batcher's budget and the steal/backlog accounting both count this.
    fn weight(&self) -> u64 {
        self.frames().len() as u64
    }
}

impl Ingress {
    /// The detection problems this item carries, all sharing one channel
    /// matrix: the vector's own frame, or the block's subcarriers.
    pub(crate) fn frames(&self) -> &[FrameData] {
        match self {
            Ingress::Vector(r) => std::slice::from_ref(&r.frame),
            Ingress::Frame(f) => &f.subcarriers,
        }
    }

    /// Operating SNR in dB — the cost model's key.
    pub(crate) fn snr_db(&self) -> f64 {
        match self {
            Ingress::Vector(r) => r.snr_db,
            Ingress::Frame(f) => f.snr_db,
        }
    }

    /// Response-time budget for the whole item, measured from admission.
    pub(crate) fn deadline(&self) -> Duration {
        match self {
            Ingress::Vector(r) => r.deadline,
            Ingress::Frame(f) => f.deadline,
        }
    }

    /// Admission time, stamped by [`ServeRuntime::submit`] /
    /// [`ServeRuntime::submit_frame`].
    pub(crate) fn enqueued_at(&self) -> Option<Instant> {
        match self {
            Ingress::Vector(r) => r.enqueued_at,
            Ingress::Frame(f) => f.enqueued_at,
        }
    }

    /// Admission-time predicted service cost (ns) stamped at submit — the
    /// amount the draining worker removes from the owning shard's
    /// [`Shard::queued_cost_ns`] gauge.
    pub(crate) fn cost_ns(&self) -> u64 {
        match self {
            Ingress::Vector(r) => r.admitted_cost_ns,
            Ingress::Frame(f) => f.admitted_cost_ns,
        }
    }

    /// Stamp the admission time and the admission cost.
    fn stamp(&mut self, enqueued_at: Instant, cost_ns: u64) {
        let (at, cost) = match self {
            Ingress::Vector(r) => (&mut r.enqueued_at, &mut r.admitted_cost_ns),
            Ingress::Frame(f) => (&mut f.enqueued_at, &mut f.admitted_cost_ns),
        };
        *at = Some(enqueued_at);
        *cost = cost_ns;
    }
}

/// One shard: its bounded ingress queue plus the per-shard serving state
/// its workers share. Affinity routing keeps one channel's traffic on one
/// shard, so its cache and cost model see a coherent stream.
pub(crate) struct Shard {
    pub(crate) queue: BoundedQueue<Ingress>,
    /// This shard's cost model — fed only by decodes its workers ran, so
    /// shard-local traffic shape drives shard-local ladder decisions.
    pub(crate) model: CostModel,
    /// This shard's channel-coherent factorization cache.
    pub(crate) prep_cache: Mutex<PrepCache>,
    /// Predicted-cost backlog gauge in nanoseconds: the sum of the
    /// admission-time cost stamps ([`Ingress::cost_ns`]) of everything
    /// still queued here — the predictive-admission wait estimate's
    /// numerator. Each stamp prices the *specific* item from the shard
    /// model's per-tier cost curves (the rung the ladder would pick with
    /// the whole deadline ahead), so a backlog of floor-tier microseconds
    /// no longer reads as expensive just because exact-tier milliseconds
    /// share the same queue. Incremented *before* the enqueue attempt and
    /// rolled back on refusal, decremented by whichever worker actually
    /// drains the item (own pop or steal), so at every instant the gauge
    /// is ≥ the stamped cost still queued here and a racing reader can
    /// only be conservative, never negative.
    pub(crate) queued_cost_ns: AtomicU64,
    /// Workers dealt to this shard (round-robin `i % n_shards`) — the
    /// wait estimate's drain-parallelism denominator.
    pub(crate) n_workers: usize,
}

/// State shared between the runtime handle and its workers.
pub(crate) struct Shared {
    pub(crate) shards: Vec<Shard>,
    pub(crate) out: BoundedQueue<DetectionResponse>,
    pub(crate) out_frames: BoundedQueue<FrameResponse>,
    pub(crate) pool: Mutex<Vec<Detection>>,
    pub(crate) frame_pool: Mutex<Vec<Vec<Detection>>>,
    pub(crate) metrics: Metrics,
    pub(crate) config: ServeConfig,
    pub(crate) tiers: Vec<Tier>,
}

impl Shared {
    /// Depth of every shard queue, in shard order.
    fn shard_depths(&self) -> Vec<usize> {
        self.shards.iter().map(|s| s.queue.len()).collect()
    }
}

/// A running detection service.
pub struct ServeRuntime {
    shared: Arc<Shared>,
    workers: Vec<JoinHandle<()>>,
    reporter: Option<Reporter>,
}

/// The periodic reporter thread and its stop latch.
struct Reporter {
    handle: JoinHandle<()>,
    stop: Arc<(Mutex<bool>, Condvar)>,
}

impl Reporter {
    fn spawn(shared: Arc<Shared>, config: ReporterConfig) -> Self {
        let stop = Arc::new((Mutex::new(false), Condvar::new()));
        let latch = Arc::clone(&stop);
        let handle = std::thread::Builder::new()
            .name("sd-serve-reporter".into())
            .spawn(move || {
                let (lock, cv) = &*latch;
                let mut stopped = lock.lock().unwrap();
                loop {
                    let (g, timeout) = cv.wait_timeout(stopped, config.period).unwrap();
                    stopped = g;
                    if *stopped {
                        return;
                    }
                    if timeout.timed_out() {
                        let snap = shared.metrics.snapshot(&shared.shard_depths());
                        eprintln!("{}", render(&snap, config.format).trim_end());
                    }
                }
            })
            .expect("spawn reporter");
        Reporter { handle, stop }
    }

    fn stop(self) {
        let (lock, cv) = &*self.stop;
        *lock.lock().unwrap() = true;
        cv.notify_all();
        self.handle.join().expect("reporter panicked");
    }
}

/// Split a total ingress capacity across `n` shard queues: earlier shards
/// absorb the remainder; every shard gets at least one slot (a total
/// below the shard count rounds up — admission stays bounded per shard).
fn split_capacity(total: usize, n: usize) -> Vec<usize> {
    let base = total / n;
    let rem = total % n;
    (0..n)
        .map(|i| (base + usize::from(i < rem)).max(1))
        .collect()
}

impl ServeRuntime {
    /// Spawn the worker pool with the stock registry (exact SD → K-best →
    /// MMSE) and start serving.
    pub fn start(config: ServeConfig, constellation: Constellation) -> Self {
        let tiers = default_registry(&constellation, &config.ladder);
        Self::start_with_registry(config, tiers)
    }

    /// Spawn the worker pool over a caller-built tier registry, ordered
    /// most → least accurate. The last tier is the unconditional floor
    /// that serves any request nothing cheaper could.
    pub fn start_with_registry(mut config: ServeConfig, tiers: Vec<Tier>) -> Self {
        assert!(config.n_workers >= 1, "need at least one worker");
        assert!(!tiers.is_empty(), "registry needs at least one tier");
        config.batch.check();
        // Resolve the shard count (0 = one per worker) and pin it in the
        // stored config so workers and snapshots agree on the topology.
        let n_shards = if config.n_shards == 0 {
            config.n_workers
        } else {
            config.n_shards
        }
        .clamp(1, config.n_workers);
        config.n_shards = n_shards;
        let shards: Vec<Shard> = split_capacity(config.queue_capacity, n_shards)
            .into_iter()
            .enumerate()
            .map(|(j, cap)| {
                let queue = BoundedQueue::new(cap);
                if config.start_paused {
                    queue.pause();
                }
                Shard {
                    queue,
                    model: CostModel::new(tiers.len()),
                    prep_cache: Mutex::new(PrepCache::new(config.prep_cache)),
                    queued_cost_ns: AtomicU64::new(0),
                    // The round-robin deal gives shard j one worker per
                    // full lap plus one more when j is inside the remainder.
                    n_workers: config.n_workers / n_shards
                        + usize::from(j < config.n_workers % n_shards),
                }
            })
            .collect();
        // Responses are bounded by admission control (≤ queue_capacity in
        // flight per uncollected client), not by these queues.
        let out = BoundedQueue::new(usize::MAX);
        let out_frames = BoundedQueue::new(usize::MAX);
        let labels = tiers.iter().map(|t| Arc::clone(&t.label)).collect();
        let shared = Arc::new(Shared {
            shards,
            out,
            out_frames,
            pool: Mutex::new(Vec::new()),
            frame_pool: Mutex::new(Vec::new()),
            metrics: Metrics::new(labels, n_shards, host_cores()),
            config: config.clone(),
            tiers,
        });
        let workers = (0..config.n_workers)
            .map(|i| {
                let shared = Arc::clone(&shared);
                // Round-robin deal: worker i serves shard i % n_shards, so
                // every shard owns ⌈workers/shards⌉ or ⌊workers/shards⌋.
                let shard_idx = i % n_shards;
                std::thread::Builder::new()
                    .name(format!("sd-serve-{i}"))
                    .spawn(move || Worker::new(shared, shard_idx).run())
                    .expect("spawn worker")
            })
            .collect();
        let reporter = config
            .reporter
            .map(|rc| Reporter::spawn(Arc::clone(&shared), rc));
        ServeRuntime {
            shared,
            workers,
            reporter,
        }
    }

    /// The shard affinity routing assigns to channel matrix `h`.
    fn shard_for(&self, h: &sd_math::Matrix<f64>) -> usize {
        (route_hash(h) % self.shared.shards.len() as u64) as usize
    }

    /// Offer a request. Returns it as [`Rejected`] when its affinity
    /// shard's queue is full, predictive admission refuses it, or the
    /// runtime is shutting down (the depth in the rejection is that
    /// shard's, not the global backlog).
    // The large Err is the contract: shedding hands the request (and its
    // frame buffers) straight back without touching the allocator.
    #[allow(clippy::result_large_err)]
    pub fn submit(&self, req: DetectionRequest) -> Result<(), Rejected> {
        self.admit(Ingress::Vector(req))
            .map_err(|(item, reason)| match item {
                Ingress::Vector(request) => Rejected { request, reason },
                Ingress::Frame(_) => unreachable!("admission returns the item it was offered"),
            })
    }

    /// Offer a whole coherence block as one unit. The frame is never
    /// split: it travels through its affinity shard's queue (routed by the
    /// block's shared `H`, like the vectors repeating that `H`) and the
    /// batcher as a single item and is decoded by one worker with one
    /// shared channel preparation. Returns it as [`RejectedFrame`] on the
    /// same refusals as [`ServeRuntime::submit`].
    ///
    /// Its subcarriers also count into the vector-level `accepted` /
    /// `rejected_*` counters, so `accepted == served` stays closed over
    /// mixed vector/frame traffic.
    #[allow(clippy::result_large_err)]
    pub fn submit_frame(&self, req: FrameRequest) -> Result<(), RejectedFrame> {
        self.admit(Ingress::Frame(req))
            .map_err(|(item, reason)| match item {
                Ingress::Frame(request) => RejectedFrame { request, reason },
                Ingress::Vector(_) => unreachable!("admission returns the item it was offered"),
            })
    }

    /// The one admission routine behind [`ServeRuntime::submit`] and
    /// [`ServeRuntime::submit_frame`]: stamp the item, route it to its
    /// affinity shard, run the predictive check and the cost stamp, push
    /// it (rolling the cost back on refusal), and bump the counters —
    /// the vector-level ones by the item's weight, the `frames_*` ones by
    /// one for a frame. A refused item comes back with its reason.
    #[allow(clippy::result_large_err)]
    fn admit(&self, mut item: Ingress) -> Result<(), (Ingress, RejectReason)> {
        use std::sync::atomic::Ordering::Relaxed;
        let now = Instant::now();
        let weight = item.weight();
        let is_frame = matches!(item, Ingress::Frame(_));
        let m = &self.shared.metrics;
        let count = |decisions: &AtomicU64, frames: &AtomicU64| {
            if is_frame {
                frames.fetch_add(1, Relaxed);
            }
            decisions.fetch_add(weight, Relaxed);
        };
        let idx = self.shard_for(&item.frames()[0].h);
        let shard = &self.shared.shards[idx];
        if let Some(predicted_wait) = self.predicted_late(shard, item.deadline()) {
            count(&m.rejected_predicted, &m.frames_rejected_predicted);
            return Err((item, RejectReason::PredictedLate { predicted_wait }));
        }
        let cost = self.admission_cost_ns(shard, &item);
        item.stamp(now, cost);
        shard.queued_cost_ns.fetch_add(cost, Relaxed);
        let (item, reason) = match shard.queue.try_push(item) {
            Ok(()) => {
                count(&m.accepted, &m.frames_accepted);
                m.shards[idx].routed.fetch_add(weight, Relaxed);
                return Ok(());
            }
            Err(PushError::Full(item, depth)) => {
                count(&m.rejected_full, &m.frames_rejected_full);
                (item, RejectReason::QueueFull { depth })
            }
            Err(PushError::Closed(item)) => {
                count(&m.rejected_shutdown, &m.frames_rejected_shutdown);
                (item, RejectReason::ShuttingDown)
            }
        };
        shard.queued_cost_ns.fetch_sub(cost, Relaxed);
        Err((item, reason))
    }

    /// The predictive-admission check: `Some(predicted_wait)` when the
    /// gate is on and `shard`'s queued-cost gauge — the sum of the
    /// *per-tier* cost stamps of everything still queued there, drained by
    /// its workers — is predicted to outlast `deadline`: the offered item
    /// would be a guaranteed miss before any of its *own* work even
    /// starts. Because every stamp prices its item from the tier the
    /// ladder would actually run (not a tier-blind mean), a backlog of
    /// cheap floor-tier items no longer sheds requests that an exact-tier
    /// backlog of the same length would.
    fn predicted_late(&self, shard: &Shard, deadline: Duration) -> Option<Duration> {
        use std::sync::atomic::Ordering::Relaxed;
        if !self.shared.config.predictive_admission {
            return None;
        }
        let backlog_ns = shard.queued_cost_ns.load(Relaxed) as f64;
        let wait_ns = backlog_ns / shard.n_workers.max(1) as f64;
        (wait_ns > deadline.as_nanos() as f64)
            .then(|| Duration::from_nanos(wait_ns.min(u64::MAX as f64) as u64))
    }

    /// Price an offered item for the queued-cost gauge: the service time
    /// the shard's cost model predicts for the tier the ladder would pick
    /// with the whole deadline still ahead, times the block size. Runs the
    /// same [`choose_tier`] walk the worker will (condition gating skipped
    /// — the condition number is not known until prep), so the stamp
    /// tracks what the item will actually cost rather than a tier-blind
    /// mean. A rung the model has never timed predicts 0 ns; it is priced
    /// instead at the nearest costlier rung that has a prediction — rungs
    /// run most → least costly, so that is an upper bound, and a cold
    /// floor cannot make a doomed item look free. A fully cold model
    /// still stamps 0. Returns 0 when predictive admission is off: the
    /// gauge then has no reader and the submit path stays stamp-free.
    fn admission_cost_ns(&self, shard: &Shard, item: &Ingress) -> u64 {
        if !self.shared.config.predictive_admission {
            return 0;
        }
        let tiers = &self.shared.tiers;
        let p = tiers[0].detector.constellation().order();
        let frames = item.frames();
        let (snr_db, m, block) = (item.snr_db(), frames[0].h.cols(), frames.len());
        let d = choose_tier(
            &self.shared.config.ladder,
            &shard.model,
            tiers,
            snr_db,
            None,
            m,
            p,
            item.deadline(),
            block,
        );
        let per_vector = (0..=d.tier)
            .rev()
            .map(|i| {
                shard
                    .model
                    .predict_ns(i, &tiers[i].cost, snr_db, None, m, p)
            })
            .find(|&ns| ns > 0.0)
            .unwrap_or(0.0);
        (per_vector * block as f64).min(u64::MAX as f64) as u64
    }

    /// Collect one response without blocking.
    pub fn try_collect(&self) -> Option<DetectionResponse> {
        self.shared.out.try_pop()
    }

    /// Collect one response, waiting up to `timeout`.
    pub fn collect_timeout(&self, timeout: Duration) -> Option<DetectionResponse> {
        self.shared.out.pop_timeout(timeout)
    }

    /// Collect one frame response without blocking.
    pub fn try_collect_frame(&self) -> Option<FrameResponse> {
        self.shared.out_frames.try_pop()
    }

    /// Collect one frame response, waiting up to `timeout`.
    pub fn collect_frame_timeout(&self, timeout: Duration) -> Option<FrameResponse> {
        self.shared.out_frames.pop_timeout(timeout)
    }

    /// Return a response's detection buffer to the pool and hand the
    /// request (with its frame) back to the caller for reuse.
    pub fn recycle(&self, resp: DetectionResponse) -> DetectionRequest {
        self.shared.pool.lock().unwrap().push(resp.detection);
        resp.request
    }

    /// Return a frame response's detection block to the frame pool and
    /// hand the request (with its subcarrier buffers) back for reuse.
    pub fn recycle_frame(&self, resp: FrameResponse) -> FrameRequest {
        self.shared.frame_pool.lock().unwrap().push(resp.detections);
        resp.request
    }

    /// Gate the workers on every shard (requests keep queuing up to each
    /// shard's capacity). Stealing is gated too — a paused queue yields
    /// no loot.
    pub fn pause(&self) {
        for s in &self.shared.shards {
            s.queue.pause();
        }
    }

    /// Release the worker gates.
    pub fn resume(&self) {
        for s in &self.shared.shards {
            s.queue.resume();
        }
    }

    /// Current total ingress backlog (summed over shards).
    pub fn queue_depth(&self) -> usize {
        self.shared.shards.iter().map(|s| s.queue.len()).sum()
    }

    /// Number of shards the runtime resolved at startup.
    pub fn n_shards(&self) -> usize {
        self.shared.shards.len()
    }

    /// Snapshot the runtime metrics.
    pub fn metrics(&self) -> MetricsSnapshot {
        self.shared.metrics.snapshot(&self.shared.shard_depths())
    }

    /// Read-only view of shard 0's cost model (for reports; each shard
    /// learns its own model from the decodes it served).
    pub fn cost_model(&self) -> &CostModel {
        &self.shared.shards[0].model
    }

    /// Labels of the registry tiers, in ladder order (index = tier id).
    pub fn tier_labels(&self) -> Vec<Arc<str>> {
        self.shared
            .tiers
            .iter()
            .map(|t| Arc::clone(&t.label))
            .collect()
    }

    /// Stop accepting work, drain every admitted request, join the
    /// workers, and return the final metrics together with any vector and
    /// frame responses the caller had not yet collected — nothing
    /// admitted is dropped.
    pub fn shutdown(mut self) -> (MetricsSnapshot, Vec<DetectionResponse>, Vec<FrameResponse>) {
        for s in &self.shared.shards {
            s.queue.close();
        }
        for w in self.workers.drain(..) {
            w.join().expect("worker panicked");
        }
        if let Some(reporter) = self.reporter.take() {
            reporter.stop();
        }
        // Everything admitted has now been served; scoop up any responses
        // the caller has not collected so nothing is silently dropped.
        let mut leftover = Vec::new();
        while let Some(r) = self.shared.out.try_pop() {
            leftover.push(r);
        }
        let mut leftover_frames = Vec::new();
        while let Some(r) = self.shared.out_frames.try_pop() {
            leftover_frames.push(r);
        }
        (self.shared.metrics.snapshot(&[]), leftover, leftover_frames)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use sd_wireless::{noise_variance, FrameData, Modulation};

    fn request(id: u64, rng: &mut StdRng, c: &Constellation) -> DetectionRequest {
        let snr = 12.0;
        let f = FrameData::generate(4, 4, c, noise_variance(snr, 4), rng);
        DetectionRequest::new(id, f, snr, Duration::from_millis(10))
    }

    #[test]
    fn capacity_split_covers_total_and_floors_at_one() {
        assert_eq!(split_capacity(8, 3), vec![3, 3, 2]);
        assert_eq!(split_capacity(4, 4), vec![1, 1, 1, 1]);
        assert_eq!(split_capacity(2, 4), vec![1, 1, 1, 1], "rounds up");
        assert_eq!(split_capacity(256, 1), vec![256]);
    }

    #[test]
    fn default_allowance_tracks_the_host() {
        let n = default_core_allowance();
        assert!((1..=16).contains(&n));
        assert_eq!(n, host_cores().clamp(1, 16));
        assert_eq!(ServeConfig::default().n_workers, n);
    }

    #[test]
    fn shard_count_resolves_auto_and_clamps() {
        let c = Constellation::new(Modulation::Qam4);
        // 0 = one shard per worker.
        let rt = ServeRuntime::start(
            ServeConfig::default().with_workers(3).with_shards(0),
            c.clone(),
        );
        assert_eq!(rt.n_shards(), 3);
        rt.shutdown();
        // More shards than workers clamps down, so no shard is orphaned.
        let rt = ServeRuntime::start(
            ServeConfig::default().with_workers(2).with_shards(5),
            c.clone(),
        );
        assert_eq!(rt.n_shards(), 2);
        rt.shutdown();
    }

    #[test]
    fn serves_and_shuts_down() {
        let c = Constellation::new(Modulation::Qam4);
        let rt = ServeRuntime::start(ServeConfig::default().with_workers(2), c.clone());
        let mut rng = StdRng::seed_from_u64(7);
        for id in 0..20 {
            rt.submit(request(id, &mut rng, &c)).unwrap();
        }
        let mut got = 0;
        while got < 20 {
            if rt.collect_timeout(Duration::from_secs(5)).is_some() {
                got += 1;
            } else {
                panic!("runtime stalled");
            }
        }
        let (snap, leftover, _) = rt.shutdown();
        assert!(leftover.is_empty());
        assert_eq!(snap.accepted, 20);
        assert_eq!(snap.served, 20);
        assert_eq!(snap.rejected_full + snap.rejected_shutdown, 0);
        assert_eq!(snap.host_cores, host_cores());
        assert_eq!(snap.n_shards, 1);
        assert_eq!(snap.shards[0].routed, 20);
        assert_eq!(snap.shards[0].served, 20);
        assert_eq!(snap.shards[0].affinity_served, 20);
    }

    #[test]
    fn sharded_runtime_routes_and_serves_everything() {
        let c = Constellation::new(Modulation::Qam4);
        let rt = ServeRuntime::start(
            ServeConfig::default().with_workers(2).with_shards(2),
            c.clone(),
        );
        let mut rng = StdRng::seed_from_u64(77);
        for id in 0..40 {
            rt.submit(request(id, &mut rng, &c)).unwrap();
        }
        let mut got = 0;
        while got < 40 {
            assert!(
                rt.collect_timeout(Duration::from_secs(5)).is_some(),
                "sharded runtime stalled"
            );
            got += 1;
        }
        let (snap, _, _) = rt.shutdown();
        assert_eq!(snap.n_shards, 2);
        assert_eq!(snap.served, 40);
        let routed: u64 = snap.shards.iter().map(|s| s.routed).sum();
        let served: u64 = snap.shards.iter().map(|s| s.served).sum();
        assert_eq!(routed, snap.accepted, "routing partitions admission");
        assert_eq!(served, snap.served, "shard serves partition the total");
        assert!(
            snap.shards.iter().all(|s| s.routed > 0),
            "i.i.d. channels should spread across both shards: {:?}",
            snap.shards
        );
    }

    #[test]
    fn shutdown_drains_admitted_work() {
        let c = Constellation::new(Modulation::Qam4);
        let rt = ServeRuntime::start(ServeConfig::default().with_workers(1).paused(), c.clone());
        let mut rng = StdRng::seed_from_u64(8);
        for id in 0..5 {
            rt.submit(request(id, &mut rng, &c)).unwrap();
        }
        // Workers are gated; shutdown must still serve all 5.
        let (snap, leftover, _) = rt.shutdown();
        assert_eq!(snap.served, 5, "drain-then-join");
        assert_eq!(leftover.len(), 5, "uncollected responses handed back");
    }

    #[test]
    fn snapshot_never_reports_missed_above_served() {
        // Zero deadlines make every served request a miss; concurrent
        // snapshots taken mid-batch must still satisfy missed ≤ served
        // (the old per-batch `served` bump could report miss rates > 1).
        let c = Constellation::new(Modulation::Qam4);
        let rt = ServeRuntime::start(ServeConfig::default().with_workers(2), c.clone());
        let mut rng = StdRng::seed_from_u64(10);
        let mut submitted = 0u64;
        for id in 0..200 {
            let snr = 12.0;
            let f = FrameData::generate(4, 4, &c, noise_variance(snr, 4), &mut rng);
            if rt
                .submit(DetectionRequest::new(id, f, snr, Duration::ZERO))
                .is_ok()
            {
                submitted += 1;
            }
            let snap = rt.metrics();
            assert!(
                snap.deadline_missed <= snap.served,
                "missed {} > served {}",
                snap.deadline_missed,
                snap.served
            );
            assert!(snap.deadline_miss_rate <= 1.0);
        }
        let (snap, _, _) = rt.shutdown();
        assert_eq!(snap.served, submitted);
        assert_eq!(snap.deadline_missed, submitted, "zero deadline misses all");
        assert!((snap.deadline_miss_rate - 1.0).abs() < 1e-12);
    }

    #[test]
    fn reporter_thread_reports_and_stops() {
        let c = Constellation::new(Modulation::Qam4);
        let rt = ServeRuntime::start(
            ServeConfig::default()
                .with_workers(1)
                .with_reporter(Duration::from_millis(5), ExportFormat::JsonLines),
            c.clone(),
        );
        let mut rng = StdRng::seed_from_u64(11);
        for id in 0..8 {
            rt.submit(request(id, &mut rng, &c)).unwrap();
        }
        // Let at least one reporting period elapse with the runtime live.
        std::thread::sleep(Duration::from_millis(25));
        let (snap, _, _) = rt.shutdown();
        assert_eq!(snap.served, 8, "reporter must not disturb serving");
    }

    fn frame_request(id: u64, block: usize, rng: &mut StdRng, c: &Constellation) -> FrameRequest {
        let snr = 12.0;
        let sigma2 = noise_variance(snr, 4);
        let base = FrameData::generate(4, 4, c, sigma2, rng);
        let subcarriers = (0..block)
            .map(|_| {
                let mut f = base.clone();
                let fresh = FrameData::generate(4, 4, c, sigma2, rng);
                f.y = fresh.y;
                f.tx = fresh.tx;
                f
            })
            .collect();
        FrameRequest::new(id, subcarriers, snr, Duration::from_millis(50))
    }

    #[test]
    fn frames_round_trip_with_subcarrier_accounting() {
        let c = Constellation::new(Modulation::Qam4);
        let rt = ServeRuntime::start(ServeConfig::default().with_workers(2), c.clone());
        let mut rng = StdRng::seed_from_u64(21);
        for id in 0..4 {
            rt.submit_frame(frame_request(id, 8, &mut rng, &c)).unwrap();
        }
        // Mixed traffic: a couple of plain vectors ride along.
        for id in 100..102 {
            rt.submit(request(id, &mut rng, &c)).unwrap();
        }
        let mut frames = Vec::new();
        while frames.len() < 4 {
            match rt.collect_frame_timeout(Duration::from_secs(5)) {
                Some(f) => frames.push(f),
                None => panic!("frame path stalled"),
            }
        }
        for f in &frames {
            assert_eq!(f.detections.len(), 8, "one detection per subcarrier");
            assert_eq!(f.prep_factors, 1, "shared-prep path on the stock registry");
        }
        for f in frames {
            rt.recycle_frame(f);
        }
        let (snap, _, _) = rt.shutdown();
        assert_eq!(snap.frames_accepted, 4);
        assert_eq!(snap.frames_served, 4);
        assert_eq!(snap.frame_subcarriers, 32);
        assert_eq!(snap.frame_prep_factors, 4);
        assert!((snap.prep_amortization - 8.0).abs() < 1e-12);
        // Vector-level counters stay closed over the mixture.
        assert_eq!(snap.accepted, 32 + 2);
        assert_eq!(snap.served, 32 + 2);
        assert_eq!(
            snap.prep_cache_hits + snap.prep_cache_misses + snap.prep_cache_bypass,
            snap.served
        );
        // Shard accounting weighs frames by their subcarriers.
        assert_eq!(snap.shards[0].routed, 34);
        assert_eq!(snap.shards[0].served, 34);
    }

    /// The snapshot's node counters close end to end: with two workers
    /// adding to them concurrently, they equal the sums over every
    /// response's own `Detection.stats` — vectors and fused frames alike.
    #[test]
    fn node_counters_close_over_every_response() {
        use crate::budget::TierCostClass;
        let c = Constellation::new(Modulation::Qam4);
        let ladder = LadderConfig {
            enabled: false,
            ..LadderConfig::default()
        };
        let rt = ServeRuntime::start_with_registry(
            ServeConfig::default().with_workers(2).with_ladder(ladder),
            vec![Tier::new(
                "k-best",
                TierCostClass::fixed_kbest(8),
                Box::new(sd_core::KBestSd::<f64>::new(c.clone(), 8)),
            )],
        );
        let mut rng = StdRng::seed_from_u64(41);
        for id in 0..4 {
            rt.submit_frame(frame_request(id, 8, &mut rng, &c)).unwrap();
        }
        for id in 100..116 {
            rt.submit(request(id, &mut rng, &c)).unwrap();
        }
        let (mut nodes, mut leaves) = (0, 0);
        for _ in 0..4 {
            let f = rt
                .collect_frame_timeout(Duration::from_secs(5))
                .expect("frame path stalled");
            for d in &f.detections {
                nodes += d.stats.nodes_generated;
                leaves += d.stats.leaves_reached;
            }
        }
        for _ in 0..16 {
            let r = rt
                .collect_timeout(Duration::from_secs(5))
                .expect("vector path stalled");
            nodes += r.detection.stats.nodes_generated;
            leaves += r.detection.stats.leaves_reached;
        }
        let (snap, _, _) = rt.shutdown();
        assert_eq!(snap.served, 4 * 8 + 16);
        assert_eq!(snap.frames_fused, 4, "k-best frames take the fused path");
        assert!(nodes > 0 && leaves > 0);
        assert_eq!(snap.nodes_generated, nodes);
        assert_eq!(snap.leaves_reached, leaves);
    }

    #[test]
    fn shutdown_hands_back_uncollected_frames() {
        let c = Constellation::new(Modulation::Qam4);
        let rt = ServeRuntime::start(ServeConfig::default().with_workers(1), c.clone());
        let mut rng = StdRng::seed_from_u64(22);
        for id in 0..3 {
            rt.submit_frame(frame_request(id, 4, &mut rng, &c)).unwrap();
        }
        let (snap, _, leftover_frames) = rt.shutdown();
        assert_eq!(snap.frames_served, 3, "drain-then-join covers frames");
        assert_eq!(leftover_frames.len(), 3, "uncollected frames handed back");
    }

    #[test]
    fn recycle_frame_returns_block_ownership() {
        let c = Constellation::new(Modulation::Qam4);
        let rt = ServeRuntime::start(ServeConfig::default().with_workers(1), c.clone());
        let mut rng = StdRng::seed_from_u64(23);
        rt.submit_frame(frame_request(7, 5, &mut rng, &c)).unwrap();
        let resp = rt
            .collect_frame_timeout(Duration::from_secs(5))
            .expect("served");
        assert_eq!(resp.request.id, 7);
        let req = rt.recycle_frame(resp);
        assert_eq!(req.block_len(), 5);
        rt.submit_frame(req).unwrap();
        let resp = rt
            .collect_frame_timeout(Duration::from_secs(5))
            .expect("served again");
        assert_eq!(resp.request.id, 7);
        rt.shutdown();
    }

    #[test]
    fn recycle_returns_request_ownership() {
        let c = Constellation::new(Modulation::Qam4);
        let rt = ServeRuntime::start(ServeConfig::default().with_workers(1), c.clone());
        let mut rng = StdRng::seed_from_u64(9);
        rt.submit(request(42, &mut rng, &c)).unwrap();
        let resp = rt.collect_timeout(Duration::from_secs(5)).expect("served");
        assert_eq!(resp.request.id, 42);
        let req = rt.recycle(resp);
        assert_eq!(req.id, 42);
        rt.submit(req).unwrap();
        let resp = rt.collect_timeout(Duration::from_secs(5)).expect("served");
        assert_eq!(resp.request.id, 42);
        rt.shutdown();
    }

    /// Regression for the tier-blind admission estimate: a backlog of
    /// cheap k-best-tier requests must not shed a probe that the queue
    /// could absorb hundreds of times over, even when the shard's exact
    /// tier serves in milliseconds. Under the old
    /// `backlog × mean_service_ns` estimate, 20 queued items priced at a
    /// ≈80 ms blended mean predicted a 1.6 s wait and shed the 5 ms probe;
    /// the per-tier cost stamps price them at ≈15 µs each and admit it.
    /// The same gauge still sheds the probe once genuinely expensive
    /// exact-tier work is queued — the gate lost no teeth.
    #[test]
    fn mixed_tier_backlog_does_not_shed_cheap_requests() {
        use crate::budget::TierCostClass;
        let c = Constellation::new(Modulation::Qam4);
        let rt = ServeRuntime::start(
            ServeConfig::default()
                .with_workers(1)
                .with_queue_capacity(64)
                .with_predictive_admission(true)
                .paused(),
            c.clone(),
        );
        // Train the shard model directly (the runtime is paused, so the
        // EWMAs are exactly what we write): the exact tier costs 100 ms
        // per vector (1e6 nodes at 100 ns/node), the floor tier 1 µs.
        // A blended mean of the two lands near 80 ms — the figure the old
        // tier-blind estimate would have priced *every* queued item at.
        let model = &rt.shared.shards[0].model;
        model.observe(
            0,
            &TierCostClass::Adaptive,
            12.0,
            None,
            1_000_000,
            100_000_000,
        );
        model.observe(2, &TierCostClass::Linear, 12.0, None, 0, 1_000);
        assert!(
            model.tier_service_ns(0) > 1e7,
            "the exact tier must serve in milliseconds for the regression to bite"
        );

        let mut rng = StdRng::seed_from_u64(31);
        let mut req_with_deadline = |id: u64, deadline: Duration| {
            let f = FrameData::generate(4, 4, &c, noise_variance(12.0, 4), &mut rng);
            DetectionRequest::new(id, f, 12.0, deadline)
        };
        // 20 cheap requests: a 1 ms deadline rides the k-best tier
        // (148 nodes × 100 ns ≈ 15 µs per stamp, ≈ 0.3 ms queued total).
        for id in 0..20 {
            rt.submit(req_with_deadline(id, Duration::from_millis(1)))
                .expect("cheap-tier backlog must keep admitting cheap work");
        }
        // The probe the old estimate shed: 5 ms deadline against a queued
        // cost of ≈0.3 ms. Must be admitted.
        rt.submit(req_with_deadline(100, Duration::from_millis(5)))
            .expect("regression: tier-blind mean over-shed this probe");
        // Queue genuinely expensive work: 10 s deadlines ride the exact
        // tier at ≈100 ms per stamp.
        for id in 200..203 {
            rt.submit(req_with_deadline(id, Duration::from_secs(10)))
                .expect("expensive work within its own deadline is admissible");
        }
        // Now an identical probe *should* shed: ≈300 ms queued > 5 ms.
        let rej = rt
            .submit(req_with_deadline(101, Duration::from_millis(5)))
            .expect_err("exact-tier backlog must still trip the gate");
        assert!(matches!(rej.reason, RejectReason::PredictedLate { .. }));

        rt.resume();
        let (snap, _, _) = rt.shutdown();
        assert_eq!(snap.rejected_predicted, 1);
        assert_eq!(snap.served, 24, "everything admitted is served");
    }

    /// Regression: a rung the model has never timed must not read as free
    /// to admission. The exact tier is warm, the MMSE floor cold; a 1 ns
    /// deadline sends the ladder to the floor, whose 0 ns prediction used
    /// to stamp every doomed request at 0 and keep the frozen backlog at
    /// 0 ns, so nothing was ever shed. Priced at the nearest costlier rung
    /// with a prediction (K-best), the first request fills the backlog
    /// and every later one is refused.
    #[test]
    fn cold_floor_does_not_make_doomed_requests_free() {
        use crate::budget::TierCostClass;
        let c = Constellation::new(Modulation::Qam4);
        let rt = ServeRuntime::start(
            ServeConfig::default()
                .with_workers(1)
                .with_queue_capacity(64)
                .with_predictive_admission(true)
                .paused(),
            c.clone(),
        );
        // 100 ns/node from one exact-tier decode; the floor stays cold.
        let model = &rt.shared.shards[0].model;
        model.observe(0, &TierCostClass::Adaptive, 12.0, None, 10_000, 1_000_000);
        assert_eq!(model.tier_service_ns(2), 0.0, "the floor must be cold");

        let mut rng = StdRng::seed_from_u64(32);
        let n = 16;
        for id in 0..n {
            let f = FrameData::generate(4, 4, &c, noise_variance(12.0, 4), &mut rng);
            let res = rt.submit(DetectionRequest::new(id, f, 12.0, Duration::from_nanos(1)));
            if id == 0 {
                res.expect("an empty backlog admits the first request");
            } else {
                let rej = res.expect_err("the first request's stamp must trip the gate");
                assert!(matches!(rej.reason, RejectReason::PredictedLate { .. }));
            }
        }
        rt.resume();
        let (snap, _, _) = rt.shutdown();
        assert_eq!(snap.rejected_predicted, n - 1);
        assert_eq!(snap.served, 1);
    }
}
