//! The single generator thread: offers a workload's pool to the runtime
//! in a closed loop, collects every answer, checks it and times it.
//!
//! While the window is full the generator blocks in the runtime's collect
//! call; it never spins, so it does not take a core from the workers.
//! Inputs come from a bounded pool reused in a fixed cyclic order:
//! sequence number `s` always sends pool slot `s % len`, so memory stays
//! flat however long a run is.
//!
//! An item falls due when the answer that frees its slot in the window is
//! collected. The window is cut into [`SLICES`] slices by due time. Each
//! slice keeps its own counts and latency percentiles, and the share of
//! CPU the hypervisor stole from the guest while it was open, read from
//! `/proc/stat`.

use crate::report::cpu_steal;
use crate::stats::{ratio, Samples};
use crate::trace::{Tracer, NO_TIER};
use crate::workloads::Pool;
use sd_core::Detection;
use sd_serve::{DetectionRequest, DetectionResponse, FrameRequest, FrameResponse, ServeRuntime};
use sd_wireless::Constellation;
use std::time::{Duration, Instant};

/// How long the drain waits without progress before it gives up and
/// counts what is still in flight as unanswered.
const STALL: Duration = Duration::from_secs(5);

/// One unit the generator offers: a vector request or a whole frame.
pub trait Item: Sized {
    /// What the runtime answers with.
    type Resp;
    /// Decisions in the item (1, or the frame's subcarriers).
    fn decisions(&self) -> u64;
    /// Stamp the sequence number the item is sent under.
    fn set_id(&mut self, id: u64);
    /// Decisions an answer carries (1, or the frame's subcarriers).
    fn answered(resp: &Self::Resp) -> u64;
    /// Offer the item; a refusal hands it back.
    fn submit(rt: &ServeRuntime, item: Self) -> Result<(), Self>;
    /// Wait up to `timeout` for one answer.
    fn collect(rt: &ServeRuntime, timeout: Duration) -> Option<Self::Resp>;
    /// The answer's sequence number, tier, queue wait and service time.
    fn view(resp: &Self::Resp) -> (u64, usize, Duration, Duration);
    /// The answered inputs and decisions, one pair per decision.
    fn decided(resp: &Self::Resp) -> Vec<(&sd_wireless::FrameData, &Detection)>;
    /// Hand the answer's buffers back and regain the item.
    fn recycle(rt: &ServeRuntime, resp: Self::Resp) -> Self;
    /// The items of a generated pool of this shape.
    fn unpool(pool: Pool) -> Vec<Self>;
    /// Wrap items back into a pool.
    fn pool(items: Vec<Self>) -> Pool;
}

impl Item for DetectionRequest {
    type Resp = DetectionResponse;
    fn decisions(&self) -> u64 {
        1
    }
    fn set_id(&mut self, id: u64) {
        self.id = id;
    }
    fn answered(_: &Self::Resp) -> u64 {
        1
    }
    fn submit(rt: &ServeRuntime, item: Self) -> Result<(), Self> {
        rt.submit(item).map_err(|r| r.request)
    }
    fn collect(rt: &ServeRuntime, timeout: Duration) -> Option<Self::Resp> {
        rt.collect_timeout(timeout)
    }
    fn view(r: &Self::Resp) -> (u64, usize, Duration, Duration) {
        (r.request.id, r.tier, r.queue_wait, r.service_time)
    }
    fn decided(r: &Self::Resp) -> Vec<(&sd_wireless::FrameData, &Detection)> {
        vec![(&r.request.frame, &r.detection)]
    }
    fn recycle(rt: &ServeRuntime, resp: Self::Resp) -> Self {
        rt.recycle(resp)
    }
    fn unpool(pool: Pool) -> Vec<Self> {
        match pool {
            Pool::Vectors(v) => v,
            Pool::Frames(_) => panic!("a frame pool offered as vectors"),
        }
    }
    fn pool(items: Vec<Self>) -> Pool {
        Pool::Vectors(items)
    }
}

impl Item for FrameRequest {
    type Resp = FrameResponse;
    fn decisions(&self) -> u64 {
        self.block_len() as u64
    }
    fn set_id(&mut self, id: u64) {
        self.id = id;
    }
    fn answered(r: &Self::Resp) -> u64 {
        r.request.block_len() as u64
    }
    fn submit(rt: &ServeRuntime, item: Self) -> Result<(), Self> {
        rt.submit_frame(item).map_err(|r| r.request)
    }
    fn collect(rt: &ServeRuntime, timeout: Duration) -> Option<Self::Resp> {
        rt.collect_frame_timeout(timeout)
    }
    fn view(r: &Self::Resp) -> (u64, usize, Duration, Duration) {
        (r.request.id, r.tier, r.queue_wait, r.service_time)
    }
    fn decided(r: &Self::Resp) -> Vec<(&sd_wireless::FrameData, &Detection)> {
        if r.detections.len() != r.request.subcarriers.len() {
            return Vec::new();
        }
        r.request.subcarriers.iter().zip(&r.detections).collect()
    }
    fn recycle(rt: &ServeRuntime, resp: Self::Resp) -> Self {
        rt.recycle_frame(resp)
    }
    fn unpool(pool: Pool) -> Vec<Self> {
        match pool {
            Pool::Frames(f) => f,
            Pool::Vectors(_) => panic!("a vector pool offered as frames"),
        }
    }
    fn pool(items: Vec<Self>) -> Pool {
        Pool::Frames(items)
    }
}

/// When the generator stops offering.
#[derive(Copy, Clone, Debug)]
pub enum Stop {
    /// After this much wall time.
    After(Duration),
    /// After this many items.
    Items(u64),
}

/// Which answers are kept for the off-the-clock re-decode: sequence
/// numbers `s` with `(s / group) % stride == 0`, up to `cap` decisions.
/// `group` keeps whole coherence blocks together so a replay sees the
/// same cache pattern the runtime saw.
#[derive(Copy, Clone, Debug)]
pub struct Sampling {
    /// Consecutive sequence numbers taken together.
    pub group: u64,
    /// One group in this many is taken.
    pub stride: u64,
    /// Most decisions kept.
    pub cap: usize,
}

/// One served decision kept for the re-decode.
#[derive(Clone, Debug)]
pub struct Captured {
    /// Pool slot of the input.
    pub slot: usize,
    /// Subcarrier within the frame (0 for a vector).
    pub sub: usize,
    /// Registry tier that served it.
    pub tier: usize,
    /// The served decision.
    pub det: Detection,
}

/// What one run measured.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Seconds the generator offered load for.
    pub window_s: f64,
    /// Decisions offered (sent, whether admitted or shed).
    pub offered: u64,
    /// Decisions refused at admission.
    pub shed: u64,
    /// Decisions answered.
    pub answered: u64,
    /// Decisions answered within the deadline that passed the check.
    pub ontime: u64,
    /// Answered decisions that failed the structural check.
    pub failed: u64,
    /// Admitted decisions never answered.
    pub unanswered: u64,
    /// Bit errors against the generator's ground truth.
    pub bit_errors: u64,
    /// Bits decided.
    pub bits: u64,
    /// Bit errors over the first [`BER_DECISIONS`] decisions answered.
    pub first_bit_errors: u64,
    /// Bits of the first [`BER_DECISIONS`] decisions answered.
    pub first_bits: u64,
    /// Decisions counted into `first_bits` so far.
    first_decisions: u64,
    /// 99th percentile of how late the generator sent each item after the
    /// answer that freed its slot (µs).
    pub late_p99_us: f64,
    /// Items `late_p99_us` was taken over.
    pub late_n: usize,
    /// Per item lateness while the run is open; summarized and dropped
    /// when it ends.
    late_us: Samples,
    /// Decisions served per registry tier.
    pub tier_decisions: Vec<u64>,
    /// Answers kept for the re-decode.
    pub captured: Vec<Captured>,
    /// The window cut into [`SLICES`] slices by due time.
    pub slices: Vec<Slice>,
}

/// Decisions per generator run (one episode) whose bits go into the
/// fixed-size BER sample. A fixed sample keeps the BER bound's
/// denominator from following throughput when no error is seen.
pub const BER_DECISIONS: u64 = 1 << 17;

/// Slices a timed window is cut into.
pub const SLICES: u32 = 3;

/// The items that fell due within one slice of the window.
#[derive(Clone, Debug, Default)]
pub struct Slice {
    /// Seconds of the window the slice covers.
    pub seconds: f64,
    /// Decisions offered.
    pub offered: u64,
    /// Decisions answered on time that passed the check.
    pub ontime: u64,
    /// Items timed.
    pub timed: usize,
    /// Median µs from submit until collected.
    pub p50_us: f64,
    /// 99th percentile of the same.
    pub p99_us: f64,
    /// Whether `p99_us` has at least ten samples beyond it.
    pub p99_supported: bool,
    /// The latencies while the slice is open; summarized and dropped when
    /// the run ends, so memory does not grow with throughput.
    latency_us: Samples,
    /// Share of the guest's CPU time the hypervisor stole during the
    /// slice (see [`cpu_steal`]).
    pub steal: f64,
    /// `cpu_steal()` when the slice opened.
    opened: (u64, u64),
}

impl Slice {
    /// On-time decisions per second of the slice.
    pub fn goodput_hz(&self) -> f64 {
        self.ontime as f64 / self.seconds
    }
}

impl Outcome {
    /// On-time decisions per second of the window.
    pub fn goodput_hz(&self) -> f64 {
        self.ontime as f64 / self.window_s
    }
}

/// Per-slot state of an item in flight.
#[derive(Copy, Clone)]
struct Flight {
    due: Instant,
    submit: (Instant, Instant),
}

/// The generator. One per run; borrows the pool for its duration.
pub struct Driver<'a, I: Item> {
    rt: &'a ServeRuntime,
    pool: &'a mut [Option<I>],
    flights: Vec<Flight>,
    c: &'a Constellation,
    deadline: Duration,
    sampling: Sampling,
    /// Spans go here, one request tree per `trace_stride`-th sequence
    /// number.
    tracer: Option<(&'a mut Tracer, u64)>,
    in_flight: usize,
    t0: Instant,
    /// Length of one slice of the window.
    slice_len: Duration,
    /// Whether the window is timed (`Stop::After`).
    timed: bool,
    /// Decisions admitted and not yet answered.
    pending: u64,
    out: Outcome,
}

impl<'a, I: Item> Driver<'a, I> {
    /// A generator over `pool` for one run.
    pub fn new(
        rt: &'a ServeRuntime,
        pool: &'a mut [Option<I>],
        c: &'a Constellation,
        n_tiers: usize,
        deadline: Duration,
        sampling: Sampling,
        tracer: Option<(&'a mut Tracer, u64)>,
    ) -> Self {
        let now = Instant::now();
        let flights = vec![
            Flight {
                due: now,
                submit: (now, now),
            };
            pool.len()
        ];
        Driver {
            rt,
            pool,
            flights,
            c,
            deadline,
            sampling,
            tracer,
            in_flight: 0,
            t0: now,
            slice_len: Duration::from_secs(1),
            timed: false,
            pending: 0,
            out: Outcome {
                tier_decisions: vec![0; n_tiers],
                ..Outcome::default()
            },
        }
    }

    /// Keep `window` items in flight until `stop`, then drain every
    /// admitted item.
    pub fn run(mut self, window: usize, stop: Stop) -> Outcome {
        let t0 = Instant::now();
        self.t0 = t0;
        let (t_end, max_items) = match stop {
            Stop::After(d) => {
                self.slice_len = d / SLICES;
                self.timed = true;
                (Some(t0 + d), u64::MAX)
            }
            Stop::Items(n) => (None, n),
        };
        let open_window = |now: Instant, seq: u64| seq < max_items && t_end.is_none_or(|e| now < e);
        let mut seq = 0u64;
        let mut freed = Instant::now();
        loop {
            while self.in_flight < window && open_window(Instant::now(), seq) {
                self.send(seq, freed);
                seq += 1;
            }
            if !open_window(Instant::now(), seq) {
                break;
            }
            if let Some(r) = I::collect(self.rt, Duration::from_millis(100)) {
                freed = self.handle(r);
            }
        }
        let sent_until = Instant::now();
        let closed = cpu_steal();
        self.out.window_s = match stop {
            Stop::After(d) => d.as_secs_f64(),
            Stop::Items(_) => (sent_until - t0).as_secs_f64(),
        };
        // Drain: every admitted item must come back.
        let mut progress = Instant::now();
        while self.in_flight > 0 {
            match I::collect(self.rt, Duration::from_millis(50)) {
                Some(r) => {
                    self.handle(r);
                    progress = Instant::now();
                }
                None if progress.elapsed() > STALL => break,
                None => {}
            }
        }
        self.out.unanswered = self.pending;
        let mut late = std::mem::take(&mut self.out.late_us);
        self.out.late_n = late.len();
        self.out.late_p99_us = late.quantile(0.99);
        let slice_s = self.slice_len.as_secs_f64();
        let n = self.out.slices.len();
        for k in 0..n {
            let end = self
                .out
                .slices
                .get(k + 1)
                .map_or(closed, |next| next.opened);
            let sl = &mut self.out.slices[k];
            sl.seconds = (self.out.window_s - k as f64 * slice_s).clamp(0.0, slice_s);
            sl.steal = ratio(
                end.0.saturating_sub(sl.opened.0) as f64,
                end.1.saturating_sub(sl.opened.1) as f64,
            );
            let mut lat = std::mem::take(&mut sl.latency_us);
            sl.timed = lat.len();
            sl.p50_us = lat.quantile(0.50);
            sl.p99_us = lat.quantile(0.99);
            sl.p99_supported = lat.supports(0.99);
        }
        self.out
    }

    /// The slice of the window `due` falls in.
    fn slice(&mut self, due: Instant) -> &mut Slice {
        let k = (due.saturating_duration_since(self.t0).as_secs_f64()
            / self.slice_len.as_secs_f64()) as usize;
        // A timed window has exactly `SLICES` slices, rounding aside.
        let k = if self.timed {
            k.min(SLICES as usize - 1)
        } else {
            k
        };
        if self.out.slices.len() <= k {
            // Slices open on the first item due in them, within
            // microseconds of their boundary on these workloads.
            let opened = cpu_steal();
            self.out.slices.resize_with(k + 1, || Slice {
                opened,
                ..Slice::default()
            });
        }
        &mut self.out.slices[k]
    }

    /// Offer sequence number `seq`, due at `due`.
    fn send(&mut self, seq: u64, due: Instant) {
        let slot = (seq % self.pool.len() as u64) as usize;
        // The slot's previous use is still in flight: wait for it.
        let mut progress = Instant::now();
        while self.pool[slot].is_none() {
            match I::collect(self.rt, Duration::from_millis(50)) {
                Some(r) => {
                    self.handle(r);
                    progress = Instant::now();
                }
                None => assert!(progress.elapsed() < STALL, "runtime stalled"),
            }
        }
        let mut item = self.pool[slot].take().expect("slot checked above");
        item.set_id(seq);
        let d = item.decisions();
        let s0 = Instant::now();
        let res = I::submit(self.rt, item);
        let s1 = Instant::now();
        self.out
            .late_us
            .push(s0.saturating_duration_since(due).as_secs_f64() * 1e6);
        self.out.offered += d;
        self.slice(due).offered += d;
        match res {
            Ok(()) => {
                self.in_flight += 1;
                self.pending += d;
                self.flights[slot] = Flight {
                    due,
                    submit: (s0, s1),
                };
            }
            Err(item) => {
                self.out.shed += d;
                self.pool[slot] = Some(item);
                if let Some((tr, stride)) = self.tracer.as_mut() {
                    if seq.is_multiple_of(*stride) {
                        tr.record(seq, 0, 0, "request", NO_TIER, d as u32, 0, due, s1);
                        tr.record(seq, 1, 0, "submit", NO_TIER, d as u32, 0, s0, s1);
                    }
                }
            }
        }
    }

    /// Check, time and recycle one answer; returns when it was collected.
    fn handle(&mut self, resp: I::Resp) -> Instant {
        let now = Instant::now();
        let (seq, tier, queue_wait, service) = I::view(&resp);
        let slot = (seq % self.pool.len() as u64) as usize;
        let flight = self.flights[slot];
        let latency = now.saturating_duration_since(flight.submit.0);
        let decided = I::decided(&resp);
        let n_tiers = self.out.tier_decisions.len();
        let order = self.c.order();
        let (mut failed, mut bit_errors, mut bits) = (0u64, 0u64, 0u64);
        for (frame, det) in &decided {
            let valid = tier < n_tiers
                && det.indices.len() == frame.tx.indices.len()
                && det.indices.iter().all(|&i| i < order);
            if valid {
                bit_errors += frame.bit_errors(&det.indices, self.c);
                bits += frame.tx.bits.len() as u64;
            } else {
                failed += 1;
            }
        }
        self.out.bit_errors += bit_errors;
        self.out.bits += bits;
        if self.out.first_decisions < BER_DECISIONS {
            self.out.first_decisions += decided.len() as u64;
            self.out.first_bit_errors += bit_errors;
            self.out.first_bits += bits;
        }
        // A frame whose detections do not match its subcarriers fails
        // whole.
        let d = I::answered(&resp);
        failed += d - decided.len() as u64;
        self.pending -= d;
        self.out.answered += d;
        self.out.failed += failed;
        let ontime = if latency <= self.deadline {
            d - failed
        } else {
            0
        };
        self.out.ontime += ontime;
        let slice = self.slice(flight.due);
        slice.ontime += ontime;
        slice.latency_us.push(latency.as_secs_f64() * 1e6);
        if tier < n_tiers {
            self.out.tier_decisions[tier] += d;
        }
        let s = self.sampling;
        if (seq / s.group).is_multiple_of(s.stride) && self.out.captured.len() < s.cap {
            for (sub, (_, det)) in decided.iter().enumerate() {
                self.out.captured.push(Captured {
                    slot,
                    sub,
                    tier,
                    det: (*det).clone(),
                });
            }
        }
        if let Some((tr, stride)) = self.tracer.as_mut() {
            if seq.is_multiple_of(*stride) {
                let t = tier.min(NO_TIER as usize - 1) as u8;
                let (s0, s1) = flight.submit;
                let served = s0 + queue_wait;
                let done = served + service;
                let items = d as u32;
                tr.record(seq, 0, 0, "request", t, items, 0, flight.due, now);
                tr.record(seq, 1, 0, "submit", NO_TIER, items, 0, s0, s1);
                tr.record(seq, 2, 0, "queue_wait", NO_TIER, items, 0, s0, served);
                tr.record(seq, 3, 0, "service", t, items, 0, served, done);
                tr.record(seq, 4, 0, "collect", NO_TIER, items, 0, done, now);
            }
        }
        self.pool[slot] = Some(I::recycle(self.rt, resp));
        self.in_flight -= 1;
        now
    }
}
