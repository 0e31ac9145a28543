//! Serving benchmark for `sd-serve`: goodput under the 10 ms line on three
//! traffic shapes, with per-layer attribution.
//!
//! ```text
//! servebench --workload <iid_ladder|coherent_vectors|grid_frames>
//!            --seed <n> --seconds <s> --trace <0|1>
//! servebench --smoke
//! ```
//!
//! With `--trace 0` the run measures the end-to-end metrics with tracing
//! off. With `--trace 1` it splits the window into an untraced and a
//! traced half, replays a sample of the traced half through the layer
//! calls, and reports the per-layer metrics. The last line of standard
//! output is always the JSON result; see `NOTES.md` for every metric.

mod drive;
mod replay;
mod report;
mod stats;
mod trace;
mod workloads;

use drive::{Driver, Item, Outcome, Sampling, Slice, Stop};
use report::{fingerprint, json_record, json_result, peak_rss_mb, Metric};
use sd_serve::{DetectionRequest, FrameRequest, MetricsSnapshot, ServeRuntime};
use stats::{ratio, theil_sen_intercept, wilson_upper95, Samples};
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::{Duration, Instant};
use trace::Tracer;
use workloads::{Workload, DEADLINE, WORKERS};

/// Registry tiers the per-layer metrics are reported for: the tiers that
/// serve on some workload. `grid_frames`' MMSE floor never serves, since
/// its ladder is off.
const TIERS: [&str; 3] = ["exact", "k-best", "k-best-fx"];
/// The tiers the ladder chooses between: the only workload with the
/// ladder on is `iid_ladder`. On the others every decision lands on
/// tier 0.
const LADDER_TIERS: [&str; 2] = ["exact", "k-best"];

/// One run's settings.
#[derive(Clone, Debug)]
struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

/// How a run is divided.
#[derive(Copy, Clone, Debug)]
struct Scale {
    /// Episodes of an untraced run, each with its own set-up and offer
    /// order. Episodes are where most of the run-to-run spread comes
    /// from: `iid_ladder`'s ladder mix and `grid_frames`' split of the 4
    /// frames in flight between the 2 workers are set per episode, and
    /// moved goodput by about ±10% from episode to episode, so a run
    /// takes many short ones.
    episodes: usize,
    /// Divisor on the workload's warm-up item count.
    warmup_div: u64,
}

const FULL: Scale = Scale {
    episodes: 12,
    warmup_div: 1,
};
const SMOKE: Scale = Scale {
    episodes: 1,
    warmup_div: 20,
};

fn usage() -> &'static str {
    "usage: servebench --workload <iid_ladder|coherent_vectors|grid_frames> \
     --seed <n> --seconds <s> --trace <0|1>\n       servebench --smoke"
}

fn parse(argv: &[String]) -> Result<Option<Args>, String> {
    if argv == ["--smoke"] {
        return Ok(None);
    }
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let val = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload =
                    Some(Workload::parse(val).ok_or_else(|| format!("unknown workload '{val}'"))?)
            }
            "--seed" => seed = Some(val.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = val.parse::<f64>().map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(format!("--seconds must be in (0, 600], got {s}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match val.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace must be 0 or 1, got '{val}'")),
                })
            }
            _ => return Err(format!("unknown flag '{flag}'")),
        }
    }
    Ok(Some(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    }))
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    match parse(&argv) {
        Err(e) => {
            eprintln!("{e}\n{}", usage());
            ExitCode::from(2)
        }
        Ok(Some(args)) => {
            let r = run(&args, FULL);
            println!(
                "{}",
                json_result(r.correct, r.attempted, r.failed, &r.metrics)
            );
            ExitCode::SUCCESS
        }
        Ok(None) => smoke(),
    }
}

/// Every workload, untraced and traced, for a fraction of a second each.
fn smoke() -> ExitCode {
    let mut ok = true;
    let (mut attempted, mut failed) = (0, 0);
    for workload in Workload::ALL {
        for (trace, seconds) in [(false, 0.3), (true, 0.4)] {
            let args = Args {
                workload,
                seed: 1,
                seconds,
                trace,
            };
            let r = run(&args, SMOKE);
            ok &= r.correct;
            attempted += r.attempted;
            failed += r.failed;
        }
    }
    println!("{}", json_result(ok, attempted, failed, &[]));
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn run(args: &Args, scale: Scale) -> Report {
    match args.workload {
        Workload::GridFrames => measure::<FrameRequest>(args, scale),
        _ => measure::<DetectionRequest>(args, scale),
    }
}

const NO_SAMPLING: Sampling = Sampling {
    group: 1,
    stride: 1,
    cap: 0,
};

/// What one run reports.
struct Report {
    correct: bool,
    /// Decisions offered.
    attempted: u64,
    /// Decisions that failed the check, went unanswered or did not
    /// re-decode identically.
    failed: u64,
    metrics: Vec<Metric>,
    /// Counts behind the metrics, printed and recorded.
    counts: Vec<(&'static str, f64)>,
}

/// The fixed per-workload context of a run.
struct Ctx {
    w: Workload,
    seed: u64,
    scale: Scale,
    c: sd_wireless::Constellation,
    registry: Vec<sd_serve::Tier>,
}

fn measure<I: Item>(args: &Args, scale: Scale) -> Report {
    let w = args.workload;
    let host = fingerprint(args.seed, WORKERS, w.shards());
    println!(
        "# servebench workload={} seed={} seconds={} trace={}",
        w.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    let host_line: Vec<String> = host.iter().map(|(k, v)| format!("{k}={v:?}")).collect();
    println!("# host {}", host_line.join(" "));
    let ctx = Ctx {
        w,
        seed: args.seed,
        scale,
        c: w.constellation(),
        registry: w.registry(),
    };
    let window = Duration::from_secs_f64(args.seconds);
    let report = if args.trace {
        traced::<I>(&ctx, window)
    } else {
        untraced::<I>(&ctx, window)
    };
    for m in &report.metrics {
        println!(
            "{:<40} {:>16.6} {:<6} n={}",
            m.name, m.value, m.unit, m.samples
        );
    }
    for (k, v) in &report.counts {
        println!("# {k} = {v}");
    }
    let record = json_record(w.name(), args.trace, &host, &report.counts, &report.metrics);
    let path = out_dir().join(format!(
        "result-{}-trace{}.json",
        w.name(),
        u8::from(args.trace)
    ));
    if let Err(e) = std::fs::create_dir_all(out_dir()).and_then(|_| std::fs::write(&path, record)) {
        eprintln!("cannot write {}: {e}", path.display());
    }
    report
}

/// A started, warmed-up runtime and its pool.
struct Setup<I> {
    rt: ServeRuntime,
    pool: Vec<Option<I>>,
    /// Seconds the set-up took: pool generation, runtime start, warm-up.
    secs: f64,
    /// Share of CPU time the hypervisor stole during it.
    steal: f64,
    /// `secs` net of the time stolen from the guest's CPUs (see
    /// [`net_of_steal`]).
    net_secs: f64,
    /// Warm-up decisions that failed the check or went unanswered.
    failed: u64,
}

/// Generate the pool, start the runtime and warm it up: the work timed
/// as `setup_s`. Each episode offers the pool in its own order, drawn
/// from the run's seed and the episode's index: on `iid_ladder` the
/// order the cost model meets the traffic in sets the ladder's mix for
/// the whole episode, so episodes that shared one order would all land
/// on the same side of it.
fn setup<I: Item>(ctx: &Ctx, episode: u64) -> Setup<I> {
    let w = ctx.w;
    let s0 = report::cpu_steal();
    let t = Instant::now();
    let seed = episode_seed(ctx.seed, episode);
    let mut pool: Vec<Option<I>> = I::unpool(w.pool(seed)).into_iter().map(Some).collect();
    let rt = w.start();
    let warm = Driver::new(
        &rt,
        &mut pool,
        &ctx.c,
        ctx.registry.len(),
        DEADLINE,
        NO_SAMPLING,
        None,
    )
    .run(
        w.window(),
        Stop::Items(w.warmup_items() / ctx.scale.warmup_div),
    );
    let secs = t.elapsed().as_secs_f64();
    let s1 = report::cpu_steal();
    let steal = ratio((s1.0 - s0.0) as f64, (s1.1 - s0.1) as f64);
    Setup {
        rt,
        pool,
        secs,
        steal,
        net_secs: net_of_steal(secs, steal, report::cpus()),
        failed: warm.failed + warm.unanswered,
    }
}

/// The end-to-end run: the window split into episodes, each with its own
/// set-up (new pool, new runtime, warm-up), so one episode's thread
/// placement does not set the run's figures. Each episode's window is cut
/// into slices, each with the share of CPU the hypervisor stole during it.
/// The host is a shared guest whose steal moves every figure, so each
/// rate and latency is read at zero steal off a Theil–Sen line through
/// the run's `(steal share, value)` slice points: a straight line for
/// rates (throughput follows the CPU the guest gets), a line in the
/// logarithm for latencies (stalls stretch them by a factor). The robust
/// line discounts steal without selecting on the values; when steal does
/// not vary it is the median of the values. `ber_ucb95` is the median over
/// the episodes of the BER bound over each episode's fixed number of
/// decisions, and `setup_s` the median over the episodes' set-ups of each
/// set-up's time net of steal.
fn untraced<I: Item>(ctx: &Ctx, window: Duration) -> Report {
    let w = ctx.w;
    let n = ctx.scale.episodes;
    let mut outs = Vec::with_capacity(n);
    let mut setup_s = Samples::default();
    let mut ber_ucb = Samples::default();
    let mut failed = 0;
    for _ in 0..n {
        let Setup {
            rt,
            mut pool,
            secs,
            steal,
            net_secs,
            failed: setup_failed,
        } = setup::<I>(ctx, setup_s.len() as u64);
        let out = Driver::new(
            &rt,
            &mut pool,
            &ctx.c,
            ctx.registry.len(),
            DEADLINE,
            w.sampling(),
            None,
        )
        .run(w.window(), Stop::After(window / n as u32));
        rt.shutdown();
        failed += setup_failed + out.failed + out.unanswered;
        failed += redecode(pool, &out, &ctx.registry, w.config().prep_cache, None);
        let ber = wilson_upper95(out.first_bit_errors, out.first_bits);
        println!(
            "# episode {}: setup_s={secs:.4} steal={steal:.4} net_s={net_secs:.4} \
             ber_ucb95={ber:.6e}",
            setup_s.len()
        );
        setup_s.push(net_secs);
        ber_ucb.push(ber);
        outs.push(out);
    }

    let slices: Vec<&Slice> = outs.iter().flat_map(|o| &o.slices).collect();
    let per_slice = |f: &dyn Fn(&Slice) -> f64| -> Vec<(f64, f64)> {
        slices.iter().map(|sl| (sl.steal, f(sl))).collect()
    };
    let goodput = per_slice(&|sl| sl.goodput_hz());
    let ontime = per_slice(&|sl| ratio(sl.ontime as f64, sl.offered as f64));
    let p50 = per_slice(&|sl| sl.p50_us);
    let p99 = per_slice(&|sl| sl.p99_us);
    for (k, sl) in slices.iter().enumerate() {
        println!(
            "# slice {k}: steal={:.4} goodput_hz={:.1} ontime_ratio={:.6} latency_p50_us={:.1} \
             latency_p99_us={:.1}",
            sl.steal, goodput[k].1, ontime[k].1, p50[k].1, p99[k].1
        );
    }
    let thin = slices.iter().filter(|sl| !sl.p99_supported).count();
    if thin > 0 {
        println!("# note: {thin} slices have fewer than 10 samples beyond p99");
    }
    let sum = |f: fn(&Slice) -> u64| slices.iter().map(|sl| f(sl)).sum::<u64>();
    let sum_outs = |f: fn(&Outcome) -> u64| outs.iter().map(f).sum::<u64>();
    let ber_bits = sum_outs(|o| o.first_bits);
    let timed: usize = slices.iter().map(|sl| sl.timed).sum();
    let metrics = vec![
        Metric::new(
            "goodput_hz",
            "1/s",
            theil_sen_intercept(&goodput),
            sum(|s| s.ontime) as usize,
        ),
        Metric::new(
            "ontime_ratio",
            "ratio",
            theil_sen_intercept(&ontime).min(1.0),
            sum(|s| s.offered) as usize,
        ),
        Metric::new("latency_p50_us", "us", log_intercept(&p50), timed),
        Metric::new("latency_p99_us", "us", log_intercept(&p99), timed),
        Metric::new(
            "ber_ucb95",
            "ratio",
            ber_ucb.quantile(0.5),
            ber_bits as usize,
        ),
        Metric::new("peak_rss_mb", "MB", peak_rss_mb(), 1),
        Metric::new("setup_s", "s", setup_s.quantile(0.5), setup_s.len()),
    ];
    let outs: Vec<&Outcome> = outs.iter().collect();
    finish(w, &outs, failed, metrics)
}

/// [`theil_sen_intercept`] in the logarithm of the values: the figure at
/// zero steal under a model where steal stretches it by a factor.
fn log_intercept(points: &[(f64, f64)]) -> f64 {
    let logs: Vec<(f64, f64)> = points
        .iter()
        .filter(|(_, y)| *y > 0.0)
        .map(|&(x, y)| (x, y.ln()))
        .collect();
    theil_sen_intercept(&logs).exp()
}

/// The traced run: one set-up, half the window untraced, half traced,
/// then the layer replay of the traced half's sample.
fn traced<I: Item>(ctx: &Ctx, window: Duration) -> Report {
    let w = ctx.w;
    let n_tiers = ctx.registry.len();
    let Setup {
        rt,
        mut pool,
        failed: setup_failed,
        ..
    } = setup::<I>(ctx, 0);
    let half = window / 2;
    let plain = Driver::new(&rt, &mut pool, &ctx.c, n_tiers, DEADLINE, NO_SAMPLING, None)
        .run(w.window(), Stop::After(half));
    let before = rt.metrics();
    let mut tracer = Tracer::new(Instant::now(), 1 << 16);
    let traced = Driver::new(
        &rt,
        &mut pool,
        &ctx.c,
        n_tiers,
        DEADLINE,
        w.sampling(),
        Some((&mut tracer, w.trace_stride())),
    )
    .run(w.window(), Stop::After(half));
    let after = rt.metrics();
    rt.shutdown();
    let prep_cache = w.config().prep_cache;
    let mismatches = redecode(pool, &traced, &ctx.registry, prep_cache, Some(&mut tracer));
    let path = out_dir().join(format!("spans-{}.tsv", w.name()));
    if let Err(e) = tracer.write_tsv(&path) {
        eprintln!("cannot write {}: {e}", path.display());
    }
    let labels: Vec<String> = ctx.registry.iter().map(|t| t.label.to_string()).collect();
    let metrics = per_layer(&tracer, &plain, &traced, &before, &after, &labels);
    let failed = setup_failed
        + mismatches
        + [&plain, &traced]
            .iter()
            .map(|o| o.failed + o.unanswered)
            .sum::<u64>();
    finish(w, &[&plain, &traced], failed, metrics)
}

/// The offer-order seed of episode `episode` of a run under `seed`:
/// distinct for every episode of every run seed below 2⁶⁴ / 10⁶.
fn episode_seed(seed: u64, episode: u64) -> u64 {
    seed.wrapping_mul(1_000_003).wrapping_add(episode)
}

/// A set-up's wall time net of the CPU time the hypervisor stole from the
/// guest while it ran: `secs` less `cpus · steal · secs`, the stolen time
/// summed over the guest's CPUs. The set-up is a chain in which the
/// generator, the workers and pool generation hand work to each other on
/// every CPU, so a tick stolen from any of them delays it. Measured on a
/// 2-vCPU guest with 5–35% steal, subtracting the stolen time of every
/// CPU took the ten-run spread of `setup_s` from 0.11–0.63 to 0.02–0.16;
/// subtracting one CPU's share left 0.07–0.28. Never below a tenth of
/// the wall time, so the figure stays positive.
fn net_of_steal(secs: f64, steal: f64, cpus: usize) -> f64 {
    secs * (1.0 - cpus as f64 * steal).max(0.1)
}

/// Correctness verdict and counts over a run's outcomes.
fn finish(w: Workload, outs: &[&Outcome], failed: u64, metrics: Vec<Metric>) -> Report {
    let sum = |f: fn(&Outcome) -> u64| outs.iter().map(|o| f(o)).sum::<u64>();
    let offered = sum(|o| o.offered);
    let (bit_errors, bits) = (sum(|o| o.bit_errors), sum(|o| o.bits));
    let ber = ratio(bit_errors as f64, bits as f64);
    let counts = vec![
        ("offered_decisions", offered as f64),
        ("shed_decisions", sum(|o| o.shed) as f64),
        ("answered_decisions", sum(|o| o.answered) as f64),
        ("ontime_decisions", sum(|o| o.ontime) as f64),
        ("unanswered_decisions", sum(|o| o.unanswered) as f64),
        (
            "redecoded_decisions",
            sum(|o| o.captured.len() as u64) as f64,
        ),
        ("failed_decisions", failed as f64),
        ("error_ratio", ratio(failed as f64, offered as f64)),
        ("bit_errors", bit_errors as f64),
        ("bits", bits as f64),
        ("ber", ber),
    ];
    Report {
        correct: failed == 0 && offered > 0 && ber <= w.ber_ceiling(),
        attempted: offered,
        failed,
        metrics,
        counts,
    }
}

/// Where spans and result records are written: `out/` beside this
/// package's manifest.
fn out_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out")
}

/// Re-decode the captured answers off the clock (timing each layer call
/// when `tracer` is set). Returns the decisions that did not reproduce;
/// a pool with unanswered slots cannot be replayed and counts as a
/// failure already.
fn redecode<I: Item>(
    pool: Vec<Option<I>>,
    out: &Outcome,
    registry: &[sd_serve::Tier],
    prep_cache: usize,
    tracer: Option<&mut Tracer>,
) -> u64 {
    let Some(items) = pool.into_iter().collect::<Option<Vec<I>>>() else {
        return 0;
    };
    replay::replay(&I::pool(items), &out.captured, registry, prep_cache, tracer)
}

/// Every per-layer metric, from the traced half's spans, its outcome and
/// the runtime's counters across it. A tier the workload's registry does
/// not have, or a layer its traffic does not reach, reads 0.
fn per_layer(
    tr: &Tracer,
    plain: &Outcome,
    traced: &Outcome,
    before: &MetricsSnapshot,
    after: &MetricsSnapshot,
    labels: &[String],
) -> Vec<Metric> {
    let mut m = Vec::new();
    let q = |name: &str, tier: Option<u8>, p: f64, scale: f64| {
        let mut s = tr.durations_ns(name, tier);
        (s.quantile(p) / scale, s.len())
    };
    let tier_of = |label: &str| labels.iter().position(|l| l == label);

    // sd-serve: runtime admission.
    let (v, n) = q("submit", None, 0.50, 1.0);
    m.push(Metric::new("runtime.submit_ns_p50", "ns", v, n));
    let (v, n) = q("submit", None, 0.99, 1.0);
    m.push(Metric::new("runtime.submit_ns_p99", "ns", v, n));

    // sd-serve: queue and batcher.
    let (v, n) = q("queue_wait", None, 0.50, 1e3);
    m.push(Metric::new("queue.wait_us_p50", "us", v, n));
    let (v, n) = q("queue_wait", None, 0.99, 1e3);
    m.push(Metric::new("queue.wait_us_p99", "us", v, n));
    let batches = after.batches - before.batches;
    let items = after.mean_batch_size * after.batches as f64
        - before.mean_batch_size * before.batches as f64;
    m.push(Metric::new(
        "batcher.mean_batch",
        "count",
        ratio(items, batches as f64),
        batches as usize,
    ));

    // sd-serve: ladder and budget.
    for label in LADDER_TIERS {
        let served = tier_of(label).map_or(0, |i| traced.tier_decisions[i]);
        m.push(Metric::new(
            format!("ladder.share.{label}"),
            "ratio",
            ratio(served as f64, traced.answered as f64),
            traced.answered as usize,
        ));
    }
    for label in TIERS {
        let (v, n) = tier_of(label).map_or((0.0, 0), |i| {
            let t = &after.tiers[i];
            (t.p99_predict_err_us, t.served as usize)
        });
        m.push(Metric::new(
            format!("budget.predict_err_us_p99.{label}"),
            "us",
            v,
            n,
        ));
    }

    // sd-serve: worker service time per tier.
    for (p, tag) in [(0.50, "p50"), (0.99, "p99")] {
        for label in TIERS {
            let (v, n) = tier_of(label).map_or((0.0, 0), |i| q("service", Some(i as u8), p, 1e3));
            m.push(Metric::new(
                format!("worker.service_us_{tag}.{label}"),
                "us",
                v,
                n,
            ));
        }
    }

    // sd-serve: prep cache and shards.
    let hits = after.prep_cache_hits - before.prep_cache_hits;
    let looked = hits + after.prep_cache_misses - before.prep_cache_misses
        + after.prep_cache_bypass
        - before.prep_cache_bypass;
    m.push(Metric::new(
        "prep_cache.hit_ratio",
        "ratio",
        ratio(hits as f64, looked as f64),
        looked as usize,
    ));
    let stolen: u64 = after
        .shards
        .iter()
        .zip(&before.shards)
        .map(|(a, b)| a.stolen_in - b.stolen_in)
        .sum();
    let served = after.served - before.served;
    m.push(Metric::new(
        "runtime.stolen_ratio",
        "ratio",
        ratio(stolen as f64, served as f64),
        served as usize,
    ));

    // sd-core preprocess and sd-math QR (replayed).
    for (name, span) in [
        ("preprocess.prepare_ns_p50", "prepare"),
        ("preprocess.prepare_cached_ns_p50", "prepare_cached"),
        ("preprocess.block_prepare_ns_p50", "block_prepare"),
        ("qr.factor_ns_p50", "qr.factor"),
        ("qr.apply_ns_p50", "qr.apply"),
    ] {
        let (v, n) = q(span, None, 0.50, 1.0);
        m.push(Metric::new(name, "ns", v, n));
    }

    // sd-core engines (replayed): per decision, a block decode counting
    // as its subcarriers.
    let mut engine = Vec::new();
    for label in TIERS {
        let mut per_decision = Samples::default();
        let (mut ns, mut nodes, mut decisions) = (0.0, 0.0, 0.0);
        if let Some(i) = tier_of(label) {
            for sp in tr
                .spans()
                .iter()
                .filter(|s| s.tier as usize == i && matches!(s.name, "search" | "block_decode"))
            {
                let d = sp.duration_ns() as f64;
                per_decision.push(d / f64::from(sp.items));
                ns += d;
                nodes += sp.work as f64;
                decisions += f64::from(sp.items);
            }
        }
        let n = per_decision.len();
        engine.push((
            label,
            ratio(nodes, decisions),
            ratio(ns, nodes),
            per_decision,
            n,
        ));
    }
    for (label, nodes_per, _, _, n) in &engine {
        m.push(Metric::new(
            format!("engine.nodes_per_decode.{label}"),
            "count",
            *nodes_per,
            *n,
        ));
    }
    for (label, _, ns_per_node, _, n) in &engine {
        m.push(Metric::new(
            format!("engine.ns_per_node.{label}"),
            "ns",
            *ns_per_node,
            *n,
        ));
    }
    for (p, tag) in [(0.50, "p50"), (0.99, "p99")] {
        for (label, _, _, s, n) in &mut engine {
            m.push(Metric::new(
                format!("engine.search_ns_{tag}.{label}"),
                "ns",
                s.quantile(p),
                *n,
            ));
        }
    }

    // sd-core block: the fused frame path.
    let frames = after.frames_served - before.frames_served;
    m.push(Metric::new(
        "block.fused_ratio",
        "ratio",
        ratio(
            (after.frames_fused - before.frames_fused) as f64,
            frames as f64,
        ),
        frames as usize,
    ));
    let (v, n) = q("block_decode", None, 0.50, 1.0);
    m.push(Metric::new("block.fused_decode_ns_p50", "ns", v, n));
    let (ns, subcarriers) = tr
        .spans()
        .iter()
        .filter(|s| s.name == "block_decode")
        .fold((0.0, 0.0), |(a, b), s| {
            (a + s.duration_ns() as f64, b + f64::from(s.items))
        });
    m.push(Metric::new(
        "block.ns_per_subcarrier",
        "ns",
        ratio(ns, subcarriers),
        n,
    ));

    // The generator itself: run health.
    m.push(Metric::new(
        "loadgen.late_us_p99",
        "us",
        traced.late_p99_us,
        traced.late_n,
    ));
    m.push(Metric::new(
        "trace.overhead_ratio",
        "ratio",
        ratio(plain.goodput_hz() - traced.goodput_hz(), plain.goodput_hz()),
        2,
    ));
    m
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn parses_the_contract_flags() {
        let a = parse(&argv(
            "--workload grid_frames --seed 4 --seconds 10 --trace 1",
        ))
        .unwrap()
        .unwrap();
        assert_eq!(a.workload, Workload::GridFrames);
        assert_eq!((a.seed, a.seconds, a.trace), (4, 10.0, true));
        assert!(parse(&argv("--smoke")).unwrap().is_none());
    }

    #[test]
    fn rejects_bad_flags() {
        for bad in [
            "--workload nope --seed 1 --seconds 1 --trace 0",
            "--workload grid_frames --seed 1 --seconds 1 --trace 2",
            "--workload grid_frames --seed 1 --seconds 0 --trace 0",
            "--workload grid_frames --seconds 1 --trace 0",
            "--workload grid_frames --seed",
        ] {
            assert!(parse(&argv(bad)).is_err(), "{bad}");
        }
    }

    #[test]
    fn set_up_time_is_net_of_every_cpu_steal() {
        assert_eq!(net_of_steal(2.0, 0.0, 2), 2.0);
        // 10% of the guest's CPU time stolen on each of 2 CPUs: 0.4 s of
        // a 2 s set-up.
        assert!((net_of_steal(2.0, 0.1, 2) - 1.6).abs() < 1e-12);
        // Never below a tenth of the wall time.
        assert!((net_of_steal(2.0, 0.6, 2) - 0.2).abs() < 1e-12);
    }

    /// Smoke mode: every workload, untraced and traced, for a fraction of
    /// a second, must come back correct with every metric present.
    #[test]
    fn every_workload_runs_briefly_and_checks_out() {
        for workload in Workload::ALL {
            for trace in [false, true] {
                let args = Args {
                    workload,
                    seed: 2,
                    seconds: 0.2,
                    trace,
                };
                let r = run(&args, SMOKE);
                assert!(r.correct, "{} trace={trace}", workload.name());
                assert!(r.attempted > 0);
                assert_eq!(r.failed, 0);
                let expected = if trace { 40 } else { 7 };
                assert_eq!(r.metrics.len(), expected, "{}", workload.name());
            }
        }
    }
}
