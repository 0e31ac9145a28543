//! Result lines: the human-readable report, the host fingerprint and the
//! one-line JSON result.

use std::fmt::Write as _;

/// One reported metric.
#[derive(Clone, Debug)]
pub struct Metric {
    /// Name as listed in `BENCHMARK.json`.
    pub name: String,
    /// Unit as listed in `BENCHMARK.json`.
    pub unit: &'static str,
    /// The measured value.
    pub value: f64,
    /// Samples the value was computed from.
    pub samples: usize,
}

impl Metric {
    /// A metric from its parts.
    pub fn new(name: impl Into<String>, unit: &'static str, value: f64, samples: usize) -> Self {
        Metric {
            name: name.into(),
            unit,
            value,
            samples,
        }
    }
}

/// The host fingerprint stamped into every result: what the numbers
/// depend on besides the code.
pub fn fingerprint(seed: u64, workers: usize, shards: usize) -> Vec<(&'static str, String)> {
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into());
    let flags = env!("SERVEBENCH_RUSTFLAGS");
    vec![
        ("seed", seed.to_string()),
        ("nproc", sd_serve::host_cores().to_string()),
        ("cpu", cpu),
        ("rustc", env!("SERVEBENCH_RUSTC").to_string()),
        (
            "target_cpu_native",
            flags.contains("target-cpu=native").to_string(),
        ),
        ("avx2", avx2().to_string()),
        ("workers", workers.to_string()),
        ("shards", shards.to_string()),
    ]
}

fn avx2() -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        std::arch::is_x86_feature_detected!("avx2")
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        false
    }
}

/// The process's resident-set high-water mark in MB (`VmHWM`), or 0 where
/// the platform does not report it.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Cumulative `(steal, total)` CPU jiffies of the host (`/proc/stat`),
/// or zeros where the platform does not report them. Steal is time the
/// hypervisor ran something else while this guest wanted a CPU.
pub fn cpu_steal() -> (u64, u64) {
    std::fs::read_to_string("/proc/stat")
        .ok()
        .and_then(|s| {
            let line = s.lines().next()?.strip_prefix("cpu ")?.to_string();
            let v: Vec<u64> = line
                .split_whitespace()
                .filter_map(|x| x.parse().ok())
                .collect();
            Some((v.get(7).copied().unwrap_or(0), v.iter().sum()))
        })
        .unwrap_or((0, 0))
}

/// The guest's CPUs as `/proc/stat` lists them (at least 1).
pub fn cpus() -> usize {
    std::fs::read_to_string("/proc/stat")
        .map(|s| {
            s.lines()
                .filter(|l| l.starts_with("cpu") && !l.starts_with("cpu "))
                .count()
        })
        .unwrap_or(0)
        .max(1)
}

/// A JSON string literal.
pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for ch in s.chars() {
        match ch {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// A JSON number with every digit Rust's shortest round-trip form gives;
/// a non-finite value (never produced by a well-formed run) becomes 0.
pub fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".into()
    }
}

/// The result line: exactly `correct`, `attempted`, `failed`, `metrics`.
pub fn json_result(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                json_str(&m.name),
                json_num(m.value),
                json_str(m.unit)
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

/// The full record written beside the spans: fingerprint, counts and
/// every metric with its sample count.
pub fn json_record(
    workload: &str,
    trace: bool,
    host: &[(&'static str, String)],
    counts: &[(&'static str, f64)],
    metrics: &[Metric],
) -> String {
    let host: Vec<String> = host
        .iter()
        .map(|(k, v)| format!("{}: {}", json_str(k), json_str(v)))
        .collect();
    let counts: Vec<String> = counts
        .iter()
        .map(|(k, v)| format!("{}: {}", json_str(k), json_num(*v)))
        .collect();
    let metrics: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}, \"samples\": {}}}",
                json_str(&m.name),
                json_num(m.value),
                json_str(m.unit),
                m.samples
            )
        })
        .collect();
    format!(
        "{{\"workload\": {}, \"trace\": {trace}, \"host\": {{{}}}, \"counts\": {{{}}}, \"metrics\": {{{}}}}}\n",
        json_str(workload),
        host.join(", "),
        counts.join(", "),
        metrics.join(", ")
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let m = [
            Metric::new("latency_ms", "ms", 1.2034, 10),
            Metric::new("setup_s", "s", 0.8127, 3),
        ];
        assert_eq!(
            json_result(true, 1000, 0, &m),
            "{\"correct\": true, \"attempted\": 1000, \"failed\": 0, \"metrics\": \
             {\"latency_ms\": {\"value\": 1.2034, \"unit\": \"ms\"}, \
             \"setup_s\": {\"value\": 0.8127, \"unit\": \"s\"}}}"
        );
    }

    #[test]
    fn numbers_keep_their_digits() {
        assert_eq!(json_num(0.1 + 0.2), "0.30000000000000004");
        assert_eq!(json_num(2.0), "2");
        assert_eq!(json_num(f64::NAN), "0");
        assert_eq!(json_str("a\"b\\c\n"), "\"a\\\"b\\\\c\\u000a\"");
    }

    #[test]
    fn fingerprint_names_the_host() {
        let fp = fingerprint(9, 2, 1);
        let keys: Vec<&str> = fp.iter().map(|(k, _)| *k).collect();
        assert_eq!(
            keys,
            [
                "seed",
                "nproc",
                "cpu",
                "rustc",
                "target_cpu_native",
                "avx2",
                "workers",
                "shards"
            ]
        );
        assert_eq!(fp[0].1, "9");
    }
}
