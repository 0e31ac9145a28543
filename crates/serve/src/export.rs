//! Export surfaces for [`MetricsSnapshot`]: Prometheus text exposition
//! and JSON lines, both rendered from one descriptor table.
//!
//! Every exported metric is defined exactly once, as a [`Metric`] row of
//! [`SCALAR_METRICS`] (runtime-wide), [`SHARD_METRICS`] (one sample per
//! shard) or [`TIER_METRICS`] (one sample per ladder tier). A row holds
//! the metric's name, its help text and its [`Kind`] — counter, gauge or
//! quantile summary — with the getter that reads it from the snapshot.
//! [`prometheus_text`] and [`json_line`] are loops over these tables with
//! no code for any single metric, so the two formats carry the same
//! metrics under the same names by construction:
//!
//! * Prometheus: family `sd_serve_{name}` (`sd_serve_shard_{name}` with a
//!   `shard` label, `sd_serve_tier_{name}` with a `tier` label), counters
//!   with the conventional `_total` suffix, summary samples with a
//!   `quantile` label;
//! * JSON: key `{name}`, summary quantiles as `p50_{name}` /
//!   `p99_{name}`, shard rows as objects of a `shards` array, tier rows as
//!   objects of a `tiers` array that also carry the tier's `label`.
//!
//! Both renderers are dependency-free string builders (the workspace
//! carries no JSON library). [`validate_json`] is a minimal
//! recursive-descent JSON checker used by the demo's smoke mode (and
//! tests) to prove the emitted line actually parses.

use crate::metrics::{MetricsSnapshot, ShardSnapshot, TierSnapshot};
use std::fmt::{self, Write as _};

/// Rendering used by the export helpers and the periodic reporter.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ExportFormat {
    /// Prometheus text exposition format (`# HELP` / `# TYPE` / samples).
    Prometheus,
    /// One self-contained JSON object per snapshot.
    JsonLines,
}

/// Render a snapshot in the requested format.
pub fn render(snap: &MetricsSnapshot, format: ExportFormat) -> String {
    match format {
        ExportFormat::Prometheus => prometheus_text(snap),
        ExportFormat::JsonLines => json_line(snap),
    }
}

/// How a [`Metric`] is typed, and the getter that reads it from its
/// snapshot `S`.
pub enum Kind<S: 'static> {
    /// A monotone count.
    Counter(fn(&S) -> u64),
    /// A point-in-time value.
    Gauge(fn(&S) -> f64),
    /// Quantiles of a distribution, one sample each.
    Summary(&'static [Quantile<S>]),
}

impl<S> Kind<S> {
    /// The Prometheus `# TYPE` of this kind.
    pub fn type_name(&self) -> &'static str {
        match self {
            Kind::Counter(_) => "counter",
            Kind::Gauge(_) => "gauge",
            Kind::Summary(_) => "summary",
        }
    }
}

/// One quantile of a [`Kind::Summary`].
pub struct Quantile<S: 'static> {
    /// Value of the Prometheus `quantile` label (`"0.99"`).
    pub label: &'static str,
    /// JSON key prefix (`"p99"` renders the key `p99_{name}`).
    pub key: &'static str,
    /// Reads the quantile from the snapshot.
    pub get: fn(&S) -> f64,
}

/// One exported metric — the one definition both renderers read.
pub struct Metric<S: 'static> {
    /// JSON key, and the stem of the Prometheus family name.
    pub name: &'static str,
    /// Prometheus `# HELP` text.
    pub help: &'static str,
    /// Type and getter.
    pub kind: Kind<S>,
}

impl<S> Metric<S> {
    /// The JSON key of one sample (`quantile` is `None` for counters and
    /// gauges).
    fn json_key(&self, quantile: Option<&Quantile<S>>) -> String {
        match quantile {
            Some(q) => format!("{}_{}", q.key, self.name),
            None => self.name.to_string(),
        }
    }

    /// Every JSON key this row renders, in order.
    pub fn json_keys(&self) -> Vec<String> {
        match &self.kind {
            Kind::Summary(qs) => qs.iter().map(|q| self.json_key(Some(q))).collect(),
            _ => vec![self.json_key(None)],
        }
    }

    /// Call `emit` once per sample of this row on `s`.
    fn samples(&self, s: &S, mut emit: impl FnMut(Option<&Quantile<S>>, Value)) {
        match &self.kind {
            Kind::Counter(get) => emit(None, Value::Count(get(s))),
            Kind::Gauge(get) => emit(None, Value::Real(get(s))),
            Kind::Summary(qs) => {
                for q in *qs {
                    emit(Some(q), Value::Real((q.get)(s)));
                }
            }
        }
    }
}

/// A descriptor table: the rows of one label scope.
pub struct Table<S: 'static> {
    /// Family-name scope after `sd_serve_` (`""`, `"shard_"`, `"tier_"`).
    pub scope: &'static str,
    /// The metrics, in export order.
    pub rows: &'static [Metric<S>],
}

impl<S> Table<S> {
    /// The Prometheus family name of `row`.
    pub fn family(&self, row: &Metric<S>) -> String {
        let total = if matches!(row.kind, Kind::Counter(_)) {
            "_total"
        } else {
            ""
        };
        format!("sd_serve_{}{}{total}", self.scope, row.name)
    }

    /// Append every row as one Prometheus family, with one sample per
    /// item (and per quantile). Each item carries its label set
    /// (`shard="0"`; empty for runtime-wide rows).
    fn prometheus(&self, o: &mut String, items: &[(String, &S)]) {
        for row in self.rows {
            let family = self.family(row);
            let _ = writeln!(o, "# HELP {family} {}", row.help);
            let _ = writeln!(o, "# TYPE {family} {}", row.kind.type_name());
            for (labels, s) in items {
                row.samples(s, |q, v| {
                    let mut set = labels.clone();
                    if let Some(q) = q {
                        if !set.is_empty() {
                            set.push(',');
                        }
                        let _ = write!(set, "quantile=\"{}\"", q.label);
                    }
                    let _ = if set.is_empty() {
                        writeln!(o, "{family} {v}")
                    } else {
                        writeln!(o, "{family}{{{set}}} {v}")
                    };
                });
            }
        }
    }

    /// Append every row of `s` as `"key":value,` JSON members.
    fn json_members(&self, o: &mut String, s: &S) {
        for row in self.rows {
            row.samples(s, |q, v| {
                let _ = write!(o, "\"{}\":{v},", row.json_key(q));
            });
        }
    }

    /// Append `"key":[{..},..],` — one object per item, each opened by
    /// `head` (extra leading members such as a tier's label).
    fn json_array<'a>(
        &self,
        o: &mut String,
        key: &str,
        items: impl IntoIterator<Item = (String, &'a S)>,
    ) where
        S: 'a,
    {
        let _ = write!(o, "\"{key}\":[");
        for (head, s) in items {
            o.push('{');
            o.push_str(&head);
            self.json_members(o, s);
            close(o, '}');
            o.push(',');
        }
        close(o, ']');
        o.push(',');
    }
}

/// Replace a trailing member separator with the closing bracket `c`.
fn close(o: &mut String, c: char) {
    if o.ends_with(',') {
        o.pop();
    }
    o.push(c);
}

/// One sample value. JSON numbers must be finite, so a non-finite
/// real renders as 0 (in both formats).
enum Value {
    Count(u64),
    Real(f64),
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            Value::Count(v) => write!(f, "{v}"),
            Value::Real(v) => write!(f, "{}", if v.is_finite() { v } else { 0.0 }),
        }
    }
}

const fn p50<S>(get: fn(&S) -> f64) -> Quantile<S> {
    Quantile {
        label: "0.5",
        key: "p50",
        get,
    }
}

const fn p99<S>(get: fn(&S) -> f64) -> Quantile<S> {
    Quantile {
        label: "0.99",
        key: "p99",
        get,
    }
}

const fn counter<S>(name: &'static str, help: &'static str, get: fn(&S) -> u64) -> Metric<S> {
    Metric {
        name,
        help,
        kind: Kind::Counter(get),
    }
}

const fn gauge<S>(name: &'static str, help: &'static str, get: fn(&S) -> f64) -> Metric<S> {
    Metric {
        name,
        help,
        kind: Kind::Gauge(get),
    }
}

const fn summary<S>(
    name: &'static str,
    help: &'static str,
    quantiles: &'static [Quantile<S>],
) -> Metric<S> {
    Metric {
        name,
        help,
        kind: Kind::Summary(quantiles),
    }
}

/// Runtime-wide metrics.
#[rustfmt::skip]
pub static SCALAR_METRICS: Table<MetricsSnapshot> = Table {
    scope: "",
    rows: &[
        counter("accepted", "Requests admitted into the ingress queue.", |s| s.accepted),
        counter("rejected_full", "Requests shed at admission (queue full).", |s| s.rejected_full),
        counter("rejected_shutdown", "Requests refused during shutdown.", |s| s.rejected_shutdown),
        counter("rejected_predicted_late", "Requests shed by predictive admission (predicted wait exceeded the deadline).", |s| s.rejected_predicted),
        counter("served", "Responses produced.", |s| s.served),
        counter("deadline_missed", "Responses that exceeded their deadline.", |s| s.deadline_missed),
        gauge("deadline_miss_rate", "deadline_missed / served.", |s| s.deadline_miss_rate),
        counter("quality_exact", "Responses whose search ran to completion (exact quality).", |s| s.quality_exact),
        counter("budget_exhausted", "Responses truncated by their decode budget (anytime best-so-far).", |s| s.budget_exhausted),
        counter("prep_cache_hits", "Requests whose preparation reused a cached channel factorization.", |s| s.prep_cache_hits),
        counter("prep_cache_misses", "Requests whose preparation factored and cached their channel.", |s| s.prep_cache_misses),
        counter("prep_cache_bypass", "Requests prepared outside the channel cache.", |s| s.prep_cache_bypass),
        counter("batches", "Batches drained from the ingress queue.", |s| s.batches),
        gauge("mean_batch_size", "Mean requests per batch.", |s| s.mean_batch_size),
        counter("frames_accepted", "Frame (coherence-block) requests admitted.", |s| s.frames_accepted),
        counter("frames_rejected_full", "Frame requests shed at admission (queue full).", |s| s.frames_rejected_full),
        counter("frames_rejected_shutdown", "Frame requests refused during shutdown.", |s| s.frames_rejected_shutdown),
        counter("frames_rejected_predicted_late", "Frame requests shed by predictive admission.", |s| s.frames_rejected_predicted),
        counter("frames_served", "Frame responses produced.", |s| s.frames_served),
        counter("frames_fused", "Frames decoded by the cross-subcarrier fused block path.", |s| s.frames_fused),
        counter("frames_deadline_missed", "Frames that exceeded their deadline.", |s| s.frames_deadline_missed),
        counter("frame_subcarriers", "Subcarriers decoded through the frame path.", |s| s.frame_subcarriers),
        counter("frame_prep_factors", "Channel preparations performed by the frame path.", |s| s.frame_prep_factors),
        gauge("mean_frame_size", "Mean subcarriers per served frame.", |s| s.mean_frame_size),
        gauge("prep_amortization", "Subcarriers served per channel preparation on the frame path.", |s| s.prep_amortization),
        summary("frame_latency_us", "Frame end-to-end latency quantiles (bucket upper bound).", &[p99(|s| s.p99_frame_latency_us)]),
        gauge("queue_depth", "Ingress backlog at snapshot time.", |s| s.queue_depth as f64),
        summary("latency_us", "End-to-end latency quantiles (bucket upper bound).", &[p50(|s| s.p50_latency_us), p99(|s| s.p99_latency_us)]),
        summary("queue_wait_us", "Queue-wait quantiles (bucket upper bound).", &[p99(|s| s.p99_queue_wait_us)]),
        counter("nodes_generated", "Search-tree nodes generated across all served decodes.", |s| s.nodes_generated),
        counter("leaves_reached", "Search-tree leaves reached across all served decodes.", |s| s.leaves_reached),
        gauge("host_cores", "Logical cores the host reported at startup.", |s| s.host_cores as f64),
        gauge("n_shards", "Number of runtime shards.", |s| s.n_shards as f64),
    ],
};

/// Per-shard metrics: Prometheus label `shard` (the shard index), JSON
/// array `shards` (in shard order). One scrape shows where affinity
/// routing concentrated the traffic and how much of it moved by stealing.
#[rustfmt::skip]
pub static SHARD_METRICS: Table<ShardSnapshot> = Table {
    scope: "shard_",
    rows: &[
        counter("routed", "Items admission routed to this shard.", |s| s.routed),
        counter("served", "Items served by this shard's workers.", |s| s.served),
        counter("affinity_served", "Items served from this shard's own affinity-routed queue.", |s| s.affinity_served),
        counter("stolen_in", "Items this shard's workers stole from other shards.", |s| s.stolen_in),
        counter("stolen_out", "Items other shards stole from this queue.", |s| s.stolen_out),
        counter("prep_hits", "Prep-cache hits on this shard.", |s| s.prep_hits),
        counter("prep_misses", "Prep-cache misses on this shard.", |s| s.prep_misses),
        counter("prep_bypass", "Prep-cache bypasses on this shard.", |s| s.prep_bypass),
        gauge("queue_depth", "This shard queue's backlog at snapshot time.", |s| s.queue_depth as f64),
    ],
};

/// Per-tier metrics: Prometheus label `tier` (the registry label), JSON
/// array `tiers` (in ladder order, each object led by its `label`).
#[rustfmt::skip]
pub static TIER_METRICS: Table<TierSnapshot> = Table {
    scope: "tier_",
    rows: &[
        counter("served", "Responses served per ladder tier.", |t| t.served),
        summary("predict_err_us", "Cost-model |predicted-actual| decode time per tier.", &[p50(|t| t.p50_predict_err_us), p99(|t| t.p99_predict_err_us)]),
    ],
};

/// Escape a string for a JSON string literal or a Prometheus label value.
fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

/// Render a snapshot in the Prometheus text exposition format: every row
/// of the three descriptor tables as one family.
pub fn prometheus_text(snap: &MetricsSnapshot) -> String {
    let mut o = String::with_capacity(8192);
    SCALAR_METRICS.prometheus(&mut o, &[(String::new(), snap)]);
    let shards: Vec<_> = snap
        .shards
        .iter()
        .enumerate()
        .map(|(i, s)| (format!("shard=\"{i}\""), s))
        .collect();
    SHARD_METRICS.prometheus(&mut o, &shards);
    let tiers: Vec<_> = snap
        .tiers
        .iter()
        .map(|t| (format!("tier=\"{}\"", escape(&t.label)), t))
        .collect();
    TIER_METRICS.prometheus(&mut o, &tiers);
    o
}

/// Render a snapshot as one self-contained JSON object (no trailing
/// newline) — the JSON-lines record format: every runtime-wide row as a
/// member, then the `shards` and `tiers` arrays.
pub fn json_line(snap: &MetricsSnapshot) -> String {
    let mut o = String::with_capacity(2048);
    o.push('{');
    SCALAR_METRICS.json_members(&mut o, snap);
    SHARD_METRICS.json_array(
        &mut o,
        "shards",
        snap.shards.iter().map(|s| (String::new(), s)),
    );
    TIER_METRICS.json_array(
        &mut o,
        "tiers",
        snap.tiers
            .iter()
            .map(|t| (format!("\"label\":\"{}\",", escape(&t.label)), t)),
    );
    close(&mut o, '}');
    o
}

/// Check that `s` is exactly one well-formed JSON value (with optional
/// surrounding whitespace). Returns the byte offset and a description on
/// the first violation.
pub fn validate_json(s: &str) -> Result<(), String> {
    let b = s.as_bytes();
    let mut p = Parser { b, pos: 0 };
    p.skip_ws();
    p.value()?;
    p.skip_ws();
    if p.pos != b.len() {
        return Err(format!("trailing garbage at byte {}", p.pos));
    }
    Ok(())
}

struct Parser<'a> {
    b: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while let Some(&c) = self.b.get(self.pos) {
            if c == b' ' || c == b'\t' || c == b'\n' || c == b'\r' {
                self.pos += 1;
            } else {
                break;
            }
        }
    }

    fn err(&self, what: &str) -> String {
        format!("{} at byte {}", what, self.pos)
    }

    fn value(&mut self) -> Result<(), String> {
        match self.b.get(self.pos) {
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => self.string(),
            Some(b't') => self.literal(b"true"),
            Some(b'f') => self.literal(b"false"),
            Some(b'n') => self.literal(b"null"),
            Some(c) if c.is_ascii_digit() || *c == b'-' => self.number(),
            _ => Err(self.err("expected a JSON value")),
        }
    }

    fn literal(&mut self, lit: &[u8]) -> Result<(), String> {
        if self.b[self.pos..].starts_with(lit) {
            self.pos += lit.len();
            Ok(())
        } else {
            Err(self.err("malformed literal"))
        }
    }

    fn object(&mut self) -> Result<(), String> {
        self.pos += 1; // '{'
        self.skip_ws();
        if self.b.get(self.pos) == Some(&b'}') {
            self.pos += 1;
            return Ok(());
        }
        loop {
            self.skip_ws();
            self.string()?;
            self.skip_ws();
            if self.b.get(self.pos) != Some(&b':') {
                return Err(self.err("expected ':'"));
            }
            self.pos += 1;
            self.skip_ws();
            self.value()?;
            self.skip_ws();
            match self.b.get(self.pos) {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(());
                }
                _ => return Err(self.err("expected ',' or '}'")),
            }
        }
    }

    fn array(&mut self) -> Result<(), String> {
        self.pos += 1; // '['
        self.skip_ws();
        if self.b.get(self.pos) == Some(&b']') {
            self.pos += 1;
            return Ok(());
        }
        loop {
            self.skip_ws();
            self.value()?;
            self.skip_ws();
            match self.b.get(self.pos) {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(());
                }
                _ => return Err(self.err("expected ',' or ']'")),
            }
        }
    }

    fn string(&mut self) -> Result<(), String> {
        if self.b.get(self.pos) != Some(&b'"') {
            return Err(self.err("expected '\"'"));
        }
        self.pos += 1;
        while let Some(&c) = self.b.get(self.pos) {
            match c {
                b'"' => {
                    self.pos += 1;
                    return Ok(());
                }
                b'\\' => {
                    self.pos += 1;
                    match self.b.get(self.pos) {
                        Some(b'"' | b'\\' | b'/' | b'b' | b'f' | b'n' | b'r' | b't') => {
                            self.pos += 1;
                        }
                        Some(b'u') => {
                            self.pos += 1;
                            for _ in 0..4 {
                                match self.b.get(self.pos) {
                                    Some(h) if h.is_ascii_hexdigit() => self.pos += 1,
                                    _ => return Err(self.err("bad \\u escape")),
                                }
                            }
                        }
                        _ => return Err(self.err("bad escape")),
                    }
                }
                0x00..=0x1f => return Err(self.err("raw control character in string")),
                _ => self.pos += 1,
            }
        }
        Err(self.err("unterminated string"))
    }

    fn number(&mut self) -> Result<(), String> {
        if self.b.get(self.pos) == Some(&b'-') {
            self.pos += 1;
        }
        let int_start = self.pos;
        while matches!(self.b.get(self.pos), Some(c) if c.is_ascii_digit()) {
            self.pos += 1;
        }
        if self.pos == int_start {
            return Err(self.err("expected digits"));
        }
        // Leading zeros are invalid JSON ("01"), a bare zero is fine.
        if self.b[int_start] == b'0' && self.pos - int_start > 1 {
            return Err(self.err("leading zero"));
        }
        if self.b.get(self.pos) == Some(&b'.') {
            self.pos += 1;
            let frac_start = self.pos;
            while matches!(self.b.get(self.pos), Some(c) if c.is_ascii_digit()) {
                self.pos += 1;
            }
            if self.pos == frac_start {
                return Err(self.err("expected fraction digits"));
            }
        }
        if matches!(self.b.get(self.pos), Some(b'e' | b'E')) {
            self.pos += 1;
            if matches!(self.b.get(self.pos), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            let exp_start = self.pos;
            while matches!(self.b.get(self.pos), Some(c) if c.is_ascii_digit()) {
                self.pos += 1;
            }
            if self.pos == exp_start {
                return Err(self.err("expected exponent digits"));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::Metrics;
    use std::collections::BTreeSet;
    use std::sync::atomic::Ordering;
    use std::sync::Arc;

    /// A snapshot with a distinct nonzero value in most fields, so a
    /// getter reading the wrong field shows up as a wrong value.
    fn sample_snapshot() -> MetricsSnapshot {
        let m = Metrics::new(vec![Arc::from("exact"), Arc::from("mmse")], 2, 4);
        let set = |c: &std::sync::atomic::AtomicU64, v: u64| c.store(v, Ordering::Relaxed);
        let (s0, s1) = (&m.shards[0], &m.shards[1]);
        set(&s0.routed, 6);
        set(&s0.served, 5);
        set(&s0.affinity_served, 4);
        set(&s0.stolen_out, 1);
        set(&s0.prep_hits, 3);
        set(&s0.prep_misses, 2);
        set(&s0.prep_bypass, 1);
        set(&s1.routed, 4);
        set(&s1.served, 4);
        set(&s1.affinity_served, 3);
        set(&s1.stolen_in, 1);
        set(&s1.prep_hits, 2);
        set(&s1.prep_misses, 1);
        set(&m.accepted, 10);
        set(&m.rejected_full, 3);
        set(&m.rejected_shutdown, 2);
        set(&m.rejected_predicted, 4);
        set(&m.served, 9);
        set(&m.deadline_missed, 1);
        set(&m.quality_exact, 8);
        set(&m.budget_exhausted, 1);
        set(&m.nodes_generated, 4321);
        set(&m.leaves_reached, 123);
        set(&m.batches, 3);
        set(&m.batch_items, 9);
        set(&m.frames_accepted, 2);
        set(&m.frames_rejected_full, 5);
        set(&m.frames_rejected_shutdown, 6);
        set(&m.frames_rejected_predicted, 7);
        set(&m.frames_served, 2);
        set(&m.frames_fused, 1);
        set(&m.frames_deadline_missed, 1);
        set(&m.frame_subcarriers, 32);
        set(&m.frame_prep_factors, 2);
        m.latency_ns.record(150_000);
        m.queue_wait_ns.record(20_000);
        m.frame_latency_ns.record(500_000);
        m.tiers[0].served.fetch_add(7, Ordering::Relaxed);
        m.tiers[0].predict_err_ns.record(40_000);
        m.tiers[1].served.fetch_add(2, Ordering::Relaxed);
        m.tiers[1].predict_err_ns.record(3_000);
        m.snapshot(&[2, 0])
    }

    /// Prometheus sample lines (`# HELP` / `# TYPE` excluded).
    fn prom_samples(text: &str) -> Vec<&str> {
        text.lines().filter(|l| !l.starts_with('#')).collect()
    }

    /// Flatten a JSON line into `path=raw value` pairs
    /// (`shards[0].routed=6`, `tiers[1].label="mmse"`). Assumes a valid
    /// line (check with [`validate_json`] first) without whitespace.
    fn json_pairs(line: &str) -> Vec<String> {
        fn string_end(b: &[u8], mut i: usize) -> usize {
            i += 1; // opening quote
            while b[i] != b'"' {
                i += if b[i] == b'\\' { 2 } else { 1 };
            }
            i + 1
        }
        fn value(s: &str, i: &mut usize, path: &str, out: &mut Vec<String>) {
            let b = s.as_bytes();
            match b[*i] {
                b'{' => {
                    *i += 1;
                    while b[*i] != b'}' {
                        let end = string_end(b, *i);
                        let key = &s[*i + 1..end - 1];
                        *i = end + 1; // past ':'
                        let path = if path.is_empty() {
                            key.to_string()
                        } else {
                            format!("{path}.{key}")
                        };
                        value(s, i, &path, out);
                        if b[*i] == b',' {
                            *i += 1;
                        }
                    }
                    *i += 1;
                }
                b'[' => {
                    *i += 1;
                    let mut n = 0;
                    while b[*i] != b']' {
                        value(s, i, &format!("{path}[{n}]"), out);
                        n += 1;
                        if b[*i] == b',' {
                            *i += 1;
                        }
                    }
                    *i += 1;
                }
                b'"' => {
                    let end = string_end(b, *i);
                    out.push(format!("{path}={}", &s[*i..end]));
                    *i = end;
                }
                _ => {
                    let start = *i;
                    while !matches!(b[*i], b',' | b'}' | b']') {
                        *i += 1;
                    }
                    out.push(format!("{path}={}", &s[start..*i]));
                }
            }
        }
        let mut out = Vec::new();
        value(line, &mut 0, "", &mut out);
        out
    }

    /// Every Prometheus sample the renderer emitted for
    /// [`sample_snapshot`] before the exports were table-driven, minus
    /// the deleted core-budget controller's `sd_serve_core_budget` and
    /// `sd_serve_budget_replans_total`, plus the `leaves_reached` family
    /// the JSON line always carried. Sorted.
    const PINNED_PROMETHEUS: &str = r#"
sd_serve_accepted_total 10
sd_serve_batches_total 3
sd_serve_budget_exhausted_total 1
sd_serve_deadline_miss_rate 0.1111111111111111
sd_serve_deadline_missed_total 1
sd_serve_frame_latency_us{quantile="0.99"} 524.287
sd_serve_frame_prep_factors_total 2
sd_serve_frame_subcarriers_total 32
sd_serve_frames_accepted_total 2
sd_serve_frames_deadline_missed_total 1
sd_serve_frames_fused_total 1
sd_serve_frames_rejected_full_total 5
sd_serve_frames_rejected_predicted_late_total 7
sd_serve_frames_rejected_shutdown_total 6
sd_serve_frames_served_total 2
sd_serve_host_cores 4
sd_serve_latency_us{quantile="0.5"} 262.143
sd_serve_latency_us{quantile="0.99"} 262.143
sd_serve_leaves_reached_total 123
sd_serve_mean_batch_size 3
sd_serve_mean_frame_size 16
sd_serve_n_shards 2
sd_serve_nodes_generated_total 4321
sd_serve_prep_amortization 16
sd_serve_prep_cache_bypass_total 1
sd_serve_prep_cache_hits_total 5
sd_serve_prep_cache_misses_total 3
sd_serve_quality_exact_total 8
sd_serve_queue_depth 2
sd_serve_queue_wait_us{quantile="0.99"} 32.767
sd_serve_rejected_full_total 3
sd_serve_rejected_predicted_late_total 4
sd_serve_rejected_shutdown_total 2
sd_serve_served_total 9
sd_serve_shard_affinity_served_total{shard="0"} 4
sd_serve_shard_affinity_served_total{shard="1"} 3
sd_serve_shard_prep_bypass_total{shard="0"} 1
sd_serve_shard_prep_bypass_total{shard="1"} 0
sd_serve_shard_prep_hits_total{shard="0"} 3
sd_serve_shard_prep_hits_total{shard="1"} 2
sd_serve_shard_prep_misses_total{shard="0"} 2
sd_serve_shard_prep_misses_total{shard="1"} 1
sd_serve_shard_queue_depth{shard="0"} 2
sd_serve_shard_queue_depth{shard="1"} 0
sd_serve_shard_routed_total{shard="0"} 6
sd_serve_shard_routed_total{shard="1"} 4
sd_serve_shard_served_total{shard="0"} 5
sd_serve_shard_served_total{shard="1"} 4
sd_serve_shard_stolen_in_total{shard="0"} 0
sd_serve_shard_stolen_in_total{shard="1"} 1
sd_serve_shard_stolen_out_total{shard="0"} 1
sd_serve_shard_stolen_out_total{shard="1"} 0
sd_serve_tier_predict_err_us{tier="exact",quantile="0.5"} 65.535
sd_serve_tier_predict_err_us{tier="exact",quantile="0.99"} 65.535
sd_serve_tier_predict_err_us{tier="mmse",quantile="0.5"} 4.095
sd_serve_tier_predict_err_us{tier="mmse",quantile="0.99"} 4.095
sd_serve_tier_served_total{tier="exact"} 7
sd_serve_tier_served_total{tier="mmse"} 2
"#;

    /// The JSON line the same earlier renderer emitted, minus
    /// `"core_budget":4,"budget_replans":3`.
    const PINNED_JSON: &str = r#"{"accepted":10,"rejected_full":3,"rejected_shutdown":2,"rejected_predicted_late":4,"served":9,"deadline_missed":1,"deadline_miss_rate":0.1111111111111111,"quality_exact":8,"budget_exhausted":1,"prep_cache_hits":5,"prep_cache_misses":3,"prep_cache_bypass":1,"batches":3,"mean_batch_size":3,"frames_accepted":2,"frames_rejected_full":5,"frames_rejected_shutdown":6,"frames_rejected_predicted_late":7,"frames_served":2,"frames_fused":1,"frames_deadline_missed":1,"frame_subcarriers":32,"frame_prep_factors":2,"mean_frame_size":16,"prep_amortization":16,"p99_frame_latency_us":524.287,"queue_depth":2,"p50_latency_us":262.143,"p99_latency_us":262.143,"p99_queue_wait_us":32.767,"nodes_generated":4321,"leaves_reached":123,"host_cores":4,"n_shards":2,"shards":[{"routed":6,"served":5,"affinity_served":4,"stolen_in":0,"stolen_out":1,"prep_hits":3,"prep_misses":2,"prep_bypass":1,"queue_depth":2},{"routed":4,"served":4,"affinity_served":3,"stolen_in":1,"stolen_out":0,"prep_hits":2,"prep_misses":1,"prep_bypass":0,"queue_depth":0}],"tiers":[{"label":"exact","served":7,"p50_predict_err_us":65.535,"p99_predict_err_us":65.535},{"label":"mmse","served":2,"p50_predict_err_us":4.095,"p99_predict_err_us":4.095}]}"#;

    /// Output preservation: the table-driven renderers reproduce the
    /// earlier hand-written exports — every Prometheus sample with the
    /// same name, labels and value (only the family order changed), and
    /// the JSON line byte for byte.
    #[test]
    fn exports_reproduce_the_pinned_samples() {
        let snap = sample_snapshot();
        let text = prometheus_text(&snap);
        let mut samples = prom_samples(&text);
        samples.sort_unstable();
        let pinned: Vec<&str> = PINNED_PROMETHEUS.trim().lines().collect();
        assert_eq!(samples, pinned, "in:\n{text}");
        assert_eq!(json_line(&snap), PINNED_JSON);
        validate_json(PINNED_JSON).expect("snapshot JSON must parse");
    }

    /// The two exports cannot drift: every Prometheus family has one
    /// `# HELP` and one `# TYPE`, no sample name repeats, the JSON keys of
    /// every object are unique, and both formats carry the same metrics.
    #[test]
    fn exports_carry_one_definition_per_metric() {
        let snap = sample_snapshot();
        let text = prometheus_text(&snap);
        let mut help = Vec::new();
        let mut types = Vec::new();
        for l in text.lines() {
            if let Some(rest) = l.strip_prefix("# HELP ") {
                help.push(rest.split(' ').next().unwrap());
            } else if let Some(rest) = l.strip_prefix("# TYPE ") {
                types.push(rest.split(' ').next().unwrap());
            }
        }
        let families: BTreeSet<&str> = types.iter().copied().collect();
        assert_eq!(families.len(), types.len(), "one # TYPE per family");
        help.sort_unstable();
        types.sort_unstable();
        assert_eq!(help, types, "one # HELP per family");
        let samples = prom_samples(&text);
        let names: BTreeSet<&str> = samples
            .iter()
            .map(|l| l.split(' ').next().unwrap())
            .collect();
        assert_eq!(names.len(), samples.len(), "no sample name repeats");
        for l in &samples {
            let family = l.split(['{', ' ']).next().unwrap();
            assert!(families.contains(family), "sample {l:?} has no family");
        }

        let pairs = json_pairs(&json_line(&snap));
        let keys: BTreeSet<&str> = pairs.iter().map(|p| p.split('=').next().unwrap()).collect();
        assert_eq!(keys.len(), pairs.len(), "JSON keys are unique per object");

        // Both formats, reduced to one metric id each: the Prometheus
        // family without its `sd_serve_` prefix and `_total` suffix, and
        // the JSON key without its array index and quantile prefix.
        let from_prom: BTreeSet<String> = families
            .iter()
            .map(|f| {
                let f = f.strip_prefix("sd_serve_").unwrap();
                f.strip_suffix("_total").unwrap_or(f).to_string()
            })
            .collect();
        let from_json: BTreeSet<String> = keys
            .iter()
            .filter(|k| !k.ends_with(".label"))
            .map(|k| {
                let (scope, key) = match k.split_once("].") {
                    Some((array, key)) if array.starts_with("shards[") => ("shard_", key),
                    Some((_, key)) => ("tier_", key),
                    None => ("", *k),
                };
                let key = key
                    .strip_prefix("p50_")
                    .or_else(|| key.strip_prefix("p99_"))
                    .unwrap_or(key);
                format!("{scope}{key}")
            })
            .collect();
        assert_eq!(from_prom, from_json, "both exports carry the same metrics");
    }

    #[test]
    fn render_dispatches_by_format() {
        let snap = sample_snapshot();
        assert_eq!(
            render(&snap, ExportFormat::Prometheus),
            prometheus_text(&snap)
        );
        assert_eq!(render(&snap, ExportFormat::JsonLines), json_line(&snap));
    }

    #[test]
    fn labels_are_escaped() {
        let mut snap = sample_snapshot();
        snap.tiers.push(TierSnapshot {
            label: Arc::from("we\"ird\\tier"),
            served: 1,
            p50_predict_err_us: 0.0,
            p99_predict_err_us: 0.0,
        });
        let line = json_line(&snap);
        validate_json(&line).expect("escaped label must stay parseable");
        assert!(line.contains("we\\\"ird\\\\tier"));
        let text = prometheus_text(&snap);
        assert!(text.contains("sd_serve_tier_served_total{tier=\"we\\\"ird\\\\tier\"} 1"));
    }

    #[test]
    fn non_finite_rates_degrade_to_zero() {
        let mut snap = sample_snapshot();
        snap.deadline_miss_rate = f64::NAN;
        snap.mean_batch_size = f64::INFINITY;
        validate_json(&json_line(&snap)).expect("NaN/inf must not leak into JSON");
        let text = prometheus_text(&snap);
        assert!(text.contains("sd_serve_deadline_miss_rate 0\n"));
        assert!(text.contains("sd_serve_mean_batch_size 0\n"));
    }

    /// An empty runtime (no shards, no tiers) still renders every family
    /// header and a parseable line with empty arrays.
    #[test]
    fn empty_scopes_render_empty_arrays() {
        let mut snap = sample_snapshot();
        snap.shards.clear();
        snap.tiers.clear();
        let line = json_line(&snap);
        validate_json(&line).expect("empty arrays must parse");
        assert!(line.contains("\"shards\":[],\"tiers\":[]}"));
        assert!(prometheus_text(&snap).contains("# TYPE sd_serve_shard_routed_total counter\n"));
    }

    #[test]
    fn validator_accepts_and_rejects() {
        for ok in [
            "{}",
            "[]",
            "  {\"a\": [1, 2.5, -3e4, true, false, null, \"s\\n\"]} ",
            "0",
            "-0.5",
        ] {
            validate_json(ok).unwrap_or_else(|e| panic!("{ok:?} should parse: {e}"));
        }
        for bad in [
            "",
            "{",
            "{\"a\":}",
            "[1,]",
            "{\"a\":1} extra",
            "01",
            "\"unterminated",
            "{\"a\" 1}",
            "nul",
            "NaN",
        ] {
            assert!(validate_json(bad).is_err(), "{bad:?} should be rejected");
        }
    }
}
