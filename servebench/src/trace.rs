//! In-memory spans recorded around the calls into each layer.
//!
//! A span has a name, a start and an end, the span that caused it and the
//! trace (request or replayed sample) it belongs to. Spans are kept in
//! memory while the benchmark runs and written out when it ends; every
//! per-layer timing is read off them, so each metric is defined once.

use crate::stats::Samples;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// No tier attached to a span.
pub const NO_TIER: u8 = u8::MAX;

/// One timed interval.
#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    /// Trace the span belongs to (one request, or one replayed sample).
    pub trace: u64,
    /// Span id, unique within its trace; 0 is the root.
    pub id: u16,
    /// Id of the span that caused this one (the root points to itself).
    pub parent: u16,
    /// Layer boundary the span times.
    pub name: &'static str,
    /// Registry tier the work ran at, or [`NO_TIER`].
    pub tier: u8,
    /// Decisions the span covers (1 for a vector, the subcarriers of a
    /// frame).
    pub items: u32,
    /// Work counted at this boundary (search nodes), 0 where none is.
    pub work: u64,
    /// Start, in ns since the tracer's epoch.
    pub start_ns: u64,
    /// End, in ns since the tracer's epoch.
    pub end_ns: u64,
}

impl Span {
    /// Length of the interval.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Self time of `parent`: its duration minus the part of its interval
/// that the union of `children` covers. Overlapping children are counted
/// once and the parts of a child outside the parent are ignored.
pub fn self_time_ns(parent: &Span, children: &[&Span]) -> u64 {
    let mut iv: Vec<(u64, u64)> = children
        .iter()
        .map(|c| (c.start_ns.max(parent.start_ns), c.end_ns.min(parent.end_ns)))
        .filter(|(s, e)| s < e)
        .collect();
    iv.sort_unstable();
    let mut covered = 0;
    let mut cur: Option<(u64, u64)> = None;
    for (s, e) in iv {
        match cur {
            Some((cs, ce)) if s <= ce => cur = Some((cs, ce.max(e))),
            Some((cs, ce)) => {
                covered += ce - cs;
                cur = Some((s, e));
            }
            None => cur = Some((s, e)),
        }
    }
    if let Some((cs, ce)) = cur {
        covered += ce - cs;
    }
    parent.duration_ns() - covered
}

/// The span store.
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    /// An empty store whose clock starts at `epoch`.
    pub fn new(epoch: Instant, capacity: usize) -> Self {
        Tracer {
            epoch,
            spans: Vec::with_capacity(capacity),
        }
    }

    /// Nanoseconds since the epoch (0 for instants before it).
    pub fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// Record one span.
    #[allow(clippy::too_many_arguments)]
    pub fn record(
        &mut self,
        trace: u64,
        id: u16,
        parent: u16,
        name: &'static str,
        tier: u8,
        items: u32,
        work: u64,
        start: Instant,
        end: Instant,
    ) {
        let (start_ns, end_ns) = (self.ns(start), self.ns(end));
        self.spans.push(Span {
            trace,
            id,
            parent,
            name,
            tier,
            items,
            work,
            start_ns,
            end_ns,
        });
    }

    /// Every recorded span, in recording order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Durations (ns) of the spans called `name`, optionally only those
    /// at `tier`.
    pub fn durations_ns(&self, name: &str, tier: Option<u8>) -> Samples {
        let mut s = Samples::default();
        for sp in &self.spans {
            if sp.name == name && tier.is_none_or(|t| sp.tier == t) {
                s.push(sp.duration_ns() as f64);
            }
        }
        s
    }

    /// Write every span, with its self time, as tab-separated lines.
    /// A trace's spans are recorded together, so children are found by
    /// scanning the run of spans sharing its trace id.
    pub fn write_tsv(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(
            out,
            "trace\tid\tparent\tname\ttier\titems\twork\tstart_ns\tend_ns\tself_ns"
        )?;
        for group in self.spans.chunk_by(|a, b| a.trace == b.trace) {
            for sp in group {
                let children: Vec<&Span> = group
                    .iter()
                    .filter(|c| c.parent == sp.id && c.id != sp.id)
                    .collect();
                writeln!(
                    out,
                    "{}\t{}\t{}\t{}\t{}\t{}\t{}\t{}\t{}\t{}",
                    sp.trace,
                    sp.id,
                    sp.parent,
                    sp.name,
                    sp.tier,
                    sp.items,
                    sp.work,
                    sp.start_ns,
                    sp.end_ns,
                    self_time_ns(sp, &children)
                )?;
            }
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u16, parent: u16, start_ns: u64, end_ns: u64) -> Span {
        Span {
            trace: 1,
            id,
            parent,
            name: "x",
            tier: NO_TIER,
            items: 1,
            work: 0,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_without_children_is_duration() {
        let p = span(0, 0, 100, 250);
        assert_eq!(self_time_ns(&p, &[]), 150);
    }

    #[test]
    fn disjoint_children_subtract() {
        let p = span(0, 0, 0, 100);
        let a = span(1, 0, 10, 20);
        let b = span(2, 0, 50, 80);
        assert_eq!(self_time_ns(&p, &[&a, &b]), 60);
    }

    #[test]
    fn overlapping_children_count_once() {
        let p = span(0, 0, 0, 100);
        let a = span(1, 0, 10, 40);
        let b = span(2, 0, 30, 60);
        let c = span(3, 0, 35, 45);
        assert_eq!(self_time_ns(&p, &[&b, &a, &c]), 50);
    }

    #[test]
    fn children_are_clipped_to_the_parent() {
        let p = span(0, 0, 100, 200);
        let before = span(1, 0, 0, 150);
        let after = span(2, 0, 190, 400);
        let outside = span(3, 0, 300, 400);
        assert_eq!(self_time_ns(&p, &[&before, &after, &outside]), 40);
    }

    #[test]
    fn fully_covered_parent_has_no_self_time() {
        let p = span(0, 0, 10, 20);
        let a = span(1, 0, 0, 30);
        assert_eq!(self_time_ns(&p, &[&a]), 0);
    }

    #[test]
    fn tracer_filters_by_name_and_tier() {
        let t0 = Instant::now();
        let mut tr = Tracer::new(t0, 4);
        let t1 = t0 + std::time::Duration::from_nanos(500);
        let t2 = t0 + std::time::Duration::from_nanos(1500);
        tr.record(1, 0, 0, "service", 0, 1, 0, t0, t1);
        tr.record(1, 1, 0, "service", 1, 1, 0, t0, t2);
        tr.record(2, 0, 0, "submit", NO_TIER, 1, 0, t1, t2);
        assert_eq!(tr.durations_ns("service", None).len(), 2);
        let mut tier1 = tr.durations_ns("service", Some(1));
        assert_eq!(tier1.len(), 1);
        assert_eq!(tier1.quantile(0.5), 1500.0);
        assert_eq!(tr.durations_ns("submit", None).quantile(0.5), 1000.0);
    }
}
