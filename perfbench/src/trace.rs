//! In-memory spans for the traced run.
//!
//! The benchmark opens a span around each public call it makes into a
//! layer, named after that layer's module. Where a call reports how long a
//! part of it took (`RunStats` phase times, a response's `elapsed_us`), the
//! part becomes a *derived* child span. A parent's derived children are
//! laid one after another from its start, in the order the call reports
//! them (phase 1, then phase 2).
//! Spans stay in memory and are written out as JSON lines when the run ends.
//!
//! A layer's self-time is its span's duration minus its children's, so the
//! self-times of one op's spans add up to the op's wall time exactly; the
//! root span's own self-time is the part no layer covers, `bench.residual_ms`.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::{Duration, Instant};

/// Name of the root span each op opens.
pub const OP: &str = "bench.op";

/// Handle to an open span; inert while tracing is off.
#[derive(Clone, Copy, Debug)]
pub struct SpanId(Option<usize>);

impl SpanId {
    /// The parent of a root span.
    pub const ROOT: SpanId = SpanId(None);
}

/// One recorded span; times are offsets from the recorder's epoch.
#[derive(Clone, Debug)]
pub struct Span {
    pub name: &'static str,
    pub start: Duration,
    pub end: Duration,
    pub parent: Option<usize>,
    pub op: u64,
}

impl Span {
    fn dur(&self) -> Duration {
        self.end.saturating_sub(self.start)
    }
}

/// Records spans while on; does nothing, not even read the clock, while off.
pub struct Tracer {
    on: bool,
    epoch: Instant,
    spans: Vec<Span>,
    /// The parent of the last derived span and where that span ended.
    derived_end: Option<(usize, Duration)>,
}

impl Tracer {
    pub fn new(on: bool, epoch: Instant) -> Self {
        Self {
            on,
            epoch,
            spans: Vec::new(),
            derived_end: None,
        }
    }

    pub fn is_on(&self) -> bool {
        self.on
    }

    /// Turns recording on or off (the traced run alternates the two to
    /// measure what tracing costs).
    pub fn set_on(&mut self, on: bool) {
        self.on = on;
    }

    /// Opens a span named after a layer; `op` identifies the op it belongs to.
    pub fn open(&mut self, name: &'static str, parent: SpanId, op: u64) -> SpanId {
        if !self.on {
            return SpanId(None);
        }
        let now = self.epoch.elapsed();
        self.spans.push(Span {
            name,
            start: now,
            end: now,
            parent: parent.0,
            op,
        });
        SpanId(Some(self.spans.len() - 1))
    }

    pub fn close(&mut self, id: SpanId) {
        if let Some(i) = id.0 {
            self.spans[i].end = self.epoch.elapsed();
        }
    }

    /// Adds a child of `parent` that lasted `dur` by the program's own
    /// measure: at the parent's start, or where the parent's previous
    /// derived child ended, and clipped to the parent. Call it after
    /// `parent` is closed.
    pub fn derived(&mut self, name: &'static str, parent: SpanId, dur: Duration) {
        let Some(p) = parent.0 else { return };
        let (start, end, op) = (self.spans[p].start, self.spans[p].end, self.spans[p].op);
        let start = match self.derived_end {
            Some((q, at)) if q == p => at,
            _ => start,
        };
        let end = (start + dur).min(end);
        self.derived_end = Some((p, end));
        self.spans.push(Span {
            name,
            start,
            end,
            parent: Some(p),
            op,
        });
    }

    /// Appends another recorder's spans (one per client thread), keeping
    /// their parent links.
    pub fn absorb(&mut self, other: Tracer) {
        let base = self.spans.len();
        let shift = other.epoch.saturating_duration_since(self.epoch);
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base);
            s.start += shift;
            s.end += shift;
            s
        }));
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// The spans as JSON lines: name, start and end in µs, parent, op.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"id\":{i},\"name\":\"{}\",\"start_us\":{:.3},\"end_us\":{:.3},\"parent\":{parent},\"op\":{}}}",
                s.name,
                s.start.as_secs_f64() * 1e6,
                s.end.as_secs_f64() * 1e6,
                s.op
            );
        }
        out
    }
}

/// Self-time per layer and coverage per op, folded from a span list.
#[derive(Debug, Default)]
pub struct Fold {
    /// Layer name → (total self-time, number of spans).
    pub self_time: BTreeMap<&'static str, (Duration, usize)>,
    /// Layer name → total span duration (self plus children).
    pub total_time: BTreeMap<&'static str, Duration>,
    /// One entry per root span: its wall time and the part no child covers.
    pub ops: Vec<(Duration, Duration)>,
}

impl Fold {
    /// Mean self-time of a layer's spans, in ms (0 when it has none).
    pub fn self_ms(&self, name: &str) -> f64 {
        match self.self_time.get(name) {
            Some((d, n)) if *n > 0 => d.as_secs_f64() * 1e3 / *n as f64,
            _ => 0.0,
        }
    }

    /// Mean full duration of a layer's spans, in ms (0 when it has none).
    pub fn total_ms(&self, name: &str) -> f64 {
        match (self.total_time.get(name), self.self_time.get(name)) {
            (Some(d), Some((_, n))) if *n > 0 => d.as_secs_f64() * 1e3 / *n as f64,
            _ => 0.0,
        }
    }

    /// Number of spans of a layer.
    pub fn spans(&self, name: &str) -> usize {
        self.self_time.get(name).map_or(0, |(_, n)| *n)
    }

    /// Largest wall time of an op that no layer span covers, in ms.
    pub fn max_residual_ms(&self) -> f64 {
        self.ops
            .iter()
            .map(|(_, r)| r.as_secs_f64() * 1e3)
            .fold(0.0, f64::max)
    }
}

pub fn fold(spans: &[Span]) -> Fold {
    let mut children = vec![Duration::ZERO; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p] += s.dur();
        }
    }
    let mut out = Fold::default();
    for (i, s) in spans.iter().enumerate() {
        let own = s.dur().saturating_sub(children[i]);
        let e = out.self_time.entry(s.name).or_default();
        e.0 += own;
        e.1 += 1;
        *out.total_time.entry(s.name).or_default() += s.dur();
        if s.parent.is_none() {
            out.ops.push((s.dur(), own));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start: Duration::from_millis(start),
            end: Duration::from_millis(end),
            parent,
            op: 0,
        }
    }

    #[test]
    fn self_times_partition_the_op() {
        let spans = vec![
            span(OP, 0, 100, None),
            span("data::csv", 0, 20, Some(0)),
            span("algos::trs", 20, 98, Some(0)),
            span("algos::trs::phase1", 20, 60, Some(2)),
        ];
        let f = fold(&spans);
        assert_eq!(f.self_ms("data::csv"), 20.0);
        assert_eq!(f.self_ms("algos::trs"), 38.0);
        assert_eq!(f.total_ms("algos::trs"), 78.0);
        assert_eq!(f.self_ms("algos::trs::phase1"), 40.0);
        assert_eq!(
            f.ops,
            vec![(Duration::from_millis(100), Duration::from_millis(2))]
        );
        assert_eq!(f.max_residual_ms(), 2.0);
        let layers: Duration = f.self_time.values().map(|(d, _)| *d).sum();
        assert_eq!(layers, Duration::from_millis(100));
    }

    #[test]
    fn an_off_tracer_records_nothing() {
        let mut t = Tracer::new(false, Instant::now());
        let root = t.open(OP, SpanId::ROOT, 1);
        let child = t.open("data::csv", root, 1);
        t.close(child);
        t.close(root);
        t.derived("algos::trs::phase1", root, Duration::from_millis(1));
        assert!(t.spans().is_empty());
    }

    #[test]
    fn derived_spans_are_clipped_to_their_parent() {
        let mut t = Tracer::new(true, Instant::now());
        let root = t.open(OP, SpanId::ROOT, 7);
        t.close(root);
        t.derived("server::worker", root, Duration::from_secs(3600));
        let s = &t.spans()[1];
        assert_eq!(
            (s.start, s.end, s.parent, s.op),
            (t.spans()[0].start, t.spans()[0].end, Some(0), 7)
        );
    }

    #[test]
    fn derived_spans_of_one_parent_follow_one_another() {
        let mut t = Tracer::new(true, Instant::now());
        let root = t.open(OP, SpanId::ROOT, 1);
        std::thread::sleep(Duration::from_millis(5));
        t.close(root);
        let parent = &t.spans()[0];
        let (start, end) = (parent.start, parent.end);
        t.derived("algos::trs::phase1", root, Duration::from_millis(2));
        t.derived("algos::trs::phase2", root, Duration::from_secs(1));
        let (p1, p2) = (&t.spans()[1], &t.spans()[2]);
        assert_eq!(
            (p1.start, p1.end),
            (start, start + Duration::from_millis(2))
        );
        assert_eq!((p2.start, p2.end), (p1.end, end));
        // The next parent's derived children start at that parent's start.
        let other = t.open(OP, SpanId::ROOT, 2);
        t.close(other);
        t.derived("algos::trs::phase1", other, Duration::ZERO);
        assert_eq!(t.spans()[4].start, t.spans()[3].start);
    }

    #[test]
    fn absorbed_spans_keep_their_parents() {
        let epoch = Instant::now();
        let mut a = Tracer::new(true, epoch);
        let r = a.open(OP, SpanId::ROOT, 1);
        a.close(r);
        let mut b = Tracer::new(true, epoch);
        let r = b.open(OP, SpanId::ROOT, 2);
        let c = b.open("server", r, 2);
        b.close(c);
        b.close(r);
        a.absorb(b);
        assert_eq!(a.spans()[2].parent, Some(1));
        assert_eq!(fold(a.spans()).ops.len(), 2);
        assert_eq!(a.to_jsonl().lines().count(), 3);
    }
}
