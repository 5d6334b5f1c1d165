//! Slow-request capture: a fixed-size ring buffer of complete span trees.
//!
//! When the server runs with `slow_request_us > 0`, every pooled request is
//! traced into a private [`MemorySink`](rsky_core::obs::MemorySink) teed with the server's normal
//! recorder. If the request's total latency (queue wait included) crosses
//! the threshold, its full span tree — admission → engine run → shard
//! phases → influence workers, with per-span IO and check counts — is
//! retained here; fast requests discard theirs for free. The newest
//! `capacity` slow requests win; the `slowlog` op dumps the ring as JSON.

use std::collections::VecDeque;
use std::fmt::Write as _;
use std::sync::Mutex;

use rsky_core::obs::SpanEvent;
use rsky_core::profile::Profile;

/// How many call paths a slow entry's profile summary retains (the
/// heaviest by self time).
pub const PROFILE_TOP: usize = 5;

/// One line of a slow entry's computed profile summary.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProfileLine {
    /// The call path, rendered `root > child > leaf`.
    pub path: String,
    /// Spans on this path within the request.
    pub count: u64,
    /// Inclusive wall time (µs).
    pub total_us: u64,
    /// Self time (µs).
    pub self_us: u64,
}

/// One retained slow request.
#[derive(Debug, Clone)]
pub struct SlowEntry {
    /// Trace id of the request's span tree.
    pub trace_id: u64,
    /// The request's op name (`query`, `influence`, …).
    pub op: String,
    /// Total latency from admission to response, in microseconds.
    pub latency_us: u64,
    /// Every span the request closed, in close order.
    pub spans: Vec<SpanEvent>,
    /// The request's own profile: the [`PROFILE_TOP`] heaviest call paths
    /// by self time. Computed on capture (see [`SlowLog::record`]), so a
    /// slowlog dump explains each slow request without replaying spans.
    pub profile: Vec<ProfileLine>,
}

impl SlowEntry {
    /// The profile summary derived from `spans`.
    pub fn profile_of(spans: &[SpanEvent]) -> Vec<ProfileLine> {
        Profile::from_spans(spans)
            .top_self(PROFILE_TOP)
            .into_iter()
            .map(|s| ProfileLine {
                path: s.path_string(),
                count: s.count,
                total_us: s.total_us,
                self_us: s.self_us,
            })
            .collect()
    }
}

/// The ring buffer. Thread-safe; workers push concurrently.
pub struct SlowLog {
    capacity: usize,
    entries: Mutex<VecDeque<SlowEntry>>,
}

impl SlowLog {
    /// A ring retaining the newest `capacity` slow requests (0 disables
    /// retention entirely — records are dropped on arrival).
    pub fn new(capacity: usize) -> Self {
        Self { capacity, entries: Mutex::new(VecDeque::with_capacity(capacity)) }
    }

    /// Retains `entry`, evicting the oldest entry when full. An entry
    /// arriving without a profile summary gets one computed from its spans
    /// here — outside the ring lock, so concurrent captures only contend
    /// on the push itself.
    pub fn record(&self, mut entry: SlowEntry) {
        if self.capacity == 0 {
            return;
        }
        if entry.profile.is_empty() && !entry.spans.is_empty() {
            entry.profile = SlowEntry::profile_of(&entry.spans);
        }
        let mut ring = self.entries.lock().expect("slowlog poisoned");
        if ring.len() == self.capacity {
            ring.pop_front();
        }
        ring.push_back(entry);
    }

    /// Empties the ring, returning how many entries were dropped.
    pub fn clear(&self) -> usize {
        let mut ring = self.entries.lock().expect("slowlog poisoned");
        let n = ring.len();
        ring.clear();
        n
    }

    /// Number of retained entries.
    pub fn len(&self) -> usize {
        self.entries.lock().expect("slowlog poisoned").len()
    }

    /// Whether the ring is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Snapshot of the retained entries, oldest first.
    pub fn entries(&self) -> Vec<SlowEntry> {
        self.entries.lock().expect("slowlog poisoned").iter().cloned().collect()
    }

    /// Renders the ring as a JSON array, oldest first. Span objects use the
    /// same shape as `--trace-out` JSONL span lines, so `rsky trace` logic
    /// applies to slowlog dumps as well.
    pub fn to_json(&self) -> String {
        let mut out = String::from("[");
        for (i, e) in self.entries().iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "{{\"trace_id\":{},\"op\":\"{}\",\"latency_us\":{},\"spans\":[",
                e.trace_id, e.op, e.latency_us
            );
            for (j, s) in e.spans.iter().enumerate() {
                if j > 0 {
                    out.push(',');
                }
                out.push('{');
                s.write_json_members(&mut out);
                out.push('}');
            }
            out.push_str("],\"profile\":[");
            for (j, p) in e.profile.iter().enumerate() {
                if j > 0 {
                    out.push(',');
                }
                out.push_str("{\"path\":\"");
                crate::json::escape(&p.path, &mut out);
                let _ = write!(
                    out,
                    "\",\"count\":{},\"total_us\":{},\"self_us\":{}}}",
                    p.count, p.total_us, p.self_us
                );
            }
            out.push_str("]}");
        }
        out.push(']');
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn entry(trace_id: u64, latency_us: u64) -> SlowEntry {
        SlowEntry {
            trace_id,
            op: "query".into(),
            latency_us,
            spans: vec![SpanEvent {
                name: "server.request".into(),
                trace_id,
                span_id: trace_id * 10,
                parent_id: None,
                wall_us: latency_us,
                fields: vec![("queue_wait_us", 3)],
            }],
            profile: Vec::new(),
        }
    }

    #[test]
    fn ring_evicts_oldest_beyond_capacity() {
        let log = SlowLog::new(2);
        assert!(log.is_empty());
        for t in 1..=3 {
            log.record(entry(t, t * 100));
        }
        let kept: Vec<u64> = log.entries().iter().map(|e| e.trace_id).collect();
        assert_eq!(kept, vec![2, 3], "newest two win");
        assert_eq!(log.len(), 2);
    }

    #[test]
    fn zero_capacity_drops_everything() {
        let log = SlowLog::new(0);
        log.record(entry(1, 100));
        assert!(log.is_empty());
    }

    #[test]
    fn json_dump_is_valid_and_complete() {
        let log = SlowLog::new(4);
        log.record(entry(7, 1234));
        let json = log.to_json();
        let v = crate::json::parse(&json).unwrap_or_else(|e| panic!("{json}: {e}"));
        let arr = v.as_arr().unwrap();
        assert_eq!(arr.len(), 1);
        assert_eq!(arr[0].get("trace_id").and_then(|t| t.as_u64()), Some(7));
        assert_eq!(arr[0].get("latency_us").and_then(|t| t.as_u64()), Some(1234));
        let spans = arr[0].get("spans").and_then(|s| s.as_arr()).unwrap();
        assert_eq!(spans[0].get("name").and_then(|n| n.as_str()), Some("server.request"));
        assert_eq!(spans[0].get("parent_id"), Some(&crate::json::JsonValue::Null));
        assert_eq!(
            spans[0].get("fields").and_then(|f| f.get("queue_wait_us")).and_then(|x| x.as_u64()),
            Some(3)
        );
        // The capture computed a profile for the entry's single-span tree.
        let profile = arr[0].get("profile").and_then(|p| p.as_arr()).unwrap();
        assert_eq!(profile.len(), 1);
        assert_eq!(profile[0].get("path").and_then(|p| p.as_str()), Some("server.request"));
        assert_eq!(profile[0].get("self_us").and_then(|s| s.as_u64()), Some(1234));
    }

    #[test]
    fn profile_summary_charges_self_time_along_call_paths() {
        let log = SlowLog::new(4);
        let span = |name: &str, span_id, parent_id, wall_us| SpanEvent {
            name: name.into(),
            trace_id: 9,
            span_id,
            parent_id,
            wall_us,
            fields: vec![],
        };
        log.record(SlowEntry {
            trace_id: 9,
            op: "query".into(),
            latency_us: 100,
            spans: vec![
                span("engine.run", 2, Some(1), 80),
                span("server.request", 1, None, 100),
            ],
            profile: Vec::new(),
        });
        let e = &log.entries()[0];
        assert_eq!(e.profile.len(), 2);
        // Heaviest self time first: the engine's 80 beat the request's 20.
        assert_eq!(e.profile[0].path, "server.request > engine.run");
        assert_eq!((e.profile[0].self_us, e.profile[0].total_us), (80, 80));
        assert_eq!(e.profile[1].path, "server.request");
        assert_eq!(e.profile[1].self_us, 20);
        assert_eq!(log.clear(), 1);
        assert!(log.is_empty());
        assert_eq!(log.clear(), 0);
    }

    #[test]
    fn ring_cap_holds_under_concurrent_captures() {
        const THREADS: u64 = 8;
        const PER_THREAD: u64 = 50;
        let log = SlowLog::new(16);
        std::thread::scope(|scope| {
            for t in 0..THREADS {
                let log = &log;
                scope.spawn(move || {
                    for i in 0..PER_THREAD {
                        log.record(entry(t * PER_THREAD + i, 100));
                    }
                });
            }
        });
        assert_eq!(log.len(), 16, "cap enforced under concurrency");
        // Every survivor is intact: spans present, profile computed.
        for e in log.entries() {
            assert_eq!(e.spans.len(), 1);
            assert_eq!(e.profile.len(), 1);
        }
    }
}
