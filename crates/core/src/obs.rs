//! Structured tracing and metrics.
//!
//! The paper's entire evaluation is stated in counters — sequential vs.
//! random page accesses and attribute-level distance checks — and
//! [`RunStats`](crate::stats::RunStats) carries their end-of-run totals.
//! This module makes the *trajectory* observable: engines open a [`Span`]
//! per phase and per batch, attach the counter deltas that accrued inside
//! it, and a pluggable [`Recorder`] decides what happens on span close.
//!
//! Three sinks ship with the crate:
//!
//! * [`NoopRecorder`] — the default; spans are inert (`enabled()` is
//!   `false`, so instrumentation sites skip clock reads and allocations);
//! * [`MemorySink`] — buffers every [`SpanEvent`] for tests to assert
//!   against (the *stats contract*: per-batch span deltas must sum to the
//!   `RunStats` an engine returns);
//! * [`JsonlSink`] — one JSON object per line per event, for offline
//!   analysis (`rsky query --trace-out FILE`).
//!
//! A [`MetricsRegistry`] aggregates named counters / gauges / histograms;
//! [`RegistrySink`] routes span fields into it (`brs.phase1.rand_reads`
//! style names), which is what the CLI's `--stats-format json` summary is
//! built from.
//!
//! ## Installation
//!
//! Recorders are *scoped*, not hard-wired: [`with_recorder`] installs a
//! handle for the current thread for the duration of a closure (tests, the
//! bench harness), and [`set_global`] installs a process-wide fallback (the
//! CLI). Engines grab [`handle()`] once per run on the calling thread and
//! pass the cloned handle to any worker threads they spawn, so parallel
//! engines trace through the same sink as sequential ones.
//!
//! ## Trace context
//!
//! Every recording span carries a [`TraceContext`]: a trace id shared by
//! all spans of one logical request and a process-unique span id, plus the
//! parent span's id. Parentage is tracked on a per-thread stack of open
//! spans: a span opened while another is open on the same thread becomes
//! its child; a span opened on an empty stack starts a fresh trace (the
//! server request span, or the engine run span in an offline CLI run).
//! Worker threads inherit parentage explicitly: capture the parent with
//! [`Span::ctx`] (or [`current_parent`]) before spawning and wrap the
//! worker body in [`with_parent`]. Spans must be dropped on the thread
//! that opened them — true everywhere in this workspace.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::io::Write;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

use crate::stats::IoCounts;

/// Declares the metric vocabulary: each row is a constant, the name it holds
/// and that name's one-line help text. A row expands to the constant (the
/// help text is its doc comment) and to one `(name, help)` entry of
/// [`names::ALL`], so no constant exists without its row and the list the
/// code emits from is the list [`help_for`] and the contract tests read.
macro_rules! vocabulary {
    ($($(#[$extra:meta])* $konst:ident = $name:literal => $help:literal;)*) => {
        $(
            #[doc = $help]
            #[doc = ""]
            $(#[$extra])*
            pub const $konst: &str = $name;
        )*

        /// Every row of the vocabulary as `(name, help)`, in declaration
        /// order.
        pub const ALL: &[(&str, &str)] = &[$(($name, $help)),*];
    };
}

/// The one metric vocabulary: every counter, gauge and histogram name the
/// workspace emits outside span fields, the serving layer's span names, and
/// the prefixes of the shard and view spans, each with its help text.
///
/// The registry sink derives `{span}.{field}` counters and `{span}.wall_us`
/// histograms from span events at runtime; a derived series takes the help
/// text of its longest declared prefix ([`help_for`]). The engines name
/// their spans `{engine}.{phase}` from the engine's own name, and the
/// sharded executor (prefix [`SHARD`](names::SHARD)) and view maintenance
/// (prefix [`VIEW`](names::VIEW)) follow the same grammar. The metric-name
/// contract (tests/metric_names.rs) holds every literal name passed to
/// `counter_add` / `gauge_set` / `histogram_record` in the workspace, and
/// every series the default health rules read, to these rows.
pub mod names {
    vocabulary! {
        /// Span: one accepted connection's lifetime; carries `requests`.
        SERVER_CONN = "server.conn"
            => "Per-connection serving-layer series derived from connection spans.";
        /// Span: one request from parse to response write; carries
        /// `queue_wait_us` and, by op, `cache_hit` (0/1), `view_hit` or
        /// `generation`. Its `wall_us` histogram is the end-to-end latency
        /// the default health rules read.
        SERVER_REQUEST = "server.request"
            => "Per-request serving-layer series derived from request spans.";
        /// Span: the shutdown drain, open from stop-accepting to queue empty.
        SERVER_DRAIN = "server.drain" => "Shutdown-drain series derived from drain spans.";
        SERVER_ACCEPTED = "server.accepted" => "Connections accepted by the TCP listener.";
        SERVER_SERVED = "server.served" => "Requests answered successfully.";
        SERVER_SHED = "server.shed" => "Requests shed because the admission queue was full.";
        SERVER_TIMEOUT = "server.timeout" => "Requests that hit their deadline mid-run.";
        SERVER_BAD_REQUEST = "server.bad_request" => "Malformed or invalid requests.";
        SERVER_WORKER_PANICS = "server.worker.panics"
            => "Requests whose worker panicked mid-run; each was answered internal.";
        SERVER_CACHE_HIT = "server.cache.hit" => "Query results answered from the result cache.";
        SERVER_CACHE_MISS = "server.cache.miss" => "Query results computed by an engine run.";
        SERVER_QUEUE_WAIT_US = "server.queue.wait_us"
            => "Time a request waited in the admission queue (microseconds).";
        SERVER_QUEUE_DEPTH = "server.queue.depth" => "Admission-queue depth sampled at enqueue.";
        /// The sharded executor's span prefix: `shard.run`, `shard.plan`,
        /// `shard.phase1` with one `shard.phase1.local` per shard,
        /// `shard.exchange` with one `shard.exchange.kill` per shard, and
        /// `shard.phase2` with one `shard.phase2.verify` per shard.
        SHARD = "shard" => "Sharded scatter-gather executor series derived from shard spans.";
        SHARD_EXCHANGE_PRUNERS = "shard.exchange.pruners"
            => "Pruners in the merged band broadcast by one exchange round.";
        SHARD_PHASE2_CANDIDATES_PRE = "shard.phase2.candidates.pre"
            => "Phase-2 candidates entering an exchange round.";
        SHARD_PHASE2_CANDIDATES_POST = "shard.phase2.candidates.post"
            => "Phase-2 candidates surviving the exchange kill pass.";
        /// View maintenance's span prefix: one `view.delta` per view and
        /// mutation, one `view.build` per full (re)build.
        VIEW = "view" => "View-maintenance series derived from view spans.";
        VIEW_DELTA_ADD = "view.delta.add"
            => "Ids added to materialized views by incremental deltas.";
        VIEW_DELTA_REMOVE = "view.delta.remove"
            => "Ids evicted from materialized views by incremental deltas.";
        VIEW_FALLBACK = "view.fallback"
            => "View mutations answered by a full rebuild instead of a delta.";
        VIEW_CACHE_HIT = "view.cache.hit" => "Requests answered from a live materialized view.";
        VIEW_FRAMES = "view.frames" => "Delta/resync frames pushed to subscribers.";
        VIEW_LIVE = "view.live" => "Materialized views currently live.";
        QCACHE_BUILD_CHECKS = "qcache.build_checks"
            => "Attribute-level distance evaluations spent building query-distance caches.";
        PAR_BATCH_WAIT_US = "par.batch.wait_us"
            => "Time batch workers of a multi-threaded engine run waited for the run's disk (microseconds).";
        TRS_BF_HEAP_PUSHES = "trs-bf.heap.pushes"
            => "Nodes the best-first engine pushed onto its priority queue.";
        TRS_BF_GROUP_KILLS = "trs-bf.group.kills"
            => "Subtrees discarded by best-first group-level kills.";
        OBS_SAMPLE_US = "obs.sample_us"
            => "Wall time one telemetry sampling tick took (microseconds).";
        OBS_TICKS = "obs.ticks" => "Telemetry sampling ticks taken.";
        OBS_DROPPED_SERIES = "obs.dropped_series"
            => "Series the telemetry ring refused because its table was full.";
        /// Prometheus-flavoured (no dots), so a scrape exposes it verbatim.
        RSKY_HEALTH = "rsky_health" => "Instance health: 0 ok, 1 warn, 2 critical.";
        HEALTH_EVALS = "health.evals" => "SLO health evaluations performed.";
        HEALTH_TRANSITIONS = "health.transitions"
            => "Effective health-level transitions (post-hysteresis).";
    }
}

// ---------------------------------------------------------------------------
// Trace context
// ---------------------------------------------------------------------------

/// The causal identity of an open span: the trace it belongs to and its own
/// span id. Attach a worker thread to a parent span by passing the parent's
/// context ([`Span::ctx`]) to [`with_parent`] inside the worker.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceContext {
    /// Trace id shared by every span of one request (or one CLI run).
    pub trace_id: u64,
    /// The span's process-unique id (creation-ordered).
    pub span_id: u64,
}

thread_local! {
    /// The stack of spans currently open on this thread (innermost last).
    static SPAN_STACK: RefCell<Vec<TraceContext>> = const { RefCell::new(Vec::new()) };
}

/// Process-wide span-id allocator. Sequential ids double as creation order,
/// which is what `rsky trace` sorts siblings by.
static NEXT_SPAN_ID: AtomicU64 = AtomicU64::new(1);

fn next_span_id() -> u64 {
    NEXT_SPAN_ID.fetch_add(1, Ordering::Relaxed)
}

/// A fresh trace id: splitmix64 over a process-startup seed and the span
/// counter, masked to 48 bits so the id survives a round-trip through
/// f64-backed JSON parsers without losing precision.
fn new_trace_id() -> u64 {
    static SEED: OnceLock<u64> = OnceLock::new();
    let seed = *SEED.get_or_init(|| {
        std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map(|d| d.as_nanos() as u64)
            .unwrap_or(0x9e37_79b9_7f4a_7c15)
    });
    let mut z = seed.wrapping_add(next_span_id().wrapping_mul(0x9e37_79b9_7f4a_7c15));
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    (z ^ (z >> 31)) & ((1 << 48) - 1)
}

/// The context of the innermost span open on this thread, if any — the
/// parent a span opened right now would get.
pub fn current_parent() -> Option<TraceContext> {
    SPAN_STACK.with(|s| s.borrow().last().copied())
}

/// Runs `f` with `parent` installed as the current span context, so spans
/// `f` opens become children of `parent` in its trace. This is how worker
/// threads join the trace of the coordinator that spawned them; a `None`
/// parent runs `f` unchanged. Panic-safe via an RAII guard.
pub fn with_parent<T>(parent: Option<TraceContext>, f: impl FnOnce() -> T) -> T {
    let Some(ctx) = parent else { return f() };
    struct Guard(TraceContext);
    impl Drop for Guard {
        fn drop(&mut self) {
            SPAN_STACK.with(|s| {
                let mut st = s.borrow_mut();
                if let Some(pos) = st.iter().rposition(|c| *c == self.0) {
                    st.remove(pos);
                }
            });
        }
    }
    SPAN_STACK.with(|s| s.borrow_mut().push(ctx));
    let _guard = Guard(ctx);
    f()
}

/// Runs `f` with an **empty** span stack, so a span `f` opens roots a fresh
/// trace even while other spans are open on this thread. This is how the
/// server roots a mutation's `server.request` span from inside a connection
/// thread whose long-lived `server.conn` span is still open — without the
/// detach the mutation's trace would nest under the connection's and the
/// one-tree-per-request contract would break. Panic-safe via an RAII guard
/// that restores the caller's stack.
pub fn with_detached<T>(f: impl FnOnce() -> T) -> T {
    struct Guard(Vec<TraceContext>);
    impl Drop for Guard {
        fn drop(&mut self) {
            SPAN_STACK.with(|s| *s.borrow_mut() = std::mem::take(&mut self.0));
        }
    }
    let guard = Guard(SPAN_STACK.with(|s| std::mem::take(&mut *s.borrow_mut())));
    let out = f();
    drop(guard);
    out
}

// ---------------------------------------------------------------------------
// Events
// ---------------------------------------------------------------------------

/// A closed span: name, wall-clock, and the counter deltas that accrued
/// between enter and exit. Field keys are static strings (they name
/// counters, not data), values are plain `u64`s.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanEvent {
    /// Dotted span name, e.g. `brs.phase1.batch`.
    pub name: String,
    /// Trace this span belongs to (shared by every span of one request).
    pub trace_id: u64,
    /// This span's process-unique id.
    pub span_id: u64,
    /// The enclosing span's id; `None` marks a trace root.
    pub parent_id: Option<u64>,
    /// Wall-clock between span enter and close, in microseconds.
    pub wall_us: u64,
    /// Counter deltas attached to the span, in attachment order.
    pub fields: Vec<(&'static str, u64)>,
}

impl SpanEvent {
    /// The value of field `key`, if attached.
    pub fn field(&self, key: &str) -> Option<u64> {
        self.fields.iter().find(|(k, _)| *k == key).map(|&(_, v)| v)
    }

    /// Appends the span's JSON members — `name`, `trace_id`, `span_id`,
    /// `parent_id` (`null` on a trace root), `wall_us` and `fields` — to
    /// `out`, without the enclosing braces, so a writer may put members of
    /// its own first. [`JsonlSink`] span lines and the server's slowlog
    /// spans both render through this, so `rsky profile` reads either.
    pub fn write_json_members(&self, out: &mut String) {
        out.push_str("\"name\":\"");
        json_escape(&self.name, out);
        let _ = write!(out, "\",\"trace_id\":{},\"span_id\":{}", self.trace_id, self.span_id);
        match self.parent_id {
            Some(p) => {
                let _ = write!(out, ",\"parent_id\":{p}");
            }
            None => out.push_str(",\"parent_id\":null"),
        }
        let _ = write!(out, ",\"wall_us\":{},\"fields\":{{", self.wall_us);
        for (i, (k, v)) in self.fields.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push('"');
            json_escape(k, out);
            let _ = write!(out, "\":{v}");
        }
        out.push('}');
    }
}

// ---------------------------------------------------------------------------
// Recorder trait + handle
// ---------------------------------------------------------------------------

/// A sink for spans and metrics. Implementations must be thread-safe: the
/// parallel engines close spans from worker threads concurrently.
pub trait Recorder: Send + Sync {
    /// Whether instrumentation sites should spend work on this recorder.
    /// `false` turns [`ObsHandle::span`] into a no-op that takes no
    /// timestamp and allocates nothing.
    fn enabled(&self) -> bool {
        true
    }

    /// Called once per span close.
    fn span_close(&self, event: &SpanEvent);

    /// Adds `delta` to the named monotonic counter.
    fn counter_add(&self, _name: &str, _delta: u64) {}

    /// Sets the named gauge to `value`.
    fn gauge_set(&self, _name: &str, _value: f64) {}

    /// Records one observation into the named histogram.
    fn histogram_record(&self, _name: &str, _value: u64) {}
}

/// Cheaply cloneable handle to a [`Recorder`] (engines clone it into worker
/// threads; all clones share the sink).
#[derive(Clone)]
pub struct ObsHandle {
    rec: Arc<dyn Recorder>,
}

impl std::fmt::Debug for ObsHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ObsHandle").field("enabled", &self.enabled()).finish()
    }
}

impl ObsHandle {
    /// Wraps a recorder.
    pub fn new(rec: Arc<dyn Recorder>) -> Self {
        Self { rec }
    }

    /// The inert handle: all operations are no-ops.
    pub fn noop() -> Self {
        static NOOP: OnceLock<Arc<NoopRecorder>> = OnceLock::new();
        Self { rec: NOOP.get_or_init(|| Arc::new(NoopRecorder)).clone() }
    }

    /// Fans every event out to all `handles` (e.g. registry + JSONL).
    pub fn tee(handles: Vec<ObsHandle>) -> Self {
        Self { rec: Arc::new(Tee { handles }) }
    }

    /// Whether spans opened through this handle record anything.
    #[inline]
    pub fn enabled(&self) -> bool {
        self.rec.enabled()
    }

    /// Opens a span named `{prefix}.{what}` (prefix typically identifies
    /// the engine, `what` the phase or batch). Inert when disabled.
    pub fn span(&self, prefix: &str, what: &str) -> Span {
        self.open(|| format!("{prefix}.{what}"))
    }

    /// Opens a span under its whole dotted name, such as the declared
    /// [`names::SERVER_REQUEST`]. Inert when disabled.
    pub fn span_named(&self, name: &str) -> Span {
        self.open(|| name.to_owned())
    }

    fn open(&self, name: impl FnOnce() -> String) -> Span {
        if !self.enabled() {
            return Span { inner: None };
        }
        let span_id = next_span_id();
        let (trace_id, parent_id) = SPAN_STACK.with(|s| match s.borrow().last() {
            Some(p) => (p.trace_id, Some(p.span_id)),
            None => (new_trace_id(), None),
        });
        SPAN_STACK.with(|s| s.borrow_mut().push(TraceContext { trace_id, span_id }));
        Span {
            inner: Some(SpanInner {
                rec: self.rec.clone(),
                name: name(),
                start: Instant::now(),
                fields: Vec::with_capacity(8),
                trace_id,
                span_id,
                parent_id,
            }),
        }
    }

    /// Adds to a named counter (skipped when disabled).
    #[inline]
    pub fn counter_add(&self, name: &str, delta: u64) {
        if self.enabled() {
            self.rec.counter_add(name, delta);
        }
    }

    /// Sets a named gauge (skipped when disabled).
    #[inline]
    pub fn gauge_set(&self, name: &str, value: f64) {
        if self.enabled() {
            self.rec.gauge_set(name, value);
        }
    }

    /// Records a histogram observation (skipped when disabled).
    #[inline]
    pub fn histogram_record(&self, name: &str, value: u64) {
        if self.enabled() {
            self.rec.histogram_record(name, value);
        }
    }
}

struct Tee {
    handles: Vec<ObsHandle>,
}

impl Recorder for Tee {
    fn enabled(&self) -> bool {
        self.handles.iter().any(|h| h.enabled())
    }

    fn span_close(&self, event: &SpanEvent) {
        for h in &self.handles {
            if h.enabled() {
                h.rec.span_close(event);
            }
        }
    }

    fn counter_add(&self, name: &str, delta: u64) {
        for h in &self.handles {
            if h.enabled() {
                h.rec.counter_add(name, delta);
            }
        }
    }

    fn gauge_set(&self, name: &str, value: f64) {
        for h in &self.handles {
            if h.enabled() {
                h.rec.gauge_set(name, value);
            }
        }
    }

    fn histogram_record(&self, name: &str, value: u64) {
        for h in &self.handles {
            if h.enabled() {
                h.rec.histogram_record(name, value);
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Span
// ---------------------------------------------------------------------------

struct SpanInner {
    rec: Arc<dyn Recorder>,
    name: String,
    start: Instant,
    fields: Vec<(&'static str, u64)>,
    trace_id: u64,
    span_id: u64,
    parent_id: Option<u64>,
}

/// An open span. Closing (drop or [`Span::close`]) emits one [`SpanEvent`]
/// carrying the wall-clock since open plus every attached field. A span
/// opened through a disabled handle holds nothing and does nothing.
#[must_use = "a span records its wall-clock when dropped; bind it to a variable"]
pub struct Span {
    inner: Option<SpanInner>,
}

impl std::fmt::Debug for Span {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Span").field("recording", &self.is_recording()).finish()
    }
}

impl Span {
    /// Whether this span will emit an event (false under [`NoopRecorder`]).
    #[inline]
    pub fn is_recording(&self) -> bool {
        self.inner.is_some()
    }

    /// Attaches a counter delta. Repeated keys are summed on the consumer
    /// side by [`SpanEvent::field`]-style lookups taking the first match,
    /// so attach each key once.
    #[inline]
    pub fn field(&mut self, key: &'static str, value: u64) -> &mut Self {
        if let Some(inner) = &mut self.inner {
            inner.fields.push((key, value));
        }
        self
    }

    /// Attaches the four IO counters of `io` as fields (`seq_reads`,
    /// `rand_reads`, `seq_writes`, `rand_writes`).
    pub fn io_fields(&mut self, io: IoCounts) -> &mut Self {
        self.field("seq_reads", io.seq_reads)
            .field("rand_reads", io.rand_reads)
            .field("seq_writes", io.seq_writes)
            .field("rand_writes", io.rand_writes)
    }

    /// This span's [`TraceContext`] (`None` when not recording). Capture it
    /// before spawning workers and hand it to [`with_parent`] inside them.
    pub fn ctx(&self) -> Option<TraceContext> {
        self.inner
            .as_ref()
            .map(|i| TraceContext { trace_id: i.trace_id, span_id: i.span_id })
    }

    /// Closes the span now (otherwise it closes on drop).
    pub fn close(self) {}
}

impl Drop for Span {
    fn drop(&mut self) {
        if let Some(inner) = self.inner.take() {
            SPAN_STACK.with(|s| {
                let mut st = s.borrow_mut();
                if let Some(pos) = st.iter().rposition(|c| c.span_id == inner.span_id) {
                    st.remove(pos);
                }
            });
            let event = SpanEvent {
                wall_us: inner.start.elapsed().as_micros() as u64,
                name: inner.name,
                fields: inner.fields,
                trace_id: inner.trace_id,
                span_id: inner.span_id,
                parent_id: inner.parent_id,
            };
            inner.rec.span_close(&event);
        }
    }
}

// ---------------------------------------------------------------------------
// Sinks
// ---------------------------------------------------------------------------

/// The default recorder: reports `enabled() == false`, so instrumentation
/// sites skip clock reads and allocations entirely.
pub struct NoopRecorder;

impl Recorder for NoopRecorder {
    fn enabled(&self) -> bool {
        false
    }

    fn span_close(&self, _event: &SpanEvent) {}
}

/// In-memory sink: buffers every event for later inspection. This is the
/// test-facing sink behind the *stats contract* — per-batch span deltas
/// must sum exactly to the `RunStats` an engine returns.
#[derive(Default)]
pub struct MemorySink {
    events: Mutex<Vec<SpanEvent>>,
    registry: MetricsRegistry,
}

impl MemorySink {
    /// A fresh shared sink.
    pub fn new() -> Arc<Self> {
        Arc::new(Self::default())
    }

    /// A handle recording into this sink.
    pub fn handle(self: &Arc<Self>) -> ObsHandle {
        ObsHandle::new(self.clone())
    }

    /// All span events recorded so far, in close order.
    pub fn events(&self) -> Vec<SpanEvent> {
        self.events.lock().expect("memory sink poisoned").clone()
    }

    /// Discards all recorded events and metrics.
    pub fn clear(&self) {
        self.events.lock().expect("memory sink poisoned").clear();
        self.registry.clear();
    }

    /// The metrics accumulated through this sink.
    pub fn registry(&self) -> &MetricsRegistry {
        &self.registry
    }

    /// Events whose name ends with `suffix`.
    pub fn spans_ending_with(&self, suffix: &str) -> Vec<SpanEvent> {
        self.events().into_iter().filter(|e| e.name.ends_with(suffix)).collect()
    }

    /// Sum of field `key` over every span whose name ends with `suffix`
    /// (missing fields count as zero).
    pub fn sum_field(&self, suffix: &str, key: &str) -> u64 {
        self.spans_ending_with(suffix).iter().filter_map(|e| e.field(key)).sum()
    }

    /// Number of spans whose name ends with `suffix`.
    pub fn span_count(&self, suffix: &str) -> usize {
        self.spans_ending_with(suffix).len()
    }
}

impl Recorder for MemorySink {
    fn span_close(&self, event: &SpanEvent) {
        self.events.lock().expect("memory sink poisoned").push(event.clone());
    }

    fn counter_add(&self, name: &str, delta: u64) {
        self.registry.counter_add(name, delta);
    }

    fn gauge_set(&self, name: &str, value: f64) {
        self.registry.gauge_set(name, value);
    }

    fn histogram_record(&self, name: &str, value: u64) {
        self.registry.histogram_record(name, value);
    }
}

/// Escapes `s` for inclusion in a JSON string literal, appending to `out`:
/// the one escaper of the workspace's JSON writers.
pub fn json_escape(s: &str, out: &mut String) {
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
}

/// JSONL sink: one JSON object per line per event. Span lines look like
///
/// ```json
/// {"type":"span","name":"brs.phase1.batch","trace_id":7,"span_id":3,"parent_id":2,"wall_us":42,"fields":{"dist_checks":180,"seq_reads":3}}
/// ```
///
/// (`parent_id` is `null` on trace roots); counter / gauge / histogram
/// updates are emitted as `{"type":"counter","name":…,"value":…}` lines.
/// Non-finite gauge values render as `null` — bare `NaN`/`inf` is not JSON.
pub struct JsonlSink {
    out: Mutex<Box<dyn Write + Send>>,
    lines: Mutex<u64>,
}

impl JsonlSink {
    /// Creates (truncates) `path` and streams events to it.
    pub fn create(path: &std::path::Path) -> std::io::Result<Arc<Self>> {
        let file = std::fs::File::create(path)?;
        Ok(Self::from_writer(Box::new(std::io::BufWriter::new(file))))
    }

    /// Streams events to an arbitrary writer.
    pub fn from_writer(w: Box<dyn Write + Send>) -> Arc<Self> {
        Arc::new(Self { out: Mutex::new(w), lines: Mutex::new(0) })
    }

    /// A handle recording into this sink.
    pub fn handle(self: &Arc<Self>) -> ObsHandle {
        ObsHandle::new(self.clone())
    }

    /// Lines written so far.
    pub fn lines_written(&self) -> u64 {
        *self.lines.lock().expect("jsonl sink poisoned")
    }

    /// Flushes the underlying writer.
    pub fn flush(&self) -> std::io::Result<()> {
        self.out.lock().expect("jsonl sink poisoned").flush()
    }

    fn write_line(&self, line: &str) {
        let mut out = self.out.lock().expect("jsonl sink poisoned");
        // Trace IO failures must not take the engines down mid-run.
        let _ = writeln!(out, "{line}");
        drop(out);
        *self.lines.lock().expect("jsonl sink poisoned") += 1;
    }
}

impl Recorder for JsonlSink {
    fn span_close(&self, event: &SpanEvent) {
        let mut line = String::with_capacity(128);
        line.push_str("{\"type\":\"span\",");
        event.write_json_members(&mut line);
        line.push('}');
        self.write_line(&line);
    }

    fn counter_add(&self, name: &str, delta: u64) {
        let mut line = String::with_capacity(64);
        line.push_str("{\"type\":\"counter\",\"name\":\"");
        json_escape(name, &mut line);
        let _ = write!(line, "\",\"value\":{delta}}}");
        self.write_line(&line);
    }

    fn gauge_set(&self, name: &str, value: f64) {
        let mut line = String::with_capacity(64);
        line.push_str("{\"type\":\"gauge\",\"name\":\"");
        json_escape(name, &mut line);
        if value.is_finite() {
            let _ = write!(line, "\",\"value\":{value}}}");
        } else {
            line.push_str("\",\"value\":null}");
        }
        self.write_line(&line);
    }

    fn histogram_record(&self, name: &str, value: u64) {
        let mut line = String::with_capacity(64);
        line.push_str("{\"type\":\"histogram\",\"name\":\"");
        json_escape(name, &mut line);
        let _ = write!(line, "\",\"value\":{value}}}");
        self.write_line(&line);
    }
}

// ---------------------------------------------------------------------------
// Metrics registry
// ---------------------------------------------------------------------------

/// Number of log2 buckets in a [`HistogramSummary`]: bucket `i` counts
/// observations whose bit length is `i` (`v == 0` lands in bucket 0, else
/// `i == floor(log2 v) + 1`), so 65 buckets cover the whole `u64` range.
pub const HIST_BUCKETS: usize = 65;

/// A bounded-memory log2-bucketed histogram. Exact values are not retained;
/// quantiles are estimated by walking the bucket counts and interpolating
/// linearly inside the winning bucket, then clamping to the observed
/// `[min, max]`. The relative error of a quantile is at most one bucket
/// width (2× the true value); the memory footprint is a fixed
/// `65 × 8 + 32 = 552` bytes regardless of how many observations land.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistogramSummary {
    /// Observations recorded.
    pub count: u64,
    /// Sum of all observations.
    pub sum: u64,
    /// Smallest observation (0 when empty).
    pub min: u64,
    /// Largest observation.
    pub max: u64,
    buckets: [u64; HIST_BUCKETS],
}

impl Default for HistogramSummary {
    fn default() -> Self {
        Self { count: 0, sum: 0, min: 0, max: 0, buckets: [0; HIST_BUCKETS] }
    }
}

impl HistogramSummary {
    fn record(&mut self, value: u64) {
        if self.count == 0 || value < self.min {
            self.min = value;
        }
        if value > self.max {
            self.max = value;
        }
        self.count += 1;
        self.sum += value;
        self.buckets[(u64::BITS - value.leading_zeros()) as usize] += 1;
    }

    /// Mean observation (0.0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// The observations accrued *since* `earlier` — the summary of what was
    /// recorded between the two snapshots, assuming `earlier` is a prior
    /// state of the same histogram. Bucket counts subtract saturating; if
    /// the cumulative count regressed (the histogram was reset between the
    /// snapshots) the whole of `self` is returned, post-reset data being
    /// the only thing the window can still describe. `min`/`max` of the
    /// delta are approximated from the boundaries of the surviving delta
    /// buckets (exact per-window extremes are not retained), clamped into
    /// the cumulative `[min, max]`.
    pub fn delta_since(&self, earlier: &Self) -> Self {
        if self.count < earlier.count {
            return self.clone();
        }
        let mut buckets = [0u64; HIST_BUCKETS];
        let mut count = 0u64;
        let mut lo_bucket = None;
        let mut hi_bucket = None;
        for (i, slot) in buckets.iter_mut().enumerate() {
            let d = self.buckets[i].saturating_sub(earlier.buckets[i]);
            *slot = d;
            count += d;
            if d > 0 {
                lo_bucket.get_or_insert(i);
                hi_bucket = Some(i);
            }
        }
        let bucket_lo = |i: usize| if i == 0 { 0u64 } else { 1u64 << (i - 1) };
        let bucket_hi =
            |i: usize| if i == 0 { 0u64 } else { bucket_lo(i).wrapping_mul(2).wrapping_sub(1) };
        let min = lo_bucket.map_or(0, |i| bucket_lo(i).clamp(self.min, self.max));
        let max = hi_bucket.map_or(0, |i| bucket_hi(i).clamp(self.min, self.max));
        Self { count, sum: self.sum.saturating_sub(earlier.sum), min, max, buckets }
    }

    /// The raw log2 bucket counts (bucket `i` counts observations of bit
    /// length `i`; see [`HIST_BUCKETS`]). Exposed read-only for exporters.
    pub fn bucket_counts(&self) -> &[u64; HIST_BUCKETS] {
        &self.buckets
    }

    /// The inclusive upper bound of bucket `i` (`0` for bucket 0, else
    /// `2^i - 1`; bucket 64's bound wraps to exactly `u64::MAX`).
    pub fn bucket_upper_bound(i: usize) -> u64 {
        if i == 0 {
            0
        } else {
            (1u64 << (i - 1)).wrapping_mul(2).wrapping_sub(1)
        }
    }

    /// Estimated `q`-quantile (`q` in `[0, 1]`; 0 when empty). `q = 0.5`
    /// is the median, `q = 1.0` the (exact) maximum.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let q = q.clamp(0.0, 1.0);
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        // The extreme ranks are tracked exactly; no need to estimate.
        if rank == 1 {
            return self.min;
        }
        if rank == self.count {
            return self.max;
        }
        let mut seen = 0u64;
        for (i, &n) in self.buckets.iter().enumerate() {
            if n == 0 {
                continue;
            }
            if seen + n >= rank {
                // Bucket i spans [2^(i-1), 2^i - 1] (bucket 0 is just {0});
                // for i = 64 the upper bound wraps to exactly u64::MAX.
                let lo = if i == 0 { 0u64 } else { 1u64 << (i - 1) };
                let hi = if i == 0 { 0u64 } else { lo.wrapping_mul(2).wrapping_sub(1) };
                let into = rank - seen - 1;
                let frac = if n <= 1 { 0.0 } else { into as f64 / (n - 1) as f64 };
                let est = lo as f64 + frac * (hi - lo) as f64;
                return (est as u64).clamp(self.min, self.max);
            }
            seen += n;
        }
        self.max
    }
}

/// Named counters, gauges and histograms. Thread-safe; a process-wide
/// instance is available via [`MetricsRegistry::global`], and per-run
/// instances can be created freely (the bench harness uses one per engine
/// point).
#[derive(Default)]
pub struct MetricsRegistry {
    counters: Mutex<BTreeMap<String, u64>>,
    gauges: Mutex<BTreeMap<String, f64>>,
    histograms: Mutex<BTreeMap<String, HistogramSummary>>,
}

impl MetricsRegistry {
    /// A fresh, empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// The process-wide registry.
    pub fn global() -> &'static MetricsRegistry {
        static GLOBAL: OnceLock<MetricsRegistry> = OnceLock::new();
        GLOBAL.get_or_init(MetricsRegistry::new)
    }

    /// Adds `delta` to counter `name` (created at zero on first touch).
    pub fn counter_add(&self, name: &str, delta: u64) {
        let mut c = self.counters.lock().expect("registry poisoned");
        match c.get_mut(name) {
            Some(v) => *v += delta,
            None => {
                c.insert(name.to_string(), delta);
            }
        }
    }

    /// Sets gauge `name` to `value`.
    pub fn gauge_set(&self, name: &str, value: f64) {
        self.gauges.lock().expect("registry poisoned").insert(name.to_string(), value);
    }

    /// Records one observation into histogram `name`.
    pub fn histogram_record(&self, name: &str, value: u64) {
        self.histograms
            .lock()
            .expect("registry poisoned")
            .entry(name.to_string())
            .or_default()
            .record(value);
    }

    /// Current value of counter `name` (0 if never touched).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.lock().expect("registry poisoned").get(name).copied().unwrap_or(0)
    }

    /// Current value of gauge `name`.
    pub fn gauge(&self, name: &str) -> Option<f64> {
        self.gauges.lock().expect("registry poisoned").get(name).copied()
    }

    /// Summary of histogram `name`.
    pub fn histogram(&self, name: &str) -> Option<HistogramSummary> {
        self.histograms.lock().expect("registry poisoned").get(name).cloned()
    }

    /// Snapshot of all counters, sorted by name.
    pub fn counters(&self) -> BTreeMap<String, u64> {
        self.counters.lock().expect("registry poisoned").clone()
    }

    /// Snapshot of all gauges, sorted by name.
    pub fn gauges(&self) -> BTreeMap<String, f64> {
        self.gauges.lock().expect("registry poisoned").clone()
    }

    /// Snapshot of all histogram summaries, sorted by name.
    pub fn histograms(&self) -> BTreeMap<String, HistogramSummary> {
        self.histograms.lock().expect("registry poisoned").clone()
    }

    /// Drops every metric.
    pub fn clear(&self) {
        self.counters.lock().expect("registry poisoned").clear();
        self.gauges.lock().expect("registry poisoned").clear();
        self.histograms.lock().expect("registry poisoned").clear();
    }

    /// Renders the whole registry as one JSON object
    /// (`{"counters":{…},"gauges":{…},"histograms":{…}}`). Histograms carry
    /// their p50/p90/p99/p999 estimates; non-finite gauges render as `null`.
    pub fn to_json(&self) -> String {
        let mut s = String::from("{\"counters\":{");
        for (i, (k, v)) in self.counters().iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            s.push('"');
            json_escape(k, &mut s);
            let _ = write!(s, "\":{v}");
        }
        s.push_str("},\"gauges\":{");
        for (i, (k, v)) in self.gauges().iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            s.push('"');
            json_escape(k, &mut s);
            if v.is_finite() {
                let _ = write!(s, "\":{v}");
            } else {
                s.push_str("\":null");
            }
        }
        s.push_str("},\"histograms\":{");
        for (i, (k, h)) in self.histograms().iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            s.push('"');
            json_escape(k, &mut s);
            let _ = write!(
                s,
                "\":{{\"count\":{},\"sum\":{},\"min\":{},\"max\":{},\
                 \"p50\":{},\"p90\":{},\"p99\":{},\"p999\":{}}}",
                h.count,
                h.sum,
                h.min,
                h.max,
                h.quantile(0.5),
                h.quantile(0.9),
                h.quantile(0.99),
                h.quantile(0.999)
            );
        }
        s.push_str("}}");
        s
    }

    /// Renders the whole registry in the Prometheus text exposition format:
    /// counters and gauges as single samples, histograms as summaries with
    /// `{quantile="…"}` samples plus `_sum` / `_count`. Metric names are
    /// sanitized (every character outside `[a-zA-Z0-9_:]` becomes `_`, so
    /// `server.queue.wait_us` scrapes as `server_queue_wait_us`). Each
    /// family is preceded by a `# HELP` line drawn from the metric
    /// vocabulary [`names::ALL`] (see [`help_for`]).
    pub fn to_prometheus(&self) -> String {
        self.to_prometheus_opts(false)
    }

    /// [`to_prometheus`](Self::to_prometheus) with an exposition choice for
    /// histograms: with `buckets` set, each histogram is exported as a
    /// native Prometheus histogram — cumulative `_bucket{le="…"}` samples at
    /// the log2 bucket upper bounds plus `_sum`/`_count` — instead of a
    /// quantile summary. Buckets aggregate correctly across replicas
    /// (`sum by (le)`), which precomputed quantiles cannot.
    pub fn to_prometheus_opts(&self, buckets: bool) -> String {
        fn prom_name(name: &str, out: &mut String) {
            for (i, c) in name.chars().enumerate() {
                let ok = (c.is_ascii_alphanumeric() && !(i == 0 && c.is_ascii_digit()))
                    || c == '_'
                    || c == ':';
                out.push(if ok { c } else { '_' });
            }
        }
        fn prom_f64(value: f64, out: &mut String) {
            if value.is_nan() {
                out.push_str("NaN");
            } else if value == f64::INFINITY {
                out.push_str("+Inf");
            } else if value == f64::NEG_INFINITY {
                out.push_str("-Inf");
            } else {
                let _ = write!(out, "{value}");
            }
        }
        fn help_line(s: &mut String, n: &str, raw: &str) {
            let _ = writeln!(s, "# HELP {n} {}", help_for(raw));
        }
        let mut s = String::new();
        let mut n = String::new();
        for (k, v) in self.counters() {
            n.clear();
            prom_name(&k, &mut n);
            help_line(&mut s, &n, &k);
            let _ = writeln!(s, "# TYPE {n} counter");
            let _ = writeln!(s, "{n} {v}");
        }
        for (k, v) in self.gauges() {
            n.clear();
            prom_name(&k, &mut n);
            help_line(&mut s, &n, &k);
            let _ = writeln!(s, "# TYPE {n} gauge");
            let _ = write!(s, "{n} ");
            prom_f64(v, &mut s);
            s.push('\n');
        }
        for (k, h) in self.histograms() {
            n.clear();
            prom_name(&k, &mut n);
            help_line(&mut s, &n, &k);
            if buckets {
                let _ = writeln!(s, "# TYPE {n} histogram");
                let mut cumulative = 0u64;
                for (i, &c) in h.bucket_counts().iter().enumerate() {
                    cumulative += c;
                    // Only boundaries that carry data (plus the first) keep
                    // the exposition small; cumulative counts stay correct
                    // because skipped empty buckets change nothing.
                    if c == 0 && i != 0 {
                        continue;
                    }
                    let _ = writeln!(
                        s,
                        "{n}_bucket{{le=\"{}\"}} {cumulative}",
                        HistogramSummary::bucket_upper_bound(i)
                    );
                }
                let _ = writeln!(s, "{n}_bucket{{le=\"+Inf\"}} {}", h.count);
            } else {
                let _ = writeln!(s, "# TYPE {n} summary");
                for (label, q) in [("0.5", 0.5), ("0.9", 0.9), ("0.99", 0.99), ("0.999", 0.999)] {
                    let _ = writeln!(s, "{n}{{quantile=\"{label}\"}} {}", h.quantile(q));
                }
            }
            let _ = writeln!(s, "{n}_sum {}", h.sum);
            let _ = writeln!(s, "{n}_count {}", h.count);
        }
        s
    }
}

/// One-line HELP text for a metric name, used by the Prometheus exposition:
/// the help of the longest row of [`names::ALL`] that equals the name or is
/// a dotted prefix of it (the registry sink derives `{span}.{field}` series
/// at runtime), and otherwise a generic line — `# HELP` is mandatory commentary, not a
/// contract, so a fallback is always acceptable.
pub fn help_for(name: &str) -> &'static str {
    let mut best: Option<(&str, &str)> = None;
    for &(key, text) in names::ALL {
        let matches = name == key || name.starts_with(key) && name.as_bytes().get(key.len()) == Some(&b'.');
        if matches && best.is_none_or(|(b, _)| key.len() > b.len()) {
            best = Some((key, text));
        }
    }
    best.map_or("Series emitted by rsky (no canonical help text).", |(_, text)| text)
}

/// A recorder that folds events into a [`MetricsRegistry`]: span fields
/// become counters named `{span}.{field}`, span wall-clocks become
/// `{span}.wall_us` histograms, and direct counter/gauge/histogram calls
/// pass through.
pub struct RegistrySink {
    registry: Arc<MetricsRegistry>,
}

impl RegistrySink {
    /// A sink feeding `registry`.
    pub fn new(registry: Arc<MetricsRegistry>) -> Arc<Self> {
        Arc::new(Self { registry })
    }

    /// A handle recording into a fresh registry; returns both.
    pub fn fresh() -> (Arc<MetricsRegistry>, ObsHandle) {
        let registry = Arc::new(MetricsRegistry::new());
        let sink = Self::new(registry.clone());
        (registry, ObsHandle::new(sink))
    }

    /// A handle recording into this sink.
    pub fn handle(self: &Arc<Self>) -> ObsHandle {
        ObsHandle::new(self.clone())
    }
}

impl Recorder for RegistrySink {
    fn span_close(&self, event: &SpanEvent) {
        for (k, v) in &event.fields {
            self.registry.counter_add(&format!("{}.{k}", event.name), *v);
        }
        self.registry.histogram_record(&format!("{}.wall_us", event.name), event.wall_us);
    }

    fn counter_add(&self, name: &str, delta: u64) {
        self.registry.counter_add(name, delta);
    }

    fn gauge_set(&self, name: &str, value: f64) {
        self.registry.gauge_set(name, value);
    }

    fn histogram_record(&self, name: &str, value: u64) {
        self.registry.histogram_record(name, value);
    }
}

// ---------------------------------------------------------------------------
// Installation
// ---------------------------------------------------------------------------

thread_local! {
    static SCOPED: RefCell<Vec<ObsHandle>> = const { RefCell::new(Vec::new()) };
}

static GLOBAL_HANDLE: OnceLock<ObsHandle> = OnceLock::new();

/// Installs `handle` process-wide (used by the CLI). First call wins;
/// returns whether the installation took effect. Scoped handles installed
/// with [`with_recorder`] shadow the global one on their thread.
pub fn set_global(handle: ObsHandle) -> bool {
    GLOBAL_HANDLE.set(handle).is_ok()
}

/// Runs `f` with `handle` installed for the current thread, restoring the
/// previous state afterwards (panic-safe via an RAII guard). Nested scopes
/// shadow outer ones.
pub fn with_recorder<T>(handle: ObsHandle, f: impl FnOnce() -> T) -> T {
    struct Guard;
    impl Drop for Guard {
        fn drop(&mut self) {
            SCOPED.with(|s| {
                s.borrow_mut().pop();
            });
        }
    }
    SCOPED.with(|s| s.borrow_mut().push(handle));
    let _guard = Guard;
    f()
}

/// The recorder handle in effect on this thread: the innermost
/// [`with_recorder`] scope, else the [`set_global`] handle, else noop.
pub fn handle() -> ObsHandle {
    if let Some(h) = SCOPED.with(|s| s.borrow().last().cloned()) {
        return h;
    }
    GLOBAL_HANDLE.get().cloned().unwrap_or_else(ObsHandle::noop)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn noop_handle_records_nothing_cheaply() {
        let h = ObsHandle::noop();
        assert!(!h.enabled());
        let mut sp = h.span("x", "y");
        assert!(!sp.is_recording());
        sp.field("k", 1);
        sp.close();
        h.counter_add("c", 5);
        h.gauge_set("g", 1.0);
        h.histogram_record("h", 2);
    }

    #[test]
    fn memory_sink_captures_spans_and_fields() {
        let sink = MemorySink::new();
        let h = sink.handle();
        assert!(h.enabled());
        {
            let mut sp = h.span("brs", "phase1.batch");
            sp.field("dist_checks", 10).field("batch", 0);
            sp.io_fields(IoCounts { seq_reads: 3, rand_reads: 1, seq_writes: 2, rand_writes: 0 });
        }
        {
            let mut sp = h.span("brs", "phase1.batch");
            sp.field("dist_checks", 32);
        }
        let events = sink.events();
        assert_eq!(events.len(), 2);
        assert_eq!(events[0].name, "brs.phase1.batch");
        assert_eq!(events[0].field("dist_checks"), Some(10));
        assert_eq!(events[0].field("seq_reads"), Some(3));
        assert_eq!(events[0].field("missing"), None);
        assert_eq!(sink.sum_field(".phase1.batch", "dist_checks"), 42);
        assert_eq!(sink.span_count(".phase1.batch"), 2);
        sink.clear();
        assert!(sink.events().is_empty());
    }

    #[test]
    fn memory_sink_accumulates_metrics() {
        let sink = MemorySink::new();
        let h = sink.handle();
        h.counter_add("qcache.build_checks", 7);
        h.counter_add("qcache.build_checks", 3);
        h.gauge_set("qcache.entries", 12.0);
        h.histogram_record("par.batch.wait_us", 4);
        h.histogram_record("par.batch.wait_us", 8);
        assert_eq!(sink.registry().counter("qcache.build_checks"), 10);
        assert_eq!(sink.registry().gauge("qcache.entries"), Some(12.0));
        let hist = sink.registry().histogram("par.batch.wait_us").unwrap();
        assert_eq!((hist.count, hist.sum, hist.min, hist.max), (2, 12, 4, 8));
        assert!((hist.mean() - 6.0).abs() < 1e-12);
    }

    #[test]
    fn jsonl_sink_emits_one_line_per_event() {
        use std::sync::OnceLock;
        static BUF: OnceLock<Arc<Mutex<Vec<u8>>>> = OnceLock::new();
        let buf = BUF.get_or_init(|| Arc::new(Mutex::new(Vec::new()))).clone();

        struct SharedBuf(Arc<Mutex<Vec<u8>>>);
        impl Write for SharedBuf {
            fn write(&mut self, data: &[u8]) -> std::io::Result<usize> {
                self.0.lock().unwrap().extend_from_slice(data);
                Ok(data.len())
            }
            fn flush(&mut self) -> std::io::Result<()> {
                Ok(())
            }
        }

        let sink = JsonlSink::from_writer(Box::new(SharedBuf(buf.clone())));
        let h = sink.handle();
        {
            let mut sp = h.span("trs", "phase2");
            sp.field("dist_checks", 99);
        }
        h.counter_add("qcache.build_checks", 8);
        sink.flush().unwrap();
        assert_eq!(sink.lines_written(), 2);
        let text = String::from_utf8(buf.lock().unwrap().clone()).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        assert!(lines[0].starts_with("{\"type\":\"span\",\"name\":\"trs.phase2\""), "{}", lines[0]);
        assert!(lines[0].contains("\"dist_checks\":99"), "{}", lines[0]);
        assert_eq!(lines[1], "{\"type\":\"counter\",\"name\":\"qcache.build_checks\",\"value\":8}");
    }

    #[test]
    fn registry_sink_folds_span_fields_into_counters() {
        let (registry, h) = RegistrySink::fresh();
        for checks in [5u64, 7] {
            let mut sp = h.span("srs", "phase1.batch");
            sp.field("dist_checks", checks);
        }
        assert_eq!(registry.counter("srs.phase1.batch.dist_checks"), 12);
        let hist = registry.histogram("srs.phase1.batch.wall_us").unwrap();
        assert_eq!(hist.count, 2);
        // Direct histogram records pass through: none is dropped.
        for v in 0..10_000u64 {
            h.histogram_record("par.batch.wait_us", v % 7);
        }
        assert_eq!(registry.histogram("par.batch.wait_us").map(|h| h.count), Some(10_000));
        let json = registry.to_json();
        assert!(json.contains("\"srs.phase1.batch.dist_checks\":12"), "{json}");
        assert!(json.starts_with('{') && json.ends_with('}'));
    }

    #[test]
    fn tee_fans_out_and_tracks_enablement() {
        let a = MemorySink::new();
        let b = MemorySink::new();
        let teed = ObsHandle::tee(vec![a.handle(), ObsHandle::noop(), b.handle()]);
        assert!(teed.enabled());
        {
            let mut sp = teed.span("x", "y");
            sp.field("v", 1);
        }
        assert_eq!(a.span_count(".y"), 1);
        assert_eq!(b.span_count(".y"), 1);
        assert!(!ObsHandle::tee(vec![ObsHandle::noop()]).enabled());
    }

    #[test]
    fn scoped_recorder_shadows_and_restores() {
        assert!(!handle().enabled(), "no recorder installed by default");
        let sink = MemorySink::new();
        with_recorder(sink.handle(), || {
            assert!(handle().enabled());
            let inner = MemorySink::new();
            with_recorder(inner.handle(), || {
                let _sp = handle().span("a", "b");
            });
            assert_eq!(inner.span_count(".b"), 1);
            assert_eq!(sink.span_count(".b"), 0, "inner scope shadowed the outer sink");
        });
        assert!(!handle().enabled(), "scope restored on exit");
    }

    #[test]
    fn json_escaping_handles_special_chars() {
        let mut out = String::new();
        json_escape("a\"b\\c\nd\u{1}", &mut out);
        assert_eq!(out, "a\\\"b\\\\c\\nd\\u0001");
    }

    #[test]
    fn nested_spans_share_a_trace_and_link_parents() {
        let sink = MemorySink::new();
        let h = sink.handle();
        {
            let outer = h.span("t", "outer");
            let outer_ctx = outer.ctx().unwrap();
            {
                let inner = h.span("t", "inner");
                let inner_ctx = inner.ctx().unwrap();
                assert_eq!(inner_ctx.trace_id, outer_ctx.trace_id);
                assert_ne!(inner_ctx.span_id, outer_ctx.span_id);
            }
            // A sibling opened after the first child closed still parents
            // the outer span, not the closed sibling.
            let _sib = h.span("t", "sibling");
        }
        let events = sink.events();
        assert_eq!(events.len(), 3);
        let outer = events.iter().find(|e| e.name == "t.outer").unwrap();
        let inner = events.iter().find(|e| e.name == "t.inner").unwrap();
        let sib = events.iter().find(|e| e.name == "t.sibling").unwrap();
        assert_eq!(outer.parent_id, None, "outer is the trace root");
        assert_eq!(inner.parent_id, Some(outer.span_id));
        assert_eq!(sib.parent_id, Some(outer.span_id));
        assert_eq!(inner.trace_id, outer.trace_id);
        assert_eq!(sib.trace_id, outer.trace_id);
    }

    #[test]
    fn separate_roots_get_separate_traces() {
        let sink = MemorySink::new();
        let h = sink.handle();
        h.span("t", "one").close();
        h.span("t", "two").close();
        let events = sink.events();
        assert_ne!(events[0].trace_id, events[1].trace_id);
        assert!(events[0].trace_id < (1 << 48), "trace ids stay f64-exact");
    }

    #[test]
    fn with_parent_joins_workers_to_the_coordinator_trace() {
        let sink = MemorySink::new();
        let h = sink.handle();
        {
            let phase = h.span("t", "phase");
            let ctx = phase.ctx();
            std::thread::scope(|scope| {
                for _ in 0..2 {
                    let h = h.clone();
                    scope.spawn(move || {
                        with_parent(ctx, || {
                            h.span("t", "batch").close();
                        });
                    });
                }
            });
            // The coordinator's own stack is intact after the workers ran.
            assert_eq!(current_parent(), ctx);
        }
        let events = sink.events();
        let phase = events.iter().find(|e| e.name == "t.phase").unwrap();
        let batches: Vec<_> = events.iter().filter(|e| e.name == "t.batch").collect();
        assert_eq!(batches.len(), 2);
        for b in &batches {
            assert_eq!(b.trace_id, phase.trace_id);
            assert_eq!(b.parent_id, Some(phase.span_id));
        }
        assert!(current_parent().is_none(), "stack drained after the root closed");
    }

    #[test]
    fn noop_spans_do_not_touch_the_trace_stack() {
        let h = ObsHandle::noop();
        let sp = h.span("x", "y");
        assert_eq!(sp.ctx(), None);
        assert!(current_parent().is_none());
    }

    #[test]
    fn histogram_quantiles_track_the_distribution() {
        let mut h = HistogramSummary::default();
        assert_eq!(h.quantile(0.5), 0);
        for v in 1..=1000u64 {
            h.record(v);
        }
        assert_eq!(h.count, 1000);
        assert_eq!(h.quantile(1.0), 1000);
        assert_eq!(h.quantile(0.0), 1);
        // Log2 buckets guarantee ≤ 2× relative error on any quantile.
        let p50 = h.quantile(0.5);
        assert!((250..=1000).contains(&p50), "p50 = {p50}");
        let p99 = h.quantile(0.99);
        assert!((495..=1000).contains(&p99), "p99 = {p99}");
        assert!(p50 <= h.quantile(0.9) && h.quantile(0.9) <= p99);

        // A constant stream estimates every quantile exactly.
        let mut c = HistogramSummary::default();
        for _ in 0..100 {
            c.record(42);
        }
        for q in [0.0, 0.5, 0.9, 0.99, 0.999, 1.0] {
            assert_eq!(c.quantile(q), 42);
        }

        // Zero and u64::MAX land in the edge buckets without overflow.
        let mut e = HistogramSummary::default();
        e.record(0);
        e.record(u64::MAX);
        assert_eq!(e.quantile(0.0), 0);
        assert_eq!(e.quantile(1.0), u64::MAX);
    }

    #[test]
    fn registry_json_renders_quantiles_and_null_gauges() {
        let reg = MetricsRegistry::new();
        for v in [1u64, 2, 4, 8] {
            reg.histogram_record("h", v);
        }
        reg.gauge_set("bad", f64::NAN);
        reg.gauge_set("worse", f64::INFINITY);
        reg.gauge_set("fine", 2.5);
        let json = reg.to_json();
        assert!(json.contains("\"p50\":"), "{json}");
        assert!(json.contains("\"p999\":"), "{json}");
        assert!(json.contains("\"bad\":null"), "{json}");
        assert!(json.contains("\"worse\":null"), "{json}");
        assert!(json.contains("\"fine\":2.5"), "{json}");
        assert!(!json.contains("NaN") && !json.contains("inf"), "{json}");
    }

    #[test]
    fn jsonl_sink_renders_non_finite_gauges_as_null() {
        let buf = Arc::new(Mutex::new(Vec::new()));
        struct SharedBuf(Arc<Mutex<Vec<u8>>>);
        impl Write for SharedBuf {
            fn write(&mut self, data: &[u8]) -> std::io::Result<usize> {
                self.0.lock().unwrap().extend_from_slice(data);
                Ok(data.len())
            }
            fn flush(&mut self) -> std::io::Result<()> {
                Ok(())
            }
        }
        let sink = JsonlSink::from_writer(Box::new(SharedBuf(buf.clone())));
        let h = sink.handle();
        h.gauge_set("g.nan", f64::NAN);
        h.gauge_set("g.inf", f64::NEG_INFINITY);
        h.gauge_set("g.ok", 1.5);
        sink.flush().unwrap();
        let text = String::from_utf8(buf.lock().unwrap().clone()).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines[0], "{\"type\":\"gauge\",\"name\":\"g.nan\",\"value\":null}");
        assert_eq!(lines[1], "{\"type\":\"gauge\",\"name\":\"g.inf\",\"value\":null}");
        assert_eq!(lines[2], "{\"type\":\"gauge\",\"name\":\"g.ok\",\"value\":1.5}");
    }

    #[test]
    fn prometheus_exposition_is_well_formed() {
        let reg = MetricsRegistry::new();
        reg.counter_add("server.served", 3);
        reg.gauge_set("server.queue.depth", 2.0);
        reg.gauge_set("server.broken", f64::NAN);
        for v in [10u64, 20, 30, 40] {
            reg.histogram_record("server.queue.wait_us", v);
        }
        let text = reg.to_prometheus();
        for line in text.lines() {
            if line.starts_with('#') {
                assert!(
                    line.starts_with("# TYPE ") || line.starts_with("# HELP "),
                    "bad comment: {line}"
                );
                continue;
            }
            let (name_part, value) = line.rsplit_once(' ').expect(line);
            let name = name_part.split('{').next().unwrap();
            assert!(
                name.chars().enumerate().all(|(i, c)| (c.is_ascii_alphanumeric()
                    && !(i == 0 && c.is_ascii_digit()))
                    || c == '_'
                    || c == ':'),
                "bad metric name in: {line}"
            );
            assert!(
                value.parse::<f64>().is_ok() || ["NaN", "+Inf", "-Inf"].contains(&value),
                "bad sample value in: {line}"
            );
        }
        assert!(text.contains("# TYPE server_served counter"), "{text}");
        assert!(text.contains("server_served 3"), "{text}");
        assert!(text.contains("server_broken NaN"), "{text}");
        assert!(text.contains("# TYPE server_queue_wait_us summary"), "{text}");
        assert!(text.contains("server_queue_wait_us{quantile=\"0.5\"}"), "{text}");
        assert!(text.contains("server_queue_wait_us{quantile=\"0.99\"}"), "{text}");
        assert!(text.contains("server_queue_wait_us_sum 100"), "{text}");
        assert!(text.contains("server_queue_wait_us_count 4"), "{text}");
        // Every family carries a HELP line, drawn from the vocabulary.
        assert!(
            text.contains("# HELP server_served Requests answered successfully."),
            "{text}"
        );
        assert!(text.contains("# HELP server_queue_wait_us Time a request waited"), "{text}");
    }

    #[test]
    fn prometheus_bucket_exposition_is_cumulative() {
        let reg = MetricsRegistry::new();
        // Values 10 and 20 share bucket 5 (le=31); 100 lands in bucket 7
        // (le=127).
        for v in [10u64, 20, 100] {
            reg.histogram_record("server.queue.wait_us", v);
        }
        let text = reg.to_prometheus_opts(true);
        assert!(text.contains("# TYPE server_queue_wait_us histogram"), "{text}");
        assert!(text.contains("server_queue_wait_us_bucket{le=\"31\"} 2"), "{text}");
        assert!(text.contains("server_queue_wait_us_bucket{le=\"127\"} 3"), "{text}");
        assert!(text.contains("server_queue_wait_us_bucket{le=\"+Inf\"} 3"), "{text}");
        assert!(text.contains("server_queue_wait_us_sum 130"), "{text}");
        assert!(text.contains("server_queue_wait_us_count 3"), "{text}");
        assert!(!text.contains("quantile"), "bucket mode replaces the summary: {text}");
        // Bucket counts never decrease along increasing le bounds.
        let mut last = 0u64;
        for line in text.lines().filter(|l| l.contains("_bucket{le=")) {
            let v: u64 = line.rsplit_once(' ').unwrap().1.parse().unwrap();
            assert!(v >= last, "non-cumulative buckets: {text}");
            last = v;
        }
    }

    #[test]
    fn help_text_prefers_the_longest_canonical_prefix() {
        assert_eq!(help_for("server.served"), "Requests answered successfully.");
        // Runtime-derived series fall back to their span's prefix…
        assert!(help_for("server.request.wall_us").contains("request spans"));
        assert!(help_for("server.cache.hit.weird").contains("result cache"));
        // …and unknown names to the generic line (never a panic).
        assert!(help_for("bench.something").contains("no canonical help"));
        assert_eq!(help_for("rsky_health"), "Instance health: 0 ok, 1 warn, 2 critical.");
    }

    #[test]
    fn histogram_delta_since_isolates_the_window() {
        let mut h = HistogramSummary::default();
        for v in [10u64, 12] {
            h.record(v);
        }
        let earlier = h.clone();
        for v in [1000u64, 1100, 1200] {
            h.record(v);
        }
        let d = h.delta_since(&earlier);
        assert_eq!((d.count, d.sum), (3, 3300));
        assert!(d.min >= 512 && d.max <= 2047, "delta extremes from bucket bounds: {d:?}");
        assert!(d.quantile(0.5) >= 512, "median reflects only the window");
        // A reset (count regression) falls back to the cumulative state.
        let reset = earlier.delta_since(&h);
        assert_eq!(reset, earlier);
        // Delta against self is empty.
        let empty = h.delta_since(&h);
        assert_eq!((empty.count, empty.sum), (0, 0));
    }

    #[test]
    fn memory_sink_is_exact_under_concurrency() {
        const THREADS: u64 = 8;
        const SPANS: u64 = 50;
        let sink = MemorySink::new();
        let h = sink.handle();
        std::thread::scope(|scope| {
            for t in 0..THREADS {
                let h = h.clone();
                scope.spawn(move || {
                    for i in 0..SPANS {
                        let mut sp = h.span("conc", "batch");
                        sp.field("work", t * SPANS + i);
                        drop(sp);
                        h.counter_add("conc.total", 1);
                    }
                });
            }
        });
        // Single-threaded oracle: Σ (t*SPANS + i) over all t, i.
        let n = THREADS * SPANS;
        let oracle: u64 = (0..n).sum();
        assert_eq!(sink.span_count(".batch"), n as usize);
        assert_eq!(sink.sum_field(".batch", "work"), oracle);
        assert_eq!(sink.registry().counter("conc.total"), n);
    }

    #[test]
    fn tee_is_exact_under_concurrency() {
        const THREADS: u64 = 8;
        const SPANS: u64 = 40;
        let a = MemorySink::new();
        let b = MemorySink::new();
        let teed = ObsHandle::tee(vec![a.handle(), ObsHandle::noop(), b.handle()]);
        std::thread::scope(|scope| {
            for t in 0..THREADS {
                let teed = teed.clone();
                scope.spawn(move || {
                    for i in 0..SPANS {
                        let mut sp = teed.span("tee", "batch");
                        sp.field("work", t * SPANS + i);
                        drop(sp);
                        teed.counter_add("tee.total", 2);
                        teed.histogram_record("tee.wait", i);
                    }
                });
            }
        });
        let n = THREADS * SPANS;
        let oracle: u64 = (0..n).sum();
        for sink in [&a, &b] {
            assert_eq!(sink.span_count(".batch"), n as usize, "each span lands exactly once");
            assert_eq!(sink.sum_field(".batch", "work"), oracle);
            assert_eq!(sink.registry().counter("tee.total"), 2 * n);
            let hist = sink.registry().histogram("tee.wait").unwrap();
            assert_eq!(hist.count, n);
            assert_eq!(hist.sum, THREADS * (0..SPANS).sum::<u64>());
        }
        // The two sinks saw identical multisets of events (order may differ).
        let mut ea = a.events();
        let mut eb = b.events();
        ea.sort_by_key(|e| e.span_id);
        eb.sort_by_key(|e| e.span_id);
        assert_eq!(ea, eb);
    }
}
