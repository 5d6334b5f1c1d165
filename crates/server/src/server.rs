//! The TCP serving loop: accept, admit, execute, drain.
//!
//! Thread layout:
//!
//! * one **accept/supervisor** thread — accepts connections, then runs the
//!   graceful-shutdown drain once shutdown is requested;
//! * one **connection** thread per client — parses request lines, answers
//!   control ops (`health`, `metrics`, `insert`, `expire`, `shutdown`)
//!   inline so they keep working under overload, and admits heavy ops
//!   (`query`, `influence`) to the bounded queue;
//! * a fixed pool of **worker** threads — pop jobs, enforce deadlines via
//!   [`CancelToken`]s, consult the result cache, run engines.
//!
//! Admission control is the queue itself (see [`crate::queue`]): a full
//! queue sheds the request immediately with an `overloaded` error instead
//! of letting latency grow without bound. Shutdown stops admission, drains
//! everything already admitted, answers each drained job, and only then
//! lets threads exit — a client never loses an accepted request.

use std::io::{Read, Write};
use std::panic::{self, AssertUnwindSafe};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use rand::rngs::StdRng;
use rand::SeedableRng;
use rsky_core::cancel::{self, CancelToken};
use rsky_core::dataset::Dataset;
use rsky_core::error::{Error, Result};
use rsky_core::obs::{
    self, names, MemorySink, MetricsRegistry, ObsHandle, RegistrySink,
};
use rsky_core::obs_ts::{Clock, SystemClock, DEFAULT_MAX_SERIES};
use rsky_core::query::Query;
use rsky_core::record::RecordId;

use rsky_algos::rank_members_with;
use rsky_algos::shard::ShardedTables;
use rsky_storage::{MutationEvent, ShardSpec};
use rsky_view::ViewSpec;

use crate::cache::{CacheKey, ResultCache};
use crate::health::HealthEvaluator;
use crate::proto::{self, ErrKind, Request};
use crate::queue::{BoundedQueue, PushError};
use crate::slowlog::{SlowEntry, SlowLog};
use crate::state::{DataState, DatasetVersion, WorkerState};
use crate::telemetry::Telemetry;
use crate::views::ViewRegistry;

/// How often an idle connection thread wakes up to notice a shutdown.
const IDLE_POLL: Duration = Duration::from_millis(50);

/// Longest request line a connection may buffer, far above any request the
/// protocol defines. A client whose line passes it without a newline gets a
/// `bad_request` reply and the connection is closed, so a peer that never
/// sends `\n` cannot grow server memory without bound.
pub const MAX_LINE_BYTES: usize = 1 << 20;

/// Serving-layer configuration.
#[derive(Clone)]
pub struct ServerConfig {
    /// Bind address; port 0 picks an ephemeral port.
    pub addr: String,
    /// Worker-pool size; 0 auto-detects via `available_parallelism`.
    pub workers: usize,
    /// Threads *per engine run* (BRS, SRS and TRS batch workers); 1 keeps
    /// each run sequential and lets the pool provide the concurrency.
    pub engine_threads: usize,
    /// Bounded-queue capacity: requests waiting beyond the pool.
    pub queue_cap: usize,
    /// Result-cache capacity in entries (0 disables caching).
    pub cache_cap: usize,
    /// Default per-request deadline in ms (0 = none unless the request
    /// carries its own `deadline_ms`).
    pub default_deadline_ms: u64,
    /// Working-memory budget per worker, as % of the dataset.
    pub mem_pct: f64,
    /// Page size of the served page images and of the workers' scratch
    /// disks.
    pub page: usize,
    /// Tiles per attribute for the tiled layouts.
    pub tiles: u32,
    /// Enables test-only ops (`sleep`) used by the e2e suite to occupy
    /// workers deterministically. Keep off in production.
    pub enable_test_ops: bool,
    /// Shard configuration: `None` serves single-node; `Some(spec)` serves
    /// every query and influence workload through the scatter-gather
    /// executor over `spec.shards` partitions (results are identical, per
    /// the shard differential harness; the config is part of the cache key).
    pub shard: Option<ShardSpec>,
    /// Pruner-exchange band budget per shard for the sharded executor
    /// (`--pruner-budget`): the strongest `budget` phase-1 candidates each
    /// shard exports for the broadcast kill pass. 0 disables the exchange;
    /// irrelevant when `shard` is `None`.
    pub pruner_budget: usize,
    /// Slow-request threshold in µs: a pooled request whose total latency
    /// (queue wait included) crosses it has its complete span tree retained
    /// in the slowlog ring, dumpable via the `slowlog` op. 0 disables the
    /// capture (no per-request sink is allocated at all).
    pub slow_request_us: u64,
    /// Capacity of the slow-request ring buffer (newest entries win).
    pub slowlog_cap: usize,
    /// Telemetry sampling interval in ms: how often the sampler thread
    /// snapshots the registry into the time-series ring and re-evaluates
    /// the SLO health rules. 0 disables the background thread — ticks then
    /// only happen via the test-only `tick` op.
    pub sample_interval_ms: u64,
    /// Capacity of the time-series ring, in samples. At the default 1 s
    /// interval, 512 samples retain ~8.5 minutes of history in a fixed
    /// allocation.
    pub ts_capacity: usize,
    /// Per-rule SLO threshold overrides for the health evaluator, as a
    /// compact `name=warn:critical` comma-separated spec (see
    /// `rsky_server::health`). `None` keeps the built-in defaults.
    pub health_rules: Option<String>,
    /// The clock stamping telemetry samples. `None` uses the system's
    /// monotonic clock; tests inject a
    /// [`ManualClock`](rsky_core::obs_ts::ManualClock) so window
    /// boundaries are deterministic.
    pub clock: Option<Arc<dyn Clock>>,
}

impl std::fmt::Debug for ServerConfig {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ServerConfig")
            .field("addr", &self.addr)
            .field("workers", &self.workers)
            .field("engine_threads", &self.engine_threads)
            .field("queue_cap", &self.queue_cap)
            .field("cache_cap", &self.cache_cap)
            .field("default_deadline_ms", &self.default_deadline_ms)
            .field("mem_pct", &self.mem_pct)
            .field("page", &self.page)
            .field("tiles", &self.tiles)
            .field("enable_test_ops", &self.enable_test_ops)
            .field("shard", &self.shard)
            .field("pruner_budget", &self.pruner_budget)
            .field("slow_request_us", &self.slow_request_us)
            .field("slowlog_cap", &self.slowlog_cap)
            .field("sample_interval_ms", &self.sample_interval_ms)
            .field("ts_capacity", &self.ts_capacity)
            .field("health_rules", &self.health_rules)
            .field("clock", &self.clock.as_ref().map(|_| "injected"))
            .finish()
    }
}

impl Default for ServerConfig {
    fn default() -> Self {
        Self {
            addr: "127.0.0.1:0".into(),
            workers: 0,
            engine_threads: 1,
            queue_cap: 64,
            cache_cap: 128,
            default_deadline_ms: 0,
            mem_pct: 10.0,
            page: 4096,
            tiles: 4,
            enable_test_ops: false,
            shard: None,
            pruner_budget: rsky_algos::shard::DEFAULT_PRUNER_BUDGET,
            slow_request_us: 0,
            slowlog_cap: 16,
            sample_interval_ms: 1000,
            ts_capacity: 512,
            health_rules: None,
            clock: None,
        }
    }
}

/// Resolves a `--threads`-style knob: 0 means "one per available core".
pub fn resolve_threads(requested: usize) -> usize {
    if requested > 0 {
        requested
    } else {
        std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1)
    }
}

struct Job {
    request: Request,
    token: CancelToken,
    enqueued: Instant,
    reply: mpsc::Sender<String>,
}

struct Shared {
    config: ServerConfig,
    /// The listener's bound address (shutdown self-connects to unblock it).
    local_addr: SocketAddr,
    workers: usize,
    data: DataState,
    cache: ResultCache,
    queue: BoundedQueue<Job>,
    registry: Arc<MetricsRegistry>,
    obs: ObsHandle,
    telemetry: Telemetry,
    slowlog: SlowLog,
    views: ViewRegistry,
    /// Serializes the mutation → view-maintenance path so the event feed
    /// the views consume arrives in generation order (an out-of-order
    /// event would force every view into a resync rebuild).
    mutation_order: Mutex<()>,
    accepting: AtomicBool,
    shutdown: AtomicBool,
}

/// The serving subsystem.
pub struct Server;

impl Server {
    /// Binds, spawns the worker pool and the accept thread, and returns a
    /// handle. Spans and counters flow both into the server's own metrics
    /// registry (the `metrics` op) and into whatever recorder is installed
    /// on the calling thread (e.g. a CLI `--trace-out` sink).
    pub fn start(config: ServerConfig, dataset: Dataset) -> Result<ServerHandle> {
        let listener = TcpListener::bind(&config.addr)?;
        let local_addr = listener.local_addr()?;
        let workers = resolve_threads(config.workers);
        let (registry, registry_handle) = RegistrySink::fresh();
        let obs = ObsHandle::tee(vec![obs::handle(), registry_handle]);
        let data = match config.shard {
            Some(spec) => {
                let (page, mem_pct, tiles) = (config.page, config.mem_pct, config.tiles);
                let tables = ShardedTables::new(&dataset, spec, mem_pct, page, tiles)?
                    .with_pruner_budget(config.pruner_budget);
                DataState::new_sharded(dataset, tables)
            }
            None => DataState::new(dataset),
        };
        let health = HealthEvaluator::with_overrides(config.health_rules.as_deref())
            .map_err(Error::InvalidConfig)?;
        let clock: Arc<dyn Clock> =
            config.clock.clone().unwrap_or_else(|| Arc::new(SystemClock::new()));
        let telemetry = Telemetry::new(
            Arc::clone(&registry),
            clock,
            config.ts_capacity.max(1),
            DEFAULT_MAX_SERIES,
            health,
        );
        let shared = Arc::new(Shared {
            local_addr,
            workers,
            data,
            cache: ResultCache::new(config.cache_cap),
            queue: BoundedQueue::new(config.queue_cap),
            registry,
            obs,
            telemetry,
            slowlog: SlowLog::new(if config.slow_request_us > 0 { config.slowlog_cap } else { 0 }),
            views: ViewRegistry::new(),
            mutation_order: Mutex::new(()),
            accepting: AtomicBool::new(true),
            shutdown: AtomicBool::new(false),
            config,
        });

        let mut worker_handles: Vec<JoinHandle<()>> = (0..workers)
            .map(|_| {
                let shared = Arc::clone(&shared);
                let ws = WorkerState::new(
                    shared.config.page,
                    shared.config.mem_pct,
                    shared.config.tiles,
                )?;
                Ok(std::thread::spawn(move || worker_loop(&shared, ws)))
            })
            .collect::<Result<_>>()?;
        if shared.config.sample_interval_ms > 0 {
            let shared = Arc::clone(&shared);
            worker_handles.push(std::thread::spawn(move || sampler_loop(&shared)));
        }

        let supervisor = {
            let shared = Arc::clone(&shared);
            std::thread::spawn(move || supervise(&shared, listener, worker_handles))
        };
        Ok(ServerHandle { local_addr, shared, supervisor: Some(supervisor) })
    }
}

/// A running server: its address, metrics, and shutdown/join controls.
pub struct ServerHandle {
    local_addr: SocketAddr,
    shared: Arc<Shared>,
    supervisor: Option<JoinHandle<()>>,
}

impl ServerHandle {
    /// The bound address (resolves port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// The server's metrics registry (shed/served/cache counters, queue
    /// histograms) — the same data the `metrics` op returns.
    pub fn registry(&self) -> Arc<MetricsRegistry> {
        Arc::clone(&self.shared.registry)
    }

    /// Snapshot of the slow-request ring (oldest first) — the same data
    /// the `slowlog` op returns.
    pub fn slowlog_entries(&self) -> Vec<SlowEntry> {
        self.shared.slowlog.entries()
    }

    /// The server's telemetry subsystem (time-series ring + SLO health
    /// evaluator) — the same data the `timeseries` and `health` ops serve.
    pub fn telemetry(&self) -> &Telemetry {
        &self.shared.telemetry
    }

    /// Requests a graceful shutdown (idempotent): stop accepting, drain
    /// in-flight work, answer drained jobs, exit. Returns immediately; use
    /// [`join`](Self::join) to wait for the drain.
    pub fn shutdown(&self) {
        trigger_shutdown(&self.shared, self.local_addr);
    }

    /// Blocks until the server has fully drained and every thread exited.
    pub fn join(mut self) {
        if let Some(h) = self.supervisor.take() {
            let _ = h.join();
        }
    }
}

impl Drop for ServerHandle {
    fn drop(&mut self) {
        if let Some(h) = self.supervisor.take() {
            trigger_shutdown(&self.shared, self.local_addr);
            let _ = h.join();
        }
    }
}

/// The dedicated telemetry thread: tick every `sample_interval_ms`, exit
/// promptly on shutdown. The sleep is chunked so a long interval never
/// delays the drain by more than one [`IDLE_POLL`].
fn sampler_loop(shared: &Shared) {
    let interval = Duration::from_millis(shared.config.sample_interval_ms);
    loop {
        let mut waited = Duration::ZERO;
        while waited < interval {
            if shared.shutdown.load(Ordering::SeqCst) {
                return;
            }
            let step = IDLE_POLL.min(interval - waited);
            std::thread::sleep(step);
            waited += step;
        }
        shared.telemetry.tick();
    }
}

fn trigger_shutdown(shared: &Shared, addr: SocketAddr) {
    if shared.shutdown.swap(true, Ordering::SeqCst) {
        return;
    }
    shared.accepting.store(false, Ordering::SeqCst);
    shared.queue.close();
    // Unblock the accept loop so the supervisor can run the drain.
    let _ = TcpStream::connect(addr);
}

/// Accept loop, then the shutdown drain. Connection threads are tracked so
/// the drain can prove every response was written before `join` returns.
fn supervise(shared: &Arc<Shared>, listener: TcpListener, workers: Vec<JoinHandle<()>>) {
    let mut conns: Vec<JoinHandle<()>> = Vec::new();
    loop {
        match listener.accept() {
            Ok((stream, _)) => {
                if !shared.accepting.load(Ordering::SeqCst) {
                    break;
                }
                shared.obs.counter_add(names::SERVER_ACCEPTED, 1);
                let shared = Arc::clone(shared);
                conns.push(std::thread::spawn(move || handle_conn(&shared, stream)));
                conns.retain(|h| !h.is_finished());
            }
            Err(_) => {
                if shared.shutdown.load(Ordering::SeqCst) {
                    break;
                }
            }
        }
    }
    let mut drain_span = shared.obs.span_named(names::SERVER_DRAIN);
    drain_span.field("queued_at_close", shared.queue.depth() as u64);
    // Workers exit once the closed queue is empty: every admitted job has
    // been executed and its response handed to a connection thread.
    for h in workers {
        let _ = h.join();
    }
    // Connection threads notice the shutdown at their next idle poll and
    // exit after writing whatever response they were delivering.
    for h in conns {
        let _ = h.join();
    }
    if drain_span.is_recording() {
        let (hits, _) = shared.cache.stats();
        drain_span
            .field("served", shared.registry.counter(names::SERVER_SERVED))
            .field("shed", shared.registry.counter(names::SERVER_SHED))
            .field("timeouts", shared.registry.counter(names::SERVER_TIMEOUT))
            .field("cache_hits", hits);
    }
    drain_span.close();
}

/// One client connection: line-framed request/response, strictly in order.
fn handle_conn(shared: &Arc<Shared>, mut stream: TcpStream) {
    // A finite read timeout turns the blocking read into an idle poll so
    // the thread can notice a shutdown without losing partial lines (the
    // buffer below survives across reads, unlike `BufReader::lines`).
    let _ = stream.set_read_timeout(Some(IDLE_POLL));
    // Responses are small; with Nagle on, each round trip would pick up
    // the delayed-ACK penalty (tens of ms) on top of the actual work.
    let _ = stream.set_nodelay(true);
    let mut conn_span = shared.obs.span_named(names::SERVER_CONN);
    let (reply_tx, reply_rx) = mpsc::channel::<String>();
    let mut buf: Vec<u8> = Vec::new();
    let mut chunk = [0u8; 4096];
    let mut requests = 0u64;
    // This connection's subscriptions: delta frames queue up in these
    // receivers (the mutating thread renders and sends them) and are
    // written to the socket between request lines and on idle polls.
    let mut subs: Vec<(u64, mpsc::Receiver<String>)> = Vec::new();
    // Length of the prefix of `buf` already searched for '\n': each read
    // searches only the bytes it added.
    let mut scanned = 0;
    'conn: loop {
        while let Some(off) = buf[scanned..].iter().position(|&b| b == b'\n') {
            let line_bytes: Vec<u8> = buf.drain(..=scanned + off).collect();
            scanned = 0;
            let line = String::from_utf8_lossy(&line_bytes);
            let line = line.trim();
            if line.is_empty() {
                continue;
            }
            requests += 1;
            let (response, shutdown_after) =
                handle_line(shared, line, &reply_tx, &reply_rx, &mut subs);
            // Line + terminator in one write: one TCP segment per response.
            let mut framed = response.into_bytes();
            framed.push(b'\n');
            let write = stream.write_all(&framed).and_then(|()| stream.flush());
            if shutdown_after {
                trigger_shutdown(shared, shared.local_addr);
            }
            if write.is_err() {
                break 'conn;
            }
        }
        scanned = buf.len();
        if buf.len() > MAX_LINE_BYTES {
            requests += 1;
            shared.obs.counter_add(names::SERVER_BAD_REQUEST, 1);
            let detail = format!("request line exceeds {MAX_LINE_BYTES} bytes");
            let mut framed = proto::err_line(ErrKind::BadRequest, &detail).into_bytes();
            framed.push(b'\n');
            let _ = stream.write_all(&framed).and_then(|()| stream.flush());
            break;
        }
        if drain_frames(&mut stream, &subs).is_err() {
            break;
        }
        match stream.read(&mut chunk) {
            Ok(0) => break,
            Ok(n) => buf.extend_from_slice(&chunk[..n]),
            Err(e)
                if matches!(
                    e.kind(),
                    std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                ) =>
            {
                if shared.shutdown.load(Ordering::SeqCst) {
                    break;
                }
            }
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(_) => break,
        }
    }
    if !subs.is_empty() {
        let ids: Vec<u64> = subs.iter().map(|(sub, _)| *sub).collect();
        shared.views.drop_subs(&ids);
    }
    conn_span.field("requests", requests);
    conn_span.close();
}

/// Writes every pending delta frame onto the socket, newest-subscription
/// last; frames within one subscription stay in mutation order.
fn drain_frames(
    stream: &mut TcpStream,
    subs: &[(u64, mpsc::Receiver<String>)],
) -> std::io::Result<()> {
    let mut wrote = false;
    for (_, rx) in subs {
        while let Ok(frame) = rx.try_recv() {
            let mut framed = frame.into_bytes();
            framed.push(b'\n');
            stream.write_all(&framed)?;
            wrote = true;
        }
    }
    if wrote {
        stream.flush()?;
    }
    Ok(())
}

/// Parses and answers one request line. Returns the response plus whether
/// a graceful shutdown must start after the response is written.
fn handle_line(
    shared: &Arc<Shared>,
    line: &str,
    reply_tx: &mpsc::Sender<String>,
    reply_rx: &mpsc::Receiver<String>,
    subs: &mut Vec<(u64, mpsc::Receiver<String>)>,
) -> (String, bool) {
    let request = match Request::parse(line) {
        Ok(r) => r,
        Err(detail) => {
            shared.obs.counter_add(names::SERVER_BAD_REQUEST, 1);
            return (proto::err_line(ErrKind::BadRequest, &detail), false);
        }
    };
    if matches!(request, Request::Sleep { .. } | Request::Tick | Request::Panic)
        && !shared.config.enable_test_ops
    {
        shared.obs.counter_add(names::SERVER_BAD_REQUEST, 1);
        return (
            proto::err_line(
                ErrKind::BadRequest,
                &format!("{} is a test-only op (enable_test_ops)", request.op()),
            ),
            false,
        );
    }
    if request.is_pooled() {
        return (admit(shared, request, reply_tx, reply_rx), false);
    }
    match request {
        Request::Health { detail } => {
            let version = shared.data.current();
            let report = shared.telemetry.last_report();
            let detail_json = detail.then(|| report.to_json());
            (
                proto::ok_health(
                    shared.accepting.load(Ordering::SeqCst),
                    version.generation,
                    version.dataset.len(),
                    shared.queue.depth(),
                    shared.workers,
                    report.level.as_str(),
                    detail_json.as_deref(),
                ),
                false,
            )
        }
        Request::Timeseries { metric, window_ms, limit } => (
            proto::ok_timeseries(&shared.telemetry.timeseries_json(
                metric.as_deref(),
                window_ms,
                limit,
            )),
            false,
        ),
        Request::Tick => {
            let report = shared.telemetry.tick();
            (
                proto::ok_tick(shared.telemetry.ring().ticks(), report.level.as_str()),
                false,
            )
        }
        Request::Metrics { prometheus, buckets } => {
            let body = if prometheus {
                proto::ok_metrics_prometheus(&shared.registry.to_prometheus_opts(buckets))
            } else {
                proto::ok_metrics(&shared.registry.to_json())
            };
            (body, false)
        }
        Request::Slowlog { clear } => {
            let dump = shared.slowlog.to_json();
            let cleared = clear.then(|| shared.slowlog.clear());
            (proto::ok_slowlog(&dump, cleared), false)
        }
        Request::Shutdown => (proto::ok_shutdown(), true),
        Request::Insert { id, values } => (mutate(shared, "insert", id, || {
            shared.data.insert(id, &values)
        }), false),
        Request::Expire { id } => (mutate(shared, "expire", id, || shared.data.expire(id)), false),
        Request::Subscribe { engine, values, subset } => {
            let (tx, rx) = mpsc::channel::<String>();
            let spec = ViewSpec { engine: engine.clone(), values, subset };
            // The build runs detached from the connection span so its
            // `view.build` trace is a fresh `server.request`-rooted tree.
            let built = obs::with_recorder(shared.obs.clone(), || {
                obs::with_detached(|| {
                    let span = shared.obs.span_named(names::SERVER_REQUEST);
                    let r = shared.views.subscribe(&shared.data, spec, tx);
                    span.close();
                    r
                })
            });
            match built {
                Ok(ack) => {
                    subs.push((ack.sub, rx));
                    shared.obs.counter_add(names::SERVER_SERVED, 1);
                    (
                        proto::ok_subscribe(ack.sub, &engine, ack.generation, ack.epoch, &ack.ids),
                        false,
                    )
                }
                Err(e) => {
                    shared.obs.counter_add(names::SERVER_BAD_REQUEST, 1);
                    (proto::err_line(ErrKind::BadRequest, &e.to_string()), false)
                }
            }
        }
        Request::Query { .. }
        | Request::Influence { .. }
        | Request::Sleep { .. }
        | Request::Panic => {
            unreachable!("pooled ops handled above")
        }
    }
}

fn mutate(
    shared: &Shared,
    op: &str,
    id: u32,
    apply: impl FnOnce() -> Result<(DatasetVersion, MutationEvent)>,
) -> String {
    // Mutations reach the views one at a time and in generation order; the
    // data mutation itself happens under this lock too so the event feed
    // cannot interleave.
    let _order = shared.mutation_order.lock().unwrap();
    match apply() {
        Ok((version, event)) => {
            // Results computed against older generations can no longer be
            // served; drop them eagerly.
            shared.cache.invalidate_before(version.generation);
            if shared.views.live() > 0 {
                // Maintain the views detached from the connection span so
                // each mutation's `view.delta` spans root a fresh
                // `server.request` trace (the slowlog/trace contract).
                obs::with_recorder(shared.obs.clone(), || {
                    obs::with_detached(|| {
                        let mut span = shared.obs.span_named(names::SERVER_REQUEST);
                        if span.is_recording() {
                            span.field("generation", version.generation);
                        }
                        shared.views.apply(&version, &event);
                        span.close();
                    })
                });
            }
            shared.obs.counter_add(names::SERVER_SERVED, 1);
            proto::ok_mutation(op, id, version.generation, version.dataset.len())
        }
        Err(e) => {
            shared.obs.counter_add(names::SERVER_BAD_REQUEST, 1);
            proto::err_line(ErrKind::BadRequest, &e.to_string())
        }
    }
}

/// Admission control: push to the bounded queue, shedding on overflow, then
/// wait for the worker's response. The deadline clock starts here — queue
/// wait counts against it.
fn admit(
    shared: &Arc<Shared>,
    request: Request,
    reply_tx: &mpsc::Sender<String>,
    reply_rx: &mpsc::Receiver<String>,
) -> String {
    let deadline_ms = match &request {
        Request::Query { deadline_ms, .. } | Request::Influence { deadline_ms, .. } => {
            deadline_ms.unwrap_or(shared.config.default_deadline_ms)
        }
        _ => 0,
    };
    let token = if deadline_ms > 0 {
        CancelToken::with_deadline(Duration::from_millis(deadline_ms))
    } else {
        CancelToken::new()
    };
    let job = Job { request, token, enqueued: Instant::now(), reply: reply_tx.clone() };
    match shared.queue.push(job) {
        Ok(depth) => {
            shared.obs.gauge_set(names::SERVER_QUEUE_DEPTH, depth as f64);
            // The worker always sends exactly one response per job, even
            // when drained during shutdown; a dropped channel means a
            // worker panicked.
            reply_rx
                .recv()
                .unwrap_or_else(|_| proto::err_line(ErrKind::Internal, "worker failed"))
        }
        Err(PushError::Full(_)) => {
            shared.obs.counter_add(names::SERVER_SHED, 1);
            proto::err_line(
                ErrKind::Overloaded,
                &format!("admission queue full ({} waiting)", shared.config.queue_cap),
            )
        }
        Err(PushError::Closed(_)) => {
            proto::err_line(ErrKind::ShuttingDown, "server is draining")
        }
    }
}

/// Worker thread: pop, enforce deadline, execute, reply. Exits when the
/// queue is closed and drained. A request that panics is answered
/// `internal` like any failed one: its connection waits for exactly one
/// reply, and the worker stays in the pool.
fn worker_loop(shared: &Arc<Shared>, mut ws: WorkerState) {
    let capture_slow = shared.config.slow_request_us > 0;
    while let Some(job) = shared.queue.pop() {
        let wait = job.enqueued.elapsed();
        shared.obs.histogram_record(names::SERVER_QUEUE_WAIT_US, wait.as_micros() as u64);
        // With slow-request capture on, tee a per-request memory sink in so
        // the complete span tree is at hand if the request turns out slow.
        let req_sink = capture_slow.then(MemorySink::new);
        let req_obs = match &req_sink {
            Some(sink) => ObsHandle::tee(vec![shared.obs.clone(), sink.handle()]),
            None => shared.obs.clone(),
        };
        // The worker's span stack is empty here, so the request span roots
        // a fresh trace; everything the request does nests under it.
        let mut span = req_obs.span_named(names::SERVER_REQUEST);
        if span.is_recording() {
            span.field("queue_wait_us", wait.as_micros() as u64);
        }
        let trace = span.ctx();
        // The request's recorder and deadline are in scope for all it runs;
        // both installs are guards, so a panic unwinds through them.
        let run = panic::catch_unwind(AssertUnwindSafe(|| {
            obs::with_recorder(req_obs.clone(), || {
                cancel::with_token(job.token.clone(), || execute(shared, &mut ws, &job, &mut span))
            })
        }));
        let response = run.unwrap_or_else(|_| {
            shared.obs.counter_add(names::SERVER_WORKER_PANICS, 1);
            proto::err_line(ErrKind::Internal, "the request panicked")
        });
        span.close();
        if let Some(sink) = req_sink {
            let latency_us = job.enqueued.elapsed().as_micros() as u64;
            if latency_us >= shared.config.slow_request_us {
                shared.slowlog.record(SlowEntry {
                    trace_id: trace.map(|c| c.trace_id).unwrap_or(0),
                    op: job.request.op().to_string(),
                    latency_us,
                    spans: sink.events(),
                    // Computed by the ring on capture, from the spans.
                    profile: Vec::new(),
                });
            }
        }
        // The connection thread may have vanished (client hung up); the
        // work is already done either way.
        let _ = job.reply.send(response);
    }
}

/// Answers one pooled request, with the request's recorder and cancel
/// token installed on this thread.
fn execute(
    shared: &Arc<Shared>,
    ws: &mut WorkerState,
    job: &Job,
    span: &mut rsky_core::obs::Span,
) -> String {
    if job.token.check().is_err() {
        shared.obs.counter_add(names::SERVER_TIMEOUT, 1);
        return proto::err_line(ErrKind::Timeout, "deadline elapsed while queued");
    }
    match &job.request {
        Request::Panic => panic!("test-only panic op"),
        Request::Sleep { ms } => {
            let until = job.enqueued + Duration::from_millis(*ms);
            while Instant::now() < until {
                if job.token.is_cancelled() {
                    shared.obs.counter_add(names::SERVER_TIMEOUT, 1);
                    return proto::err_line(ErrKind::Timeout, "deadline elapsed while sleeping");
                }
                std::thread::sleep(Duration::from_millis(1));
            }
            shared.obs.counter_add(names::SERVER_SERVED, 1);
            proto::ok_sleep(*ms)
        }
        Request::Query { engine, values, subset, top_k, .. } => {
            let version = shared.data.current();
            // Renders the answer, ranked by |RS(member)| when `top_k` asks:
            // the ranking runs through the tables this version already
            // serves.
            let finish = |ws: &mut WorkerState, ids: &[RecordId], cached: bool, elapsed_us| {
                let Some(k) = *top_k else {
                    shared.obs.counter_add(names::SERVER_SERVED, 1);
                    return proto::ok_query(engine, version.generation, ids, cached, elapsed_us);
                };
                let ranked =
                    rank_members_with(&version.dataset, subset.as_deref(), ids, k, |queries| {
                        ws.run_influence(&version, queries, false)
                    });
                match ranked {
                    Ok(ranked) => {
                        let ranked: Vec<(RecordId, usize)> =
                            ranked.into_iter().map(|r| (r.id, r.strength)).collect();
                        shared.obs.counter_add(names::SERVER_SERVED, 1);
                        proto::ok_query_ranked(
                            engine,
                            version.generation,
                            &ranked,
                            cached,
                            elapsed_us,
                        )
                    }
                    Err(e) => engine_error(shared, e),
                }
            };
            // A live materialized view doubles as a hot-query cache: when
            // one matches this key at exactly the current generation (the
            // equality check is what keeps a racing mutation from serving
            // a stale snapshot), answer in O(|RS(Q)|) without an engine.
            if let Some(ids) =
                shared.views.lookup(values, subset.as_deref(), version.generation)
            {
                shared.obs.counter_add(names::VIEW_CACHE_HIT, 1);
                if span.is_recording() {
                    span.field("view_hit", 1);
                }
                return finish(ws, &ids, true, 0);
            }
            let key = CacheKey {
                generation: version.generation,
                engine: engine.clone(),
                values: values.clone(),
                subset: subset.clone(),
                shard: shared.config.shard,
            };
            if let Some(ids) = shared.cache.get(&key) {
                shared.obs.counter_add(names::SERVER_CACHE_HIT, 1);
                if span.is_recording() {
                    span.field("cache_hit", 1);
                }
                return finish(ws, &ids, true, 0);
            }
            shared.obs.counter_add(names::SERVER_CACHE_MISS, 1);
            if span.is_recording() {
                span.field("cache_hit", 0);
            }
            let query = match &subset {
                Some(s) => Query::on_subset(&version.dataset.schema, values.clone(), s),
                None => Query::new(&version.dataset.schema, values.clone()),
            };
            let query = match query {
                Ok(q) => q,
                Err(e) => {
                    shared.obs.counter_add(names::SERVER_BAD_REQUEST, 1);
                    return proto::err_line(ErrKind::BadRequest, &e.to_string());
                }
            };
            let t0 = Instant::now();
            match ws.run_query(&version, engine, shared.config.engine_threads, &query) {
                Ok(run) => {
                    shared.cache.insert(key, run.ids.clone());
                    finish(ws, &run.ids, false, t0.elapsed().as_micros())
                }
                Err(e) => engine_error(shared, e),
            }
        }
        Request::Influence { queries, seed, top, .. } => {
            let version = shared.data.current();
            let mut rng = StdRng::seed_from_u64(*seed);
            let workload =
                match rsky_data::random_queries(&version.dataset.schema, *queries, &mut rng) {
                    Ok(w) => w,
                    Err(e) => {
                        shared.obs.counter_add(names::SERVER_BAD_REQUEST, 1);
                        return proto::err_line(ErrKind::BadRequest, &e.to_string());
                    }
                };
            // When every workload query has a live view at this generation,
            // the ranking is a counting exercise — no engine runs at all.
            if let Some(cards) =
                shared.views.influence_cardinalities(&workload, version.generation)
            {
                let mut order: Vec<usize> = (0..cards.len()).collect();
                order.sort_by_key(|&i| std::cmp::Reverse(cards[i]));
                let ranking: Vec<(usize, usize)> =
                    order.into_iter().take(*top).map(|qi| (qi, cards[qi])).collect();
                shared.obs.counter_add(names::VIEW_CACHE_HIT, 1);
                shared.obs.counter_add(names::SERVER_SERVED, 1);
                if span.is_recording() {
                    span.field("view_hit", 1);
                }
                return proto::ok_influence(version.generation, &ranking, 0);
            }
            let t0 = Instant::now();
            match ws.run_influence(&version, &workload, false) {
                Ok(report) => {
                    let ranking: Vec<(usize, usize)> = report
                        .ranking()
                        .into_iter()
                        .take(*top)
                        .map(|qi| (qi, report.per_query[qi].cardinality))
                        .collect();
                    shared.obs.counter_add(names::SERVER_SERVED, 1);
                    proto::ok_influence(version.generation, &ranking, t0.elapsed().as_micros())
                }
                Err(e) => engine_error(shared, e),
            }
        }
        other => {
            shared.obs.counter_add(names::SERVER_BAD_REQUEST, 1);
            proto::err_line(ErrKind::Internal, &format!("op {:?} is not pooled", other.op()))
        }
    }
}

/// Maps an engine/storage error to a wire error, counting it.
fn engine_error(shared: &Shared, e: Error) -> String {
    match e {
        Error::Cancelled(reason) => {
            shared.obs.counter_add(names::SERVER_TIMEOUT, 1);
            proto::err_line(ErrKind::Timeout, reason)
        }
        Error::SchemaMismatch(_) | Error::ValueOutOfDomain { .. } | Error::InvalidConfig(_) => {
            shared.obs.counter_add(names::SERVER_BAD_REQUEST, 1);
            proto::err_line(ErrKind::BadRequest, &e.to_string())
        }
        other => proto::err_line(ErrKind::Internal, &other.to_string()),
    }
}
