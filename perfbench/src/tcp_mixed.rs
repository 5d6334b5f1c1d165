//! `tcp-mixed`: an in-process server (one node, result cache off, two
//! workers) under a closed loop of two connections, each waiting for its
//! answer before it sends again. Reads are `trs` queries from a fixed pool;
//! one op in ten is a write — an insert of a fresh id or an expire of an id
//! the same connection inserted — which keeps n near its start. A
//! subscription on a query outside the pool keeps view maintenance on the
//! write path. This is the only workload that runs the wire path (parse,
//! admission queue, serialize) and the write path (copy-on-write data
//! state, view maintenance, each worker's reload and re-sort on its first
//! read after a write).
//!
//! Set-up is timed once before the window and once more in each of the
//! window's pauses: the window runs in segments, and between two of them
//! a second server is set up and stopped while the measured one idles.
//! Set-up samples then spread over the window as the ops' do.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rsky_algos::prep::{load_dataset, prepare_table, Layout};
use rsky_algos::{engine_by_name, EngineCtx};
use rsky_core::dataset::Dataset;
use rsky_core::error::Error;
use rsky_core::query::Query;
use rsky_core::record::RecordId;
use rsky_core::schema::Schema;
use rsky_server::json::{self, JsonValue};
use rsky_server::{Client, Server, ServerConfig, ServerHandle};
use rsky_storage::{Disk, MemoryBudget};

use crate::check::{check_ids, Mutation, MutationLog};
use crate::costs::Costs;
use crate::report::Outcome;
use crate::stats::{mean, median, quantile, ratio};
use crate::trace::{fold, SpanId, Tracer, OP};
use crate::{Config, DATA_SEED};

const ROWS: usize = 10_000;
const ATTRS: usize = 5;
const VALUES: u32 = 50;
const POOL: usize = 40;
const WORKERS: usize = 2;
const CONNS: usize = 2;
/// Op `k` of a connection is a write when `k % WRITE_EVERY` is the last slot.
const WRITE_EVERY: u64 = 10;
/// Every `CHECK_EVERY`-th read of a connection is re-run in-process.
const CHECK_EVERY: usize = 32;
/// The window runs in this many segments, with a timed set-up between two.
const SEGMENTS: u32 = 16;
/// Ids the connections insert: far above the dataset's own, one range each.
const ID_BASE: u32 = 1 << 24;
const ID_STRIDE: u32 = 1 << 28;
/// A client gives up on a reply after this long rather than hang.
const REPLY_TIMEOUT: Duration = Duration::from_secs(30);

fn server_config() -> ServerConfig {
    ServerConfig {
        workers: WORKERS,
        engine_threads: 1,
        cache_cap: 0,
        ..ServerConfig::default()
    }
}

fn read_request(values: &[u32]) -> String {
    format!("{{\"op\":\"query\",\"engine\":\"trs\",\"values\":{values:?}}}")
}

/// Parses a reply and refuses one that is not `ok`.
fn ok_reply(line: &str) -> Result<JsonValue, String> {
    let v = json::parse(line).map_err(|e| format!("unparsable reply ({e}): {line}"))?;
    if v.get("ok").and_then(JsonValue::as_bool) != Some(true) {
        return Err(format!("refused: {line}"));
    }
    Ok(v)
}

fn field(v: &JsonValue, key: &str) -> Result<u64, String> {
    v.get(key)
        .and_then(JsonValue::as_u64)
        .ok_or(format!("reply has no {key}"))
}

/// A running server with its set-up connections.
struct Running {
    clients: Vec<Client>,
    subscriber: Client,
    handle: ServerHandle,
}

impl Running {
    fn stop(self) {
        drop(self.clients);
        drop(self.subscriber);
        self.handle.shutdown();
        self.handle.join();
    }
}

/// `Server::start`, one warm-up read per worker (sent from both
/// connections at once, so each worker takes one) and the subscription.
fn start(ds: &Dataset, warmups: &[Vec<u32>], watched: &[u32]) -> Result<Running, String> {
    let handle = Server::start(server_config(), ds.clone()).map_err(|e| e.to_string())?;
    let addr = handle.local_addr();
    let connect = || -> Result<Client, String> {
        let c = Client::connect(addr).map_err(|e| e.to_string())?;
        c.set_timeout(REPLY_TIMEOUT).map_err(|e| e.to_string())?;
        Ok(c)
    };
    let mut clients = (0..CONNS)
        .map(|_| connect())
        .collect::<Result<Vec<_>, _>>()?;
    std::thread::scope(|s| {
        let warmups: Vec<_> = clients
            .iter_mut()
            .zip(warmups)
            .map(|(c, q)| s.spawn(move || c.send(&read_request(q)).map_err(|e| e.to_string())))
            .collect();
        warmups
            .into_iter()
            .try_for_each(|h| ok_reply(&h.join().expect("warm-up thread panicked")?).map(drop))
    })?;
    let mut subscriber = connect()?;
    let ack = subscriber
        .send(&format!(
            "{{\"op\":\"subscribe\",\"engine\":\"trs\",\"values\":{watched:?}}}"
        ))
        .map_err(|e| e.to_string())?;
    ok_reply(&ack)?;
    Ok(Running {
        clients,
        subscriber,
        handle,
    })
}

/// One timed set-up.
fn timed_start(
    ds: &Dataset,
    warmups: &[Vec<u32>],
    watched: &[u32],
    setup: &mut Vec<f64>,
) -> Result<Running, String> {
    let t = Instant::now();
    let running = start(ds, warmups, watched)?;
    setup.push(t.elapsed().as_secs_f64());
    Ok(running)
}

/// Counters and histogram (count, sum) pairs from the `metrics` op.
struct Snapshot {
    counters: BTreeMap<String, u64>,
    hists: BTreeMap<String, (u64, u64)>,
}

impl Snapshot {
    fn take(ctl: &mut Client) -> Result<Self, String> {
        let v = ok_reply(&ctl.send(r#"{"op":"metrics"}"#).map_err(|e| e.to_string())?)?;
        let section = |key: &str| match v.get("metrics").and_then(|m| m.get(key)) {
            Some(JsonValue::Obj(map)) => Ok(map.clone()),
            _ => Err(format!("metrics reply has no {key}")),
        };
        let counters = section("counters")?
            .into_iter()
            .filter_map(|(k, v)| Some((k, v.as_u64()?)))
            .collect();
        let hists = section("histograms")?
            .into_iter()
            .filter_map(|(k, h)| Some((k, (h.get("count")?.as_u64()?, h.get("sum")?.as_u64()?))))
            .collect();
        Ok(Self { counters, hists })
    }

    fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// Counter growth since `before`.
    fn grew(&self, before: &Snapshot, name: &str) -> f64 {
        self.counter(name).saturating_sub(before.counter(name)) as f64
    }

    /// Mean of a histogram's observations since `before`, and their number.
    fn mean_since(&self, before: &Snapshot, name: &str) -> (f64, usize) {
        let (c1, s1) = self.hists.get(name).copied().unwrap_or_default();
        let (c0, s0) = before.hists.get(name).copied().unwrap_or_default();
        let n = c1.saturating_sub(c0);
        (ratio(s1.saturating_sub(s0) as f64, n as f64), n as usize)
    }
}

/// One read as its connection saw it.
struct Read {
    ms: f64,
    traced: bool,
    engine_us: f64,
    bytes: usize,
    generation: u64,
    query: usize,
    /// Kept for the in-process re-run on every `CHECK_EVERY`-th read.
    ids: Option<Vec<RecordId>>,
}

/// What one connection did in the measuring window.
struct Conn {
    reads: Vec<Read>,
    write_ms: Vec<f64>,
    log: Vec<(u64, Mutation)>,
    failures: Vec<String>,
    tracer: Tracer,
}

/// Sends one request inside an op span and its `server` child span.
fn traced_send(
    c: &mut Conn,
    client: &mut Client,
    req: &str,
    op: u64,
) -> (Result<String, String>, f64, SpanId) {
    let t0 = Instant::now();
    let root = c.tracer.open(OP, SpanId::ROOT, op);
    let span = c.tracer.open("server", root, op);
    let reply = client.send(req).map_err(|e| e.to_string());
    c.tracer.close(span);
    c.tracer.close(root);
    (reply, t0.elapsed().as_secs_f64() * 1e3, span)
}

/// The closed loop of one connection, kept across the window's segments.
struct Caller<'a> {
    conn: usize,
    client: Client,
    pool: &'a [Vec<u32>],
    schema: &'a Schema,
    rng: StdRng,
    /// Ids this connection inserted and has not expired.
    live: Vec<RecordId>,
    next_id: RecordId,
    /// Ops sent so far.
    k: u64,
    traced: bool,
    /// Set when the connection failed; it sends nothing more.
    broken: bool,
    c: Conn,
}

impl<'a> Caller<'a> {
    fn new(
        conn: usize,
        client: Client,
        (pool, schema): (&'a [Vec<u32>], &'a Schema),
        seed: u64,
        traced: bool,
        epoch: Instant,
    ) -> Self {
        let rng = StdRng::seed_from_u64(
            seed.wrapping_mul(0x9e37_79b9_7f4a_7c15)
                .wrapping_add(conn as u64 + 1),
        );
        Self {
            conn,
            client,
            pool,
            schema,
            rng,
            live: Vec::new(),
            next_id: ID_BASE + conn as u32 * ID_STRIDE,
            k: 0,
            traced,
            broken: false,
            c: Conn {
                reads: Vec::new(),
                write_ms: Vec::new(),
                log: Vec::new(),
                failures: Vec::new(),
                tracer: Tracer::new(traced, epoch),
            },
        }
    }

    /// Runs the closed loop until `until`.
    fn run_until(&mut self, until: Instant) {
        while !self.broken && Instant::now() < until {
            let op = ((self.conn as u64) << 40) | self.k;
            // Ops are traced in pairs, so that both reads and writes (every
            // tenth op) alternate between traced and untraced.
            self.c.tracer.set_on(self.traced && self.k % 4 < 2);
            if self.k % WRITE_EVERY == WRITE_EVERY - 1 {
                self.write(op);
            } else {
                self.read(op);
            }
            self.k += 1;
        }
    }

    fn write(&mut self, op: u64) {
        let conn = self.conn;
        let m = if self.live.is_empty() || self.rng.gen_bool(0.5) {
            self.next_id += 1;
            let row = rsky_data::synthetic::normal_rows(self.schema, 1, &mut self.rng);
            Mutation::Insert {
                id: self.next_id,
                values: row.values(0).to_vec(),
            }
        } else {
            let at = self.rng.gen_range(0..self.live.len());
            Mutation::Expire {
                id: self.live.swap_remove(at),
            }
        };
        let req = match &m {
            Mutation::Insert { id, values } => {
                format!("{{\"op\":\"insert\",\"id\":{id},\"values\":{values:?}}}")
            }
            Mutation::Expire { id } => format!("{{\"op\":\"expire\",\"id\":{id}}}"),
        };
        let (reply, ms, _) = traced_send(&mut self.c, &mut self.client, &req, op);
        self.broken = reply.is_err();
        match reply
            .and_then(|r| ok_reply(&r))
            .and_then(|v| field(&v, "generation"))
        {
            Ok(g) => {
                if let Mutation::Insert { id, .. } = &m {
                    self.live.push(*id);
                }
                self.c.log.push((g, m));
                self.c.write_ms.push(ms);
            }
            Err(e) => {
                self.c
                    .failures
                    .push(format!("connection {conn} write: {e}"));
                self.c.write_ms.push(f64::INFINITY);
            }
        }
    }

    fn read(&mut self, op: u64) {
        let conn = self.conn;
        let query = self.rng.gen_range(0..self.pool.len());
        let req = read_request(&self.pool[query]);
        let (reply, ms, span) = traced_send(&mut self.c, &mut self.client, &req, op);
        self.broken = reply.is_err();
        let bytes = reply.as_ref().map_or(0, String::len);
        let parsed = reply.and_then(|r| ok_reply(&r)).and_then(|v| {
            if v.get("cached").and_then(JsonValue::as_bool) != Some(false) {
                return Err("a read was answered from the cache, not the engine".to_string());
            }
            let ids = v
                .get("ids")
                .and_then(JsonValue::as_u32_list)
                .ok_or("reply has no ids")?;
            Ok((field(&v, "generation")?, field(&v, "elapsed_us")?, ids))
        });
        let c = &mut self.c;
        match parsed {
            Ok((generation, elapsed_us, ids)) => {
                c.tracer
                    .derived("server::worker", span, Duration::from_micros(elapsed_us));
                let keep = c.reads.len().is_multiple_of(CHECK_EVERY);
                c.reads.push(Read {
                    ms,
                    traced: c.tracer.is_on(),
                    engine_us: elapsed_us as f64,
                    bytes,
                    generation,
                    query,
                    ids: keep.then_some(ids),
                });
            }
            Err(e) => {
                c.failures.push(format!("connection {conn} read: {e}"));
                c.reads.push(Read {
                    ms: f64::INFINITY,
                    traced: false,
                    engine_us: 0.0,
                    bytes,
                    generation: 0,
                    query,
                    ids: None,
                });
            }
        }
    }
}

/// Reads the subscription's delta frames until `stop`, so its socket never
/// fills; returns how many arrived.
fn follow(mut sub: Client, stop: &AtomicBool) -> Result<u64, String> {
    sub.set_timeout(Duration::from_millis(100))
        .map_err(|e| e.to_string())?;
    let mut frames = 0;
    loop {
        match sub.read_line() {
            Ok(_) => frames += 1,
            Err(e)
                if matches!(
                    e.kind(),
                    std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                ) =>
            {
                if stop.load(Ordering::SeqCst) {
                    return Ok(frames);
                }
            }
            Err(e) => return Err(format!("subscription: {e}")),
        }
    }
}

/// What the in-process re-run of the sampled reads measured.
#[derive(Default)]
struct Replayed {
    costs: Costs,
    reprep_ms: Vec<f64>,
    /// Totals of the `prepare_table` part of the re-preps.
    sort_ms: f64,
    sort_runs: usize,
    merge_passes: usize,
    sort_pages: u64,
    /// Engine time of each (generation, query) re-run, in µs.
    run_us: BTreeMap<(u64, usize), f64>,
    reads: usize,
}

/// Re-runs every sampled read with `trs` on the dataset at the read's
/// generation, rebuilt from the acknowledged writes; a wrong answer fails.
fn replay_check(
    ds: &Dataset,
    log: &MutationLog,
    pool: &[Vec<u32>],
    reads: &[&Read],
    out: &mut Outcome,
) -> Result<Replayed, String> {
    let err = |e: Error| e.to_string();
    let mut by_generation: BTreeMap<u64, BTreeMap<usize, Vec<&[RecordId]>>> = BTreeMap::new();
    for r in reads {
        if let Some(ids) = &r.ids {
            by_generation
                .entry(r.generation)
                .or_default()
                .entry(r.query)
                .or_default()
                .push(ids);
        }
    }
    let mut replay = log.replay(ds.rows.clone());
    let mut done = Replayed::default();
    for (generation, queries) in by_generation {
        let rows = replay.advance_to(generation)?.clone();
        let served = Dataset {
            schema: ds.schema.clone(),
            dissim: ds.dissim.clone(),
            rows,
            label: ds.label.clone(),
        };
        let config = server_config();
        let t = Instant::now();
        let mut disk = Disk::new_mem(config.page);
        let raw = load_dataset(&mut disk, &served).map_err(err)?;
        let budget = MemoryBudget::from_percent(served.data_bytes(), config.mem_pct, config.page)
            .map_err(err)?;
        let table = prepare_table(&mut disk, &served.schema, &raw, Layout::MultiSort, &budget)
            .map_err(err)?;
        done.reprep_ms.push(t.elapsed().as_secs_f64() * 1e3);
        let (runs, passes) = table.sort_outcome.unwrap_or_default();
        done.sort_ms += table.prep_time.as_secs_f64() * 1e3;
        done.sort_runs += runs;
        done.merge_passes += passes;
        done.sort_pages += table.prep_io.total();
        for (qi, answers) in queries {
            let query = Query::new(&served.schema, pool[qi].clone()).map_err(err)?;
            let t = Instant::now();
            let algo = engine_by_name("trs", &served.schema, 1).map_err(err)?;
            let mut ctx = EngineCtx {
                disk: &mut disk,
                schema: &served.schema,
                dissim: &served.dissim,
                budget,
            };
            let run = algo.run(&mut ctx, &table.file, &query).map_err(err)?;
            done.run_us
                .insert((generation, qi), t.elapsed().as_secs_f64() * 1e6);
            done.costs.add(&run.stats);
            for got in answers {
                done.reads += 1;
                if let Err(e) = check_ids(&run.ids, got) {
                    out.fail(format!(
                        "read of query {qi} at generation {generation}: {e}"
                    ));
                }
            }
        }
    }
    Ok(done)
}

pub fn run(cfg: &Config) -> Result<Outcome, String> {
    let err = |e: Error| e.to_string();
    let mut out = Outcome::new("tcp-mixed");
    out.sizes = format!(
        "n={ROWS} attrs={ATTRS} values={VALUES} workers={WORKERS} connections={CONNS} pool={POOL} \
         writes=1/{WRITE_EVERY} cache=off check=1/{CHECK_EVERY} reads segments={SEGMENTS}"
    );
    let mut data_rng = StdRng::seed_from_u64(DATA_SEED);
    let ds =
        rsky_data::synthetic::normal_dataset(ATTRS, VALUES, ROWS, &mut data_rng).map_err(err)?;
    // The set-up's queries are part of the workload, as the dataset is: the
    // same on every seed, so that set-up does the same work.
    let mut fixed: Vec<Vec<u32>> =
        rsky_data::random_queries(&ds.schema, WORKERS + 1, &mut data_rng)
            .map_err(err)?
            .into_iter()
            .map(|q| q.values)
            .collect();
    let watched = fixed.pop().expect("WORKERS + 1 queries");
    let warmups = fixed;
    // The read pool comes from the seed and never holds the watched query.
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let mut pool: Vec<Vec<u32>> = Vec::with_capacity(POOL);
    while pool.len() < POOL {
        let q = rsky_data::random_queries(&ds.schema, 1, &mut rng)
            .map_err(err)?
            .remove(0)
            .values;
        if q != watched {
            pool.push(q);
        }
    }

    let mut setup = Vec::new();
    let Running {
        clients,
        subscriber,
        handle,
    } = timed_start(&ds, &warmups, &watched, &mut setup)?;
    let mut ctl = Client::connect(handle.local_addr()).map_err(|e| e.to_string())?;
    ctl.set_timeout(REPLY_TIMEOUT).map_err(|e| e.to_string())?;

    let before = Snapshot::take(&mut ctl)?;
    let stop = AtomicBool::new(false);
    let epoch = Instant::now();
    let callers: Vec<Caller> = clients
        .into_iter()
        .enumerate()
        .map(|(i, client)| Caller::new(i, client, (&pool, &ds.schema), cfg.seed, cfg.traced, epoch))
        .collect();
    // Time the connections spent in their loops and the peak memory while
    // they ran: over the segments, not the set-ups between them (a spare
    // server's memory would count on top of the measured one's).
    let mut wall = Duration::ZERO;
    let mut peak_mb: f64 = 0.0;
    let mut watermark_reset = true;
    let (callers, frames, paused) = std::thread::scope(|s| {
        let follower = s.spawn(|| follow(subscriber, &stop));
        let mut callers = callers;
        let mut paused = Ok(());
        for segment in 1..=SEGMENTS {
            watermark_reset &= crate::host::reset_peak_rss();
            let t = Instant::now();
            let until = epoch + cfg.seconds * segment / SEGMENTS;
            let loops: Vec<_> = callers
                .into_iter()
                .map(|mut d| {
                    s.spawn(move || {
                        d.run_until(until);
                        d
                    })
                })
                .collect();
            callers = loops
                .into_iter()
                .map(|h| h.join().expect("client thread panicked"))
                .collect();
            wall += t.elapsed();
            peak_mb = peak_mb.max(crate::host::peak_rss_mb().unwrap_or(f64::NAN));
            if segment < SEGMENTS {
                match timed_start(&ds, &warmups, &watched, &mut setup) {
                    Ok(spare) => spare.stop(),
                    Err(e) => {
                        paused = Err(e);
                        break;
                    }
                }
            }
        }
        stop.store(true, Ordering::SeqCst);
        (
            callers,
            follower.join().expect("subscription thread panicked"),
            paused,
        )
    });
    paused?;
    out.set("setup_s", median(&setup), setup.len());
    out.set("peak_rss_mb", peak_mb, SEGMENTS as usize);
    if !watermark_reset {
        out.notes.push(
            "peak_rss_mb includes the spare set-ups (the kernel refused a watermark reset)".into(),
        );
    }
    let after = Snapshot::take(&mut ctl)?;
    drop(ctl);
    // Keeps what each connection recorded and closes its socket.
    let conns: Vec<Conn> = callers.into_iter().map(|d| d.c).collect();
    handle.shutdown();
    handle.join();

    let mut tracer = Tracer::new(cfg.traced, epoch);
    let mut reads: Vec<Read> = Vec::new();
    let mut write_ms = Vec::new();
    let mut log = Vec::new();
    for c in conns {
        for f in c.failures {
            out.fail(f);
        }
        reads.extend(c.reads);
        write_ms.extend(c.write_ms);
        log.extend(c.log);
        tracer.absorb(c.tracer);
    }
    out.attempted = (reads.len() + write_ms.len()) as u64;
    match frames {
        Ok(n) => out.notes.push(format!("subscription: {n} delta frames")),
        Err(e) => out.problem(e),
    }

    let read_ms: Vec<f64> = reads.iter().map(|r| r.ms).collect();
    out.set("trs_ms", mean(&read_ms), read_ms.len());
    out.set("query_p50_ms", quantile(&read_ms, 0.5), read_ms.len());
    out.set("query_p90_ms", quantile(&read_ms, 0.9), read_ms.len());
    out.set("write_p50_ms", median(&write_ms), write_ms.len());
    let completed = read_ms
        .iter()
        .chain(&write_ms)
        .filter(|ms| ms.is_finite())
        .count();
    out.set(
        "ops_per_s",
        completed as f64 / wall.as_secs_f64(),
        completed,
    );

    let served: Vec<&Read> = reads.iter().filter(|r| r.ms.is_finite()).collect();
    let overhead: Vec<f64> = served.iter().map(|r| r.ms * 1e3 - r.engine_us).collect();
    let engine: Vec<f64> = served.iter().map(|r| r.engine_us).collect();
    let bytes: Vec<f64> = served.iter().map(|r| r.bytes as f64).collect();
    out.set("server.overhead_us", mean(&overhead), served.len());
    out.set("server.engine_us", mean(&engine), served.len());
    out.set("server.response_bytes", mean(&bytes), served.len());
    for (metric, hist) in [
        ("server.queue_wait_us", "server.queue.wait_us"),
        ("server.request_us", "server.request.wall_us"),
        ("view.delta_us", "view.delta.wall_us"),
    ] {
        let (m, n) = after.mean_since(&before, hist);
        out.set(metric, m, n);
    }
    for (metric, counter) in [
        ("server.shed", "server.shed"),
        ("server.timeout", "server.timeout"),
        ("server.bad_request", "server.bad_request"),
        ("view.delta_add", "view.delta.add"),
        ("view.delta_remove", "view.delta.remove"),
        ("view.fallback", "view.fallback"),
    ] {
        out.set(metric, after.grew(&before, counter), 1);
    }
    // The subscribed query is never read, so no read may hit the view.
    let view_hits = after.counter("view.cache.hit");
    out.set("view.cache_hit", view_hits as f64, 1);
    if view_hits > 0 {
        out.problem(format!(
            "{view_hits} reads were answered from the view, not the engine"
        ));
    }
    out.set("state.writes", log.len() as f64, 1);

    let log = MutationLog::ordered(1, log)?;
    let replayed = replay_check(&ds, &log, &pool, &served, &mut out)?;
    out.notes.push(format!(
        "answer check: {} sampled reads re-run in-process at {} generations, rebuilt from {} acknowledged writes",
        replayed.reads,
        replayed.reprep_ms.len(),
        log.len()
    ));
    out.set(
        "state.reprep_ms",
        mean(&replayed.reprep_ms),
        replayed.reprep_ms.len(),
    );
    let sorts = replayed.reprep_ms.len();
    let per_sort = |total: f64| ratio(total, sorts as f64);
    out.set("prep.sort_ms", per_sort(replayed.sort_ms), sorts);
    out.set("prep.sort_runs", per_sort(replayed.sort_runs as f64), sorts);
    out.set(
        "prep.merge_passes",
        per_sort(replayed.merge_passes as f64),
        sorts,
    );
    out.set(
        "prep.sort_pages",
        per_sort(replayed.sort_pages as f64),
        sorts,
    );
    let run_ms: Vec<f64> = replayed.run_us.values().map(|us| us / 1e3).collect();
    out.set("trs.run_ms", mean(&run_ms), run_ms.len());
    replayed.costs.record(&mut out, "trs");
    out.notes
        .push(replayed.costs.note("trs (in-process re-run)"));

    // How the metrics interact: the server's own share of a read, and
    // where the two cut points sit against the re-sort mode.
    let read_mean_us = mean(&served.iter().map(|r| r.ms * 1e3).collect::<Vec<_>>());
    out.notes.push(format!(
        "server share: server.overhead_us {:.0} us of a {:.2} ms read ({:.1}%), so a server-layer change reads on \
         server.overhead_us, not on query_*",
        mean(&overhead),
        read_mean_us / 1e3,
        ratio(mean(&overhead), read_mean_us) * 100.0
    ));
    // A sampled read re-sorted on its worker when the worker took longer
    // than the in-process run of the same query at the same generation by
    // more than half a re-prep. Which reads do so near each cut point tells
    // whether the cut point is inside, outside or on the edge of that mode.
    let expected = ratio((WORKERS * log.len()) as f64, served.len() as f64).min(1.0);
    let half_reprep_us = mean(&replayed.reprep_ms) * 1e3 / 2.0;
    let sampled: Vec<(f64, bool)> = served
        .iter()
        .filter(|r| r.ids.is_some())
        .filter_map(|r| {
            let run_us = replayed.run_us.get(&(r.generation, r.query))?;
            Some((r.ms, r.engine_us - run_us > half_reprep_us))
        })
        .collect();
    let resorted_share = |lo: f64, hi: f64| {
        let (from, to) = (quantile(&read_ms, lo), quantile(&read_ms, hi));
        let near: Vec<bool> = sampled
            .iter()
            .filter(|(ms, _)| (from..=to).contains(ms))
            .map(|s| s.1)
            .collect();
        (
            ratio(
                near.iter().filter(|&&x| x).count() as f64,
                near.len() as f64,
            ) * 100.0,
            near.len(),
        )
    };
    let all = resorted_share(0.0, 1.0);
    let (at_p50, at_p90) = (resorted_share(0.45, 0.55), resorted_share(0.85, 0.95));
    out.notes.push(format!(
        "re-sort mode: {:.1}% of {} sampled reads re-sorted (expected {:.1}% = {WORKERS} workers × writes ÷ reads); \
         of the reads between p45 and p55, {:.0}% re-sorted (n={}); between p85 and p95, {:.0}% (n={})",
        all.0,
        all.1,
        expected * 100.0,
        at_p50.0,
        at_p50.1,
        at_p90.0,
        at_p90.1
    ));
    let q = |p: f64| quantile(&read_ms, p);
    out.notes.push(format!(
        "read latency ms: p10 {:.2} p25 {:.2} p50 {:.2} p75 {:.2} p80 {:.2} p90 {:.2} p95 {:.2} p99 {:.2}",
        q(0.1),
        q(0.25),
        q(0.5),
        q(0.75),
        q(0.8),
        q(0.9),
        q(0.95),
        q(0.99)
    ));

    if cfg.traced {
        let f = fold(tracer.spans());
        let on: Vec<f64> = reads.iter().filter(|r| r.traced).map(|r| r.ms).collect();
        let off: Vec<f64> = reads.iter().filter(|r| !r.traced).map(|r| r.ms).collect();
        let overhead_pct = (median(&on) / median(&off) - 1.0) * 100.0;
        crate::finish_trace(&mut out, cfg, &tracer, &f, overhead_pct);
    }
    Ok(out)
}
