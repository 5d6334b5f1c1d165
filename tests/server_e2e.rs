//! End-to-end tests of the serving subsystem over real TCP sockets.
//!
//! Each test binds an ephemeral port, talks the newline-delimited JSON
//! protocol through `rsky::server::Client`, and checks one acceptance
//! property of the serving layer:
//!
//! * concurrent clients receive exactly the ids a direct `engine_by_name`
//!   run produces;
//! * a full admission queue sheds with `overloaded` while admitted work
//!   still completes;
//! * a sub-deadline request times out without harming the server;
//! * graceful shutdown drains in-flight requests and the metrics registry
//!   stays consistent with observed responses;
//! * a request line longer than `MAX_LINE_BYTES` is rejected and its
//!   connection closed;
//! * a request that panics on its worker is answered `internal` and the
//!   pool keeps every worker;
//! * a client that stops reading its replies cannot wedge the shutdown
//!   drain: its connection's writes time out.

use std::time::Duration;

use rand::rngs::StdRng;
use rand::SeedableRng;
use rsky::prelude::*;
use rsky::server::json::{self, JsonValue};
use rsky::server::server::{resolve_threads, MAX_LINE_BYTES};
use rsky::server::{Client, Server, ServerConfig};

const ENGINES: [&str; 7] = ["naive", "brs", "srs", "trs", "trs-bf", "tsrs", "ttrs"];

fn small_dataset(seed: u64, n: usize) -> Dataset {
    let mut rng = StdRng::seed_from_u64(seed);
    rsky::data::synthetic::normal_dataset(3, 6, n, &mut rng).unwrap()
}

fn test_config() -> ServerConfig {
    ServerConfig { addr: "127.0.0.1:0".into(), ..ServerConfig::default() }
}

/// Ground truth: one direct engine run through the same factory the server
/// uses, on a private disk.
fn direct_ids(ds: &Dataset, engine: &str, values: &[u32]) -> Vec<u32> {
    let q = Query::new(&ds.schema, values.to_vec()).unwrap();
    let mut disk = Disk::new_mem(4096);
    let raw = load_dataset(&mut disk, ds).unwrap();
    let budget = MemoryBudget::from_percent(ds.data_bytes(), 10.0, 4096).unwrap();
    let layout = match engine {
        "naive" | "brs" => Layout::Original,
        "srs" | "trs" => Layout::MultiSort,
        _ => Layout::Tiled { tiles_per_attr: 4 },
    };
    let prepared = prepare_table(&mut disk, &ds.schema, &raw, layout, &budget).unwrap();
    let algo = engine_by_name(engine, &ds.schema, 1).unwrap();
    let mut ctx = EngineCtx { disk: &mut disk, schema: &ds.schema, dissim: &ds.dissim, budget };
    algo.run(&mut ctx, &prepared.file, &q).unwrap().ids
}

fn query_line(engine: &str, values: &[u32]) -> String {
    let vals: Vec<String> = values.iter().map(|v| v.to_string()).collect();
    format!(r#"{{"op":"query","engine":"{engine}","values":[{}]}}"#, vals.join(","))
}

fn parsed(line: &str) -> JsonValue {
    json::parse(line).unwrap_or_else(|e| panic!("bad response {line:?}: {e}"))
}

fn ids_of(line: &str) -> Vec<u32> {
    parsed(line)
        .get("ids")
        .and_then(JsonValue::as_u32_list)
        .unwrap_or_else(|| panic!("no ids in {line}"))
}

fn is_ok(line: &str) -> bool {
    parsed(line).get("ok") == Some(&JsonValue::Bool(true))
}

fn error_kind(line: &str) -> String {
    parsed(line).get("error").and_then(JsonValue::as_str).unwrap_or("").to_string()
}

/// Acceptance (a): eight concurrent clients, mixed engines, every response
/// identical to a direct engine run on the same query.
#[test]
fn concurrent_clients_match_direct_engine_runs() {
    let ds = small_dataset(9001, 300);
    let mut rng = StdRng::seed_from_u64(77);
    let queries = rsky::data::random_queries(&ds.schema, 8, &mut rng).unwrap();
    let expected: Vec<(String, Vec<u32>, Vec<u32>)> = queries
        .iter()
        .enumerate()
        .map(|(i, q)| {
            let engine = ENGINES[i % ENGINES.len()];
            (engine.to_string(), q.values.clone(), direct_ids(&ds, engine, &q.values))
        })
        .collect();

    let handle =
        Server::start(ServerConfig { workers: 4, ..test_config() }, ds.clone()).unwrap();
    let addr = handle.local_addr();

    let results: Vec<(usize, Vec<u32>)> = std::thread::scope(|scope| {
        let handles: Vec<_> = expected
            .iter()
            .enumerate()
            .map(|(i, (engine, values, _))| {
                scope.spawn(move || {
                    let mut client = Client::connect(addr).unwrap();
                    client.set_timeout(Duration::from_secs(60)).unwrap();
                    let reply = client.send(&query_line(engine, values)).unwrap();
                    assert!(is_ok(&reply), "client {i}: {reply}");
                    (i, ids_of(&reply))
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("client thread")).collect()
    });
    for (i, ids) in results {
        let (engine, _, expect) = &expected[i];
        assert_eq!(&ids, expect, "client {i} ({engine}) diverged from the direct run");
    }

    // Influence over the wire matches the library entry point.
    let report =
        rsky::algos::run_influence_parallel(&ds, &queries, 10.0, 4096, 1, false).unwrap();
    let mut client = Client::connect(addr).unwrap();
    client.set_timeout(Duration::from_secs(60)).unwrap();
    let reply = client
        .send(r#"{"op":"influence","queries":8,"seed":77,"top":3}"#)
        .unwrap();
    assert!(is_ok(&reply), "{reply}");
    let ranking = parsed(&reply);
    let ranking = ranking.get("ranking").and_then(JsonValue::as_arr).expect("ranking array");
    let expect_rank: Vec<usize> = report.ranking().into_iter().take(3).collect();
    let got_rank: Vec<usize> = ranking
        .iter()
        .map(|e| e.get("query").and_then(JsonValue::as_u64).unwrap() as usize)
        .collect();
    assert_eq!(got_rank, expect_rank, "served influence ranking diverged: {reply}");

    handle.shutdown();
    handle.join();
}

/// `top_k` ranks RS(Q) by |RS(member)| through the tables the server
/// already serves, at its own memory knob and page size, whole or sharded,
/// fresh or from the result cache: the served `(id, strength)` pairs are
/// exactly `rank_members` over the same rows.
#[test]
fn ranked_queries_match_rank_members_at_the_servers_settings() {
    let ds = small_dataset(9002, 250);
    let mut rng = StdRng::seed_from_u64(78);
    let queries = rsky::data::random_queries(&ds.schema, 3, &mut rng).unwrap();
    let sharded = ShardSpec::new(2, ShardPolicy::RoundRobin).unwrap();
    let mut ranked_entries = 0;
    for shard in [None, Some(sharded)] {
        let config = ServerConfig { mem_pct: 3.0, page: 256, shard, ..test_config() };
        let handle = Server::start(config, ds.clone()).unwrap();
        let mut client = Client::connect(handle.local_addr()).unwrap();
        client.set_timeout(Duration::from_secs(60)).unwrap();
        for q in &queries {
            let members = reverse_skyline_by_definition(&ds.dissim, &ds.rows, q);
            let want: Vec<(u64, u64)> = rsky::algos::rank_members(&ds, None, &members, 4)
                .unwrap()
                .into_iter()
                .map(|m| (m.id as u64, m.strength as u64))
                .collect();
            ranked_entries += want.len();
            let vals: Vec<String> = q.values.iter().map(|v| v.to_string()).collect();
            let line = format!(
                r#"{{"op":"query","engine":"trs","values":[{}],"top_k":4}}"#,
                vals.join(",")
            );
            for cached in [false, true] {
                let reply = client.send(&line).unwrap();
                assert!(is_ok(&reply), "{reply}");
                let reply_json = parsed(&reply);
                assert_eq!(reply_json.get("cached"), Some(&JsonValue::Bool(cached)), "{reply}");
                let got: Vec<(u64, u64)> = reply_json
                    .get("ranked")
                    .and_then(JsonValue::as_arr)
                    .expect("ranked array")
                    .iter()
                    .map(|e| {
                        let field = |k| e.get(k).and_then(JsonValue::as_u64).unwrap();
                        (field("id"), field("strength"))
                    })
                    .collect();
                assert_eq!(got, want, "shard={shard:?} cached={cached}: {reply}");
            }
        }
        handle.shutdown();
        handle.join();
    }
    assert!(ranked_entries > 0, "every fixture query had an empty RS");
}

/// Acceptance (b): with one worker and a two-slot queue, overflow requests
/// are shed with `overloaded` while every admitted request completes.
#[test]
fn full_queue_sheds_while_admitted_work_completes() {
    let ds = small_dataset(9002, 60);
    let config = ServerConfig {
        workers: 1,
        queue_cap: 2,
        enable_test_ops: true,
        ..test_config()
    };
    let handle = Server::start(config, ds).unwrap();
    let addr = handle.local_addr();

    std::thread::scope(|scope| {
        // Occupy the single worker …
        let occupier = scope.spawn(move || {
            let mut c = Client::connect(addr).unwrap();
            c.set_timeout(Duration::from_secs(60)).unwrap();
            c.send(r#"{"op":"sleep","ms":700}"#).unwrap()
        });
        std::thread::sleep(Duration::from_millis(150)); // worker has popped the sleep
        // … fill both queue slots …
        let queued: Vec<_> = (0..2)
            .map(|_| {
                scope.spawn(move || {
                    let mut c = Client::connect(addr).unwrap();
                    c.set_timeout(Duration::from_secs(60)).unwrap();
                    c.send(r#"{"op":"sleep","ms":10}"#).unwrap()
                })
            })
            .collect();
        std::thread::sleep(Duration::from_millis(150)); // both are queued
        let mut probe = Client::connect(addr).unwrap();
        probe.set_timeout(Duration::from_secs(60)).unwrap();
        let health = probe.send(r#"{"op":"health"}"#).unwrap();
        let depth = parsed(&health).get("queue_depth").and_then(JsonValue::as_u64).unwrap();
        assert_eq!(depth, 2, "{health}");

        // … and overflow: shed immediately, no queueing.
        for _ in 0..2 {
            let reply = probe.send(r#"{"op":"sleep","ms":10}"#).unwrap();
            assert_eq!(error_kind(&reply), "overloaded", "{reply}");
        }

        // Everything that was admitted still completes successfully.
        assert!(is_ok(&occupier.join().unwrap()));
        for h in queued {
            assert!(is_ok(&h.join().unwrap()));
        }
    });

    let registry = handle.registry();
    assert_eq!(registry.counter("server.shed"), 2);
    assert_eq!(registry.counter("server.served"), 3);
    handle.shutdown();
    handle.join();
}

/// Acceptance (c): a request with an impossible deadline gets a `timeout`
/// error; the same connection then completes the same query without one.
#[test]
fn sub_deadline_request_times_out_and_server_stays_healthy() {
    // Large enough that a full TRS run cannot finish inside 1 ms even on a
    // fast host — 400 records completed in ~0.4 ms and flaked this test.
    let ds = small_dataset(9003, 30_000);
    let config = ServerConfig { workers: 1, page: 128, ..test_config() };
    let handle = Server::start(config, ds).unwrap();

    let mut client = Client::connect(handle.local_addr()).unwrap();
    client.set_timeout(Duration::from_secs(60)).unwrap();
    let reply = client
        .send(r#"{"op":"query","engine":"trs","values":[2,2,2],"deadline_ms":1}"#)
        .unwrap();
    assert_eq!(error_kind(&reply), "timeout", "{reply}");

    // The worker, its disk and the queue survived the cancelled run.
    let health = client.send(r#"{"op":"health"}"#).unwrap();
    assert!(is_ok(&health), "{health}");
    let reply = client.send(r#"{"op":"query","engine":"trs","values":[2,2,2]}"#).unwrap();
    assert!(is_ok(&reply), "post-timeout query failed: {reply}");

    let registry = handle.registry();
    assert!(registry.counter("server.timeout") >= 1);
    assert_eq!(registry.counter("server.served"), 1);
    handle.shutdown();
    handle.join();
}

/// Acceptance (d): `shutdown` drains in-flight work (the sleeping and the
/// queued request both get answers), refuses new connections afterwards,
/// and the metrics counters reconcile with every observed response.
#[test]
fn shutdown_drains_inflight_and_metrics_reconcile() {
    let ds = small_dataset(9004, 120);
    let config = ServerConfig {
        workers: 1,
        queue_cap: 8,
        cache_cap: 8,
        enable_test_ops: true,
        ..test_config()
    };
    let handle = Server::start(config, ds).unwrap();
    let addr = handle.local_addr();
    let registry = handle.registry();

    let mut client = Client::connect(addr).unwrap();
    client.set_timeout(Duration::from_secs(60)).unwrap();

    // Miss, then hit: the cached reply replays the same ids.
    let q = r#"{"op":"query","engine":"trs","values":[3,3,3]}"#;
    let first = client.send(q).unwrap();
    assert!(is_ok(&first), "{first}");
    assert_eq!(parsed(&first).get("cached"), Some(&JsonValue::Bool(false)), "{first}");
    let second = client.send(q).unwrap();
    assert_eq!(parsed(&second).get("cached"), Some(&JsonValue::Bool(true)), "{second}");
    assert_eq!(ids_of(&first), ids_of(&second));

    // A mutation bumps the generation and invalidates the cached result.
    let ins = client.send(r#"{"op":"insert","id":9999,"values":[3,3,3]}"#).unwrap();
    assert!(is_ok(&ins), "{ins}");
    assert_eq!(parsed(&ins).get("generation").and_then(JsonValue::as_u64), Some(2));
    let third = client.send(q).unwrap();
    assert!(is_ok(&third), "{third}");
    assert_eq!(
        parsed(&third).get("cached"),
        Some(&JsonValue::Bool(false)),
        "stale cache entry served after insert: {third}"
    );
    assert_eq!(parsed(&third).get("generation").and_then(JsonValue::as_u64), Some(2));

    // Put one request on the worker and one in the queue, then shut down.
    std::thread::scope(|scope| {
        let inflight = scope.spawn(move || {
            let mut c = Client::connect(addr).unwrap();
            c.set_timeout(Duration::from_secs(60)).unwrap();
            c.send(r#"{"op":"sleep","ms":500}"#).unwrap()
        });
        let queued = scope.spawn(move || {
            let mut c = Client::connect(addr).unwrap();
            c.set_timeout(Duration::from_secs(60)).unwrap();
            std::thread::sleep(Duration::from_millis(100));
            c.send(r#"{"op":"query","engine":"brs","values":[1,1,1]}"#).unwrap()
        });
        std::thread::sleep(Duration::from_millis(250));
        let bye = client.send(r#"{"op":"shutdown"}"#).unwrap();
        assert!(is_ok(&bye), "{bye}");

        // Both in-flight requests complete despite the shutdown.
        assert!(is_ok(&inflight.join().unwrap()), "in-flight request lost in drain");
        assert!(is_ok(&queued.join().unwrap()), "queued request lost in drain");
    });
    handle.join();

    // The port is closed once join returns.
    assert!(
        Client::connect(addr).is_err(),
        "server still accepting connections after drain"
    );

    // ok responses: 3 queries + 1 insert + 1 sleep + 1 queued query = 6
    // served; cache saw 1 hit and 2 misses; nothing was shed.
    assert_eq!(registry.counter("server.served"), 6);
    assert_eq!(registry.counter("server.cache.hit"), 1);
    assert_eq!(registry.counter("server.cache.miss"), 3);
    assert_eq!(registry.counter("server.shed"), 0);
    assert_eq!(registry.counter("server.accepted"), 3, "3 client connections");
}

/// A request that panics on its worker is answered `internal` within the
/// read timeout instead of leaving its connection waiting forever; every
/// connection is served afterwards, the pool still runs one request per
/// worker at once, health leaves `ok` on the `worker_panic_rate` rule once
/// the sampler ticks, and the panic op is refused without
/// `enable_test_ops`.
#[test]
fn worker_panic_is_answered_internal_and_workers_keep_serving() {
    use rsky::core::obs_ts::ManualClock;

    let ds = small_dataset(9008, 300);
    let workers = 2;
    let clock = ManualClock::shared(0);
    let config = ServerConfig {
        workers,
        enable_test_ops: true,
        sample_interval_ms: 0, // no sampler thread: the tick op drives it
        clock: Some(clock.clone()),
        ..test_config()
    };
    let handle = Server::start(config, ds.clone()).unwrap();
    let addr = handle.local_addr();
    let mut clients: Vec<Client> = (0..workers)
        .map(|_| {
            let c = Client::connect(addr).unwrap();
            c.set_timeout(Duration::from_secs(30)).unwrap();
            c
        })
        .collect();
    let mut probe = Client::connect(addr).unwrap();
    probe.set_timeout(Duration::from_secs(30)).unwrap();
    let tick = |probe: &mut Client| {
        clock.advance(1_000_000);
        let reply = probe.send(r#"{"op":"tick"}"#).unwrap();
        assert!(is_ok(&reply), "{reply}");
        reply
    };
    assert!(tick(&mut probe).contains(r#""health":"ok""#), "healthy before the panics");

    // One panic per connection, sent at once so both workers take one.
    let replies: Vec<String> = std::thread::scope(|s| {
        let sends: Vec<_> =
            clients.iter_mut().map(|c| s.spawn(move || c.send(r#"{"op":"panic"}"#))).collect();
        sends
            .into_iter()
            .map(|h| h.join().unwrap().expect("a panicking request is answered, not abandoned"))
            .collect()
    });
    for reply in &replies {
        assert_eq!(error_kind(reply), "internal", "{reply}");
    }
    assert_eq!(handle.registry().counter("server.worker.panics"), workers as u64);

    // The panics breach the panic-rate rule: the first breaching tick
    // holds, the second raises.
    assert!(tick(&mut probe).contains(r#""health":"ok""#), "one breach must not flap");
    let reply = tick(&mut probe);
    assert!(!reply.contains(r#""health":"ok""#), "panics left health ok: {reply}");
    let detail = probe.send(r#"{"op":"health","detail":true}"#).unwrap();
    assert!(detail.contains("worker_panic_rate"), "the panic rule must fire: {detail}");

    // Each connection is served again with the right ids.
    let values = [1, 2, 3];
    let want = direct_ids(&ds, "trs", &values);
    for c in &mut clients {
        let reply = c.send(&query_line("trs", &values)).unwrap();
        assert!(is_ok(&reply), "post-panic query failed: {reply}");
        assert_eq!(ids_of(&reply), want);
    }

    // No worker was lost: one sleep per worker, sent at once, takes about
    // one sleep, not two.
    let t0 = std::time::Instant::now();
    std::thread::scope(|s| {
        for c in &mut clients {
            s.spawn(move || {
                let reply = c.send(r#"{"op":"sleep","ms":600}"#).unwrap();
                assert!(is_ok(&reply), "{reply}");
            });
        }
    });
    assert!(t0.elapsed() < Duration::from_millis(1100), "sleeps serialized: {:?}", t0.elapsed());
    handle.shutdown();
    handle.join();

    let plain = Server::start(test_config(), small_dataset(9008, 50)).unwrap();
    let mut c = Client::connect(plain.local_addr()).unwrap();
    c.set_timeout(Duration::from_secs(30)).unwrap();
    let reply = c.send(r#"{"op":"panic"}"#).unwrap();
    assert_eq!(error_kind(&reply), "bad_request", "{reply}");
    assert_eq!(plain.registry().counter("server.worker.panics"), 0);
    plain.shutdown();
    plain.join();
}

/// Malformed input never takes the server down, and the test-only op stays
/// locked behind its config gate.
#[test]
fn bad_requests_are_rejected_politely() {
    let ds = small_dataset(9005, 50);
    let handle = Server::start(test_config(), ds).unwrap();
    let mut client = Client::connect(handle.local_addr()).unwrap();
    client.set_timeout(Duration::from_secs(60)).unwrap();

    for bad in [
        "this is not json",
        r#"{"op":"frobnicate"}"#,
        r#"{"op":"query"}"#,
        r#"{"op":"query","engine":"nope","values":[1,1,1]}"#,
        r#"{"op":"query","values":[99,99,99]}"#,
        r#"{"op":"insert","id":1,"values":[0,0,0]}"#,
        r#"{"op":"expire","id":424242}"#,
        r#"{"op":"sleep","ms":5}"#,
    ] {
        let reply = client.send(bad).unwrap();
        assert_eq!(error_kind(&reply), "bad_request", "{bad} → {reply}");
    }
    let health = client.send(r#"{"op":"health"}"#).unwrap();
    assert!(is_ok(&health), "{health}");
    assert!(handle.registry().counter("server.bad_request") >= 8);
    handle.shutdown();
    handle.join();
}

/// A request line that passes `MAX_LINE_BYTES` without a newline is answered
/// `bad_request` and its connection closed, while other clients are served.
#[test]
fn over_cap_request_line_is_rejected_and_closed() {
    use std::io::{BufRead, BufReader, Read, Write};

    let ds = small_dataset(9006, 50);
    let handle = Server::start(test_config(), ds).unwrap();
    let mut stream = std::net::TcpStream::connect(handle.local_addr()).unwrap();
    stream.set_read_timeout(Some(Duration::from_secs(60))).unwrap();
    // Exactly one byte over the cap, so the server has read everything sent
    // when it answers (unread bytes would turn its close into a reset).
    stream.write_all(&vec![b'x'; MAX_LINE_BYTES + 1]).unwrap();
    let mut reader = BufReader::new(stream);
    let mut reply = String::new();
    reader.read_line(&mut reply).unwrap();
    assert_eq!(error_kind(reply.trim()), "bad_request", "{reply}");
    let mut rest = Vec::new();
    assert_eq!(reader.read_to_end(&mut rest).unwrap(), 0, "connection left open");

    let mut client = Client::connect(handle.local_addr()).unwrap();
    client.set_timeout(Duration::from_secs(60)).unwrap();
    let health = client.send(r#"{"op":"health"}"#).unwrap();
    assert!(is_ok(&health), "{health}");
    assert_eq!(handle.registry().counter("server.bad_request"), 1);
    handle.shutdown();
    handle.join();
}

/// A client that pipelines requests and never reads the replies fills the
/// socket's buffers, and the server's connection thread blocks writing. Its
/// write deadline closes the connection, so `shutdown` and `join` finish.
/// Without one the drain waits on that thread forever, so the test joins on
/// a thread of its own and waits on a channel with a bound.
#[test]
fn a_client_that_stops_reading_cannot_wedge_the_shutdown() {
    use std::io::{ErrorKind, Write};

    let handle = Server::start(test_config(), small_dataset(9007, 50)).unwrap();
    let mut stalled = std::net::TcpStream::connect(handle.local_addr()).unwrap();
    stalled.set_write_timeout(Some(Duration::from_millis(500))).unwrap();
    // `metrics` is answered on the connection thread, and its reply is far
    // longer than the request: the replies fill the buffers long before the
    // requests do. A request write that times out means the server stopped
    // reading them.
    let requests = b"{\"op\":\"metrics\"}\n".repeat(1024);
    let err = loop {
        if let Err(e) = stalled.write_all(&requests) {
            break e;
        }
    };
    assert!(matches!(err.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut), "{err}");

    let (done_tx, done_rx) = std::sync::mpsc::channel();
    std::thread::spawn(move || {
        handle.shutdown();
        handle.join();
        let _ = done_tx.send(());
    });
    let drained = done_rx.recv_timeout(Duration::from_secs(60));
    assert!(drained.is_ok(), "the drain waited on a connection whose client stopped reading");
    drop(stalled);
}

/// Continuous-telemetry acceptance, over real sockets on an injected clock
/// (`sample_interval_ms: 0` + the test-gated `tick` op, so every window
/// boundary is deterministic):
///
/// * `timeseries` rates reconcile exactly with the registry's counter
///   deltas between ticks;
/// * an induced shed storm flips health to `critical` with the firing rule
///   named in the detailed report, and health recovers once the window
///   slides clean;
/// * every slowlog entry's span tree profiles to self times that sum
///   exactly to its root span's wall time.
#[test]
fn telemetry_rates_health_storm_and_profiles_reconcile() {
    use rsky::core::obs::SpanEvent;
    use rsky::core::obs_ts::ManualClock;
    use rsky::core::profile::Profile;

    let ds = small_dataset(9006, 60);
    let clock = ManualClock::shared(0);
    let config = ServerConfig {
        workers: 1,
        queue_cap: 2,
        enable_test_ops: true,
        sample_interval_ms: 0, // no sampler thread: the tick op drives it
        ts_capacity: 64,
        // Tight thresholds so a ~30-request storm breaches `critical`
        // decisively; also exercises the override parser end to end.
        health_rules: Some("shed_rate=0.5:2".into()),
        clock: Some(clock.clone()),
        slow_request_us: 1,
        slowlog_cap: 8,
        ..test_config()
    };
    let handle = Server::start(config, ds).unwrap();
    let addr = handle.local_addr();
    let registry = handle.registry();
    let mut client = Client::connect(addr).unwrap();
    client.set_timeout(Duration::from_secs(60)).unwrap();
    let tick = |client: &mut Client| {
        clock.advance(1_000_000);
        let reply = client.send(r#"{"op":"tick"}"#).unwrap();
        assert!(is_ok(&reply), "{reply}");
        reply
    };

    // --- Rate reconciliation -------------------------------------------
    tick(&mut client);
    let served_before = registry.counter("server.served");
    for values in [[1, 1, 1], [2, 2, 2], [3, 3, 3]] {
        let reply = client.send(&query_line("trs", &values)).unwrap();
        assert!(is_ok(&reply), "{reply}");
    }
    tick(&mut client);
    let served_delta = registry.counter("server.served") - served_before;
    assert_eq!(served_delta, 3, "three pooled queries");
    let reply = client
        .send(r#"{"op":"timeseries","metric":"server.served","window_ms":60000}"#)
        .unwrap();
    let rate = parsed(&reply);
    let rate = rate.get("rate").expect("counter view carries a rate");
    assert_eq!(
        rate.get("delta").and_then(JsonValue::as_u64),
        Some(served_delta),
        "windowed delta must reconcile with the registry counter: {reply}"
    );
    // The request histogram derives windowed quantiles over the wire.
    let reply = client
        .send(r#"{"op":"timeseries","metric":"server.request.wall_us","window_ms":60000}"#)
        .unwrap();
    let v = parsed(&reply);
    let window = v.get("window").expect("histogram view carries a window");
    assert!(window.get("p99").and_then(JsonValue::as_u64).is_some(), "{reply}");
    assert_eq!(window.get("count").and_then(JsonValue::as_u64), Some(3), "{reply}");

    // --- Shed storm → critical → recovery ------------------------------
    assert!(parsed(&client.send(r#"{"op":"health"}"#).unwrap())
        .get("health")
        .is_some_and(|h| h.as_str() == Some("ok")));
    std::thread::scope(|scope| {
        let occupier = scope.spawn(move || {
            let mut c = Client::connect(addr).unwrap();
            c.set_timeout(Duration::from_secs(60)).unwrap();
            c.send(r#"{"op":"sleep","ms":600}"#).unwrap()
        });
        std::thread::sleep(Duration::from_millis(150)); // worker busy
        let queued: Vec<_> = (0..2)
            .map(|_| {
                scope.spawn(move || {
                    let mut c = Client::connect(addr).unwrap();
                    c.set_timeout(Duration::from_secs(60)).unwrap();
                    c.send(r#"{"op":"sleep","ms":10}"#).unwrap()
                })
            })
            .collect();
        std::thread::sleep(Duration::from_millis(150)); // both queued
        // The storm: every further pooled request is shed immediately.
        for _ in 0..30 {
            let reply = client.send(r#"{"op":"sleep","ms":10}"#).unwrap();
            assert_eq!(error_kind(&reply), "overloaded", "{reply}");
        }
        assert!(is_ok(&occupier.join().unwrap()));
        for h in queued {
            assert!(is_ok(&h.join().unwrap()));
        }
    });
    assert_eq!(registry.counter("server.shed"), 30);

    // Hysteresis: the first breaching evaluation holds, the second raises.
    let reply = tick(&mut client);
    assert!(reply.contains(r#""health":"ok""#), "one breach must not flap: {reply}");
    let reply = tick(&mut client);
    assert!(reply.contains(r#""health":"critical""#), "{reply}");
    let detail = client.send(r#"{"op":"health","detail":true}"#).unwrap();
    let v = parsed(&detail);
    assert_eq!(v.get("health").and_then(JsonValue::as_str), Some("critical"), "{detail}");
    let firing = v
        .get("detail")
        .and_then(|d| d.get("firing"))
        .and_then(JsonValue::as_arr)
        .expect("detailed report lists firing rules");
    assert!(
        firing.iter().any(|r| r.as_str() == Some("shed_rate")),
        "the breaching rule must be named: {detail}"
    );
    assert_eq!(registry.gauge("rsky_health"), Some(2.0), "critical exported as gauge");

    // Recovery: no further sheds; the 10s window slides clean, then the
    // clear streak flips health back to ok.
    let mut recovered = false;
    for _ in 0..20 {
        if tick(&mut client).contains(r#""health":"ok""#) {
            recovered = true;
            break;
        }
    }
    assert!(recovered, "health never recovered after the storm passed");
    assert_eq!(registry.gauge("rsky_health"), Some(0.0));

    // --- Slowlog profiles ----------------------------------------------
    // With a 1µs threshold every pooled request was slow. Each entry's
    // span tree re-profiles to self times that sum exactly to its root
    // wall time, and the precomputed profile lines agree with the spans.
    let reply = client.send(r#"{"op":"slowlog"}"#).unwrap();
    let v = parsed(&reply);
    let entries = v.get("entries").and_then(JsonValue::as_arr).expect("entries");
    assert!(!entries.is_empty(), "{reply}");
    for e in entries {
        let spans: Vec<SpanEvent> = e
            .get("spans")
            .and_then(JsonValue::as_arr)
            .expect("spans")
            .iter()
            .map(|s| SpanEvent {
                name: s.get("name").and_then(JsonValue::as_str).unwrap().to_string(),
                trace_id: s.get("trace_id").and_then(JsonValue::as_u64).unwrap(),
                span_id: s.get("span_id").and_then(JsonValue::as_u64).unwrap(),
                parent_id: s.get("parent_id").and_then(JsonValue::as_u64),
                wall_us: s.get("wall_us").and_then(JsonValue::as_u64).unwrap(),
                fields: Vec::new(),
            })
            .collect();
        let root_wall: u64 =
            spans.iter().filter(|s| s.parent_id.is_none()).map(|s| s.wall_us).sum();
        let profile = Profile::from_spans(&spans);
        assert_eq!(profile.roots_wall_us(), root_wall);
        assert_eq!(
            profile.self_sum(),
            root_wall,
            "slowlog profile must partition the request's wall time"
        );
        let lines = e.get("profile").and_then(JsonValue::as_arr).expect("profile lines");
        assert!(!lines.is_empty(), "capture computed no profile: {reply}");
        for line in lines {
            let path = line.get("path").and_then(JsonValue::as_str).unwrap();
            let path: Vec<String> = path.split(" > ").map(str::to_string).collect();
            let stat = profile.get(&path).expect("profile line path must exist in the spans");
            assert_eq!(line.get("self_us").and_then(JsonValue::as_u64), Some(stat.self_us));
        }
    }
    // clear=true empties the ring and reports how many entries it dropped.
    let n = entries.len();
    let reply = client.send(r#"{"op":"slowlog","clear":true}"#).unwrap();
    assert_eq!(parsed(&reply).get("cleared").and_then(JsonValue::as_u64), Some(n as u64), "{reply}");
    let reply = client.send(r#"{"op":"slowlog"}"#).unwrap();
    assert_eq!(
        parsed(&reply).get("entries").and_then(JsonValue::as_arr).map(<[JsonValue]>::len),
        Some(0),
        "{reply}"
    );

    handle.shutdown();
    handle.join();
}

#[test]
fn resolve_threads_auto_detects() {
    assert_eq!(resolve_threads(3), 3);
    let auto = resolve_threads(0);
    assert!(auto >= 1);
    assert_eq!(
        auto,
        std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1)
    );
}
