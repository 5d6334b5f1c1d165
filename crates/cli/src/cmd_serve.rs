//! `rsky serve` — the multi-threaded TCP query server over a dataset.

use std::io::Write;

use rsky_core::error::Result;
use rsky_server::{resolve_threads, Server, ServerConfig};

use crate::args::Flags;
use crate::obs_setup::CliObs;

pub const HELP: &str = "\
rsky serve --data <DIR> [OPTIONS]

Serves reverse-skyline queries over TCP, speaking newline-delimited JSON.
Send {\"op\":\"shutdown\"} to stop: the server drains in-flight requests,
answers each one, and exits.

Ops: query, influence, insert, expire, health, metrics, timeseries,
slowlog, shutdown. The metrics op takes an optional \"format\": \"json\"
(default) or \"prometheus\" (text exposition in the \"body\" member;
\"buckets\": true adds cumulative histogram buckets). With
--slow-request-us set, requests slower than the threshold retain their
complete span tree — and a computed self-time profile — in a ring dumped
by the slowlog op ({\"op\":\"slowlog\",\"clear\":true} also empties it).
A sampler thread snapshots every metric into a time-series ring each
--sample-interval-ms and evaluates the SLO health rules against it;
{\"op\":\"health\",\"detail\":true} returns the full report and
{\"op\":\"timeseries\",\"metric\":N} windowed rates/quantiles (see
`rsky top` for a live console).
Example session (one request per line):
    {\"op\":\"query\",\"engine\":\"trs\",\"values\":[3,17,25],\"deadline_ms\":250}
    {\"op\":\"health\"}
    {\"op\":\"shutdown\"}

OPTIONS:
    --data DIR          dataset directory from `rsky generate`    (required)
    --addr HOST:PORT    bind address (port 0 = ephemeral)  [127.0.0.1:7464]
    --threads N         worker-pool size (0 = one per core)       [0]
    --engine-threads N  threads per engine run                    [1]
    --queue-cap N       bounded admission queue; overflow is shed [64]
    --cache-cap N       result-cache entries (0 = off)            [128]
    --deadline-ms MS    default per-request deadline (0 = none)   [0]
    --memory PCT        working memory as % of dataset            [10]
    --page BYTES        page size of each worker's disk           [4096]
    --tiles T           tiles per attribute for tsrs/ttrs         [4]
    --shards K          serve every query as a K-shard scatter-
                        gather; results match single-node exactly [off]
    --shard-policy P    round-robin | hash partitioning   [round-robin]
    --pruner-budget B   strongest phase-1 candidates each shard
                        exports to the kill pass (0 = off)      [256]
    --slow-request-us US  capture span trees of requests slower than
                        US microseconds (0 = off)                 [0]
    --slowlog-cap N     slow-request ring capacity                [16]
    --sample-interval-ms MS  telemetry sampling period; 0 disables
                        the sampler thread                        [1000]
    --ts-cap N          time-series ring capacity (samples kept)  [512]
    --health-rules S    override SLO thresholds: comma-separated
                        rule=warn:critical pairs, e.g.
                        shed_rate=1:10,request_p99_us=1e5:1e6     [defaults]
    --test-ops          enable test-only ops (sleep, tick) — e2e only
    --trace-out FILE    stream span/counter events to FILE as JSONL";

pub fn run(argv: &[String]) -> Result<()> {
    let flags = Flags::parse(argv, HELP)?;
    let obs = CliObs::install(&flags)?;
    let dir = flags.require("data")?;
    let ds = rsky_data::csv::load_dataset_dir(dir)?;
    let config = ServerConfig {
        addr: flags.get("addr").unwrap_or("127.0.0.1:7464").to_string(),
        workers: flags.num("threads", 0)?,
        engine_threads: flags.num("engine-threads", 1)?,
        queue_cap: flags.num("queue-cap", 64)?,
        cache_cap: flags.num("cache-cap", 128)?,
        default_deadline_ms: flags.num("deadline-ms", 0)?,
        mem_pct: flags.num("memory", 10.0)?,
        page: flags.num("page", 4096)?,
        tiles: flags.num("tiles", 4)?,
        shard: flags.shard_spec()?,
        pruner_budget: flags
            .num("pruner-budget", rsky_algos::shard::DEFAULT_PRUNER_BUDGET)?,
        enable_test_ops: flags.switch("test-ops"),
        slow_request_us: flags.num("slow-request-us", 0)?,
        slowlog_cap: flags.num("slowlog-cap", 16)?,
        sample_interval_ms: flags.num("sample-interval-ms", 1000)?,
        ts_capacity: flags.num("ts-cap", 512)?,
        health_rules: flags.get("health-rules").map(str::to_string),
        clock: None,
    };
    let workers = resolve_threads(config.workers);
    let handle = Server::start(config, ds)?;
    // Scripts (and the e2e test) parse this line to find the ephemeral port.
    println!("listening on {} ({workers} workers)", handle.local_addr());
    std::io::stdout().flush()?;
    handle.join();
    println!("server drained");
    obs.finish()?;
    Ok(())
}
