//! `warm-mem`: the table sits on an in-memory disk, prepared once in the
//! original and the multi-sort layout and split into two shards. Each op is
//! one single-threaded engine run over the same fixed query set: no IO cost
//! and no sort in the timed path, so nearly all the work is phase 1,
//! phase 2, the batched kernels, the AL-Tree and the shard exchange. The
//! data is Census-Income-like: dense and duplicate-heavy.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use rand::rngs::StdRng;
use rand::SeedableRng;
use rsky_algos::prep::{load_dataset, prepare_table, Layout, PreparedTable};
use rsky_algos::shard::ShardedTables;
use rsky_algos::{engine_by_name, EngineCtx};
use rsky_core::dataset::Dataset;
use rsky_core::error::Error;
use rsky_core::query::Query;
use rsky_core::record::RecordId;
use rsky_core::stats::RunStats;
use rsky_storage::{Disk, MemoryBudget, ShardPolicy, ShardSpec};

use crate::check::check_ids;
use crate::costs::{engine_layer, rotated, run_passes, Costs, Latencies};
use crate::report::{Outcome, ENGINES};
use crate::stats::{median, ratio};
use crate::trace::{fold, SpanId, Tracer, OP};
use crate::{Config, DATA_SEED};

const ROWS: usize = 50_000;
const PAGE: usize = 4096;
const MEMORY_PCT: f64 = 10.0;
const SHARDS: usize = 2;
const QUERIES: usize = 16;
const OPS: &[&str] = &["brs", "srs", "trs", "trs-bf", "trs-shard2"];
const MIN_PASSES: usize = 3;
/// Queries run on one set-up's tables: two set-ups per pass.
const SETUP_EVERY: usize = QUERIES / 2;

/// The prepared tables every op runs on.
struct Warm {
    disk: Disk,
    budget: MemoryBudget,
    original: PreparedTable,
    multisort: PreparedTable,
    shards: ShardedTables,
}

/// What an op cost: an engine's `RunStats`, or a sharded run's breakdown.
enum Cost {
    Run(RunStats),
    Shard {
        stats: RunStats,
        candidates: usize,
        post: usize,
        pruners: usize,
    },
}

fn prepare(ds: &Dataset) -> Result<Warm, Error> {
    let mut disk = Disk::new_mem(PAGE);
    let raw = load_dataset(&mut disk, ds)?;
    let budget = MemoryBudget::from_percent(ds.data_bytes(), MEMORY_PCT, PAGE)?;
    let original = prepare_table(&mut disk, &ds.schema, &raw, Layout::Original, &budget)?;
    let multisort = prepare_table(&mut disk, &ds.schema, &raw, Layout::MultiSort, &budget)?;
    let spec = ShardSpec::new(SHARDS, ShardPolicy::RoundRobin)?;
    let shards = ShardedTables::new(ds, spec, MEMORY_PCT, PAGE, 4)?;
    Ok(Warm {
        disk,
        budget,
        original,
        multisort,
        shards,
    })
}

/// One op: an engine run on the layout it needs, or `trs` through the
/// two-shard scatter-gather executor.
fn warm_op(
    w: &mut Warm,
    ds: &Dataset,
    op: &str,
    query: &Query,
    tr: &mut Tracer,
    id: u64,
) -> Result<(Vec<RecordId>, Cost, f64), Error> {
    let t0 = Instant::now();
    let root = tr.open(OP, SpanId::ROOT, id);
    let (layer, phase1, phase2) = engine_layer(op);
    let span = tr.open(layer, root, id);
    let (ids, cost) = if op == "trs-shard2" {
        let r = w.shards.run_query("trs", 1, query)?;
        let cost = Cost::Shard {
            stats: r.stats,
            candidates: r.candidates,
            post: r.post_candidates,
            pruners: r.pruners,
        };
        (r.ids, cost)
    } else {
        let table = if op == "brs" {
            &w.original.file
        } else {
            &w.multisort.file
        };
        let algo = engine_by_name(op, &ds.schema, 1)?;
        let mut ctx = EngineCtx {
            disk: &mut w.disk,
            schema: &ds.schema,
            dissim: &ds.dissim,
            budget: w.budget,
        };
        let r = algo.run(&mut ctx, table, query)?;
        (r.ids, Cost::Run(r.stats))
    };
    tr.close(span);
    tr.close(root);
    let ms = t0.elapsed().as_secs_f64() * 1e3;
    let stats = match &cost {
        Cost::Run(s) | Cost::Shard { stats: s, .. } => s,
    };
    tr.derived(phase1, span, stats.phase1_time);
    tr.derived(phase2, span, stats.phase2_time);
    Ok((ids, cost, ms))
}

/// Per-run means of a sharded run's exchange counters.
#[derive(Default)]
struct ShardCosts {
    runs: usize,
    candidates: usize,
    post: usize,
    pruners: usize,
    dist_checks: u64,
    phase1: Duration,
    phase2: Duration,
}

pub fn run(cfg: &Config) -> Result<Outcome, String> {
    let err = |e: Error| e.to_string();
    let mut out = Outcome::new("warm-mem");
    out.sizes = format!(
        "census-income-like n={ROWS} page={PAGE} memory={MEMORY_PCT}% shards={SHARDS} queries={QUERIES} ops={} threads=1",
        OPS.join(",")
    );
    let mut data_rng = StdRng::seed_from_u64(DATA_SEED);
    let ds = rsky_data::census_income_like(ROWS, &mut data_rng).map_err(err)?;
    // The set-up's warm-up query is part of the workload, as the dataset
    // is: the same on every seed, so that set-up does the same work.
    let warmup = rsky_data::random_queries(&ds.schema, 1, &mut data_rng)
        .map_err(err)?
        .remove(0);
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let queries = rsky_data::random_queries(&ds.schema, QUERIES, &mut rng).map_err(err)?;

    // Set-up: load, both layouts, the shard build and one warm-up op per op
    // type. One is timed before every `SETUP_EVERY` queries, whose ops run
    // on its tables: set-up samples then spread over the whole window as
    // the ops' do, and the scratch file each engine run leaves on the disk
    // never builds up beyond those queries, so peak_rss_mb does not grow
    // with the number of passes that fit in the window.
    let set_up = |setup: &mut Vec<f64>| -> Result<Warm, String> {
        let t = Instant::now();
        let mut w = prepare(&ds).map_err(|e| format!("set-up: {e}"))?;
        for op in OPS {
            warm_op(&mut w, &ds, op, &warmup, &mut Tracer::new(false, t), 0)
                .map_err(|e| format!("set-up {op}: {e}"))?;
        }
        setup.push(t.elapsed().as_secs_f64());
        Ok(w)
    };
    let mut setup = Vec::new();
    let mut warm: Option<Warm> = None;

    let mut tracer = Tracer::new(cfg.traced, Instant::now());
    let mut lat = Latencies::default();
    let mut costs: BTreeMap<&str, Costs> = BTreeMap::new();
    let mut shard = ShardCosts::default();
    let mut answers: BTreeMap<usize, Vec<RecordId>> = BTreeMap::new();
    let mut op_id = 0u64;
    let walls = run_passes(cfg.seconds, MIN_PASSES, |p| {
        tracer.set_on(cfg.traced && p % 2 == 0);
        lat.start_pass(tracer.is_on());
        let mut wall = Duration::ZERO;
        for (qi, query) in queries.iter().enumerate() {
            if qi % SETUP_EVERY == 0 {
                drop(warm.take());
                warm = Some(set_up(&mut setup)?);
            }
            let w = warm.as_mut().expect("set up above");
            let t = Instant::now();
            for op in rotated(OPS, p) {
                op_id += 1;
                out.attempted += 1;
                let (ids, cost, ms) = match warm_op(w, &ds, op, query, &mut tracer, op_id) {
                    Ok(r) => r,
                    Err(e) => {
                        out.fail(format!("{op} query {qi}: {e}"));
                        lat.push(op, f64::INFINITY);
                        continue;
                    }
                };
                // All five ops must agree on every query, in every pass.
                let reference = answers.entry(qi).or_insert_with(|| ids.clone());
                if let Err(e) = check_ids(reference, &ids) {
                    out.fail(format!("{op} query {qi} pass {p}: {e}"));
                    lat.push(op, f64::INFINITY);
                    continue;
                }
                lat.push(op, ms);
                match cost {
                    Cost::Run(s) => costs.entry(op).or_default().add(&s),
                    Cost::Shard {
                        stats,
                        candidates,
                        post,
                        pruners,
                    } => {
                        shard.runs += 1;
                        shard.candidates += candidates;
                        shard.post += post;
                        shard.pruners += pruners;
                        shard.dist_checks += stats.dist_checks;
                        shard.phase1 += stats.phase1_time;
                        shard.phase2 += stats.phase2_time;
                    }
                }
            }
            wall += t.elapsed();
        }
        Ok(wall)
    })?;

    out.set("setup_s", median(&setup), setup.len());
    let sort = &warm.as_ref().expect("at least one pass").multisort;
    out.set("prep.sort_ms", sort.prep_time.as_secs_f64() * 1e3, 1);
    out.set("prep.sort_pages", sort.prep_io.total() as f64, 1);
    if let Some((runs, passes)) = sort.sort_outcome {
        out.set("prep.sort_runs", runs as f64, 1);
        out.set("prep.merge_passes", passes as f64, 1);
    }
    for op in OPS {
        if *op != "trs" {
            lat.record_mean(&mut out, op, &format!("{op}_ms"));
        }
    }
    lat.record_mean(&mut out, "trs", "trs_ms");
    lat.record_quantiles(&mut out, "trs");
    lat.record_throughput(&mut out, &walls);
    for (module, op) in ENGINES {
        if let Some(c) = costs.get(op) {
            c.record(&mut out, module);
            out.notes.push(c.note(op));
        }
    }
    let n = shard.runs;
    let per_run = |x: f64| ratio(x, n as f64);
    out.set(
        "shard.phase1_ms",
        per_run(shard.phase1.as_secs_f64() * 1e3),
        n,
    );
    out.set(
        "shard.phase2_ms",
        per_run(shard.phase2.as_secs_f64() * 1e3),
        n,
    );
    out.set("shard.candidates_pre", per_run(shard.candidates as f64), n);
    out.set("shard.candidates_post", per_run(shard.post as f64), n);
    out.set("shard.pruners", per_run(shard.pruners as f64), n);
    out.set("shard.dist_checks", per_run(shard.dist_checks as f64), n);
    let killed = shard.candidates as f64 - shard.post as f64;
    out.set(
        "shard.kill_yield",
        ratio(killed, shard.candidates as f64),
        n,
    );
    out.notes.push(format!(
        "cost trs-shard2: per run over {n} runs: dist_checks={} candidates {} before the exchange, {} after, pruners={}",
        per_run(shard.dist_checks as f64),
        per_run(shard.candidates as f64),
        per_run(shard.post as f64),
        per_run(shard.pruners as f64)
    ));
    if cfg.traced {
        let f = fold(tracer.spans());
        for (module, op) in ENGINES {
            let (layer, _, _) = engine_layer(op);
            out.set(
                &format!("{module}.run_ms"),
                f.total_ms(layer),
                f.spans(layer),
            );
        }
        out.set(
            "shard.run_ms",
            f.total_ms("algos::shard"),
            f.spans("algos::shard"),
        );
        crate::finish_trace(&mut out, cfg, &tracer, &f, lat.trace_overhead_pct());
    }
    Ok(out)
}
