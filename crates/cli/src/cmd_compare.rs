//! `rsky compare` — side-by-side engine comparison on one dataset.

use rand::rngs::StdRng;
use rand::SeedableRng;
use rsky_algos::prep::{load_dataset, prepare_table};
use rsky_algos::{engine_by_name, layout_for, EngineCtx};
use rsky_core::dataset::Dataset;
use rsky_core::error::Result;
use rsky_core::query::Query;
use rsky_storage::{Disk, MemoryBudget};

use crate::args::Flags;
use crate::obs_setup::{CliObs, StatsFormat};

pub const HELP: &str = "\
rsky compare --data <DIR> [OPTIONS]

Runs Naive (optional), BRS, SRS, TRS, T-SRS and T-TRS over random queries on
the dataset and prints a comparison table (time, checks, IOs) — a one-shot
version of the repository's figure benches.

OPTIONS:
    --data DIR        dataset directory                          (required)
    --queries N       random queries to aggregate over           [3]
    --seed S          workload seed                              [7]
    --memory PCT      working memory as % of dataset             [10]
    --page BYTES      page size                                  [4096]
    --naive BOOL      include the O(n²)-scan baseline (slow)     [false]
    --stats-format F  table as human | json | prometheus         [human]
    --trace-out FILE  stream span/counter events to FILE as JSONL";

/// Every engine the table compares, as (display label, engine name): the
/// O(n²) Naive baseline first, run only with `--naive true`.
const ENGINES: [(&str, &str); 6] = [
    ("Naive", "naive"),
    ("BRS", "brs"),
    ("SRS", "srs"),
    ("TRS", "trs"),
    ("T-SRS", "tsrs"),
    ("T-TRS", "ttrs"),
];

/// Z-order tiles per attribute of the tiled layouts (T-SRS, T-TRS).
const TILES: u32 = 4;

pub fn run(argv: &[String]) -> Result<()> {
    let flags = Flags::parse(argv, HELP)?;
    let obs = CliObs::install(&flags)?;
    let ds = rsky_data::csv::load_dataset_dir(flags.require("data")?)?;
    let queries: usize = flags.num("queries", 3)?;
    let seed: u64 = flags.num("seed", 7)?;
    let mem_pct: f64 = flags.num("memory", 10.0)?;
    let page: usize = flags.num("page", 4096)?;
    let include_naive: bool = flags.num("naive", false)?;

    let mut rng = StdRng::seed_from_u64(seed);
    let workload = rsky_data::random_queries(&ds.schema, queries, &mut rng)?;
    let rows = ENGINES[usize::from(!include_naive)..]
        .iter()
        .map(|&(label, name)| Ok((label, run_engine(&ds, &workload, name, mem_pct, page)?)))
        .collect::<Result<Vec<_>>>()?;

    if obs.format != StatsFormat::Human {
        use std::fmt::Write;
        let mut out = String::from("{\"rows\":[");
        for (i, (label, r)) in rows.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "{{\"algo\":\"{label}\",\"mean_ms\":{},\"mean_checks\":{},\"seq_io\":{},\
                 \"rand_io\":{},\"mean_rs\":{}}}",
                r.mean_ms,
                r.mean_checks,
                r.seq_io,
                r.rand_io,
                r.mean_rs
            );
        }
        let _ = write!(out, "],\"metrics\":{}}}", obs.metrics_json());
        if obs.format == StatsFormat::Prometheus {
            print!("{}", obs.metrics_prometheus());
        } else {
            println!("{out}");
        }
        obs.finish()?;
        return Ok(());
    }

    println!(
        "{} — {} records, {} queries, {mem_pct}% memory, {page}-byte pages\n",
        ds.label,
        ds.len(),
        queries
    );
    println!(
        "{:<7} {:>12} {:>14} {:>9} {:>9} {:>8}",
        "algo", "mean ms", "mean checks", "seq IO", "rand IO", "|RS|"
    );
    for (label, r) in &rows {
        println!(
            "{:<7} {:>12.1} {:>14.0} {:>9} {:>9} {:>8.1}",
            label, r.mean_ms, r.mean_checks, r.seq_io, r.rand_io, r.mean_rs
        );
    }
    obs.finish()?;
    Ok(())
}

/// One engine's means over the workload.
struct Row {
    mean_ms: f64,
    mean_checks: f64,
    seq_io: u64,
    rand_io: u64,
    mean_rs: f64,
}

/// Runs engine `name` over `workload` on a freshly prepared in-memory
/// table in the engine's layout.
fn run_engine(
    ds: &Dataset,
    workload: &[Query],
    name: &str,
    mem_pct: f64,
    page: usize,
) -> Result<Row> {
    let mut disk = Disk::new_mem(page);
    let raw = load_dataset(&mut disk, ds)?;
    let budget = MemoryBudget::from_percent(ds.data_bytes(), mem_pct, page)?;
    let layout = layout_for(name, TILES)?;
    let prepared = prepare_table(&mut disk, &ds.schema, &raw, layout, &budget)?;
    let engine = engine_by_name(name, &ds.schema, 1)?;
    let (mut ms, mut checks, mut rs) = (0.0, 0.0, 0.0);
    let (mut seq, mut rand) = (0u64, 0u64);
    for q in workload {
        let mut ctx = EngineCtx { disk: &mut disk, schema: &ds.schema, dissim: &ds.dissim, budget };
        let run = engine.run(&mut ctx, &prepared.file, q)?;
        ms += run.stats.total_time.as_secs_f64() * 1e3;
        checks += run.stats.dist_checks as f64;
        rs += run.ids.len() as f64;
        seq += run.stats.io.sequential();
        rand += run.stats.io.random();
    }
    let n = workload.len().max(1) as f64;
    Ok(Row {
        mean_ms: ms / n,
        mean_checks: checks / n,
        seq_io: seq / workload.len().max(1) as u64,
        rand_io: rand / workload.len().max(1) as u64,
        mean_rs: rs / n,
    })
}
