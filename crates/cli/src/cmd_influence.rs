//! `rsky influence` — rank a workload of queries by reverse-skyline size.

use rand::rngs::StdRng;
use rand::SeedableRng;
use rsky_algos::run_influence_parallel;
use rsky_core::error::Result;

use crate::args::Flags;
use crate::obs_setup::{CliObs, StatsFormat};

pub const HELP: &str = "\
rsky influence --data <DIR> [OPTIONS]

Draws random query objects over the dataset's schema, computes each one's
reverse skyline with TRS, and prints the influence ranking (the paper's
admin/car-sourcing use case).

OPTIONS:
    --data DIR        dataset directory                          (required)
    --queries N       number of random queries                   [20]
    --seed S          RNG seed for the workload                  [7]
    --memory PCT      working memory as % of dataset             [10]
    --page BYTES      page size                                  [4096]
    --threads N       worker threads (queries are split across
                      them; 0 = one per core)                    [1]
    --shards K        run each query as a K-shard scatter-gather;
                      same ranking as the single-node run         [off]
    --shard-policy P  round-robin | hash partitioning     [round-robin]
    --pruner-budget B strongest phase-1 candidates each shard exports
                      to the cross-shard kill pass (0 = off)    [256]
    --top K           how many top entries to print              [10]
    --stats-format F  report as human | json | prometheus        [human]
    --trace-out FILE  stream span/counter events to FILE as JSONL";

pub fn run(argv: &[String]) -> Result<()> {
    let flags = Flags::parse(argv, HELP)?;
    let obs = CliObs::install(&flags)?;
    let dir = flags.require("data")?;
    let ds = rsky_data::csv::load_dataset_dir(dir)?;
    let queries: usize = flags.num("queries", 20)?;
    let seed: u64 = flags.num("seed", 7)?;
    let mem_pct: f64 = flags.num("memory", 10.0)?;
    let page: usize = flags.num("page", 4096)?;
    let threads = rsky_server::resolve_threads(flags.num("threads", 1)?);
    let top: usize = flags.num("top", 10)?;

    let mut rng = StdRng::seed_from_u64(seed);
    let workload = rsky_data::random_queries(&ds.schema, queries, &mut rng)?;
    let n = ds.len();
    let t0 = std::time::Instant::now();
    let report = match flags.shard_spec()? {
        Some(spec) => {
            let budget: usize =
                flags.num("pruner-budget", rsky_algos::shard::DEFAULT_PRUNER_BUDGET)?;
            let tables = rsky_algos::shard::ShardedTables::new(&ds, spec, mem_pct, page, 4)?
                .with_pruner_budget(budget);
            tables.run_influence(&workload, false)?
        }
        None => run_influence_parallel(&ds, &workload, mem_pct, page, threads, false)?,
    };
    if obs.format == StatsFormat::Prometheus {
        print!("{}", obs.metrics_prometheus());
        obs.finish()?;
        return Ok(());
    }
    if obs.format == StatsFormat::Json {
        use std::fmt::Write;
        let mut out = String::from("{\"queries\":");
        let _ = write!(
            out,
            "{queries},\"records\":{n},\"total_dist_checks\":{},\"total_influence\":{},\"ranking\":[",
            report.totals.dist_checks,
            report.total_influence()
        );
        for (rank, &qi) in report.ranking().iter().take(top).enumerate() {
            if rank > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "{{\"query\":{qi},\"cardinality\":{}}}",
                report.per_query[qi].cardinality
            );
        }
        let _ = write!(out, "],\"metrics\":{}}}", obs.metrics_json());
        println!("{out}");
        obs.finish()?;
        return Ok(());
    }
    println!(
        "computed |RS| for {queries} queries over {n} records in {:.2?} ({} checks)\n",
        t0.elapsed(),
        report.totals.dist_checks
    );
    println!("{:<8} {:>10} {:>10}", "rank", "query#", "|RS|");
    for (rank, &qi) in report.ranking().iter().take(top).enumerate() {
        println!("{:<8} {:>10} {:>10}", rank + 1, qi, report.per_query[qi].cardinality);
    }
    println!(
        "\ntotal influence {} | top-{} share {:.0}%",
        report.total_influence(),
        top.min(queries),
        100.0 * report.top_k_share(top)
    );
    obs.finish()?;
    Ok(())
}
