//! `rsky query` — one reverse-skyline query against a dataset directory.

use rsky_algos::prep::{load_dataset, prepare_table};
use rsky_algos::shard::ShardedTables;
use rsky_algos::{engine_by_name, layout_for, EngineCtx, RsRun};
use rsky_core::dataset::Dataset;
use rsky_core::error::{Error, Result};
use rsky_core::query::Query;
use rsky_storage::{Disk, MemoryBudget, ShardSpec};

use crate::args::Flags;
use crate::obs_setup::{CliObs, StatsFormat};

pub const HELP: &str = "\
rsky query --data <DIR> --query <v1,v2,…> [OPTIONS]

Computes the reverse skyline of the query object over the dataset.

OPTIONS:
    --data DIR        dataset directory from `rsky generate`     (required)
    --query V,V,…     query value ids, one per attribute         (required)
    --algo A          naive | brs | srs | trs | trs-bf | tsrs | ttrs [trs]
    --threads N       worker threads for brs/srs/trs/tsrs/ttrs   [1]
                      (0 = one per core; N > 1 walks batches on N
                      workers over one disk; same results either way)
    --subset I,I,…    attribute indices to search on             [all]
    --memory PCT      working memory as % of dataset             [10]
    --page BYTES      page size                                  [4096]
    --cache PAGES     enable an LRU buffer pool of that many pages [off]
    --tiles T         tiles per attribute for tsrs/ttrs          [4]
    --shards K        scatter-gather over K horizontal shards; results
                      are identical to the single-node run        [off]
    --shard-policy P  round-robin | hash partitioning     [round-robin]
    --pruner-budget B strongest phase-1 candidates each shard exports
                      to the cross-shard kill pass (0 = off)    [256]
    --top-k K         additionally rank the result members by influence
                      strength |RS(member)| (ties: ascending id) and
                      report the K strongest                     [off]
    --file-backend    store pages in real files (response-time mode)
    --stats-format F  cost profile as human | json | prometheus  [human]
    --trace-out FILE  stream span/counter events to FILE as JSONL
    --explain         list a pruner witness for each excluded object near
                      the result (slow: O(n²) over the dataset)";

pub fn run(argv: &[String]) -> Result<()> {
    let flags = Flags::parse(argv, HELP)?;
    let obs = CliObs::install(&flags)?;
    let dir = flags.require("data")?;
    let ds = rsky_data::csv::load_dataset_dir(dir)?;
    let values = flags
        .u32_list("query")?
        .ok_or_else(|| Error::InvalidConfig("missing required flag --query".into()))?;
    let query = match flags.usize_list("subset")? {
        Some(subset) => Query::on_subset(&ds.schema, values, &subset)?,
        None => Query::new(&ds.schema, values)?,
    };
    let algo = flags.get("algo").unwrap_or("trs");
    let requested_threads: usize = flags.num("threads", 1)?;
    let mem_pct: f64 = flags.num("memory", 10.0)?;
    let page: usize = flags.num("page", 4096)?;
    let tiles: u32 = flags.num("tiles", 4)?;
    let cache: usize = flags.num("cache", 0)?;
    let top_k = match flags.get("top-k") {
        None => None,
        Some(_) => match flags.num::<usize>("top-k", 0)? {
            0 => return Err(Error::InvalidConfig("--top-k must be at least 1".into())),
            k => Some(k),
        },
    };
    if algo == "naive" && requested_threads > 1 {
        return Err(Error::InvalidConfig("--algo naive has no parallel variant".into()));
    }
    // `--threads 0` = one per core; naive stays sequential either way.
    let threads =
        if algo == "naive" { 1 } else { rsky_server::resolve_threads(requested_threads) };

    if let Some(spec) = flags.shard_spec()? {
        // Each shard's runs mount its page images on in-memory scratch
        // disks; the single-node storage knobs have nothing to apply to.
        if flags.switch("file-backend") || cache > 0 {
            return Err(Error::InvalidConfig(
                "--shards is incompatible with --file-backend/--cache (each shard \
                 runs on in-memory scratch disks)"
                    .into(),
            ));
        }
        let budget: usize =
            flags.num("pruner-budget", rsky_algos::shard::DEFAULT_PRUNER_BUDGET)?;
        let tables =
            ShardedTables::new(&ds, spec, mem_pct, page, tiles)?.with_pruner_budget(budget);
        let sharded = tables.run_query(algo, threads, &query)?;
        let run = RsRun { ids: sharded.ids, stats: sharded.stats };
        let ranked = rank_result(&ds, &query, &run, top_k)?;
        if obs.format == StatsFormat::Prometheus {
            print!("{}", obs.metrics_prometheus());
            obs.finish()?;
            return Ok(());
        }
        if obs.format == StatsFormat::Json {
            println!(
                "{}",
                render_json(algo, &run, Some((&spec, sharded.candidates)), ranked.as_deref(), &obs)
            );
            obs.finish()?;
            return Ok(());
        }
        println!(
            "sharding: {} × {} — {} candidate(s), {} after the pruner exchange \
             ({} pruner(s) broadcast)",
            spec.shards, spec.policy, sharded.candidates, sharded.post_candidates, sharded.pruners
        );
        for c in &sharded.per_shard {
            println!(
                "  shard {}: {} record(s) → {} candidate(s) → {} survivor(s)",
                c.shard, c.records, c.candidates, c.survivors
            );
        }
        print_result(algo, &run);
        if let Some(ranked) = &ranked {
            print_ranked(ranked);
        }
        if flags.switch("explain") {
            print_explain(&ds, &query, run.ids.len());
        }
        obs.finish()?;
        return Ok(());
    }

    let mut disk = if flags.switch("file-backend") {
        let dir = std::env::temp_dir().join(format!("rsky-cli-{}", std::process::id()));
        Disk::new_dir(dir, page)?
    } else {
        Disk::new_mem(page)
    };
    disk.set_cache_pages(cache);
    let raw = load_dataset(&mut disk, &ds)?;
    let budget = MemoryBudget::from_percent(ds.data_bytes(), mem_pct, page)?;
    let layout = layout_for(algo, tiles)?;
    let prepared = prepare_table(&mut disk, &ds.schema, &raw, layout, &budget)?;
    if let Some((runs, passes)) = prepared.sort_outcome {
        println!(
            "pre-processing: {:.2?} ({runs} runs, {passes} merge passes)",
            prepared.prep_time
        );
    }

    let engine = engine_by_name(algo, &ds.schema, threads)?;
    let mut ctx = EngineCtx { disk: &mut disk, schema: &ds.schema, dissim: &ds.dissim, budget };
    let run = engine.run(&mut ctx, &prepared.file, &query)?;
    let ranked = rank_result(&ds, &query, &run, top_k)?;

    if obs.format == StatsFormat::Prometheus {
        print!("{}", obs.metrics_prometheus());
        obs.finish()?;
        return Ok(());
    }
    if obs.format == StatsFormat::Json {
        println!("{}", render_json(engine.name(), &run, None, ranked.as_deref(), &obs));
        obs.finish()?;
        return Ok(());
    }

    print_result(engine.name(), &run);
    if let Some(ranked) = &ranked {
        print_ranked(ranked);
    }
    if let Some((hits, misses)) = ctx.disk.cache_stats() {
        println!("buffer pool:       {hits} hits / {misses} misses");
    }

    if flags.switch("explain") {
        print_explain(&ds, &query, run.ids.len());
    }
    obs.finish()?;
    Ok(())
}

/// Ranks the result members by influence strength when `--top-k` was given.
fn rank_result(
    ds: &Dataset,
    query: &Query,
    run: &RsRun,
    top_k: Option<usize>,
) -> Result<Option<Vec<rsky_algos::RankedMember>>> {
    let Some(k) = top_k else {
        return Ok(None);
    };
    let subset = if query.subset.is_full() { None } else { Some(query.subset.indices()) };
    Ok(Some(rsky_algos::rank_members(ds, subset, &run.ids, k)?))
}

/// Prints the `--top-k` ranking.
fn print_ranked(ranked: &[rsky_algos::RankedMember]) {
    println!("\ntop-{} by influence strength:", ranked.len());
    for (i, r) in ranked.iter().enumerate() {
        println!("  {}. object {} (|RS| = {})", i + 1, r.id, r.strength);
    }
}

/// Prints the result ids and the human-readable cost profile.
fn print_result(label: &str, run: &RsRun) {
    println!("\nreverse skyline: {} object(s)", run.ids.len());
    let shown: Vec<String> = run.ids.iter().take(50).map(|id| id.to_string()).collect();
    println!("ids: {}{}", shown.join(","), if run.ids.len() > 50 { ",…" } else { "" });
    println!("\n--- cost profile ({label}) ---");
    println!("distance checks:   {}", run.stats.dist_checks);
    println!("query-side evals:  {}", run.stats.query_dist_checks);
    println!("object pairs:      {}", run.stats.obj_comparisons);
    println!("sequential IO:     {}", run.stats.io.sequential());
    println!("random IO:         {}", run.stats.io.random());
    println!("phase 1:           {:.2?} ({} batches → {} survivors)",
        run.stats.phase1_time, run.stats.phase1_batches, run.stats.phase1_survivors);
    println!("phase 2:           {:.2?} ({} batches)", run.stats.phase2_time, run.stats.phase2_batches);
    println!("total:             {:.2?}", run.stats.total_time);
}

/// Prints pruner witnesses for exclusions near the result (`--explain`).
fn print_explain(ds: &Dataset, query: &Query, result_len: usize) {
    let ex = rsky_algos::explain(ds, query);
    let mut shown = 0;
    println!("\n--- exclusions near the result (witnesses) ---");
    for (id, m) in &ex.entries {
        if let rsky_algos::Membership::PrunedBy { witness } = m {
            println!("object {id} pruned by {witness}");
            shown += 1;
            if shown >= 20 {
                println!("… ({} more exclusions)", ds.len() - result_len - shown);
                break;
            }
        }
    }
}

/// Renders the run outcome as one JSON object: ids, the `RunStats` totals,
/// the shard breakdown (when scatter-gather ran), and the metrics-registry
/// snapshot (so trace consumers can reconcile the JSONL span stream against
/// the printed totals).
fn render_json(
    algo: &str,
    run: &RsRun,
    shard: Option<(&ShardSpec, usize)>,
    ranked: Option<&[rsky_algos::RankedMember]>,
    obs: &CliObs,
) -> String {
    use std::fmt::Write;
    let s = &run.stats;
    let mut out = String::from("{\"algo\":\"");
    out.push_str(algo);
    out.push('"');
    if let Some((spec, candidates)) = shard {
        let _ = write!(
            out,
            ",\"shards\":{{\"count\":{},\"policy\":\"{}\",\"candidates\":{candidates}}}",
            spec.shards, spec.policy
        );
    }
    let _ = write!(out, ",\"result_size\":{},\"ids\":[", run.ids.len());
    for (i, id) in run.ids.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(out, "{id}");
    }
    if let Some(ranked) = ranked {
        out.push_str("],\"ranked\":[");
        for (i, r) in ranked.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "{{\"id\":{},\"strength\":{}}}", r.id, r.strength);
        }
    }
    let _ = write!(
        out,
        "],\"stats\":{{\"dist_checks\":{},\"query_dist_checks\":{},\"obj_comparisons\":{},\
         \"seq_io\":{},\"rand_io\":{},\"phase1_batches\":{},\"phase1_survivors\":{},\
         \"phase2_batches\":{},\"total_us\":{}}},\"metrics\":{}}}",
        s.dist_checks,
        s.query_dist_checks,
        s.obj_comparisons,
        s.io.sequential(),
        s.io.random(),
        s.phase1_batches,
        s.phase1_survivors,
        s.phase2_batches,
        s.total_time.as_micros(),
        obs.metrics_json()
    );
    out
}
