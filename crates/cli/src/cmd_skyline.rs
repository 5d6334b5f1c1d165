//! `rsky skyline` — the forward operator: dynamic skyline of a query.

use rsky_algos::prep::load_dataset;
use rsky_algos::skyline_bnl::dynamic_skyline_bnl;
use rsky_algos::EngineCtx;
use rsky_core::error::{Error, Result};
use rsky_core::query::Query;
use rsky_storage::{Disk, MemoryBudget};

use crate::args::Flags;

pub const HELP: &str = "\
rsky skyline --data <DIR> --query <v1,v2,…> [OPTIONS]

Computes the DYNAMIC SKYLINE of the query object (the forward operator the
reverse skyline is built on): all objects not dominated with respect to the
query, via disk-based block-nested-loops.

OPTIONS:
    --data DIR        dataset directory                          (required)
    --query V,V,…     query value ids, one per attribute         (required)
    --subset I,I,…    attribute indices to search on             [all]
    --memory PCT      working memory as % of dataset             [10]
    --page BYTES      page size                                  [4096]";

pub fn run(argv: &[String]) -> Result<()> {
    let flags = Flags::parse(argv, HELP)?;
    let ds = rsky_data::csv::load_dataset_dir(flags.require("data")?)?;
    let values = flags
        .u32_list("query")?
        .ok_or_else(|| Error::InvalidConfig("missing required flag --query".into()))?;
    let query = match flags.usize_list("subset")? {
        Some(subset) => Query::on_subset(&ds.schema, values, &subset)?,
        None => Query::new(&ds.schema, values)?,
    };
    let mem_pct: f64 = flags.num("memory", 10.0)?;
    let page: usize = flags.num("page", 4096)?;

    let mut disk = Disk::new_mem(page);
    let table = load_dataset(&mut disk, &ds)?;
    let budget = MemoryBudget::from_percent(ds.data_bytes(), mem_pct, page)?;
    let mut ctx = EngineCtx { disk: &mut disk, schema: &ds.schema, dissim: &ds.dissim, budget };
    let run = dynamic_skyline_bnl(&mut ctx, &table, &query)?;

    println!("dynamic skyline: {} object(s)", run.ids.len());
    let shown: Vec<String> = run.ids.iter().take(50).map(|id| id.to_string()).collect();
    println!("ids: {}{}", shown.join(","), if run.ids.len() > 50 { ",…" } else { "" });
    println!(
        "\nBNL: {} pass(es), {} distance checks, {} seq + {} rand IOs, {:.2?}",
        run.stats.phase1_batches,
        run.stats.dist_checks,
        run.stats.io.sequential(),
        run.stats.io.random(),
        run.stats.total_time
    );
    Ok(())
}
