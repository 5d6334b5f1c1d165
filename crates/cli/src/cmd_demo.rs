//! `rsky demo` — the paper's running example through every engine.

use rsky_algos::prep::{load_dataset, prepare_table, Layout};
use rsky_algos::{explain, Brs, EngineCtx, Naive, ReverseSkylineAlgo, Srs, Trs};
use rsky_core::error::Result;
use rsky_storage::{Disk, MemoryBudget};

pub const HELP: &str = "\
rsky demo

Runs the six-server running example of the paper (Table 1 + Figure 1):
prints the dataset, every object's pruner witnesses, and the reverse
skyline {O3, O6} computed by Naive, BRS, SRS and TRS. Takes no options.";

pub fn run(argv: &[String]) -> Result<()> {
    crate::args::Flags::parse(argv, HELP)?;
    let (ds, q) = rsky_data::paper_example();
    let names = ["O1", "O2", "O3", "O4", "O5", "O6"];
    let os = ["MSW", "RHL", "SL"];
    let cpu = ["AMD", "Intel"];
    let db = ["Informix", "DB2", "Oracle"];

    println!("The paper's running example — query Q = [MSW, Intel, DB2]\n");
    println!("{:<4} {:<5} {:<6} {:<9} {:<7} pruners", "id", "OS", "CPU", "DB", "in RS?");
    let ex = explain(&ds, &q);
    for (i, (id, membership)) in ex.entries.iter().enumerate() {
        let v = ds.rows.values(i);
        let witnesses = rsky_algos::all_witnesses(&ds, &q, *id);
        let wit: Vec<&str> = witnesses.iter().map(|w| names[(*w - 1) as usize]).collect();
        println!(
            "{:<4} {:<5} {:<6} {:<9} {:<7} {}",
            names[i],
            os[v[0] as usize],
            cpu[v[1] as usize],
            db[v[2] as usize],
            if matches!(membership, rsky_algos::Membership::InResult) { "yes" } else { "no" },
            wit.join(",")
        );
    }

    let mut disk = Disk::new_mem(64);
    let raw = load_dataset(&mut disk, &ds)?;
    let budget = MemoryBudget::from_percent(ds.data_bytes(), 50.0, 64)?;
    let sorted = prepare_table(&mut disk, &ds.schema, &raw, Layout::MultiSort, &budget)?;
    let trs = Trs::for_schema(&ds.schema);

    println!("\n{:<6} {:>8} {:>8} {:>8}", "algo", "result", "checks", "IOs");
    let engines: [(&dyn ReverseSkylineAlgo, &rsky_storage::RecordFile); 4] =
        [(&Naive, &raw), (&Brs, &raw), (&Srs, &sorted.file), (&trs, &sorted.file)];
    for (engine, table) in engines {
        let mut ctx =
            EngineCtx { disk: &mut disk, schema: &ds.schema, dissim: &ds.dissim, budget };
        let run = engine.run(&mut ctx, table, &q)?;
        let labels: Vec<&str> = run.ids.iter().map(|&id| names[(id - 1) as usize]).collect();
        println!(
            "{:<6} {:>8} {:>8} {:>8}",
            engine.name(),
            labels.join(","),
            run.stats.dist_checks,
            run.stats.io.total()
        );
    }
    println!("\nRS = {{O3, O6}} — exactly Table 1 of the paper.");
    Ok(())
}
