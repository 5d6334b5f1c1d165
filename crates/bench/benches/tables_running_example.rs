//! Tables 1, 2 and 3 of the paper: the running example end to end.
//!
//! * **Table 1** — the six-server dataset, pruner lists, and the reverse
//!   skyline `{O3, O6}` for `Q = [MSW, Intel, DB2]`;
//! * **Table 2** — BRS vs SRS phase structure with 1-object pages and
//!   3-page memory;
//! * **Table 3** — attribute-level check counts, TRS (the paper's plain
//!   Algorithm 4 and with the witness probe) vs SRS.
//!
//! Check counts are structurally comparable rather than digit-identical to
//! the paper: the paper's counting of Algorithm 4's line-9/line-10 reuse is
//! ambiguous (its own walkthrough counts differently in two places); we count
//! one check per data-data distance evaluation, with query-side distances
//! cached once per run (see `rsky_algos::qcache`).

use rsky_algos::prep::load_dataset;
use rsky_algos::{Brs, EngineCtx, ReverseSkylineAlgo, Srs, Trs};
use rsky_bench::table::Table;
use rsky_core::dominate::prunes;
use rsky_core::query::AttrSubset;
use rsky_order::{external_sort, SortOrder};
use rsky_storage::{Disk, MemoryBudget};

fn main() {
    let (ds, q) = rsky_data::paper_example();
    let names = ["O1", "O2", "O3", "O4", "O5", "O6"];

    // ---- Table 1: membership + pruners ------------------------------------
    let mut t1 = Table::new(
        "Table 1 — sample dataset and RS for Q = [MSW, Intel, DB2]",
        &["Id", "OS", "CPU", "DB", "in RS?", "pruners"],
    );
    let all = AttrSubset::all(3);
    let os = ["MSW", "RHL", "SL"];
    let cpu = ["AMD", "Intel"];
    let db = ["Informix", "DB2", "Oracle"];
    let mut checks = 0u64;
    for i in 0..ds.rows.len() {
        let x = ds.rows.values(i);
        let pruners: Vec<String> = (0..ds.rows.len())
            .filter(|&j| j != i && prunes(&ds.dissim, &all, ds.rows.values(j), x, &q.values, &mut checks))
            .map(|j| names[j].to_string())
            .collect();
        t1.row(vec![
            names[i].into(),
            os[x[0] as usize].into(),
            cpu[x[1] as usize].into(),
            db[x[2] as usize].into(),
            if pruners.is_empty() { "yes".into() } else { "no".into() },
            pruners.join(","),
        ]);
    }
    t1.print();

    // ---- Table 2: BRS vs SRS phases (1-object pages, 3-page memory) -------
    let mut t2 = Table::new(
        "Table 2 — performance on the running example (1-object pages, 3-page memory)",
        &["Approach", "phase-1 survivors |R|", "phase-2 batches", "result"],
    );
    {
        let mut disk = Disk::new_mem(16);
        let table = load_dataset(&mut disk, &ds).unwrap();
        let budget = MemoryBudget::from_bytes(48, 16).unwrap();
        let mut ctx =
            EngineCtx { disk: &mut disk, schema: &ds.schema, dissim: &ds.dissim, budget };
        let run = Brs.run(&mut ctx, &table, &q).unwrap();
        t2.row(vec![
            "BRS".into(),
            run.stats.phase1_survivors.to_string(),
            run.stats.phase2_batches.to_string(),
            format!("{:?}", run.ids),
        ]);
    }
    {
        let mut disk = Disk::new_mem(16);
        let raw = load_dataset(&mut disk, &ds).unwrap();
        let budget = MemoryBudget::from_bytes(48, 16).unwrap();
        // Paper sort order [OS, CPU, DB] → {O1, O4, O6, O2, O5, O3}.
        let lex = SortOrder::lex(&ds.schema, &[0, 1, 2]);
        let sorted = external_sort(&mut disk, &raw, &budget, &lex).unwrap().file;
        let mut ctx =
            EngineCtx { disk: &mut disk, schema: &ds.schema, dissim: &ds.dissim, budget };
        let run = Srs.run(&mut ctx, &sorted, &q).unwrap();
        t2.row(vec![
            "SRS".into(),
            run.stats.phase1_survivors.to_string(),
            run.stats.phase2_batches.to_string(),
            format!("{:?}", run.ids),
        ]);
    }
    t2.print();

    // ---- Table 3: check counts, TRS vs SRS ---------------------------------
    let mut t3 = Table::new(
        "Table 3 — attribute-level distance checks on the running example",
        &["Approach", "data-data checks", "query-side evals", "result"],
    );
    let mut plain = Trs::with_order(vec![0, 1, 2]);
    plain.opts.witness_first = false;
    let probe = Trs::with_order(vec![0, 1, 2]);
    let runs: [(&str, &dyn ReverseSkylineAlgo); 3] =
        [("SRS", &Srs), ("TRS (plain Alg. 4)", &plain), ("TRS (witness probe)", &probe)];
    for (name, algo) in runs {
        let trs = algo.name() == "TRS";
        let mut disk = Disk::new_mem(16);
        let raw = load_dataset(&mut disk, &ds).unwrap();
        // "3 objects per batch" in each representation: 3 flat records for
        // SRS (48 bytes), a 3-object prefix tree for TRS (~600 bytes at this
        // toy scale, where node overhead dwarfs the 16-byte records).
        let budget =
            MemoryBudget::from_bytes(if trs { 600 } else { 48 }, 16).unwrap();
        let lex = SortOrder::lex(&ds.schema, &[0, 1, 2]);
        let sorted = external_sort(&mut disk, &raw, &budget, &lex).unwrap().file;
        let mut ctx =
            EngineCtx { disk: &mut disk, schema: &ds.schema, dissim: &ds.dissim, budget };
        let run = algo.run(&mut ctx, &sorted, &q).unwrap();
        t3.row(vec![
            name.into(),
            run.stats.dist_checks.to_string(),
            run.stats.query_dist_checks.to_string(),
            format!("{:?}", run.ids),
        ]);
    }
    t3.print();
    println!("\n(The paper reports 30 checks for TRS vs 38 for SRS under its counting. Our");
    println!("uniform counting lands SRS exactly on 38; TRS pays tree-path overhead that a");
    println!("6-object example cannot amortize, so its advantage appears only at scale —");
    println!("see the figure benches, where TRS needs 2–8x fewer checks than SRS. The");
    println!("witness probe's row differs from plain Alg. 4 by the walks its witnesses");
    println!("spare, less the checks its misses cost.)");
}
