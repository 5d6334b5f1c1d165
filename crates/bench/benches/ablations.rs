//! Ablations of the design choices DESIGN.md calls out:
//!
//! 1. **Child ordering** — TRS with and without descendant-count child
//!    ordering in `IsPrunable` (the Algorithm 4 heuristic);
//! 2. **Witness probe** — TRS with and without testing each phase-one leaf
//!    against the batch's recent pruners before walking for it (without:
//!    the paper's plain Algorithm 4);
//! 3. **Pre-sorting** — TRS on sorted vs original layout (how much of TRS's
//!    win comes from clustering vs from the tree itself);
//! 4. **Radiating search** — SRS's outward probe vs a plain linear scan on
//!    the same sorted data (isolates Section 4.2's probe-order idea);
//! 5. **Attribute ordering** — ascending- vs descending-cardinality tree
//!    orders (Section 5.1's heuristic).

use rand::rngs::StdRng;
use rand::SeedableRng;
use rsky_algos::prep::{load_dataset, prepare_table, Layout};
use rsky_algos::{Brs, EngineCtx, ReverseSkylineAlgo, Srs, Trs};
use rsky_bench::table::Table;
use rsky_bench::BenchConfig;
use rsky_core::dataset::Dataset;
use rsky_core::query::Query;
use rsky_storage::{Disk, MemoryBudget, RecordFile};

fn run(
    algo: &dyn ReverseSkylineAlgo,
    disk: &mut Disk,
    ds: &Dataset,
    table: &RecordFile,
    qs: &[Query],
    budget: MemoryBudget,
) -> (f64, u64, usize) {
    let mut time = 0.0;
    let mut checks = 0;
    let mut result = 0;
    for q in qs {
        let mut ctx = EngineCtx { disk, schema: &ds.schema, dissim: &ds.dissim, budget };
        let r = algo.run(&mut ctx, table, q).unwrap();
        time += r.stats.total_time.as_secs_f64();
        checks += r.stats.dist_checks;
        result = r.ids.len();
    }
    (time / qs.len() as f64, checks / qs.len() as u64, result)
}

fn main() {
    let cfg = BenchConfig::from_env();
    println!("{}", cfg.banner("Ablations: TRS/SRS design choices"));

    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let n = cfg.n(1_000_000);
    let ds = rsky_data::synthetic::normal_dataset(5, 50, n, &mut rng).unwrap();
    let qs = rsky_data::random_queries(&ds.schema, cfg.queries, &mut rng).unwrap();

    let mut disk = Disk::new_mem(cfg.page_size);
    let raw = load_dataset(&mut disk, &ds).unwrap();
    let budget = MemoryBudget::from_percent(ds.data_bytes(), 10.0, cfg.page_size).unwrap();
    let sorted = prepare_table(&mut disk, &ds.schema, &raw, Layout::MultiSort, &budget).unwrap();

    let mut t = Table::new(
        format!("Ablations (n = {n}, 5 attrs × 50 values, 10% memory)"),
        &["variant", "mean time (ms)", "mean checks", "|RS|"],
    );

    // 1. Child ordering on/off.
    let mut trs_ordered = Trs::for_schema(&ds.schema);
    trs_ordered.opts.order_children_by_count = true;
    let mut trs_unordered = Trs::for_schema(&ds.schema);
    trs_unordered.opts.order_children_by_count = false;
    for (name, algo) in
        [("TRS (ordered children)", &trs_ordered), ("TRS (value-ordered children)", &trs_unordered)]
    {
        let (time, checks, rs) = run(algo, &mut disk, &ds, &sorted.file, &qs, budget);
        t.row(vec![name.into(), format!("{:.1}", time * 1e3), checks.to_string(), rs.to_string()]);
    }

    // 2. The witness probe off: the paper's plain Alg. 4.
    let mut trs_plain = Trs::for_schema(&ds.schema);
    trs_plain.opts.witness_first = false;
    let (time, checks, rs) = run(&trs_plain, &mut disk, &ds, &sorted.file, &qs, budget);
    t.row(vec![
        "TRS (paper's Alg. 4, no witness probe)".into(),
        format!("{:.1}", time * 1e3),
        checks.to_string(),
        rs.to_string(),
    ]);

    // 3. TRS on the original (unsorted) layout.
    let (time, checks, rs) = run(&trs_ordered, &mut disk, &ds, &raw, &qs, budget);
    t.row(vec!["TRS (unsorted layout)".into(), format!("{:.1}", time * 1e3), checks.to_string(), rs.to_string()]);

    // 4. SRS radiating probe vs linear scan on sorted data (BRS engine =
    //    linear phase-one order).
    let (time, checks, rs) = run(&Srs, &mut disk, &ds, &sorted.file, &qs, budget);
    t.row(vec!["SRS (radiating probe)".into(), format!("{:.1}", time * 1e3), checks.to_string(), rs.to_string()]);
    let (time, checks, rs) = run(&Brs, &mut disk, &ds, &sorted.file, &qs, budget);
    t.row(vec!["sorted + linear probe".into(), format!("{:.1}", time * 1e3), checks.to_string(), rs.to_string()]);

    // 5. Attribute ordering: ascending (default) vs descending cardinality.
    // Uniform cardinalities make this a tie on synthetic data, so use the
    // CI-like shape where cardinalities differ (91/17/5/53/7).
    let ci = rsky_data::census_income_like(cfg.n(rsky_data::realworld::CI_ROWS), &mut rng).unwrap();
    let ci_qs = rsky_data::random_queries(&ci.schema, cfg.queries, &mut rng).unwrap();
    let mut ci_disk = Disk::new_mem(cfg.page_size);
    let ci_raw = load_dataset(&mut ci_disk, &ci).unwrap();
    let ci_budget = MemoryBudget::from_percent(ci.data_bytes(), 10.0, cfg.page_size).unwrap();
    let ci_sorted =
        prepare_table(&mut ci_disk, &ci.schema, &ci_raw, Layout::MultiSort, &ci_budget).unwrap();
    let asc = Trs::for_schema(&ci.schema);
    let mut desc_order = asc.attr_order().to_vec();
    desc_order.reverse();
    let desc = Trs::with_order(desc_order);
    for (name, algo) in
        [("TRS asc-cardinality order (CI)", &asc), ("TRS desc-cardinality order (CI)", &desc)]
    {
        let (time, checks, rs) = run(algo, &mut ci_disk, &ci, &ci_sorted.file, &ci_qs, ci_budget);
        t.row(vec![name.into(), format!("{:.1}", time * 1e3), checks.to_string(), rs.to_string()]);
    }

    t.print();
    println!("\n(Note: the descending-order TRS runs on a file sorted in ascending order,");
    println!("so it also loses clustering — the paper's point that sort order and tree");
    println!("order must agree.)");
}
