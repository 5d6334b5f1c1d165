//! Differential harness for the pruner kernels' two distance sources.
//!
//! The contract under test: the distance source is a pure execution
//! strategy. A domain `FlatDissim` flattens runs every kernel over the flat
//! tables; a domain it refuses runs the same kernels over
//! `DissimTable::d`. Each fixture runs under a flattening domain and its
//! non-flattening twin ([`rsky::data::twin::linear_twins`]: the same rows,
//! one `Linear` attribute declared over 8 values or over 4098), and for
//! **every** engine configuration and shard count the two runs must agree:
//! the oracle's ids, and the same `RunStats` counter by counter
//! (`dist_checks`, `obj_comparisons`, `tree_nodes_visited`, IO, batch and
//! survivor counts). The paper's cost model is the counters, so a source is
//! only admissible if it is invisible in them. Two relaxations: the query
//! cache evaluates `d(q, v)` over the whole declared domain of a selected
//! attribute, so `query_dist_checks` is higher on the wide twin by exactly
//! the added cardinality when the twin attribute is selected; and for
//! multi-threaded runs the seq/rand IO *split* is scheduling-dependent
//! (the workers interleave their accesses on the run's one disk head), so
//! only IO totals are asserted there.

use rand::rngs::StdRng;
use rand::SeedableRng;
use rsky::core::stats::RunStats;
use rsky::data::twin::{linear_twins, FLAT_CARD, WIDE_CARD};
use rsky::prelude::*;

/// All eleven engine configurations (mirrors tests/shard_differential.rs).
const ENGINE_CONFIGS: &[(&str, usize)] = &[
    ("naive", 1),
    ("brs", 1),
    ("srs", 1),
    ("trs", 1),
    ("trs-bf", 1),
    ("brs", 2),
    ("brs", 5),
    ("srs", 2),
    ("srs", 5),
    ("trs", 2),
    ("trs", 5),
];

/// One single-node run of `engine` over `ds`.
fn run(
    ds: &Dataset,
    q: &Query,
    engine: &str,
    threads: usize,
    mem_pct: f64,
    page: usize,
) -> RsRun {
    let mut disk = Disk::new_mem(page);
    let raw = load_dataset(&mut disk, ds).unwrap();
    let budget = MemoryBudget::from_percent(ds.data_bytes(), mem_pct, page).unwrap();
    let layout = layout_for(engine, 3).unwrap();
    let prepared = prepare_table(&mut disk, &ds.schema, &raw, layout, &budget).unwrap();
    let algo = engine_by_name(engine, &ds.schema, threads).unwrap();
    let mut ctx = EngineCtx { disk: &mut disk, schema: &ds.schema, dissim: &ds.dissim, budget };
    algo.run(&mut ctx, &prepared.file, q).unwrap()
}

/// The extra query-cache evaluations the wide twin spends on `q`: the
/// added cardinality when the twin (last) attribute is selected.
fn wide_query_checks(q: &Query) -> u64 {
    if q.subset.contains(q.subset.schema_attrs() - 1) {
        u64::from(WIDE_CARD - FLAT_CARD)
    } else {
        0
    }
}

/// Counter-by-counter equality (wall-clock durations excluded), except
/// that `wide.query_dist_checks` must exceed `flat`'s by exactly
/// `extra_query_checks`. `exact_io` compares the full seq/rand IO split;
/// pass `threads == 1` — with more threads the workers' loads, reads and
/// commits reach the run's one disk head in whatever order the schedule
/// gives them, and the head classifies seq vs rand by that order, so only
/// the totals are scheduling-independent (the set of pages touched is
/// still fixed).
fn assert_counters_eq(
    flat: &RunStats,
    wide: &RunStats,
    extra_query_checks: u64,
    exact_io: bool,
    label: &str,
) {
    assert_eq!(flat.dist_checks, wide.dist_checks, "{label}: dist_checks");
    assert_eq!(
        flat.query_dist_checks + extra_query_checks,
        wide.query_dist_checks,
        "{label}: query_dist_checks"
    );
    assert_eq!(flat.obj_comparisons, wide.obj_comparisons, "{label}: obj_comparisons");
    assert_eq!(flat.tree_nodes_visited, wide.tree_nodes_visited, "{label}: tree_nodes_visited");
    if exact_io {
        assert_eq!(flat.io, wide.io, "{label}: io");
    } else {
        let reads = |io: &rsky::core::stats::IoCounts| io.seq_reads + io.rand_reads;
        let writes = |io: &rsky::core::stats::IoCounts| io.seq_writes + io.rand_writes;
        assert_eq!(reads(&flat.io), reads(&wide.io), "{label}: total reads");
        assert_eq!(writes(&flat.io), writes(&wide.io), "{label}: total writes");
    }
    assert_eq!(flat.phase1_survivors, wide.phase1_survivors, "{label}: phase1_survivors");
    assert_eq!(flat.phase1_batches, wide.phase1_batches, "{label}: phase1_batches");
    assert_eq!(flat.phase2_batches, wide.phase2_batches, "{label}: phase2_batches");
    assert_eq!(flat.result_size, wide.result_size, "{label}: result_size");
}

/// Every engine configuration under `ds`'s flattening domain and its
/// non-flattening twin.
fn assert_modes_agree(ds: &Dataset, q: &Query, mem_pct: f64, page: usize) {
    let (flat_ds, wide_ds) = linear_twins(ds).unwrap();
    let expect = reverse_skyline_by_definition(&flat_ds.dissim, &flat_ds.rows, q);
    for &(engine, threads) in ENGINE_CONFIGS {
        let label = format!("{engine}×{threads} on {}", flat_ds.label);
        let flat = run(&flat_ds, q, engine, threads, mem_pct, page);
        let wide = run(&wide_ds, q, engine, threads, mem_pct, page);
        assert_eq!(flat.ids, expect, "{label}: flat vs oracle");
        assert_eq!(wide.ids, expect, "{label}: wide vs oracle");
        assert_counters_eq(&flat.stats, &wide.stats, wide_query_checks(q), threads == 1, &label);
    }
}

#[test]
fn paper_example_modes_agree_for_all_configs() {
    let (ds, q) = rsky::data::paper_example();
    assert_modes_agree(&ds, &q, 50.0, 32);
}

#[test]
fn synthetic_normal_modes_agree_for_all_configs() {
    let mut rng = StdRng::seed_from_u64(400);
    let ds = rsky::data::synthetic::normal_dataset(3, 6, 150, &mut rng).unwrap();
    let q = rsky::data::random_queries(&ds.schema, 1, &mut rng).unwrap().remove(0);
    assert_modes_agree(&ds, &q, 12.0, 128);
}

#[test]
fn ragged_tail_sizes_agree() {
    // Candidate counts that are not multiples of the 8-lane chunk width
    // exercise the pad lanes: they must never contribute to any counter.
    let mut rng = StdRng::seed_from_u64(401);
    for n in [1usize, 7, 8, 9, 15, 17, 63] {
        let ds = rsky::data::synthetic::uniform_dataset(3, 4, n, &mut rng).unwrap();
        let q = rsky::data::random_queries(&ds.schema, 1, &mut rng).unwrap().remove(0);
        assert_modes_agree(&ds, &q, 25.0, 64);
    }
}

#[test]
fn single_attribute_schema_agrees() {
    let mut rng = StdRng::seed_from_u64(402);
    let ds = rsky::data::synthetic::normal_dataset(1, 7, 90, &mut rng).unwrap();
    let q = rsky::data::random_queries(&ds.schema, 1, &mut rng).unwrap().remove(0);
    assert_modes_agree(&ds, &q, 20.0, 64);
}

#[test]
fn attribute_subset_queries_agree() {
    let mut rng = StdRng::seed_from_u64(403);
    let ds = rsky::data::synthetic::normal_dataset(5, 6, 100, &mut rng).unwrap();
    let q = rsky::data::workload::random_subset_queries(&ds.schema, &[1, 3], 1, &mut rng)
        .unwrap()
        .remove(0);
    assert_modes_agree(&ds, &q, 15.0, 128);
}

#[test]
fn empty_table_agrees() {
    // A zero-row table short-circuits before any kernel work; both sources
    // must report the same (empty) run.
    let (ds, q) = rsky::data::paper_example();
    let (flat_ds, wide_ds) = linear_twins(&ds).unwrap();
    for ds in [&flat_ds, &wide_ds] {
        let mut disk = Disk::new_mem(64);
        let table = RecordFile::create(&mut disk, 3).unwrap();
        let budget = MemoryBudget::from_bytes(192, 64).unwrap();
        let mut ctx =
            EngineCtx { disk: &mut disk, schema: &ds.schema, dissim: &ds.dissim, budget };
        let run = Brs.run(&mut ctx, &table, &q).unwrap();
        assert!(run.ids.is_empty(), "{}", ds.label);
        assert_eq!(run.stats.obj_comparisons, 0, "{}", ds.label);
    }
}

#[test]
fn sharded_modes_agree_including_empty_shards() {
    let mut rng = StdRng::seed_from_u64(404);
    let ds = rsky::data::synthetic::normal_dataset(3, 5, 60, &mut rng).unwrap();
    let q = rsky::data::random_queries(&ds.schema, 1, &mut rng).unwrap().remove(0);
    let (flat_ds, wide_ds) = linear_twins(&ds).unwrap();
    let expect = reverse_skyline_by_definition(&flat_ds.dissim, &flat_ds.rows, &q);
    // 8 shards over 60 records keeps every shard small; the paper example
    // below additionally covers shards with zero rows.
    for (engine, threads) in [("brs", 1), ("trs", 1), ("trs-bf", 1), ("srs", 2)] {
        for k in [1usize, 3, 8] {
            let label = format!("{engine}×{threads} k={k}");
            let mut runs = Vec::new();
            for ds in [&flat_ds, &wide_ds] {
                let spec = ShardSpec::new(k, ShardPolicy::RoundRobin).unwrap();
                let tables = ShardedTables::new(ds, spec, 12.0, 64, 3).unwrap();
                runs.push(tables.run_query(engine, threads, &q).unwrap());
            }
            let (flat, wide) = (&runs[0], &runs[1]);
            assert_eq!(flat.ids, expect, "{label}: flat vs oracle");
            assert_eq!(wide.ids, expect, "{label}: wide vs oracle");
            // The coordinator builds the one query cache; shard passes
            // borrow it.
            let extra = wide_query_checks(&q);
            assert_counters_eq(&flat.stats, &wide.stats, extra, threads == 1, &label);
            for (a, b) in flat.per_shard.iter().zip(&wide.per_shard) {
                let passes = [
                    (&a.local, &b.local, "local"),
                    (&a.exchange, &b.exchange, "kill"),
                    (&a.verify, &b.verify, "verify"),
                ];
                for (x, y, pass) in passes {
                    let label = format!("{label} shard {} {pass}", a.shard);
                    assert_counters_eq(x, y, 0, threads == 1, &label);
                }
            }
        }
    }
    let (ds, q) = rsky::data::paper_example();
    let (flat_ds, wide_ds) = linear_twins(&ds).unwrap();
    let expect = reverse_skyline_by_definition(&flat_ds.dissim, &flat_ds.rows, &q);
    for ds in [&flat_ds, &wide_ds] {
        let spec = ShardSpec::new(8, ShardPolicy::HashById).unwrap();
        let tables = ShardedTables::new(ds, spec, 50.0, 32, 3).unwrap();
        let run = tables.run_query("trs", 1, &q).unwrap();
        assert_eq!(run.ids, expect, "{}: empty shards", ds.label);
    }
}

mod property {
    use super::*;
    use proptest::prelude::*;

    /// Full sweep behind `--features property-tests`, smoke subset otherwise
    /// (same strategies, same shrinking) — mirrors tests/property.rs.
    const CASES: u32 = if cfg!(feature = "property-tests") { 48 } else { 8 };

    proptest! {
        #![proptest_config(ProptestConfig { cases: CASES, ..ProptestConfig::default() })]

        /// Arbitrary (dataset, query, engine config): the flattening domain
        /// and its non-flattening twin agree on ids and on every counter.
        /// Sizes deliberately straddle chunk boundaries and schemas go down
        /// to one attribute.
        #[test]
        fn modes_agree(
            seed in 0u64..1_000_000,
            n in 1usize..70,
            m in 1usize..=4,
            engine_idx in 0usize..11,
        ) {
            let mut rng = StdRng::seed_from_u64(seed);
            let ds = rsky::data::synthetic::normal_dataset(m, 5, n, &mut rng).unwrap();
            let q = rsky::data::random_queries(&ds.schema, 1, &mut rng).unwrap().remove(0);
            let (flat_ds, wide_ds) = linear_twins(&ds).unwrap();
            let (engine, threads) = super::ENGINE_CONFIGS[engine_idx];
            let label = format!("{engine}×{threads} n={n} m={m}");
            let flat = run(&flat_ds, &q, engine, threads, 15.0, 64);
            let wide = run(&wide_ds, &q, engine, threads, 15.0, 64);
            prop_assert_eq!(&flat.ids, &wide.ids, "{}", label);
            let extra = wide_query_checks(&q);
            assert_counters_eq(&flat.stats, &wide.stats, extra, threads == 1, &label);
        }
    }
}
