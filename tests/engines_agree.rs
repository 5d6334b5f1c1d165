//! Cross-engine integration tests: every algorithm must return exactly the
//! definitional oracle's id set on every dataset shape, layout and memory
//! configuration.

use rand::rngs::StdRng;
use rand::SeedableRng;
use rsky::prelude::*;

/// Runs all nine engine/layout combinations and asserts equality with the
/// oracle. TRS also runs over the raw Original file, where consecutive
/// scanned objects share no value prefix: the phase-two scan memo's worst
/// case, and a layout the `Trs` docs promise it is correct on.
fn assert_all_engines(ds: &Dataset, q: &Query, page: usize, mem_pct: f64) {
    let expect = reverse_skyline_by_definition(&ds.dissim, &ds.rows, q);
    let mut disk = Disk::new_mem(page);
    let raw = load_dataset(&mut disk, ds).unwrap();
    let budget = MemoryBudget::from_percent(ds.data_bytes(), mem_pct, page).unwrap();
    let sorted = prepare_table(&mut disk, &ds.schema, &raw, Layout::MultiSort, &budget).unwrap();
    let tiled =
        prepare_table(&mut disk, &ds.schema, &raw, Layout::Tiled { tiles_per_attr: 3 }, &budget)
            .unwrap();
    let trs = Trs::for_schema(&ds.schema);
    let bf = TrsBf::for_schema(&ds.schema);

    let runs: Vec<(&str, Vec<u32>)> = vec![
        ("Naive", run(&Naive, &mut disk, ds, &raw, q, budget)),
        ("BRS", run(&Brs, &mut disk, ds, &raw, q, budget)),
        ("SRS", run(&Srs, &mut disk, ds, &sorted.file, q, budget)),
        ("TRS", run(&trs, &mut disk, ds, &sorted.file, q, budget)),
        ("TRS over Original", run(&trs, &mut disk, ds, &raw, q, budget)),
        ("TRS-BF", run(&bf, &mut disk, ds, &sorted.file, q, budget)),
        ("T-SRS", run(&Srs, &mut disk, ds, &tiled.file, q, budget)),
        ("T-TRS", run(&trs, &mut disk, ds, &tiled.file, q, budget)),
        ("T-TRS-BF", run(&bf, &mut disk, ds, &tiled.file, q, budget)),
    ];
    for (name, ids) in runs {
        assert_eq!(
            ids, expect,
            "{name} disagrees with the oracle on {} (page {page}, mem {mem_pct}%)",
            ds.label
        );
    }
}

fn run(
    algo: &dyn ReverseSkylineAlgo,
    disk: &mut Disk,
    ds: &Dataset,
    table: &RecordFile,
    q: &Query,
    budget: MemoryBudget,
) -> Vec<u32> {
    let mut ctx = EngineCtx { disk, schema: &ds.schema, dissim: &ds.dissim, budget };
    algo.run(&mut ctx, table, q).unwrap().ids
}

#[test]
fn paper_example_all_engines() {
    let (ds, q) = rsky::data::paper_example();
    for page in [16, 32, 64, 4096] {
        for mem in [1.0, 30.0, 100.0] {
            assert_all_engines(&ds, &q, page, mem);
        }
    }
}

#[test]
fn synthetic_normal_all_engines() {
    let mut rng = StdRng::seed_from_u64(100);
    for (m, k, n) in [(3, 6, 150), (5, 4, 200), (4, 12, 120)] {
        let ds = rsky::data::synthetic::normal_dataset(m, k, n, &mut rng).unwrap();
        for q in rsky::data::random_queries(&ds.schema, 2, &mut rng).unwrap() {
            assert_all_engines(&ds, &q, 128, 10.0);
        }
    }
}

#[test]
fn synthetic_uniform_sparse_all_engines() {
    // Uniform data maximizes sparsity → large result sets, weak pruning.
    let mut rng = StdRng::seed_from_u64(101);
    let ds = rsky::data::synthetic::uniform_dataset(4, 10, 150, &mut rng).unwrap();
    for q in rsky::data::random_queries(&ds.schema, 3, &mut rng).unwrap() {
        assert_all_engines(&ds, &q, 128, 8.0);
    }
}

#[test]
fn census_income_like_all_engines() {
    let mut rng = StdRng::seed_from_u64(102);
    let ds = rsky::data::census_income_like(250, &mut rng).unwrap();
    for q in rsky::data::random_queries(&ds.schema, 2, &mut rng).unwrap() {
        assert_all_engines(&ds, &q, 256, 12.0);
    }
}

#[test]
fn forest_cover_like_all_engines() {
    let mut rng = StdRng::seed_from_u64(103);
    let ds = rsky::data::forest_cover_like(250, &mut rng).unwrap();
    for q in rsky::data::random_queries(&ds.schema, 2, &mut rng).unwrap() {
        assert_all_engines(&ds, &q, 256, 12.0);
    }
}

#[test]
fn asymmetric_dissimilarities_all_engines() {
    // Nothing in the stack may silently assume d(a,b) == d(b,a).
    let mut rng = StdRng::seed_from_u64(104);
    let schema = Schema::with_cardinalities(&[5, 4, 6]).unwrap();
    let measures = (0..3)
        .map(|i| {
            rsky::data::dissim_gen::random_asymmetric_matrix(schema.cardinality(i), &mut rng)
        })
        .collect();
    let dissim = DissimTable::new(&schema, measures).unwrap();
    let rows = rsky::data::synthetic::uniform_rows(&schema, 120, &mut rng);
    let ds = Dataset { schema, dissim, rows, label: "asymmetric".into() };
    for q in rsky::data::random_queries(&ds.schema, 2, &mut rng).unwrap() {
        assert_all_engines(&ds, &q, 128, 15.0);
    }
}

#[test]
fn duplicate_heavy_dataset_all_engines() {
    // Only 8 distinct value combinations over 160 rows: duplicates everywhere.
    let mut rng = StdRng::seed_from_u64(105);
    let ds = rsky::data::synthetic::uniform_dataset(3, 2, 160, &mut rng).unwrap();
    for q in rsky::data::random_queries(&ds.schema, 3, &mut rng).unwrap() {
        assert_all_engines(&ds, &q, 64, 5.0);
    }
}

#[test]
fn query_identical_to_data_object() {
    let mut rng = StdRng::seed_from_u64(106);
    let ds = rsky::data::synthetic::normal_dataset(3, 5, 100, &mut rng).unwrap();
    // Query literally one of the rows.
    let q = Query::new(&ds.schema, ds.rows.values(42).to_vec()).unwrap();
    assert_all_engines(&ds, &q, 128, 10.0);
}

#[test]
fn attribute_subset_queries_all_engines() {
    let mut rng = StdRng::seed_from_u64(107);
    let ds = rsky::data::synthetic::normal_dataset(5, 6, 140, &mut rng).unwrap();
    for subset in [vec![0usize], vec![0, 4], vec![1, 2, 3], vec![2, 3, 4]] {
        let q = rsky::data::workload::random_subset_queries(&ds.schema, &subset, 1, &mut rng)
            .unwrap()
            .remove(0);
        assert_all_engines(&ds, &q, 128, 10.0);
    }
}

#[test]
fn single_attribute_schema() {
    let mut rng = StdRng::seed_from_u64(108);
    let ds = rsky::data::synthetic::uniform_dataset(1, 7, 90, &mut rng).unwrap();
    for q in rsky::data::random_queries(&ds.schema, 2, &mut rng).unwrap() {
        assert_all_engines(&ds, &q, 64, 10.0);
    }
}

#[test]
fn all_rows_identical() {
    let mut rng = StdRng::seed_from_u64(109);
    let schema = Schema::with_cardinalities(&[4, 4]).unwrap();
    let dissim = rsky::data::dissim_gen::random_dissim_table(&schema, &mut rng).unwrap();
    let mut rows = RowBuf::new(2);
    for id in 0..50 {
        rows.push(id, &[2, 3]);
    }
    let ds = Dataset { schema, dissim, rows, label: "all-identical".into() };
    // Query differing from the clones: everyone prunes everyone ⇒ empty RS.
    let q = Query::new(&ds.schema, vec![0, 0]).unwrap();
    assert_all_engines(&ds, &q, 64, 10.0);
    // Query equal to the clones: nothing can strictly improve ⇒ all in RS.
    let q = Query::new(&ds.schema, vec![2, 3]).unwrap();
    assert_all_engines(&ds, &q, 64, 10.0);
}

#[test]
fn extreme_memory_budgets() {
    let mut rng = StdRng::seed_from_u64(110);
    let ds = rsky::data::synthetic::normal_dataset(3, 8, 130, &mut rng).unwrap();
    let q = rsky::data::random_queries(&ds.schema, 1, &mut rng).unwrap().remove(0);
    // One page of memory, and more memory than the dataset.
    assert_all_engines(&ds, &q, 64, 0.0);
    assert_all_engines(&ds, &q, 64, 100.0);
    // Page so large everything is one page.
    assert_all_engines(&ds, &q, 1 << 16, 50.0);
}

#[test]
fn file_backend_agrees_with_mem_backend() {
    let mut rng = StdRng::seed_from_u64(111);
    let ds = rsky::data::synthetic::normal_dataset(4, 6, 200, &mut rng).unwrap();
    let q = rsky::data::random_queries(&ds.schema, 1, &mut rng).unwrap().remove(0);
    let expect = reverse_skyline_by_definition(&ds.dissim, &ds.rows, &q);

    let dir = std::env::temp_dir().join(format!("rsky-it-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    {
        let mut disk = Disk::new_dir(&dir, 256).unwrap();
        let raw = load_dataset(&mut disk, &ds).unwrap();
        let budget = MemoryBudget::from_percent(ds.data_bytes(), 10.0, 256).unwrap();
        let sorted =
            prepare_table(&mut disk, &ds.schema, &raw, Layout::MultiSort, &budget).unwrap();
        let trs = Trs::for_schema(&ds.schema);
        let mut ctx =
            EngineCtx { disk: &mut disk, schema: &ds.schema, dissim: &ds.dissim, budget };
        let run = trs.run(&mut ctx, &sorted.file, &q).unwrap();
        assert_eq!(run.ids, expect);
    }
    std::fs::remove_dir_all(&dir).unwrap();
}
