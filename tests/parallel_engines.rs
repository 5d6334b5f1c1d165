//! Thread-count integration tests: BRS, SRS and TRS on N workers (BRS-P,
//! SRS-P, TRS-P) must return exactly the definitional oracle's id set AND
//! their one-thread run's id set for every thread count, with identical
//! merged `dist_checks`/`obj_comparisons`/`tree_nodes_visited` counters
//! (batch composition does not depend on the thread count, so the same
//! attribute comparisons happen, just on different threads). Every worker
//! reads and writes through the run's one disk, so the pages touched — and
//! the pages asked of its buffer pool — are the same too.

use rand::rngs::StdRng;
use rand::SeedableRng;
use rsky::prelude::*;

/// Thread counts exercised everywhere: one (the paper's engine), a
/// realistic small count, and more threads than most configs have batches.
const THREADS: [usize; 3] = [1, 2, 7];

/// Runs all three engines on one thread and on every thread count and
/// asserts id and counter equality, plus oracle agreement.
fn assert_parallel_twins(ds: &Dataset, q: &Query, page: usize, mem_pct: f64) {
    let expect = reverse_skyline_by_definition(&ds.dissim, &ds.rows, q);
    let mut disk = Disk::new_mem(page);
    let raw = load_dataset(&mut disk, ds).unwrap();
    let budget = MemoryBudget::from_percent(ds.data_bytes(), mem_pct, page).unwrap();
    let sorted = prepare_table(&mut disk, &ds.schema, &raw, Layout::MultiSort, &budget).unwrap();
    let trs = Trs::for_schema(&ds.schema);

    let seq: Vec<(&str, &RecordFile, RsRun)> = vec![
        ("BRS", &raw, run(&Brs, &mut disk, ds, &raw, q, budget)),
        ("SRS", &sorted.file, run(&Srs, &mut disk, ds, &sorted.file, q, budget)),
        ("TRS", &sorted.file, run(&trs, &mut disk, ds, &sorted.file, q, budget)),
    ];
    for (name, table, seq_run) in seq {
        assert_eq!(
            seq_run.ids, expect,
            "sequential {name} disagrees with the oracle on {}",
            ds.label
        );
        for t in THREADS {
            let par: Box<dyn ReverseSkylineAlgo> = match name {
                "BRS" => Box::new(Brs { threads: t }),
                "SRS" => Box::new(Srs { threads: t }),
                _ => Box::new(Trs::for_schema(&ds.schema).with_threads(t)),
            };
            let par_run = run(par.as_ref(), &mut disk, ds, table, q, budget);
            assert_eq!(par_run.ids, expect, "{name}-P t={t} vs oracle on {}", ds.label);
            assert_eq!(
                par_run.stats.dist_checks, seq_run.stats.dist_checks,
                "{name}-P t={t} dist_checks on {}",
                ds.label
            );
            assert_eq!(
                par_run.stats.obj_comparisons, seq_run.stats.obj_comparisons,
                "{name}-P t={t} obj_comparisons on {}",
                ds.label
            );
            assert_eq!(
                par_run.stats.tree_nodes_visited, seq_run.stats.tree_nodes_visited,
                "{name}-P t={t} tree_nodes_visited on {}",
                ds.label
            );
            assert_eq!(
                par_run.stats.query_dist_checks, seq_run.stats.query_dist_checks,
                "{name}-P t={t} query_dist_checks on {}",
                ds.label
            );
            assert_eq!(
                (
                    par_run.stats.phase1_batches,
                    par_run.stats.phase1_survivors,
                    par_run.stats.phase2_batches,
                ),
                (
                    seq_run.stats.phase1_batches,
                    seq_run.stats.phase1_survivors,
                    seq_run.stats.phase2_batches,
                ),
                "{name}-P t={t} phase shape on {}",
                ds.label
            );
            // Total pages touched match the one-thread profile; only the
            // sequential/random split may differ (the workers interleave
            // their accesses on the one shared head).
            assert_eq!(
                par_run.stats.io.total(),
                seq_run.stats.io.total(),
                "{name}-P t={t} total IO on {}",
                ds.label
            );
        }
    }
}

fn run(
    algo: &dyn ReverseSkylineAlgo,
    disk: &mut Disk,
    ds: &Dataset,
    table: &RecordFile,
    q: &Query,
    budget: MemoryBudget,
) -> RsRun {
    let mut ctx = EngineCtx { disk, schema: &ds.schema, dissim: &ds.dissim, budget };
    algo.run(&mut ctx, table, q).unwrap()
}

#[test]
fn paper_example_parallel_twins() {
    let (ds, q) = rsky::data::paper_example();
    // 1-object pages + 3-page memory is the paper's walkthrough: 2 batches,
    // so threads=7 exercises more workers than batches.
    for (page, mem) in [(16, 1.0), (64, 30.0), (4096, 100.0)] {
        assert_parallel_twins(&ds, &q, page, mem);
    }
}

#[test]
fn synthetic_normal_parallel_twins() {
    let mut rng = StdRng::seed_from_u64(900);
    for (m, k, n) in [(3, 6, 150), (5, 4, 200)] {
        let ds = rsky::data::synthetic::normal_dataset(m, k, n, &mut rng).unwrap();
        let q = rsky::data::random_queries(&ds.schema, 1, &mut rng).unwrap().remove(0);
        assert_parallel_twins(&ds, &q, 128, 10.0);
    }
}

#[test]
fn synthetic_uniform_parallel_twins() {
    // Uniform data: weak pruning, large R, many phase-2 batches to shard.
    let mut rng = StdRng::seed_from_u64(901);
    let ds = rsky::data::synthetic::uniform_dataset(4, 10, 150, &mut rng).unwrap();
    let q = rsky::data::random_queries(&ds.schema, 1, &mut rng).unwrap().remove(0);
    assert_parallel_twins(&ds, &q, 128, 8.0);
}

#[test]
fn census_like_parallel_twins() {
    let mut rng = StdRng::seed_from_u64(902);
    let ds = rsky::data::census_income_like(220, &mut rng).unwrap();
    let q = rsky::data::random_queries(&ds.schema, 1, &mut rng).unwrap().remove(0);
    assert_parallel_twins(&ds, &q, 256, 12.0);
}

#[test]
fn duplicate_heavy_parallel_twins() {
    // Only 8 distinct combinations over 160 rows: duplicates must keep
    // pruning each other identically when their batches land on different
    // threads.
    let mut rng = StdRng::seed_from_u64(903);
    let ds = rsky::data::synthetic::uniform_dataset(3, 2, 160, &mut rng).unwrap();
    for q in rsky::data::random_queries(&ds.schema, 2, &mut rng).unwrap() {
        assert_parallel_twins(&ds, &q, 64, 5.0);
    }
}

#[test]
fn attribute_subset_parallel_twins() {
    let mut rng = StdRng::seed_from_u64(904);
    let ds = rsky::data::synthetic::normal_dataset(5, 6, 140, &mut rng).unwrap();
    for subset in [vec![0usize, 4], vec![1, 2, 3]] {
        let q = rsky::data::workload::random_subset_queries(&ds.schema, &subset, 1, &mut rng)
            .unwrap()
            .remove(0);
        assert_parallel_twins(&ds, &q, 128, 10.0);
    }
}

#[test]
fn adversarial_asymmetric_parallel_twins() {
    // Asymmetric dissimilarities: nothing in the sharding may assume
    // d(a,b) == d(b,a).
    let mut rng = StdRng::seed_from_u64(905);
    let schema = Schema::with_cardinalities(&[5, 4, 6]).unwrap();
    let measures = (0..3)
        .map(|i| rsky::data::dissim_gen::random_asymmetric_matrix(schema.cardinality(i), &mut rng))
        .collect();
    let dissim = DissimTable::new(&schema, measures).unwrap();
    let rows = rsky::data::synthetic::uniform_rows(&schema, 120, &mut rng);
    let ds = Dataset { schema, dissim, rows, label: "asymmetric".into() };
    let q = rsky::data::random_queries(&ds.schema, 1, &mut rng).unwrap().remove(0);
    assert_parallel_twins(&ds, &q, 128, 15.0);
}

#[test]
fn threads_exceed_batches_whole_db_in_memory() {
    // 100% memory ⇒ exactly one phase-1 batch; 7 workers must idle cleanly.
    let mut rng = StdRng::seed_from_u64(906);
    let ds = rsky::data::synthetic::normal_dataset(3, 8, 130, &mut rng).unwrap();
    let q = rsky::data::random_queries(&ds.schema, 1, &mut rng).unwrap().remove(0);
    assert_parallel_twins(&ds, &q, 1 << 16, 100.0);
}

#[test]
fn tiny_memory_many_batches() {
    // Minimum budget ⇒ maximum batch count: the widest sharding surface.
    let mut rng = StdRng::seed_from_u64(907);
    let ds = rsky::data::synthetic::normal_dataset(3, 8, 130, &mut rng).unwrap();
    let q = rsky::data::random_queries(&ds.schema, 1, &mut rng).unwrap().remove(0);
    assert_parallel_twins(&ds, &q, 64, 0.0);
}

#[test]
fn empty_and_single_row_tables() {
    let (ds, q) = rsky::data::paper_example();
    let budget = MemoryBudget::from_bytes(64, 64).unwrap();
    for n in [0usize, 1] {
        let mut disk = Disk::new_mem(64);
        let mut rows = RowBuf::new(3);
        for i in 0..n {
            rows.push(i as u32 + 1, &[0, 0, 1]);
        }
        let mut table = RecordFile::create(&mut disk, 3).unwrap();
        table.write_all(&mut disk, &rows).unwrap();
        for t in THREADS {
            let engines: Vec<Box<dyn ReverseSkylineAlgo>> = vec![
                Box::new(Brs { threads: t }),
                Box::new(Srs { threads: t }),
                Box::new(Trs::for_schema(&ds.schema).with_threads(t)),
            ];
            for e in engines {
                let r = run(e.as_ref(), &mut disk, &ds, &table, &q, budget);
                let expect: Vec<u32> = (1..=n as u32).collect();
                assert_eq!(r.ids, expect, "{} t={t} n={n}", e.name());
            }
        }
    }
}

#[test]
fn acceptance_identical_ids_on_three_datasets_at_2_and_4_threads() {
    // The issue's acceptance bar, stated literally: threads ∈ {2,4} return
    // the identical id set as sequential on ≥ 3 datasets, with equal merged
    // distance_checks.
    let mut rng = StdRng::seed_from_u64(908);
    let datasets = [
        rsky::data::synthetic::normal_dataset(4, 6, 180, &mut rng).unwrap(),
        rsky::data::synthetic::uniform_dataset(3, 8, 160, &mut rng).unwrap(),
        rsky::data::forest_cover_like(200, &mut rng).unwrap(),
    ];
    for ds in &datasets {
        let q = rsky::data::random_queries(&ds.schema, 1, &mut rng).unwrap().remove(0);
        let mut disk = Disk::new_mem(128);
        let raw = load_dataset(&mut disk, ds).unwrap();
        let budget = MemoryBudget::from_percent(ds.data_bytes(), 10.0, 128).unwrap();
        let sorted =
            prepare_table(&mut disk, &ds.schema, &raw, Layout::MultiSort, &budget).unwrap();
        let trs = Trs::for_schema(&ds.schema);
        let seq: Vec<(&str, &RecordFile, RsRun)> = vec![
            ("BRS", &raw, run(&Brs, &mut disk, ds, &raw, &q, budget)),
            ("SRS", &sorted.file, run(&Srs, &mut disk, ds, &sorted.file, &q, budget)),
            ("TRS", &sorted.file, run(&trs, &mut disk, ds, &sorted.file, &q, budget)),
        ];
        for (name, table, seq_run) in seq {
            for t in [2usize, 4] {
                let par: Box<dyn ReverseSkylineAlgo> = match name {
                    "BRS" => Box::new(Brs { threads: t }),
                    "SRS" => Box::new(Srs { threads: t }),
                    _ => Box::new(Trs::for_schema(&ds.schema).with_threads(t)),
                };
                let par_run = run(par.as_ref(), &mut disk, ds, table, &q, budget);
                assert_eq!(par_run.ids, seq_run.ids, "{name} t={t} on {}", ds.label);
                assert_eq!(
                    par_run.stats.dist_checks, seq_run.stats.dist_checks,
                    "{name} t={t} dist_checks on {}",
                    ds.label
                );
            }
        }
    }
}

/// Every cost counter of a run, and its total pages, in one comparable row.
fn counters(s: &rsky::core::stats::RunStats) -> [u64; 10] {
    [
        s.dist_checks,
        s.query_dist_checks,
        s.obj_comparisons,
        s.tree_nodes_visited,
        s.phase1_batches as u64,
        s.phase1_survivors as u64,
        s.phase2_batches as u64,
        s.result_size as u64,
        s.io.seq_reads + s.io.rand_reads,
        s.io.seq_writes + s.io.rand_writes,
    ]
}

/// A several-page dataset, its query and a budget of several batches.
fn multi_batch_fixture(seed: u64, page: usize) -> (Dataset, Query, MemoryBudget) {
    let mut rng = StdRng::seed_from_u64(seed);
    let ds = rsky::data::synthetic::normal_dataset(4, 8, 400, &mut rng).unwrap();
    let q = rsky::data::random_queries(&ds.schema, 1, &mut rng).unwrap().remove(0);
    let budget = MemoryBudget::from_percent(ds.data_bytes(), 8.0, page).unwrap();
    (ds, q, budget)
}

#[test]
fn buffer_pool_is_asked_for_the_same_pages_at_every_thread_count() {
    // Every page an engine reads is a pool lookup, so hits + misses over a
    // run is fixed by the batches; only which lookups hit depends on the
    // schedule (and on what earlier runs left in the pool).
    let page = 128;
    let (ds, q, budget) = multi_batch_fixture(909, page);
    let mut disk = Disk::new_mem(page);
    let raw = load_dataset(&mut disk, &ds).unwrap();
    let sorted = prepare_table(&mut disk, &ds.schema, &raw, Layout::MultiSort, &budget).unwrap();
    disk.set_cache_pages(16);
    for (name, table) in [("brs", &raw), ("srs", &sorted.file), ("trs", &sorted.file)] {
        let mut lookups = |threads: usize| {
            let engine = engine_by_name(name, &ds.schema, threads).unwrap();
            let (h0, m0) = disk.cache_stats().unwrap();
            run(engine.as_ref(), &mut disk, &ds, table, &q, budget);
            let (h1, m1) = disk.cache_stats().unwrap();
            (h1 - h0) + (m1 - m0)
        };
        let one = lookups(1);
        assert!(one > 0, "{name}: no pool lookups at one thread");
        for t in [2, 7] {
            assert_eq!(lookups(t), one, "{name} t={t}: pool lookups");
        }
    }
}

#[test]
fn file_backend_runs_match_the_in_memory_one_thread_run() {
    let page = 128;
    let (ds, q, budget) = multi_batch_fixture(910, page);
    let mut mem = Disk::new_mem(page);
    let raw = load_dataset(&mut mem, &ds).unwrap();
    let sorted = prepare_table(&mut mem, &ds.schema, &raw, Layout::MultiSort, &budget).unwrap();
    let dir = std::env::temp_dir().join(format!("rsky-par-file-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    {
        let mut files = Disk::new_dir(&dir, page).unwrap();
        let file_raw = load_dataset(&mut files, &ds).unwrap();
        let file_sorted =
            prepare_table(&mut files, &ds.schema, &file_raw, Layout::MultiSort, &budget).unwrap();
        let tables = [
            ("brs", &raw, &file_raw),
            ("srs", &sorted.file, &file_sorted.file),
            ("trs", &sorted.file, &file_sorted.file),
        ];
        for (name, mem_table, file_table) in tables {
            let one = engine_by_name(name, &ds.schema, 1).unwrap();
            let want = run(one.as_ref(), &mut mem, &ds, mem_table, &q, budget);
            assert!(want.stats.phase1_batches > 1, "{name}: fixture needs several batches");
            for t in [2, 4] {
                let engine = engine_by_name(name, &ds.schema, t).unwrap();
                let got = run(engine.as_ref(), &mut files, &ds, file_table, &q, budget);
                assert_eq!(got.ids, want.ids, "{name} t={t}: ids on the file backend");
                assert_eq!(
                    counters(&got.stats),
                    counters(&want.stats),
                    "{name} t={t}: counters and pages on the file backend"
                );
            }
        }
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn disk_wait_histogram_records_only_with_several_workers() {
    use rsky::core::obs;
    let page = 128;
    let (ds, q, budget) = multi_batch_fixture(911, page);
    let mut disk = Disk::new_mem(page);
    let raw = load_dataset(&mut disk, &ds).unwrap();
    let sorted = prepare_table(&mut disk, &ds.schema, &raw, Layout::MultiSort, &budget).unwrap();
    for (name, table) in [("brs", &raw), ("srs", &sorted.file), ("trs", &sorted.file)] {
        for t in [1, 2, 4] {
            let engine = engine_by_name(name, &ds.schema, t).unwrap();
            let sink = MemorySink::new();
            obs::with_recorder(sink.handle(), || {
                run(engine.as_ref(), &mut disk, &ds, table, &q, budget);
            });
            let waits = sink
                .registry()
                .histogram(obs::names::PAR_BATCH_WAIT_US)
                .map_or(0, |h| h.count);
            if t == 1 {
                assert_eq!(waits, 0, "{name}: one thread waited for the disk");
            } else {
                assert!(waits > 0, "{name} t={t}: no disk waits recorded");
            }
        }
    }
}
