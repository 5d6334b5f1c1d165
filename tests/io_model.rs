//! Integration tests of the IO cost model — the claims the paper's IO
//! figures rest on.

use rand::rngs::StdRng;
use rand::SeedableRng;
use rsky::core::stats::RunStats;
use rsky::prelude::*;

fn setup(n: usize, seed: u64) -> (Dataset, Query) {
    let mut rng = StdRng::seed_from_u64(seed);
    let ds = rsky::data::synthetic::normal_dataset(4, 8, n, &mut rng).unwrap();
    let q = rsky::data::random_queries(&ds.schema, 1, &mut rng).unwrap().remove(0);
    (ds, q)
}

/// `engine`'s run on the layout it needs, single-threaded, with only the
/// run's own IO counted.
fn run_engine(ds: &Dataset, q: &Query, engine: &str, page: usize, pct: f64) -> RunStats {
    let mut disk = Disk::new_mem(page);
    let raw = load_dataset(&mut disk, ds).unwrap();
    let budget = MemoryBudget::from_percent(ds.data_bytes(), pct, page).unwrap();
    // No tiled engine runs here, so the tile count is never read.
    let layout = layout_for(engine, 4).unwrap();
    let table = prepare_table(&mut disk, &ds.schema, &raw, layout, &budget).unwrap().file;
    disk.reset_stats();
    let mut ctx = EngineCtx { disk: &mut disk, schema: &ds.schema, dissim: &ds.dissim, budget };
    engine_by_name(engine, &ds.schema, 1).unwrap().run(&mut ctx, &table, q).unwrap().stats
}

/// The naive algorithm's IO is re-scan-dominated: far more page reads than
/// the two-phase algorithms.
#[test]
fn naive_io_dwarfs_block_algorithms() {
    let (ds, q) = setup(1_500, 1);
    let naive = run_engine(&ds, &q, "naive", 256, 10.0);
    let brs = run_engine(&ds, &q, "brs", 256, 10.0);
    let naive_reads = naive.io.seq_reads + naive.io.rand_reads;
    let brs_reads = brs.io.seq_reads + brs.io.rand_reads;
    assert!(
        naive_reads > 5 * brs_reads,
        "naive reads {naive_reads} vs BRS {brs_reads}"
    );
}

/// Section 5.3: "all the algorithms needed to perform just two sequential
/// scans; consequently, sequential IO costs of all of them were found to be
/// similar."
#[test]
fn two_phase_algorithms_have_similar_sequential_io() {
    let (ds, q) = setup(3_000, 2);
    let brs = run_engine(&ds, &q, "brs", 256, 10.0);
    let srs = run_engine(&ds, &q, "srs", 256, 10.0);
    let trs = run_engine(&ds, &q, "trs", 256, 10.0);
    let seqs = [brs.io.sequential(), srs.io.sequential(), trs.io.sequential()];
    let (lo, hi) = (seqs.iter().min().unwrap(), seqs.iter().max().unwrap());
    assert!(
        *hi <= lo + lo / 2,
        "sequential IO should be within ~1.5x across algorithms: {seqs:?}"
    );
}

/// Random IO ordering of the paper's figures: TRS ≤ SRS ≤ BRS (fewer
/// intermediate results / larger batches mean fewer scan-resume seeks).
#[test]
fn random_io_ordering_matches_paper() {
    let (ds, q) = setup(3_000, 3);
    let brs = run_engine(&ds, &q, "brs", 256, 8.0);
    let trs = run_engine(&ds, &q, "trs", 256, 8.0);
    assert!(
        trs.io.random() <= brs.io.random(),
        "TRS random IO {} must not exceed BRS {}",
        trs.io.random(),
        brs.io.random()
    );
}

/// Random IO decreases as memory grows (larger batches, fewer switches) —
/// the downward trend of Figures 5, 6, 9.
#[test]
fn random_io_decreases_with_memory() {
    let (ds, q) = setup(3_000, 4);
    let small = run_engine(&ds, &q, "brs", 256, 4.0);
    let large = run_engine(&ds, &q, "brs", 256, 40.0);
    assert!(
        large.io.random() <= small.io.random(),
        "random IO at 40% memory ({}) must not exceed 4% ({})",
        large.io.random(),
        small.io.random()
    );
}

/// Every engine's write volume equals its phase-1 survivor volume (the write
/// area is the only thing written).
#[test]
fn writes_match_phase1_survivors() {
    let (ds, q) = setup(2_000, 5);
    for engine in ["brs", "srs", "trs"] {
        let stats = run_engine(&ds, &q, engine, 256, 10.0);
        let recs_per_page = 256 / ((ds.schema.num_attrs() + 1) * 4);
        let expected_pages = stats.phase1_survivors.div_ceil(recs_per_page) as u64;
        let writes = stats.io.seq_writes + stats.io.rand_writes;
        assert_eq!(writes, expected_pages, "write volume = |R| pages");
    }
}

/// The computational side is backend-independent: identical check counts on
/// the mem and file backends.
#[test]
fn check_counts_are_backend_independent() {
    let (ds, q) = setup(1_000, 6);
    let mem_stats = run_engine(&ds, &q, "trs", 256, 10.0);

    let dir = std::env::temp_dir().join(format!("rsky-iomodel-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let file_stats = {
        let mut disk = Disk::new_dir(&dir, 256).unwrap();
        let raw = load_dataset(&mut disk, &ds).unwrap();
        let budget = MemoryBudget::from_percent(ds.data_bytes(), 10.0, 256).unwrap();
        let sorted =
            prepare_table(&mut disk, &ds.schema, &raw, Layout::MultiSort, &budget).unwrap();
        let mut ctx =
            EngineCtx { disk: &mut disk, schema: &ds.schema, dissim: &ds.dissim, budget };
        Trs::for_schema(&ds.schema).run(&mut ctx, &sorted.file, &q).unwrap().stats
    };
    std::fs::remove_dir_all(&dir).unwrap();
    assert_eq!(mem_stats.dist_checks, file_stats.dist_checks);
    assert_eq!(mem_stats.io.sequential(), file_stats.io.sequential());
    assert_eq!(mem_stats.io.random(), file_stats.io.random());
}
