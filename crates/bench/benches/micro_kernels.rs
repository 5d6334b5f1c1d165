//! Micro-benchmarks of the hot kernels.
//!
//! The headline is the dominance loop in isolation: the same
//! 512-candidate × 2048-row workload over synthetic-normal data (default
//! scale: 100 k objects, 5 attributes, 50 values — set `RSKY_SCALE` to
//! change) pushed through a per-pair `prunes_cached` loop (per-candidate
//! early exit) and through [`CandidateBlocks::scan`] on both distance
//! sources — the flat tables and the `DissimTable` itself — with survivors
//! and counters asserted identical and the min-of-reps wall-clock ratios
//! printed. Five probe-level samplers (scalar probe, AL-Tree build + seal
//! on sorted and arrival-order input, one `IsPrunable` walk, a Z-order
//! key) are timed by the same min-of-reps loop.
//!
//! Engine-level id and counter identity across the two sources is a tier-1
//! test (`tests/kernel_differential.rs`), not a bench.

use std::hint::black_box;
use std::time::{Duration, Instant};

use rand::rngs::StdRng;
use rand::SeedableRng;
use rsky_algos::kernels::{CandidateBlocks, DistSource};
use rsky_algos::qcache::QueryDistCache;
use rsky_algos::trs::is_prunable;
use rsky_altree::AlTree;
use rsky_bench::{table::ms, BenchConfig, Table};
use rsky_core::dataset::Dataset;
use rsky_core::dissim::FlatDissim;
use rsky_core::query::{AttrSubset, Query};
use rsky_core::stats::RunStats;
use rsky_storage::ColumnarBatch;

/// Timed repetitions per measurement; every time printed is their minimum.
const REPS: usize = 15;

/// The dominance inner loop measured in isolation on one fixed workload:
/// a per-pair loop vs the batched kernel on each distance source.
struct InnerLoop {
    cands: usize,
    scan_rows: usize,
    scalar: Duration,
    kernel: Duration,
    table: Duration,
    survivors: usize,
    counters_identical: bool,
}

impl InnerLoop {
    fn speedup(&self, t: Duration) -> f64 {
        self.scalar.as_secs_f64() / t.as_secs_f64().max(1e-9)
    }
}

fn main() {
    let cfg = BenchConfig::from_env();
    println!("{}", cfg.banner("Kernel micro-benchmarks: the batched dominance loop"));

    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let n = cfg.n(1_000_000);
    let ds = rsky_data::synthetic::normal_dataset(5, 50, n, &mut rng).unwrap();
    let qs = rsky_data::random_queries(&ds.schema, cfg.queries, &mut rng).unwrap();
    println!("n = {}, {} queries/point", ds.len(), qs.len());

    let inner = inner_loop_bench(&ds, &qs[0]);
    println!(
        "dominance inner loop ({} cands x {} rows): scalar {} kernel {} ({:.2}x) \
         table-source kernel {} ({:.2}x) survivors {} counters {}",
        inner.cands,
        inner.scan_rows,
        ms(inner.scalar),
        ms(inner.kernel),
        inner.speedup(inner.kernel),
        ms(inner.table),
        inner.speedup(inner.table),
        inner.survivors,
        if inner.counters_identical { "identical" } else { "DRIFT" },
    );
    assert!(inner.counters_identical, "inner loop: batched kernel drifted from the scalar counters");

    probe_level_benches(&ds, &qs[0]);
}

/// The dominance inner loop in isolation: identical candidate set and scan
/// rows through the scalar loop and the batched kernel. The scalar side
/// replays exactly what the engines do — probe each candidate against the
/// rows in order, stop at its first pruner — so the wall-clock ratio is the
/// inner-loop speedup and the counters must come out identical.
///
/// Candidates are the records *closest to the query* (smallest cached
/// query-distance sum): those are the hard-to-prune records that actually
/// populate phase-two batches and dominate engine time. Random candidates
/// die within a handful of probes and measure chunk-teardown, not the loop.
fn inner_loop_bench(ds: &Dataset, q: &Query) -> InnerLoop {
    let m = ds.schema.num_attrs();
    let subset = AttrSubset::all(m);
    let cache = QueryDistCache::new(&ds.dissim, &ds.schema, q);
    let flat = FlatDissim::build_for(&ds.schema, &ds.dissim).expect("bench domains are small");
    let cands = 512.min(ds.rows.len());
    let scan_rows = 2048.min(ds.rows.len());
    let mut by_query_dist: Vec<usize> = (0..ds.rows.len()).collect();
    by_query_dist.sort_by(|&a, &b| {
        let score = |ri: usize| -> f64 {
            let x = ds.rows.values(ri);
            subset.indices().iter().map(|&k| cache.d(k, x[k])).sum()
        };
        score(a).total_cmp(&score(b)).then(a.cmp(&b))
    });
    let cand_row = |xi: usize| by_query_dist[xi];
    let mut page = rsky_core::record::RowBuf::new(m);
    for i in 0..scan_rows {
        page.push(ds.rows.id(i), ds.rows.values(i));
    }
    let ys = ColumnarBatch::from_rows(&page);

    let mut scalar = Duration::MAX;
    let mut s_checks = 0u64;
    let mut s_probes = 0u64;
    let mut s_alive = 0usize;
    for _ in 0..REPS {
        let mut checks = 0u64;
        let mut probes = 0u64;
        let mut alive = 0usize;
        let t0 = Instant::now();
        for xi in 0..cands {
            let x = ds.rows.values(cand_row(xi));
            let mut pruned = false;
            for yi in 0..scan_rows {
                probes += 1;
                if rsky_algos::engine::prunes_cached(
                    &ds.dissim,
                    &subset,
                    page.values(yi),
                    x,
                    &cache,
                    &mut checks,
                ) {
                    pruned = true;
                    break;
                }
            }
            alive += usize::from(!pruned);
        }
        scalar = scalar.min(t0.elapsed());
        (s_checks, s_probes, s_alive) = (checks, probes, black_box(alive));
    }

    // The kernel side runs the engines' segmented scan: survivors are
    // re-blocked into dense chunks between segments (counter-neutral, pure
    // layout) so a chunk never drags one live lane at 1/8 occupancy.
    let kernel_side = |src: DistSource<'_>| -> (Duration, RunStats, usize) {
        let mut best = (Duration::MAX, RunStats::default(), 0usize);
        for _ in 0..REPS {
            let mut stats = RunStats::default();
            let t0 = Instant::now();
            let mut orig: Vec<usize> = (0..cands).collect();
            let mut blocks = CandidateBlocks::build(src, &cache, &subset, cands, |xi| {
                let ri = cand_row(xi);
                (ds.rows.id(ri), ds.rows.values(ri))
            });
            let mut seg = 0;
            while seg < scan_rows && blocks.alive_count() > 0 {
                let seg_end = (seg + 256).min(scan_rows);
                blocks.scan_range(&subset, &ys, seg, seg_end, false, &mut stats);
                seg = seg_end;
                if seg < scan_rows && blocks.alive_count() * 2 < orig.len() {
                    let survivors: Vec<usize> = orig
                        .iter()
                        .enumerate()
                        .filter(|&(slot, _)| blocks.is_alive(slot))
                        .map(|(_, &o)| o)
                        .collect();
                    blocks = CandidateBlocks::build(src, &cache, &subset, survivors.len(), |xi| {
                        let ri = cand_row(survivors[xi]);
                        (ds.rows.id(ri), ds.rows.values(ri))
                    });
                    orig = survivors;
                }
            }
            best.0 = best.0.min(t0.elapsed());
            (best.1, best.2) = (stats, black_box(blocks.alive_count()));
        }
        best
    };
    let (kernel, k_stats, k_alive) = kernel_side(DistSource::Flat(&flat));
    let (table, t_stats, t_alive) = kernel_side(DistSource::Table(&ds.dissim));

    let counters_identical = [(k_stats, k_alive), (t_stats, t_alive)].iter().all(|(st, alive)| {
        s_alive == *alive && s_checks == st.dist_checks && s_probes == st.obj_comparisons
    });
    InnerLoop { cands, scan_rows, scalar, kernel, table, survivors: k_alive, counters_identical }
}

/// Minimum over [`REPS`] timed rounds of `calls` calls of `f`, in
/// nanoseconds per call.
fn min_ns_per_call(calls: u32, mut f: impl FnMut()) -> f64 {
    (0..REPS)
        .map(|_| {
            let t0 = Instant::now();
            for _ in 0..calls {
                f();
            }
            t0.elapsed().as_secs_f64() * 1e9 / f64::from(calls)
        })
        .fold(f64::INFINITY, f64::min)
}

/// The innermost loops one call at a time: a scalar probe, an AL-Tree
/// batch build (per record), one `IsPrunable` walk and a Z-order key.
fn probe_level_benches(ds: &Dataset, q: &Query) {
    let m = ds.schema.num_attrs();
    let subset = AttrSubset::all(m);
    let cache = QueryDistCache::new(&ds.dissim, &ds.schema, q);
    let mut t = Table::new(format!("Probe-level kernels (min of {REPS} reps)"), &["kernel", "ns"]);
    let mut row = |name: &str, ns: f64| t.row(vec![name.into(), format!("{ns:.1}")]);

    // Scalar probe: one candidate against one scan object via the matrix.
    let (mut checks, mut i) = (0u64, 0usize);
    row(
        "prunes_cached scalar probe (5 attrs)",
        min_ns_per_call(100_000, || {
            let y = ds.rows.values(i % ds.rows.len());
            let x = ds.rows.values((i * 7 + 1) % ds.rows.len());
            i += 1;
            black_box(rsky_algos::engine::prunes_cached(
                &ds.dissim,
                &subset,
                y,
                x,
                &cache,
                &mut checks,
            ));
        }),
    );

    // One batch tree per call, built and sealed into a reused tree the way
    // the engines' batch loader does; reported per record.
    let order: Vec<usize> = (0..m).collect();
    let mut sorted = ds.rows.clone();
    rsky_order::multisort::sort_rows_lex(&mut sorted, &order);
    let build_n = sorted.len().min(20_000);
    let mut t_build = AlTree::new(m);
    for (name, rows) in [
        ("altree build + seal, sorted input (per record)", &sorted),
        ("altree build + seal, original order (per record)", &ds.rows),
    ] {
        let per_build = min_ns_per_call(1, || {
            t_build.clear();
            for i in 0..build_n {
                t_build.insert(rows.values(i), rows.id(i));
            }
            t_build.seal();
            black_box(t_build.num_nodes());
        });
        row(name, per_build / build_n as f64);
    }

    let mut tree = AlTree::new(m);
    for i in 0..sorted.len() {
        tree.insert(sorted.values(i), sorted.id(i));
    }
    tree.seal();
    let (mut tstats, mut i) = (RunStats::default(), 0usize);
    row(
        "is_prunable over full tree",
        min_ns_per_call(10_000, || {
            let cand = sorted.values(i % sorted.len());
            let id = sorted.id(i % sorted.len());
            i += 1;
            black_box(is_prunable(
                &tree, &ds.dissim, &subset, &order, cand, id, &cache, &mut tstats,
            ));
        }),
    );

    let mut i = 0u32;
    row(
        "z_order_key 7 dims",
        min_ns_per_call(100_000, || {
            i = i.wrapping_add(17);
            black_box(rsky_order::z_order_key(&[
                i % 16,
                (i / 3) % 16,
                (i / 7) % 16,
                i % 8,
                i % 4,
                i % 5,
                i % 3,
            ]));
        }),
    );
    t.print();
}
