//! Micro-benchmarks of the hot kernels.
//!
//! The headline is the dominance loop in isolation: the same
//! 512-candidate × 2048-row workload over synthetic-normal data (default
//! scale: 100 k objects, 5 attributes, 50 values — set `RSKY_SCALE` to
//! change) pushed through a per-pair `prunes_cached` loop (per-candidate
//! early exit) and through [`CandidateBlocks::scan`] on both distance
//! sources — the flat tables and the `DissimTable` itself — with survivors
//! and counters asserted identical and the min-of-reps wall-clock ratios
//! reported. Results land in `BENCH_kernels.json` at the repository root.
//! The historical AL-Tree / Z-order criterion-style samplers ride along.
//!
//! Engine-level id and counter identity across the two sources is a tier-1
//! test (`tests/kernel_differential.rs`), not a bench.

use std::path::Path;
use std::time::{Duration, Instant};

use criterion::{black_box, Criterion};
use rand::rngs::StdRng;
use rand::SeedableRng;
use rsky_algos::kernels::{CandidateBlocks, DistSource};
use rsky_algos::qcache::QueryDistCache;
use rsky_algos::trs::is_prunable;
use rsky_altree::{AlTree, InsertHint};
use rsky_bench::{table::ms, BenchConfig};
use rsky_core::dataset::Dataset;
use rsky_core::dissim::FlatDissim;
use rsky_core::query::{AttrSubset, Query};
use rsky_core::stats::RunStats;
use rsky_storage::ColumnarBatch;

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

    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../BENCH_kernels.json");
    std::fs::write(&path, render_json(&inner, &ds, qs.len())).unwrap();
    println!("wrote {}", path.display());
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
    const REPS: usize = 15;

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

/// Criterion-style samplers for the remaining innermost loops (the shim
/// prints min/mean/max per-iteration latency).
fn probe_level_benches(ds: &Dataset, q: &Query) {
    let mut c = Criterion::default()
        .sample_size(20)
        .measurement_time(Duration::from_secs(2))
        .warm_up_time(Duration::from_millis(300));
    let m = ds.schema.num_attrs();
    let subset = AttrSubset::all(m);
    let cache = QueryDistCache::new(&ds.dissim, &ds.schema, q);

    // Scalar probe: one candidate against one scan object via the matrix.
    let mut checks = 0u64;
    c.bench_function("prunes_cached scalar probe (5 attrs)", |b| {
        let mut i = 0;
        b.iter(|| {
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
            ))
        })
    });

    // Historical micro-benches: AL-Tree build, IsPrunable walk, Z-order key.
    let order: Vec<usize> = (0..m).collect();
    let mut sorted = ds.rows.clone();
    rsky_order::multisort::sort_rows_lex(&mut sorted, &order);
    let build_n = sorted.len().min(20_000);
    c.bench_function("altree build plain", |b| {
        b.iter(|| {
            let mut t = AlTree::new(m);
            for i in 0..build_n {
                t.insert(sorted.values(i), sorted.id(i));
            }
            black_box(t.num_nodes())
        })
    });
    c.bench_function("altree build hinted (sorted input)", |b| {
        b.iter(|| {
            let mut t = AlTree::new(m);
            let mut hint = InsertHint::default();
            for i in 0..build_n {
                t.insert_with_hint(sorted.values(i), sorted.id(i), &mut hint);
            }
            black_box(t.num_nodes())
        })
    });
    let mut tree = AlTree::new(m);
    let mut hint = InsertHint::default();
    for i in 0..sorted.len() {
        tree.insert_with_hint(sorted.values(i), sorted.id(i), &mut hint);
    }
    tree.order_children_for_search();
    let mut tstats = RunStats::default();
    c.bench_function("is_prunable over full tree", |b| {
        let mut i = 0;
        b.iter(|| {
            let cand = sorted.values(i % sorted.len());
            let id = sorted.id(i % sorted.len());
            i += 1;
            black_box(is_prunable(
                &tree, &ds.dissim, &subset, &order, cand, id, &cache, &mut tstats,
            ))
        })
    });
    c.bench_function("z_order_key 7 dims", |b| {
        let mut i = 0u32;
        b.iter(|| {
            i = i.wrapping_add(17);
            black_box(rsky_order::z_order_key(&[
                i % 16,
                (i / 3) % 16,
                (i / 7) % 16,
                i % 8,
                i % 4,
                i % 5,
                i % 3,
            ]))
        })
    });
}

fn render_json(inner: &InnerLoop, ds: &Dataset, queries: usize) -> String {
    let mut s = String::from("{\n");
    s.push_str("  \"bench\": \"micro_kernels\",\n");
    s.push_str(&format!(
        "  \"dataset\": {{\"kind\": \"synthetic-normal\", \"n\": {}, \"attrs\": {}, \"queries\": {queries}}},\n",
        ds.len(),
        ds.schema.num_attrs()
    ));
    s.push_str(&format!(
        "  \"inner_loop\": {{\"cands\": {}, \"scan_rows\": {}, \"scalar_ms\": {:.3}, \
         \"kernel_ms\": {:.3}, \"speedup\": {:.3}, \"table_kernel_ms\": {:.3}, \
         \"table_speedup\": {:.3}, \"survivors\": {}, \"counters_identical\": {}}}\n",
        inner.cands,
        inner.scan_rows,
        inner.scalar.as_secs_f64() * 1e3,
        inner.kernel.as_secs_f64() * 1e3,
        inner.speedup(inner.kernel),
        inner.table.as_secs_f64() * 1e3,
        inner.speedup(inner.table),
        inner.survivors,
        inner.counters_identical
    ));
    s.push_str("}\n");
    s
}
