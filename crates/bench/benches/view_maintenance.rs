//! View maintenance: mean per-mutation cost of keeping a materialized
//! reverse-skyline view current, incremental maintenance vs naive full
//! recompute, across dataset sizes and mutation mixes (insert-heavy,
//! balanced, expire-heavy). Default sizes are 10 k and 100 k objects (10 %
//! of 100 k / 1 M — set `RSKY_SCALE` to change).
//!
//! Every sampled naive recompute doubles as a correctness check: its id set
//! must equal the maintained view's member set at that generation. The run
//! asserts incremental maintenance beats the naive recompute mean for every
//! mix at the largest size — the CI smoke contract (`ci.sh full`) — and
//! prints per-size, per-mix mean latencies, the speedup, and the view's
//! fallback count (0 means every mutation was absorbed incrementally).

use std::time::{Duration, Instant};

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rsky_algos::prep::{load_dataset, prepare_table};
use rsky_algos::{engine_by_name, layout_for, EngineCtx};
use rsky_bench::{table::us, BenchConfig, Table};
use rsky_core::dataset::Dataset;
use rsky_core::record::{RecordId, RowBuf, ValueId};
use rsky_storage::{Disk, MemoryBudget, MutationEvent, MutationKind};
use rsky_view::{MaterializedView, ViewSpec};

const ENGINE: &str = "trs";
const MEM_PCT: f64 = 10.0;
/// Incremental applies measured per mix.
const MUTS: usize = 120;
/// Full recomputes sampled per mix (each also cross-checks correctness).
const NAIVE_STRIDE: usize = MUTS / 4;

/// `(label, inserts out of 10 mutations)` — the rest are expires.
const MIXES: [(&str, u32); 3] = [("insert-heavy", 8), ("balanced", 5), ("expire-heavy", 2)];

struct MixPoint {
    mix: &'static str,
    incremental: Duration,
    naive: Duration,
    fallbacks: u64,
}

struct SizePoint {
    n: usize,
    mixes: Vec<MixPoint>,
}

fn main() {
    let cfg = BenchConfig::from_env();
    println!("{}", cfg.banner("View maintenance: incremental vs naive recompute"));

    let sizes = [cfg.n(100_000), cfg.n(1_000_000)];
    let points: Vec<SizePoint> = sizes.iter().map(|&n| bench_size(n, &cfg)).collect();

    let mut t = Table::new(
        "Mean per-mutation cost (incremental apply vs full recompute)",
        &["n", "mix", "incremental", "naive", "speedup", "fallbacks"],
    );
    for p in &points {
        for m in &p.mixes {
            t.row(vec![
                p.n.to_string(),
                m.mix.into(),
                us(m.incremental),
                us(m.naive),
                format!("{:.1}×", speedup(m)),
                m.fallbacks.to_string(),
            ]);
        }
    }
    t.print();

    // Smoke contract: at the largest size, incremental maintenance beats
    // the naive recompute mean for every mutation mix.
    let largest = points.last().expect("at least one size");
    for m in &largest.mixes {
        assert!(
            m.incremental < m.naive,
            "{} @ n={}: incremental {:?} is not faster than naive {:?}",
            m.mix,
            largest.n,
            m.incremental,
            m.naive
        );
    }
    println!("incremental maintenance beats naive recompute at n = {}", largest.n);
}

fn bench_size(n: usize, cfg: &BenchConfig) -> SizePoint {
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let base = rsky_data::synthetic::normal_dataset(4, 16, n, &mut rng).unwrap();
    let values: Vec<ValueId> = (0..4).map(|a| base.schema.cardinality(a) / 2).collect();
    println!("n = {n}: query {values:?}, {MUTS} mutations/mix");

    let mixes = MIXES
        .iter()
        .map(|&(mix, insert_odds)| {
            let mut ds = base.clone();
            let spec = ViewSpec { engine: ENGINE.into(), values: values.clone(), subset: None };
            let q = spec.query(&ds.schema).unwrap();
            let mut view = MaterializedView::build(&ds, spec, 0).unwrap();
            let mut rng = StdRng::seed_from_u64(cfg.seed ^ insert_odds as u64);
            let mut next_id = 10_000_000u32;

            let mut incremental = Duration::ZERO;
            let mut naive = Duration::ZERO;
            let mut naive_samples = 0u32;
            for step in 1..=MUTS {
                let event = if ds.rows.len() <= 1 || rng.gen_range(0..10u32) < insert_odds {
                    next_id += 1;
                    let vals = (0..4)
                        .map(|a| rng.gen_range(0..ds.schema.cardinality(a)))
                        .collect();
                    MutationEvent::insert(next_id, vals, step as u64)
                } else {
                    let victim = ds.rows.id(rng.gen_range(0..ds.rows.len()));
                    MutationEvent::expire(victim, step as u64)
                };
                mutate(&mut ds, &event);

                let t0 = Instant::now();
                let delta = view.apply(&ds, None, &event).unwrap();
                incremental += t0.elapsed();
                assert!(delta.is_some(), "in-order event ignored at step {step}");

                if step % NAIVE_STRIDE == 0 {
                    let (wall, ids) = full_recompute(&ds, &q, cfg.page_size);
                    naive += wall;
                    naive_samples += 1;
                    assert_eq!(
                        ids,
                        view.members(),
                        "{mix} @ n={n}: naive recompute disagrees with the view at step {step}"
                    );
                }
            }
            MixPoint {
                mix,
                incremental: incremental / MUTS as u32,
                naive: naive / naive_samples.max(1),
                fallbacks: view.fallbacks(),
            }
        })
        .collect();
    SizePoint { n, mixes }
}

/// What a subscriber without incremental maintenance pays per mutation:
/// reload the mutated dataset, re-prepare the engine's layout, re-run the
/// engine from scratch.
fn full_recompute(ds: &Dataset, q: &rsky_core::query::Query, page: usize) -> (Duration, Vec<RecordId>) {
    let mut disk = Disk::new_mem(page);
    let t0 = Instant::now();
    let raw = load_dataset(&mut disk, ds).unwrap();
    let budget = MemoryBudget::from_percent(ds.data_bytes(), MEM_PCT, page).unwrap();
    let layout = layout_for(ENGINE, 4).unwrap();
    let prepared = prepare_table(&mut disk, &ds.schema, &raw, layout, &budget).unwrap();
    let engine = engine_by_name(ENGINE, &ds.schema, 1).unwrap();
    let mut ctx = EngineCtx { disk: &mut disk, schema: &ds.schema, dissim: &ds.dissim, budget };
    let run = engine.run(&mut ctx, &prepared.file, q).unwrap();
    (t0.elapsed(), run.ids)
}

/// Applies an event to the flat dataset (what the serving tier's `DataState`
/// does before handing the post-mutation dataset to the view).
fn mutate(ds: &mut Dataset, event: &MutationEvent) {
    match &event.kind {
        MutationKind::Insert { values } => ds.rows.push(event.id, values),
        MutationKind::Expire => {
            let mut rows = RowBuf::new(ds.schema.num_attrs());
            for i in 0..ds.rows.len() {
                if ds.rows.id(i) != event.id {
                    rows.push(ds.rows.id(i), ds.rows.values(i));
                }
            }
            ds.rows = rows;
        }
    }
}

fn speedup(m: &MixPoint) -> f64 {
    m.naive.as_secs_f64() / m.incremental.as_secs_f64().max(1e-9)
}
