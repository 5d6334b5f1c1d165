//! Differential harness for sharded scatter-gather execution.
//!
//! The contract under test: for **every** engine configuration, shard count,
//! and partitioning policy, the scatter-exchange-gather run returns results
//! *identical* to the single-node run — same ids, same RS membership — and
//! its per-shard cost breakdown tiles the merged counters exactly. The
//! single-node side is anchored to the definitional oracle
//! (`reverse_skyline_by_definition`), so a bug that broke both paths the
//! same way would still be caught.
//!
//! Since the pruner exchange, counters are allowed to *shrink* relative to
//! the exchange-off executor (that is the point), so the differential
//! contract is ids-exact plus **bounded** counters rather than counter
//! equality:
//!
//! * `query_dist_checks` == single-node exactly (one shared cache build,
//!   nothing per shard, nothing in the kill pass);
//! * `dist_checks` / `obj_comparisons` ≤ single-node × [`SLACK`] (+ a small
//!   additive floor for near-zero singles) — measured worst case across the
//!   fixture matrix is ≈3.1× / ≈3.5×;
//! * the kill pass itself costs at most `pruners × candidates` object
//!   comparisons and `× |subset|` distance checks, and moves no IO and no
//!   query-side evals;
//! * post-exchange candidates ≤ 2 × the single-node skyline band (+ a small
//!   floor for tiny bands) at every shard count;
//! * shard by shard, exchange-on verification is never costlier than
//!   exchange-off (the kill pass only removes candidates);
//! * on a 5,000-record table, the default-budget kill pass strictly shrinks
//!   every candidate set that sharding ballooned past the result.

use rand::rngs::StdRng;
use rand::SeedableRng;
use rsky::data::twin::linear_twins;
use rsky::prelude::*;

/// Multiplicative slack for the whole-run counter bounds vs single-node
/// (locals re-scan shard-local pruners the global run never pays for, plus
/// the verify and kill passes). Worst observed across the matrix: 3.07× for
/// `dist_checks`, 3.53× for `obj_comparisons`.
const SLACK: u64 = 4;
/// Additive floor for the counter bounds: tiny fixtures (the paper's six
/// records) have single-node counts near zero where a pure ratio is
/// meaningless.
const FLOOR: u64 = 64;

/// All eleven engine configurations the scatter-gather layer accepts: the
/// five sequential engines plus the three parallel ones at two thread counts.
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

const SHARD_COUNTS: &[usize] = &[1, 2, 3, 8];
const POLICIES: &[ShardPolicy] = &[ShardPolicy::RoundRobin, ShardPolicy::HashById];

/// Single-node run through the same engine factory the sharded layer uses.
fn single_node(
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

/// The coordinator's plan row plus the per-shard cost rows must tile the
/// merged counters: the coordinator only overwrites wall-clock times and the
/// final result size. The plan row carries exactly the one shared
/// query-distance cache build and nothing else; the exchange kill pass works
/// entirely from broadcast values and the shared cache, so it moves no IO
/// and evaluates no query-side distances.
fn assert_costs_tile(run: &ShardedRun, label: &str) {
    let mut dist = run.plan.dist_checks;
    let mut qdist = run.plan.query_dist_checks;
    let mut pairs = run.plan.obj_comparisons;
    let mut io = run.plan.io.total();
    assert_eq!(dist, 0, "{label}: plan does no object work");
    assert_eq!(pairs, 0, "{label}: plan does no object work");
    assert_eq!(io, 0, "{label}: plan does no IO");
    assert!(qdist > 0, "{label}: plan must account the shared cache build");
    for c in &run.per_shard {
        assert_eq!(
            c.local.query_dist_checks, 0,
            "{label}: shard-local runs must reuse the coordinator's cache"
        );
        assert_eq!(
            c.exchange.query_dist_checks, 0,
            "{label}: the kill pass must reuse the coordinator's cache"
        );
        assert_eq!(c.exchange.io.total(), 0, "{label}: the kill pass works from broadcast values");
        assert_eq!(
            c.verify.query_dist_checks, 0,
            "{label}: verify tasks must reuse the coordinator's cache"
        );
        assert!(
            c.post_exchange <= c.candidates,
            "{label}: the kill pass can only remove candidates"
        );
        for s in [&c.local, &c.exchange, &c.verify] {
            dist += s.dist_checks;
            qdist += s.query_dist_checks;
            pairs += s.obj_comparisons;
            io += s.io.total();
        }
    }
    assert_eq!(run.stats.dist_checks, dist, "{label}: dist_checks don't tile");
    assert_eq!(run.stats.query_dist_checks, qdist, "{label}: query_dist_checks don't tile");
    assert_eq!(run.stats.obj_comparisons, pairs, "{label}: obj_comparisons don't tile");
    assert_eq!(run.stats.io.total(), io, "{label}: io counts don't tile");
    assert_eq!(run.stats.result_size, run.ids.len(), "{label}: result_size");
    let cand: usize = run.per_shard.iter().map(|c| c.candidates).sum();
    assert_eq!(run.candidates, cand, "{label}: candidate total");
    let post: usize = run.per_shard.iter().map(|c| c.post_exchange).sum();
    assert_eq!(run.post_candidates, post, "{label}: post-exchange candidate total");
    let exported: usize = run.per_shard.iter().map(|c| c.exported).sum();
    assert_eq!(run.pruners, exported, "{label}: broadcast band size vs per-shard exports");
}

/// The exchange-specific side of the contract: query-side work identical to
/// single-node, object-side work bounded by a small slack, the kill pass
/// bounded by `pruners × candidates`, and the surviving candidate set within
/// 2× the true skyline band.
fn assert_exchange_bounds(run: &ShardedRun, single: &RsRun, subset_len: u64, label: &str) {
    assert_eq!(
        run.stats.query_dist_checks, single.stats.query_dist_checks,
        "{label}: query-side distance evals must match single-node exactly"
    );
    assert!(
        run.stats.dist_checks <= single.stats.dist_checks * SLACK + FLOOR,
        "{label}: dist_checks {} exceed single-node {} × {SLACK} + {FLOOR}",
        run.stats.dist_checks,
        single.stats.dist_checks
    );
    assert!(
        run.stats.obj_comparisons <= single.stats.obj_comparisons * SLACK + FLOOR,
        "{label}: obj_comparisons {} exceed single-node {} × {SLACK} + {FLOOR}",
        run.stats.obj_comparisons,
        single.stats.obj_comparisons
    );
    assert!(
        run.post_candidates <= 2 * single.ids.len() + 4,
        "{label}: {} post-exchange candidates vs a skyline band of {}",
        run.post_candidates,
        single.ids.len()
    );
    let kill_pairs: u64 = run.per_shard.iter().map(|c| c.exchange.obj_comparisons).sum();
    let kill_dist: u64 = run.per_shard.iter().map(|c| c.exchange.dist_checks).sum();
    let cap = (run.pruners * run.candidates) as u64;
    assert!(kill_pairs <= cap, "{label}: kill pass compared {kill_pairs} pairs, cap {cap}");
    assert!(
        kill_dist <= cap * subset_len,
        "{label}: kill pass did {kill_dist} distance checks, cap {}",
        cap * subset_len
    );
}

/// Full matrix: every engine config × shard count × policy × exchange
/// on/off equals both the oracle and the single-node engine run.
fn assert_sharded_matches(ds: &Dataset, q: &Query, mem_pct: f64, page: usize) {
    let expect = reverse_skyline_by_definition(&ds.dissim, &ds.rows, q);
    let subset_len = q.subset.len() as u64;
    for &(engine, threads) in ENGINE_CONFIGS {
        let single = single_node(ds, q, engine, threads, mem_pct, page);
        assert_eq!(single.ids, expect, "{engine}×{threads} single-node vs oracle on {}", ds.label);
        for &k in SHARD_COUNTS {
            for &policy in POLICIES {
                let label = format!("{engine}×{threads} shards={k} policy={policy} {}", ds.label);
                let spec = ShardSpec::new(k, policy).unwrap();

                // Exchange on (the default budget).
                let tables = ShardedTables::new(ds, spec, mem_pct, page, 3).unwrap();
                let run = tables.run_query(engine, threads, q).unwrap();
                assert_eq!(run.ids, expect, "{label}: ids differ from single-node");
                assert!(
                    run.candidates >= run.ids.len(),
                    "{label}: phase-1 candidates must be a superset of the result"
                );
                assert_costs_tile(&run, &label);
                assert_exchange_bounds(&run, &single, subset_len, &label);

                // Exchange off: a zero budget must reproduce the pre-exchange
                // executor — same ids, untouched candidate sets, no kill work.
                let tables = ShardedTables::new(ds, spec, mem_pct, page, 3)
                    .unwrap()
                    .with_pruner_budget(0);
                let off = tables.run_query(engine, threads, q).unwrap();
                assert_eq!(off.ids, expect, "{label}: ids differ with exchange off");
                assert_eq!(off.pruners, 0, "{label}: no band with exchange off");
                assert_eq!(
                    off.post_candidates, off.candidates,
                    "{label}: exchange off must not shrink candidates"
                );
                assert_costs_tile(&off, &format!("{label} [exchange off]"));

                // Phase 1 is untouched by the toggle, and the kill pass can
                // only make phase 2 cheaper — shard by shard.
                assert_eq!(run.candidates, off.candidates, "{label}: phase 1 differs");
                for (on_c, off_c) in run.per_shard.iter().zip(&off.per_shard) {
                    assert_eq!(
                        on_c.local.dist_checks, off_c.local.dist_checks,
                        "{label}: phase-1 locals differ across the toggle"
                    );
                    assert!(
                        on_c.verify.dist_checks <= off_c.verify.dist_checks,
                        "{label}: exchange made verification dearer ({} > {})",
                        on_c.verify.dist_checks,
                        off_c.verify.dist_checks
                    );
                    assert!(
                        on_c.verify.obj_comparisons <= off_c.verify.obj_comparisons,
                        "{label}: exchange made verification dearer ({} > {})",
                        on_c.verify.obj_comparisons,
                        off_c.verify.obj_comparisons
                    );
                }
            }
        }
    }
}

#[test]
fn paper_example_sharded_all_configs() {
    // Six records over up to eight shards: covers empty shards too.
    let (ds, q) = rsky::data::paper_example();
    assert_sharded_matches(&ds, &q, 50.0, 32);
}

#[test]
fn synthetic_normal_sharded_all_configs() {
    let mut rng = StdRng::seed_from_u64(200);
    let ds = rsky::data::synthetic::normal_dataset(3, 6, 150, &mut rng).unwrap();
    for q in rsky::data::random_queries(&ds.schema, 2, &mut rng).unwrap() {
        assert_sharded_matches(&ds, &q, 12.0, 128);
    }
}

#[test]
fn synthetic_uniform_sharded_all_configs() {
    // Uniform data keeps pruning weak → large candidate sets in phase 1,
    // heavy phase-2 verification traffic.
    let mut rng = StdRng::seed_from_u64(201);
    let ds = rsky::data::synthetic::uniform_dataset(4, 5, 120, &mut rng).unwrap();
    let q = rsky::data::random_queries(&ds.schema, 1, &mut rng).unwrap().remove(0);
    assert_sharded_matches(&ds, &q, 8.0, 64);
}

#[test]
fn attribute_subset_queries_shard_exactly() {
    let mut rng = StdRng::seed_from_u64(202);
    let ds = rsky::data::synthetic::normal_dataset(5, 6, 110, &mut rng).unwrap();
    let q = rsky::data::workload::random_subset_queries(&ds.schema, &[0, 2, 4], 1, &mut rng)
        .unwrap()
        .remove(0);
    assert_sharded_matches(&ds, &q, 10.0, 128);
}

/// Regression: exact duplicates that the partitioner scatters into
/// *different* shards must still prune each other, exactly as they do in the
/// single-node walkthrough (tests/paper_walkthrough.rs): both copies drop
/// out of RS unless they tie the query on every selected attribute.
#[test]
fn cross_shard_duplicates_still_prune_each_other() {
    let mut rng = StdRng::seed_from_u64(203);
    let schema = Schema::with_cardinalities(&[4, 4]).unwrap();
    let dissim = rsky::data::dissim_gen::random_dissim_table(&schema, &mut rng).unwrap();
    let mut rows = RowBuf::new(2);
    // Ids 10 and 11 are exact duplicates at adjacent arrival positions 0 and
    // 1 — round-robin over 2 shards provably separates them.
    rows.push(10, &[2, 3]);
    rows.push(11, &[2, 3]);
    rows.push(12, &[1, 0]);
    rows.push(13, &[0, 2]);
    rows.push(14, &[3, 1]);
    let ds = Dataset { schema, dissim, rows, label: "cross-shard-dups".into() };

    let spec = ShardSpec::new(2, ShardPolicy::RoundRobin).unwrap();
    assert_ne!(
        spec.policy.shard_of(10, 0, 2),
        spec.policy.shard_of(11, 1, 2),
        "test precondition: the duplicates must land in different shards"
    );

    // Query differing from the twins: each copy prunes the other across the
    // shard boundary, so both leave RS.
    let q = Query::new(&ds.schema, vec![0, 0]).unwrap();
    let expect = reverse_skyline_by_definition(&ds.dissim, &ds.rows, &q);
    assert!(!expect.contains(&10) && !expect.contains(&11), "oracle: twins prune each other");
    for &(engine, threads) in ENGINE_CONFIGS {
        let tables = ShardedTables::new(&ds, spec, 50.0, 32, 3).unwrap();
        let run = tables.run_query(engine, threads, &q).unwrap();
        assert_eq!(run.ids, expect, "{engine}×{threads}: cross-shard duplicate pruning");
        assert!(
            run.candidates > run.ids.len(),
            "{engine}×{threads}: each twin must survive phase 1 locally and die in phase 2"
        );
    }

    // Query equal to the twins: neither can strictly improve on a tie, so
    // both stay in RS — pruning across shards must not overshoot.
    let q = Query::new(&ds.schema, vec![2, 3]).unwrap();
    let expect = reverse_skyline_by_definition(&ds.dissim, &ds.rows, &q);
    assert!(expect.contains(&10) && expect.contains(&11), "oracle: ties keep both twins");
    for &(engine, threads) in ENGINE_CONFIGS {
        let tables = ShardedTables::new(&ds, spec, 50.0, 32, 3).unwrap();
        let run = tables.run_query(engine, threads, &q).unwrap();
        assert_eq!(run.ids, expect, "{engine}×{threads}: tied twins must both survive");
    }
}

/// `k = 1` is the degenerate scatter-gather: phase 2 has no foreign windows,
/// so not just the ids but the *counters* must equal the single-node run.
#[test]
fn one_shard_equals_single_node_counters() {
    let mut rng = StdRng::seed_from_u64(204);
    let ds = rsky::data::synthetic::normal_dataset(3, 6, 100, &mut rng).unwrap();
    let q = rsky::data::random_queries(&ds.schema, 1, &mut rng).unwrap().remove(0);
    for &(engine, threads) in ENGINE_CONFIGS {
        let single = single_node(&ds, &q, engine, threads, 15.0, 128);
        let spec = ShardSpec::new(1, ShardPolicy::RoundRobin).unwrap();
        let tables = ShardedTables::new(&ds, spec, 15.0, 128, 3).unwrap();
        let run = tables.run_query(engine, threads, &q).unwrap();
        assert_eq!(run.ids, single.ids, "{engine}×{threads}");
        assert_eq!(run.stats.dist_checks, single.stats.dist_checks, "{engine}×{threads}");
        assert_eq!(
            run.stats.query_dist_checks, single.stats.query_dist_checks,
            "{engine}×{threads}"
        );
        assert_eq!(run.stats.obj_comparisons, single.stats.obj_comparisons, "{engine}×{threads}");
        assert_eq!(run.per_shard[0].verify.obj_comparisons, 0, "{engine}×{threads}: no foreigns");
        assert_eq!(run.pruners, 0, "{engine}×{threads}: a lone shard must skip the exchange");

        // The budget knob must be inert at k = 1: there is nobody to
        // exchange with, so even a tiny budget changes no counter.
        let tables =
            ShardedTables::new(&ds, spec, 15.0, 128, 3).unwrap().with_pruner_budget(1);
        let budgeted = tables.run_query(engine, threads, &q).unwrap();
        assert_eq!(budgeted.ids, single.ids, "{engine}×{threads} budget=1");
        assert_eq!(budgeted.stats.dist_checks, single.stats.dist_checks, "{engine}×{threads}");
        assert_eq!(
            budgeted.stats.obj_comparisons, single.stats.obj_comparisons,
            "{engine}×{threads} budget=1"
        );
        assert_eq!(budgeted.pruners, 0, "{engine}×{threads} budget=1: exchange skipped");
    }
}

/// Adversarial skew: reseat the rows so that **every** skyline member lands
/// in shard 0 under round-robin. The other shards' phase-1 candidates are
/// then all doomed ballooned locals, and the merged band that kills them is
/// owned entirely by one shard — the worst case for a broadcast exchange.
#[test]
fn skewed_partition_one_shard_owns_the_whole_skyline() {
    let mut rng = StdRng::seed_from_u64(205);
    let normal = rsky::data::synthetic::normal_dataset(3, 6, 90, &mut rng).unwrap();
    // The flattening twin, so the skewed rows can run under both twins with
    // one skyline.
    let base = linear_twins(&normal).unwrap().0;
    let q = rsky::data::random_queries(&base.schema, 1, &mut rng).unwrap().remove(0);
    let expect = reverse_skyline_by_definition(&base.dissim, &base.rows, &q);
    assert!(!expect.is_empty(), "fixture needs a non-empty skyline");

    let k = 3usize;
    let (sky, rest): (Vec<usize>, Vec<usize>) =
        (0..base.rows.len()).partition(|&ri| expect.contains(&base.rows.id(ri)));
    assert!(sky.len() * k <= base.rows.len(), "fixture needs enough filler rows");
    // Skyline members at positions ≡ 0 (mod k); round-robin sends them all
    // to shard 0.
    let mut order = Vec::with_capacity(base.rows.len());
    let mut rest_it = rest.into_iter();
    for &s in &sky {
        order.push(s);
        for _ in 1..k {
            order.push(rest_it.next().unwrap());
        }
    }
    order.extend(rest_it);
    let mut rows = RowBuf::new(3);
    for &ri in &order {
        rows.push(base.rows.id(ri), base.rows.values(ri));
    }
    let ds = Dataset {
        schema: base.schema.clone(),
        dissim: base.dissim.clone(),
        rows,
        label: "skewed-skyline".into(),
    };
    let spec = ShardSpec::new(k, ShardPolicy::RoundRobin).unwrap();
    let parts = partition_rows(&ds.rows, &spec);
    for (s, part) in parts.iter().enumerate().skip(1) {
        for ri in 0..part.len() {
            assert!(
                !expect.contains(&part.id(ri)),
                "test precondition: shard {s} must hold no skyline member"
            );
        }
    }

    let subset_len = q.subset.len() as u64;
    let (flat_ds, wide_ds) = linear_twins(&ds).unwrap();
    for ds in [&flat_ds, &wide_ds] {
        for &(engine, threads) in &[("naive", 1), ("brs", 1), ("srs", 5), ("trs", 2), ("trs-bf", 1)] {
            let label = format!("skewed {engine}×{threads} {}", ds.label);
            let single = single_node(ds, &q, engine, threads, 12.0, 128);
            assert_eq!(single.ids, expect, "{label}: single-node vs oracle");
            let tables = ShardedTables::new(ds, spec, 12.0, 128, 3).unwrap();
            let run = tables.run_query(engine, threads, &q).unwrap();
            assert_eq!(run.ids, expect, "{label}: ids");
            assert_costs_tile(&run, &label);
            assert_exchange_bounds(&run, &single, subset_len, &label);
        }
    }
}

/// Adversarial hash partition: every id is chosen so `HashById` maps it to
/// shard 0, leaving the other shards empty. The broadcast band then consists
/// solely of shard 0's own candidates — the self-exclusion rule must keep
/// the kill pass from a shard shooting its own unprunable candidates.
#[test]
fn hash_policy_pathological_all_records_land_in_one_shard() {
    let k = 4usize;
    let spec = ShardSpec::new(k, ShardPolicy::HashById).unwrap();
    let mut rng = StdRng::seed_from_u64(206);
    let base = rsky::data::synthetic::normal_dataset(3, 5, 60, &mut rng).unwrap();
    let mut rows = RowBuf::new(3);
    let mut id: RecordId = 0;
    for ri in 0..base.rows.len() {
        while spec.policy.shard_of(id, ri, k) != 0 {
            id += 1;
        }
        rows.push(id, base.rows.values(ri));
        id += 1;
    }
    let ds = Dataset {
        schema: base.schema.clone(),
        dissim: base.dissim.clone(),
        rows,
        label: "hash-pathological".into(),
    };
    let parts = partition_rows(&ds.rows, &spec);
    assert_eq!(parts[0].len(), ds.rows.len(), "test precondition: one shard owns everything");

    let q = rsky::data::random_queries(&ds.schema, 1, &mut rng).unwrap().remove(0);
    let (flat_ds, wide_ds) = linear_twins(&ds).unwrap();
    let expect = reverse_skyline_by_definition(&flat_ds.dissim, &flat_ds.rows, &q);
    for ds in [&flat_ds, &wide_ds] {
        for &(engine, threads) in &[("naive", 1), ("srs", 1), ("trs", 2), ("trs-bf", 1), ("brs", 5)] {
            let label = format!("hash-pathological {engine}×{threads} {}", ds.label);
            let tables = ShardedTables::new(ds, spec, 12.0, 128, 3).unwrap();
            let run = tables.run_query(engine, threads, &q).unwrap();
            assert_eq!(run.ids, expect, "{label}: ids");
            // The sole populated shard's candidates are mutually
            // unprunable (phase 1 proved them against the whole shard ==
            // the whole dataset), so the kill pass must remove nothing.
            assert_eq!(
                run.post_candidates, run.candidates,
                "{label}: a shard must not shoot its own candidates"
            );
            assert_eq!(run.ids.len(), run.candidates, "{label}: candidates are exact here");
            assert_costs_tile(&run, &label);
        }
    }
}

/// Tiny dataset over many shards: most shards are empty, the band is smaller
/// than any budget, and `k = 1` degenerates to single-node — all of it under
/// both kernel sources (a flattening domain and its non-flattening twin) and
/// budgets from 0 (off) through larger-than-band.
#[test]
fn empty_shards_and_tiny_budgets_stay_exact_under_both_kernel_modes() {
    let mut rng = StdRng::seed_from_u64(207);
    let ds = rsky::data::synthetic::normal_dataset(3, 5, 5, &mut rng).unwrap();
    let q = rsky::data::random_queries(&ds.schema, 1, &mut rng).unwrap().remove(0);
    let (flat_ds, wide_ds) = linear_twins(&ds).unwrap();
    let expect = reverse_skyline_by_definition(&flat_ds.dissim, &flat_ds.rows, &q);
    for ds in [&flat_ds, &wide_ds] {
        for &k in &[1usize, 8] {
            for &budget in &[0usize, 1, 2, DEFAULT_PRUNER_BUDGET] {
                for &policy in POLICIES {
                    let label = format!("n=5 k={k} budget={budget} {policy} {}", ds.label);
                    let spec = ShardSpec::new(k, policy).unwrap();
                    let tables = ShardedTables::new(ds, spec, 50.0, 32, 3)
                        .unwrap()
                        .with_pruner_budget(budget);
                    let run = tables.run_query("trs", 2, &q).unwrap();
                    assert_eq!(run.ids, expect, "{label}: ids");
                    assert_costs_tile(&run, &label);
                    for c in &run.per_shard {
                        assert!(c.exported <= budget, "{label}: budget overrun");
                    }
                }
            }
        }
    }
}

/// The exchange at scale (synthetic normal, 5 attributes × 50 values,
/// n = 5,000, seed 42, two queries, 10 % memory, 4 KiB pages, round-robin):
/// sharding balloons every candidate set past the result, and under the
/// default pruner budget the kill pass takes at least one doomed candidate
/// out of each, with the ids still the single-node ones.
#[test]
fn exchange_shrinks_every_ballooned_candidate_set() {
    let mut rng = StdRng::seed_from_u64(42);
    let ds = rsky::data::synthetic::normal_dataset(5, 50, 5_000, &mut rng).unwrap();
    let qs = rsky::data::random_queries(&ds.schema, 2, &mut rng).unwrap();
    let (mem_pct, page) = (10.0, 4096);
    for engine in ["brs", "srs", "trs"] {
        let singles: Vec<RsRun> =
            qs.iter().map(|q| single_node(&ds, q, engine, 1, mem_pct, page)).collect();
        for k in [2, 4, 8] {
            let spec = ShardSpec::new(k, ShardPolicy::RoundRobin).unwrap();
            let tables = ShardedTables::new(&ds, spec, mem_pct, page, 4).unwrap();
            for (qi, (q, single)) in qs.iter().zip(&singles).enumerate() {
                let label = format!("{engine} k={k} query {qi}");
                let run = tables.run_query(engine, 1, q).unwrap();
                assert_eq!(run.ids, single.ids, "{label}: ids differ from single-node");
                assert!(
                    run.candidates > run.ids.len(),
                    "{label}: sharding must balloon the candidate set on this fixture"
                );
                assert!(
                    run.post_candidates < run.candidates,
                    "{label}: {} ballooned candidates survived the exchange untouched",
                    run.candidates
                );
            }
        }
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

        /// Arbitrary (dataset, query, engine config, shard config, kernel
        /// source, pruner budget) — the sharded run always equals the
        /// definitional oracle. `wide` picks the non-flattening twin domain;
        /// `budget_raw` sweeps the degenerate 0 (off), tiny truncating
        /// budgets, and the default.
        #[test]
        fn sharded_equals_single_node(
            seed in 0u64..1_000_000,
            n in 20usize..90,
            k in 1usize..=8,
            use_hash in proptest::bool::ANY,
            engine_idx in 0usize..11,
            wide in proptest::bool::ANY,
            budget_raw in 0usize..12,
        ) {
            let mut rng = StdRng::seed_from_u64(seed);
            let ds = rsky::data::synthetic::normal_dataset(3, 5, n, &mut rng).unwrap();
            let q = rsky::data::random_queries(&ds.schema, 1, &mut rng).unwrap().remove(0);
            let (flat_ds, wide_ds) = linear_twins(&ds).unwrap();
            let ds = if wide { wide_ds } else { flat_ds };
            let expect = reverse_skyline_by_definition(&ds.dissim, &ds.rows, &q);
            let (engine, threads) = super::ENGINE_CONFIGS[engine_idx];
            let policy = if use_hash { ShardPolicy::HashById } else { ShardPolicy::RoundRobin };
            let budget = if budget_raw == 11 { DEFAULT_PRUNER_BUDGET } else { budget_raw };
            let spec = ShardSpec::new(k, policy).unwrap();
            let tables = ShardedTables::new(&ds, spec, 12.0, 128, 3)
                .unwrap()
                .with_pruner_budget(budget);
            let run = tables.run_query(engine, threads, &q).unwrap();
            prop_assert_eq!(&run.ids, &expect,
                "{}×{} shards={} policy={} budget={} wide={}",
                engine, threads, k, policy, budget, wide);
            super::assert_costs_tile(&run, "property");
            for c in &run.per_shard {
                prop_assert!(c.exported <= budget, "budget overrun: {} > {}", c.exported, budget);
            }
        }
    }
}
