//! Fixtures for the best-first AL-Tree engine (`TrsBf`): datasets engineered
//! so the group-level bound/kill machinery must fire, with assertions on the
//! `tree_nodes_visited` counter — not just result ids.
//!
//! The "hub" construction used throughout: value `0` on every attribute is a
//! universal pruner (`d(0, v) = 0` for all `v`) that nothing else can prune
//! (`d(u, 0)` exceeds the query's distance to the hub for every `u ≠ 0`),
//! while the query sits at the far end of the domain. The hub subtree then
//! carries the largest query-distance bound, pops first, survives, and is
//! admitted as a batch-universal killer — so best-first search cuts every
//! other subtree at the root's children, where batch TRS still walks the
//! pruner search for every leaf.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rsky::altree::AlTree;
use rsky::core::dissim::MatrixBuilder;
use rsky::prelude::*;

/// Runs one engine over the multi-sorted layout and returns the full run.
fn run_engine(
    algo: &dyn ReverseSkylineAlgo,
    ds: &Dataset,
    q: &Query,
    mem_pct: f64,
    page: usize,
) -> RsRun {
    let budget = MemoryBudget::from_percent(ds.data_bytes(), mem_pct, page).unwrap();
    run_engine_with_budget(algo, ds, q, budget, page)
}

/// As [`run_engine`], with an explicit budget (the fixtures that must fit a
/// whole batch tree need more than 100% of the raw dataset bytes).
fn run_engine_with_budget(
    algo: &dyn ReverseSkylineAlgo,
    ds: &Dataset,
    q: &Query,
    budget: MemoryBudget,
    page: usize,
) -> RsRun {
    let mut disk = Disk::new_mem(page);
    let raw = load_dataset(&mut disk, ds).unwrap();
    let sorted = prepare_table(&mut disk, &ds.schema, &raw, Layout::MultiSort, &budget).unwrap();
    let mut ctx = EngineCtx { disk: &mut disk, schema: &ds.schema, dissim: &ds.dissim, budget };
    algo.run(&mut ctx, &sorted.file, q).unwrap()
}

/// Both engines must return exactly the oracle ids, and best-first must
/// visit strictly fewer AL-Tree nodes than batch TRS.
fn assert_bf_strictly_fewer_visits(ds: &Dataset, q: &Query, mem_pct: f64, label: &str) {
    let expect = reverse_skyline_by_definition(&ds.dissim, &ds.rows, q);
    let trs = run_engine(&Trs::for_schema(&ds.schema), ds, q, mem_pct, 256);
    let bf = run_engine(&TrsBf::for_schema(&ds.schema), ds, q, mem_pct, 256);
    assert_eq!(trs.ids, expect, "{label}: TRS vs oracle");
    assert_eq!(bf.ids, expect, "{label}: TRS-BF vs oracle");
    assert!(
        bf.stats.tree_nodes_visited < trs.stats.tree_nodes_visited,
        "{label}: best-first must visit strictly fewer AL-Tree nodes \
         (TRS-BF {} vs TRS {})",
        bf.stats.tree_nodes_visited,
        trs.stats.tree_nodes_visited,
    );
}

/// One hub dissimilarity matrix (see module docs): `d(0, v) = 0` for all
/// `v`, `d(u, 0) = 20 − u` for `u ≠ 0` (always above `d(k−1, 0)` for the
/// filler values `u < k−1`), `d(u, v) = |u − v|` otherwise.
fn hub_matrix(k: u32) -> rsky::core::AttrDissim {
    let mut b = MatrixBuilder::new(k);
    for u in 1..k {
        b = b.set(0, u, 0.0).set(u, 0, 20.0 - u as f64);
        for v in 1..k {
            if u != v {
                b = b.set(u, v, (u as f64 - v as f64).abs());
            }
        }
    }
    b.build().unwrap()
}

/// A hub dataset: record 0 is the hub (all-zero values); `fillers` value
/// combinations, each repeated `repeat` times, drawn from `1..=hi`. The
/// query sits at `k − 1` on every attribute, a value no filler uses.
fn hub_dataset(m: usize, k: u32, hi: u32, fillers: usize, repeat: usize, seed: u64) -> (Dataset, Query) {
    assert!(hi <= k - 2, "fillers must avoid both the hub and the query value");
    let schema = Schema::with_cardinalities(&vec![k; m]).unwrap();
    let measures = (0..m).map(|_| hub_matrix(k)).collect();
    let dissim = DissimTable::new(&schema, measures).unwrap();
    let mut rng = StdRng::seed_from_u64(seed);
    let mut rows = RowBuf::new(m);
    rows.push(0, &vec![0u32; m]);
    let mut id: RecordId = 1;
    for _ in 0..fillers {
        let combo: Vec<ValueId> = (0..m).map(|_| rng.gen_range(1..=hi)).collect();
        for _ in 0..repeat {
            rows.push(id, &combo);
            id += 1;
        }
    }
    let q = Query::new(&schema, vec![k - 1; m]).unwrap();
    let ds = Dataset { schema, dissim, rows, label: "hub".into() };
    // Fixture shape: the hub is the entire reverse skyline.
    assert_eq!(reverse_skyline_by_definition(&ds.dissim, &ds.rows, &q), vec![0]);
    (ds, q)
}

#[test]
fn skewed_hub_data_best_first_visits_strictly_fewer_nodes() {
    let (ds, q) = hub_dataset(3, 8, 6, 400, 1, 301);
    assert_bf_strictly_fewer_visits(&ds, &q, 100.0, "skewed hub");
}

#[test]
fn low_cardinality_data_best_first_visits_strictly_fewer_nodes() {
    // Two filler values per attribute: tiny domains, dense duplicates, and
    // batch TRS's pruner walks traverse essentially the whole tree per leaf.
    let (ds, q) = hub_dataset(4, 4, 2, 300, 1, 302);
    assert_bf_strictly_fewer_visits(&ds, &q, 100.0, "low cardinality");
}

#[test]
fn duplicate_heavy_data_best_first_visits_strictly_fewer_nodes() {
    // 40 distinct combinations × 10 instances each: leaves are fat, so the
    // per-leaf group reasoning of both engines matters — and the kill pass
    // still has to beat TRS on nodes, not just on records.
    let (ds, q) = hub_dataset(3, 8, 6, 40, 10, 303);
    assert_bf_strictly_fewer_visits(&ds, &q, 100.0, "duplicate heavy");
}

#[test]
fn skewed_hub_survives_tight_memory_batching() {
    // Multi-batch phase 1: killers reset per batch, the hub only group-kills
    // inside its own batch (so no visit win is promised here), and the ids
    // must still match the oracle exactly.
    let (ds, q) = hub_dataset(3, 8, 6, 200, 2, 304);
    let expect = reverse_skyline_by_definition(&ds.dissim, &ds.rows, &q);
    let trs = run_engine(&Trs::for_schema(&ds.schema), &ds, &q, 1.0, 256);
    let bf = run_engine(&TrsBf::for_schema(&ds.schema), &ds, &q, 1.0, 256);
    assert!(bf.stats.phase1_batches > 1, "fixture expects a batched phase 1");
    assert_eq!(trs.ids, expect, "tight-memory hub: TRS vs oracle");
    assert_eq!(bf.ids, expect, "tight-memory hub: TRS-BF vs oracle");
}

/// On uniform data (no skew to exploit) best-first may not win, but it must
/// stay within the paper-style bound: every heap pop is a distinct tree
/// node, so phase 1 adds at most `num_nodes` visits over the shared
/// per-leaf pruner walks, and each phase-2 candidate chunk replays one DFS
/// (`num_nodes` visits per batch).
#[test]
fn uniform_data_visit_count_within_additive_node_bound() {
    let mut rng = StdRng::seed_from_u64(305);
    let ds = rsky::data::synthetic::uniform_dataset(3, 6, 150, &mut rng).unwrap();
    // A batch tree over n records costs more than the raw rows; give the
    // engines enough budget that phase 1 is a single batch.
    let budget = MemoryBudget::from_bytes(1 << 20, 256).unwrap();
    for q in rsky::data::random_queries(&ds.schema, 3, &mut rng).unwrap() {
        let expect = reverse_skyline_by_definition(&ds.dissim, &ds.rows, &q);
        // The bound counts TRS-BF's leaf checks as TRS's per-leaf walks, so
        // its reference is TRS without the witness probe (plain Alg. 4).
        let mut plain = Trs::for_schema(&ds.schema);
        plain.opts.witness_first = false;
        let trs = run_engine_with_budget(&plain, &ds, &q, budget, 256);
        let bf = run_engine_with_budget(&TrsBf::for_schema(&ds.schema), &ds, &q, budget, 256);
        assert_eq!(trs.ids, expect, "uniform: TRS vs oracle");
        assert_eq!(bf.ids, expect, "uniform: TRS-BF vs oracle");
        assert_eq!(bf.stats.phase1_batches, 1, "fixture expects a single phase-1 batch");

        // Replay the batch tree the engines built (same attribute order;
        // trie shape is insertion-order independent) to count its nodes.
        let order = rsky::order::ascending_cardinality_order(&ds.schema);
        let mut tree = AlTree::new(ds.schema.num_attrs());
        let mut tvals = vec![0u32; ds.schema.num_attrs()];
        for ri in 0..ds.rows.len() {
            let vals = ds.rows.values(ri);
            for (j, &a) in order.iter().enumerate() {
                tvals[j] = vals[a];
            }
            tree.insert(&tvals, ds.rows.id(ri));
        }
        let nodes = tree.num_nodes() as u64;
        let bound =
            trs.stats.tree_nodes_visited + nodes * (1 + bf.stats.phase2_batches as u64);
        assert!(
            bf.stats.tree_nodes_visited <= bound,
            "uniform: TRS-BF visited {} nodes, above the bound {} \
             (TRS {}, tree {nodes} nodes, {} phase-2 chunks)",
            bf.stats.tree_nodes_visited,
            bound,
            trs.stats.tree_nodes_visited,
            bf.stats.phase2_batches,
        );
    }
}

#[test]
fn singleton_domains_every_record_ties_the_query() {
    // Cardinality 1 everywhere: one possible row, all distances 0, nothing
    // can be strictly closer than the query — the whole dataset survives.
    let schema = Schema::with_cardinalities(&[1, 1, 1]).unwrap();
    let measures = (0..3).map(|_| MatrixBuilder::new(1).build().unwrap()).collect();
    let dissim = DissimTable::new(&schema, measures).unwrap();
    let mut rows = RowBuf::new(3);
    for id in 0..9 {
        rows.push(id, &[0, 0, 0]);
    }
    let ds = Dataset { schema, dissim, rows, label: "singleton-domains".into() };
    let q = Query::new(&ds.schema, vec![0, 0, 0]).unwrap();
    let expect = reverse_skyline_by_definition(&ds.dissim, &ds.rows, &q);
    assert_eq!(expect, (0..9).collect::<Vec<_>>());
    for mem in [1.0, 100.0] {
        let trs = run_engine(&Trs::for_schema(&ds.schema), &ds, &q, mem, 64);
        let bf = run_engine(&TrsBf::for_schema(&ds.schema), &ds, &q, mem, 64);
        assert_eq!(trs.ids, expect, "singleton: TRS (mem {mem}%)");
        assert_eq!(bf.ids, expect, "singleton: TRS-BF (mem {mem}%)");
    }
}

#[test]
fn all_duplicates_prune_each_other_unless_tied_with_query() {
    let schema = Schema::with_cardinalities(&[4, 3]).unwrap();
    let measures = (0..2)
        .map(|i| {
            let k = schema.cardinality(i);
            let mut b = MatrixBuilder::new(k);
            for u in 0..k {
                for v in (u + 1)..k {
                    b = b.set_sym(u, v, (u as f64 - v as f64).abs());
                }
            }
            b.build().unwrap()
        })
        .collect();
    let dissim = DissimTable::new(&schema, measures).unwrap();

    // n identical records away from the query: each is pruned by any other
    // (d = 0 ≤ d_q, strict because d_q > 0) → empty result for n ≥ 2.
    let mut rows = RowBuf::new(2);
    for id in 0..8 {
        rows.push(id, &[2, 1]);
    }
    let away = Dataset { schema: schema.clone(), dissim: dissim.clone(), rows, label: "dups-away".into() };
    let q = Query::new(&schema, vec![0, 0]).unwrap();
    assert!(reverse_skyline_by_definition(&away.dissim, &away.rows, &q).is_empty());
    // n identical records *on* the query values: d_q = 0, strictness is
    // impossible, every duplicate survives.
    let mut rows = RowBuf::new(2);
    for id in 0..8 {
        rows.push(id, &[0, 0]);
    }
    let tied = Dataset { schema: schema.clone(), dissim: dissim.clone(), rows, label: "dups-tied".into() };
    assert_eq!(
        reverse_skyline_by_definition(&tied.dissim, &tied.rows, &q),
        (0..8).collect::<Vec<_>>()
    );
    // A single record has no other instance to prune it.
    let mut rows = RowBuf::new(2);
    rows.push(41, &[2, 1]);
    let lone = Dataset { schema, dissim, rows, label: "dup-lone".into() };

    for ds in [&away, &tied, &lone] {
        let expect = reverse_skyline_by_definition(&ds.dissim, &ds.rows, &q);
        for mem in [1.0, 100.0] {
            let trs = run_engine(&Trs::for_schema(&ds.schema), ds, &q, mem, 64);
            let bf = run_engine(&TrsBf::for_schema(&ds.schema), ds, &q, mem, 64);
            assert_eq!(trs.ids, expect, "{}: TRS (mem {mem}%)", ds.label);
            assert_eq!(bf.ids, expect, "{}: TRS-BF (mem {mem}%)", ds.label);
        }
    }
}
