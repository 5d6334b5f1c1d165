//! Property-based tests (proptest) over the whole stack.
//!
//! The suite always runs: the default `cargo test` tier gets a fast smoke
//! subset, while `--features property-tests` runs the full case count.

use proptest::prelude::*;
use rsky::prelude::*;

/// Cases per property: the full sweep behind `--features property-tests`, a
/// smoke subset (same strategies, same shrinking) otherwise.
const CASES: u32 = if cfg!(feature = "property-tests") { 48 } else { 8 };

/// Strategy: a small random instance — schema, symmetric-but-arbitrary
/// dissimilarity matrices, rows, and a query.
fn instance() -> impl Strategy<Value = (Dataset, Query)> {
    // 1–4 attributes, cardinalities 1–5, up to 40 rows.
    (1usize..=4).prop_flat_map(|m| {
        proptest::collection::vec(1u32..=5, m..=m)
            .prop_flat_map(move |cards| {
                let schema = Schema::with_cardinalities(&cards).unwrap();
                let total: u32 = cards.iter().map(|&k| k * k).sum();
                let rows_strategy = proptest::collection::vec(
                    proptest::collection::vec(0u32..5, m..=m),
                    0..40,
                );
                let matrix_strategy = proptest::collection::vec(0.0f64..1.0, total as usize..=total as usize);
                let query_strategy = proptest::collection::vec(0u32..5, m..=m);
                (rows_strategy, matrix_strategy, query_strategy).prop_map(move |(raw_rows, weights, raw_q)| {
                    // Build symmetric matrices from the weight pool.
                    let mut wi = 0;
                    let measures: Vec<AttrDissim> = schema
                        .attrs()
                        .iter()
                        .map(|a| {
                            let k = a.cardinality;
                            let mut b = rsky::core::dissim::MatrixBuilder::new(k);
                            for x in 0..k {
                                for y in (x + 1)..k {
                                    b = b.set_sym(x, y, weights[wi % weights.len()]);
                                    wi += 1;
                                }
                            }
                            wi += 1;
                            b.build().unwrap()
                        })
                        .collect();
                    let dissim = DissimTable::new(&schema, measures).unwrap();
                    let mut rows = RowBuf::new(schema.num_attrs());
                    for (id, r) in raw_rows.iter().enumerate() {
                        let vals: Vec<u32> =
                            r.iter().zip(schema.attrs()).map(|(&v, a)| v % a.cardinality).collect();
                        rows.push(id as u32, &vals);
                    }
                    let qvals: Vec<u32> = raw_q
                        .iter()
                        .zip(schema.attrs())
                        .map(|(&v, a)| v % a.cardinality)
                        .collect();
                    let query = Query::new(&schema, qvals).unwrap();
                    (
                        Dataset { schema: schema.clone(), dissim, rows, label: "prop".into() },
                        query,
                    )
                })
            })
    })
}

/// `rows` plus `dups` extra rows that reuse ids of the first rows, half of
/// them with the same values (full duplicates), half with another row's.
fn with_duplicates(rows: &RowBuf, dups: usize) -> RowBuf {
    let mut out = rows.clone();
    for k in 0..dups.min(rows.len()) {
        let values = if k % 2 == 0 { rows.values(k) } else { rows.values((k + 1) % rows.len()) };
        out.push(rows.id(k), values);
    }
    out
}

/// Sorts `rows` with the external sort on 64-byte pages.
fn external_sort_rows(rows: &RowBuf, budget_bytes: u64, order: &rsky::order::SortOrder) -> RowBuf {
    let mut disk = Disk::new_mem(64);
    let mut raw = RecordFile::create(&mut disk, rows.num_attrs()).unwrap();
    raw.write_all(&mut disk, rows).unwrap();
    let budget = MemoryBudget::from_bytes(budget_bytes, 64).unwrap();
    let sorted = rsky::order::external_sort(&mut disk, &raw, &budget, order).unwrap();
    sorted.file.read_all(&mut disk).unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig { cases: CASES, ..ProptestConfig::default() })]

    /// Every engine equals the definitional oracle on arbitrary instances.
    #[test]
    fn engines_match_oracle((ds, q) in instance(), page in prop_oneof![Just(16usize), Just(64), Just(256)], pct in 0.0f64..60.0) {
        prop_assume!(page >= (ds.schema.num_attrs() + 1) * 4);
        let expect = reverse_skyline_by_definition(&ds.dissim, &ds.rows, &q);
        let mut disk = Disk::new_mem(page);
        let raw = load_dataset(&mut disk, &ds).unwrap();
        let budget = MemoryBudget::from_percent(ds.data_bytes().max(1), pct, page).unwrap();
        let sorted = prepare_table(&mut disk, &ds.schema, &raw, Layout::MultiSort, &budget).unwrap();
        let trs = Trs::for_schema(&ds.schema);
        let bf = TrsBf::for_schema(&ds.schema);

        let mut ctx = EngineCtx { disk: &mut disk, schema: &ds.schema, dissim: &ds.dissim, budget };
        prop_assert_eq!(&Brs.run(&mut ctx, &raw, &q).unwrap().ids, &expect);
        prop_assert_eq!(&Srs.run(&mut ctx, &sorted.file, &q).unwrap().ids, &expect);
        prop_assert_eq!(&trs.run(&mut ctx, &sorted.file, &q).unwrap().ids, &expect);
        prop_assert_eq!(&bf.run(&mut ctx, &sorted.file, &q).unwrap().ids, &expect);
    }

    /// The best-first queue's heap invariant: however entries are pushed —
    /// including interleaved with pops — the popped bound sequence is
    /// non-increasing, and equal bounds pop in ascending node order.
    #[test]
    fn bound_heap_pops_non_increasing(
        entries in proptest::collection::vec((0u32..1000, 0usize..=100, proptest::bool::ANY), 1..80),
    ) {
        use rsky::algos::BoundHeap;
        let mut heap = BoundHeap::default();
        let mut popped: Vec<(f64, u32)> = Vec::new();
        for (node, bound_scaled, pop_now) in entries {
            heap.push(bound_scaled as f64 / 10.0, node);
            if pop_now {
                // Interleaved pops restart the monotone run; check ties only
                // within one drain below.
                heap.pop();
            }
        }
        while let Some(e) = heap.pop() {
            popped.push(e);
        }
        prop_assert!(heap.is_empty());
        for w in popped.windows(2) {
            prop_assert!(w[0].0 >= w[1].0, "bound increased: {:?} then {:?}", w[0], w[1]);
            if w[0].0 == w[1].0 {
                // `<=` not `<`: the generator may push the same (bound, node)
                // entry twice, and duplicates pop adjacently.
                prop_assert!(w[0].1 <= w[1].1, "tie broke out of node order: {:?} then {:?}", w[0], w[1]);
            }
        }
    }

    /// Both oracle formulations (no-pruner and Q-in-skyline) coincide.
    #[test]
    fn oracle_formulations_agree((ds, q) in instance()) {
        let a = reverse_skyline_by_definition(&ds.dissim, &ds.rows, &q);
        let b = rsky::core::skyline::reverse_skyline_via_skyline(&ds.dissim, &ds.rows, &q);
        prop_assert_eq!(a, b);
    }

    /// The result never contains a dominated-for-some-center object and is
    /// monotone under dataset growth *only* in the safe direction: adding an
    /// object can only shrink or keep other objects' membership… adding can
    /// also add itself. We check the removal direction: every result member
    /// remains a member when a non-member is removed.
    #[test]
    fn removing_non_members_preserves_results((ds, q) in instance()) {
        let expect = reverse_skyline_by_definition(&ds.dissim, &ds.rows, &q);
        if ds.rows.len() > 1 {
            // Remove one non-member (if any) and re-run.
            let non_member = (0..ds.rows.len())
                .map(|i| ds.rows.id(i))
                .find(|id| !expect.contains(id));
            if let Some(victim) = non_member {
                let mut rows = RowBuf::new(ds.schema.num_attrs());
                for i in 0..ds.rows.len() {
                    if ds.rows.id(i) != victim {
                        rows.push_flat(ds.rows.flat_row(i));
                    }
                }
                let after = reverse_skyline_by_definition(&ds.dissim, &rows, &q);
                for id in &expect {
                    prop_assert!(after.contains(id),
                        "result member {id} vanished when non-member {victim} was removed");
                }
            }
        }
    }

    /// The external sort equals the in-memory multi-attribute sort row for
    /// row, for any memory budget, with duplicate ids and duplicate values.
    #[test]
    fn external_sort_is_sorted_permutation((ds, _q) in instance(), budget_bytes in 16u64..4096, dups in 0usize..8) {
        let rows = with_duplicates(&ds.rows, dups);
        let order = rsky::order::ascending_cardinality_order(&ds.schema);
        let mut expect = rows.clone();
        rsky::order::sort_rows_lex(&mut expect, &order);
        let sorted = external_sort_rows(&rows, budget_bytes, &rsky::order::SortOrder::lex(&ds.schema, &order));
        prop_assert_eq!(sorted, expect);
    }

    /// The external sort equals the in-memory tiled sort row for row.
    #[test]
    fn external_tiled_sort_matches_in_memory((ds, _q) in instance(), budget_bytes in 16u64..4096, tiles in 1u32..4, dups in 0usize..8) {
        let rows = with_duplicates(&ds.rows, dups);
        let order = rsky::order::ascending_cardinality_order(&ds.schema);
        let config = rsky::order::TileConfig::uniform(&ds.schema, tiles).unwrap();
        let mut expect = rows.clone();
        rsky::order::tiling::sort_rows_tiled(&mut expect, &config, &order);
        let sorted = external_sort_rows(&rows, budget_bytes, &rsky::order::SortOrder::tiled(config, &order));
        prop_assert_eq!(sorted, expect);
    }

    /// Record files round-trip arbitrary rows through any page size.
    #[test]
    fn record_file_round_trip((ds, _q) in instance(), page in prop_oneof![Just(32usize), Just(100), Just(512)]) {
        // Page must hold at least one record.
        prop_assume!(page >= (ds.schema.num_attrs() + 1) * 4);
        let mut disk = Disk::new_mem(page);
        let mut rf = RecordFile::create(&mut disk, ds.schema.num_attrs()).unwrap();
        rf.write_all(&mut disk, &ds.rows).unwrap();
        prop_assert_eq!(rf.read_all(&mut disk).unwrap(), ds.rows);
    }

    /// AL-Tree under arbitrary insert/remove interleavings keeps its
    /// invariants and the surviving multiset of ids.
    #[test]
    fn altree_random_operations(ops in proptest::collection::vec(
        (proptest::collection::vec(0u32..4, 3..=3), 0u32..30, proptest::bool::ANY), 1..60)) {
        let mut tree = rsky::altree::AlTree::new(3);
        let mut shadow: Vec<(Vec<u32>, u32)> = Vec::new();
        for (vals, id, is_insert) in ops {
            if is_insert {
                tree.insert(&vals, id);
                shadow.push((vals.clone(), id));
            } else {
                let expected = shadow.iter().position(|(v, i)| *v == vals && *i == id);
                let removed = tree.remove(&vals, id);
                prop_assert_eq!(removed, expected.is_some());
                if let Some(pos) = expected {
                    shadow.remove(pos);
                }
            }
            tree.check_invariants().map_err(TestCaseError::fail)?;
        }
        let mut got = tree.collect_ids();
        let mut want: Vec<u32> = shadow.iter().map(|&(_, id)| id).collect();
        got.sort_unstable();
        want.sort_unstable();
        prop_assert_eq!(got, want);
    }

    /// Z-order keys are injective on tile grids.
    #[test]
    fn z_order_injective(coords in proptest::collection::vec((0u32..16, 0u32..16, 0u32..16), 2..40)) {
        use std::collections::HashSet;
        let mut seen: HashSet<u128> = HashSet::new();
        let mut uniq: HashSet<(u32, u32, u32)> = HashSet::new();
        for &(a, b, c) in &coords {
            let fresh = uniq.insert((a, b, c));
            let key_fresh = seen.insert(rsky::order::z_order_key(&[a, b, c]));
            prop_assert_eq!(fresh, key_fresh, "z-key collision or duplicate mismatch");
        }
    }
}
