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

    /// The witness probe moves only TRS's distance checks and tree-node
    /// visits: with it on and off, on the MultiSort and Tiled layouts, TRS
    /// agrees on ids, phase-one survivors, both batch counts, object
    /// comparisons and every IO field.
    #[test]
    fn witness_probe_moves_only_checks_and_visits(
        (ds, q) in instance(),
        dups in 0usize..8,
        page in prop_oneof![Just(16usize), Just(64), Just(256)],
        pct in 0.0f64..60.0,
        tiles in 1u32..4,
    ) {
        prop_assume!(page >= (ds.schema.num_attrs() + 1) * 4);
        let ds = Dataset { rows: with_duplicates(&ds.rows, dups), ..ds };
        let budget = MemoryBudget::from_percent(ds.data_bytes().max(1), pct, page).unwrap();
        let probe = Trs::for_schema(&ds.schema);
        let mut plain = Trs::for_schema(&ds.schema);
        plain.opts.witness_first = false;
        for layout in [Layout::MultiSort, Layout::Tiled { tiles_per_attr: tiles }] {
            let run = |trs: &Trs| {
                let mut disk = Disk::new_mem(page);
                let raw = load_dataset(&mut disk, &ds).unwrap();
                let table =
                    prepare_table(&mut disk, &ds.schema, &raw, layout.clone(), &budget).unwrap();
                let mut ctx =
                    EngineCtx { disk: &mut disk, schema: &ds.schema, dissim: &ds.dissim, budget };
                trs.run(&mut ctx, &table.file, &q).unwrap()
            };
            let (a, b) = (run(&probe), run(&plain));
            prop_assert_eq!(&a.ids, &b.ids);
            prop_assert_eq!(a.stats.phase1_survivors, b.stats.phase1_survivors);
            prop_assert_eq!(a.stats.phase1_batches, b.stats.phase1_batches);
            prop_assert_eq!(a.stats.phase2_batches, b.stats.phase2_batches);
            prop_assert_eq!(a.stats.obj_comparisons, b.stats.obj_comparisons);
            prop_assert_eq!(a.stats.io, b.stats.io);
        }
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

    /// The packed AL-Tree equals an independent reference trie node for
    /// node: batches fed page by page in multi-sort, tiled or shuffled
    /// order give the same node numbering, parents, values, child order (by
    /// value, and by the search ordering), descendant counts, leaf-id order
    /// and modeled bytes after every page; random `remove_leaf_except` /
    /// `remove` sequences keep it equal and its invariants intact.
    #[test]
    fn altree_matches_reference_trie(
        (cards, raw) in (1usize..=4).prop_flat_map(|m| (
            proptest::collection::vec(1u32..=6, m..=m),
            proptest::collection::vec(proptest::collection::vec(0u32..6, m..=m), 0..120),
        )),
        layout in 0u8..3,
        per_page in 1usize..9,
        tiles in 1u32..4,
        shuffle_seed in 0u64..u64::MAX,
        search_order in proptest::bool::ANY,
        ops in proptest::collection::vec((0u8..3, 0u32..1000, 0u32..1000), 0..40),
    ) {
        let schema = Schema::with_cardinalities(&cards).unwrap();
        let m = cards.len();
        let mut rows = RowBuf::new(m);
        for (i, r) in raw.iter().enumerate() {
            let vals: Vec<u32> = r.iter().zip(&cards).map(|(&v, &k)| v % k).collect();
            rows.push(1000 + i as u32, &vals);
        }
        let order: Vec<usize> = (0..m).collect();
        match layout {
            0 => rsky::order::sort_rows_lex(&mut rows, &order),
            1 => {
                let config = rsky::order::TileConfig::uniform(&schema, tiles).unwrap();
                rsky::order::tiling::sort_rows_tiled(&mut rows, &config, &order);
            }
            _ => rows = shuffled(&rows, shuffle_seed),
        }

        let mut tree = if search_order {
            rsky::altree::AlTree::new(m)
        } else {
            rsky::altree::AlTree::in_value_order(m)
        };
        let mut reference = RefTrie::new(m);
        for page in (0..rows.len()).collect::<Vec<_>>().chunks(per_page) {
            for &r in page {
                tree.insert(rows.values(r), rows.id(r));
                reference.insert(rows.values(r), rows.id(r));
            }
            prop_assert_eq!(tree.estimated_bytes(), reference.modeled_bytes());
            prop_assert_eq!(tree.num_nodes(), reference.live_nodes());
            prop_assert_eq!(tree.num_records(), reference.records() as u64);
        }
        tree.seal();
        tree.check_invariants().map_err(TestCaseError::fail)?;
        if search_order {
            reference.order_for_search();
        }
        reference.assert_same(&tree)?;

        // Evictions as the engines make them: whole leaves sparing one id,
        // or single (values, id) removals, including misses.
        for (kind, a, b) in ops {
            let leaves = reference.live_leaves();
            if leaves.is_empty() {
                break;
            }
            let leaf = leaves[a as usize % leaves.len()];
            let ids = reference.nodes[leaf].ids.clone();
            let pick = ids[b as usize % ids.len()];
            if kind == 2 {
                let id = if b % 5 == 0 { 7 } else { pick };
                let values = reference.path(leaf);
                let want = reference.remove(&values, id);
                prop_assert_eq!(tree.remove(&values, id), want);
            } else {
                let keep = match (kind, b % 3) {
                    (0, 0) => None,
                    (0, _) => Some(pick),
                    _ => Some(7),
                };
                let want = reference.remove_leaf_except(leaf, keep);
                prop_assert_eq!(tree.remove_leaf_except(leaf as u32, keep), want);
            }
            tree.check_invariants().map_err(TestCaseError::fail)?;
            reference.assert_same(&tree)?;
        }
        prop_assert_eq!(tree.collect_ids(), reference.dfs_ids());
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

/// `rows` in a pseudo-random order drawn from `seed`.
fn shuffled(rows: &RowBuf, seed: u64) -> RowBuf {
    let mut state = seed;
    let mut keyed: Vec<(u64, usize)> = (0..rows.len())
        .map(|i| {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            (state, i)
        })
        .collect();
    keyed.sort_unstable();
    let mut out = RowBuf::new(rows.num_attrs());
    for (_, i) in keyed {
        out.push(rows.id(i), rows.values(i));
    }
    out
}

/// Reference AL-Tree for [`altree_matches_reference_trie`]: one heap node
/// per trie node, numbered in creation order, children kept in a `Vec`
/// sorted by value on insertion.
struct RefTrie {
    m: usize,
    nodes: Vec<RefNode>,
}

struct RefNode {
    value: u32,
    parent: usize,
    level: usize,
    children: Vec<usize>,
    ids: Vec<u32>,
    live: bool,
}

impl RefTrie {
    fn new(m: usize) -> Self {
        let root = RefNode { value: 0, parent: 0, level: 0, children: Vec::new(), ids: Vec::new(), live: true };
        RefTrie { m, nodes: vec![root] }
    }

    fn insert(&mut self, values: &[u32], id: u32) {
        let mut cur = 0;
        for (l, &v) in values.iter().enumerate() {
            let found = self.nodes[cur].children.iter().copied().find(|&c| self.nodes[c].value == v);
            cur = match found {
                Some(c) => c,
                None => {
                    let n = self.nodes.len();
                    self.nodes.push(RefNode {
                        value: v,
                        parent: cur,
                        level: l + 1,
                        children: Vec::new(),
                        ids: Vec::new(),
                        live: true,
                    });
                    let pos = self.nodes[cur].children.iter().take_while(|&&c| self.nodes[c].value < v).count();
                    self.nodes[cur].children.insert(pos, n);
                    n
                }
            };
        }
        self.nodes[cur].ids.push(id);
    }

    fn desc(&self, n: usize) -> usize {
        let node = &self.nodes[n];
        node.ids.len() + node.children.iter().map(|&c| self.desc(c)).sum::<usize>()
    }

    fn records(&self) -> usize {
        self.desc(0)
    }

    fn live_nodes(&self) -> usize {
        self.nodes.iter().filter(|n| n.live).count()
    }

    /// 16 bytes per node, 4 per child link, 4 per leaf id.
    fn modeled_bytes(&self) -> u64 {
        self.nodes
            .iter()
            .filter(|n| n.live)
            .map(|n| 16 + 4 * (n.children.len() + n.ids.len()) as u64)
            .sum()
    }

    /// Stable sort of every child list by descendant count.
    fn order_for_search(&mut self) {
        for n in 0..self.nodes.len() {
            let mut children = std::mem::take(&mut self.nodes[n].children);
            children.sort_by_key(|&c| self.desc(c));
            self.nodes[n].children = children;
        }
    }

    fn live_leaves(&self) -> Vec<usize> {
        (0..self.nodes.len()).filter(|&n| self.nodes[n].live && self.nodes[n].level == self.m).collect()
    }

    fn path(&self, leaf: usize) -> Vec<u32> {
        let mut out = vec![0; self.m];
        let mut n = leaf;
        while n != 0 {
            out[self.nodes[n].level - 1] = self.nodes[n].value;
            n = self.nodes[n].parent;
        }
        out
    }

    fn remove(&mut self, values: &[u32], id: u32) -> bool {
        let mut cur = 0;
        for &v in values {
            match self.nodes[cur].children.iter().copied().find(|&c| self.nodes[c].value == v) {
                Some(c) => cur = c,
                None => return false,
            }
        }
        match self.nodes[cur].ids.iter().position(|&x| x == id) {
            Some(pos) => {
                self.nodes[cur].ids.remove(pos);
                self.detach_if_empty(cur);
                true
            }
            None => false,
        }
    }

    fn remove_leaf_except(&mut self, leaf: usize, keep: Option<u32>) -> u32 {
        let ids = &mut self.nodes[leaf].ids;
        let before = ids.len();
        ids.retain(|&x| Some(x) == keep);
        ids.truncate(1);
        let removed = (before - ids.len()) as u32;
        self.detach_if_empty(leaf);
        removed
    }

    fn detach_if_empty(&mut self, mut n: usize) {
        while n != 0 && self.nodes[n].ids.is_empty() && self.nodes[n].children.is_empty() {
            self.nodes[n].live = false;
            let p = self.nodes[n].parent;
            self.nodes[p].children.retain(|&c| c != n);
            n = p;
        }
    }

    fn dfs_ids(&self) -> Vec<u32> {
        let mut out = Vec::new();
        let mut stack = vec![0];
        while let Some(n) = stack.pop() {
            out.extend(&self.nodes[n].ids);
            stack.extend(self.nodes[n].children.iter().rev());
        }
        out
    }

    /// Every live node agrees field for field; modeled bytes and node and
    /// record counts match.
    fn assert_same(&self, tree: &rsky::altree::AlTree) -> Result<(), TestCaseError> {
        prop_assert_eq!(tree.num_nodes(), self.live_nodes());
        prop_assert_eq!(tree.num_records(), self.records() as u64);
        prop_assert_eq!(tree.estimated_bytes(), self.modeled_bytes());
        for (n, node) in self.nodes.iter().enumerate().filter(|(_, node)| node.live) {
            let idx = n as u32;
            prop_assert_eq!(tree.level(idx) as usize, node.level, "level of {}", n);
            prop_assert_eq!(tree.desc_count(idx) as usize, self.desc(n), "desc of {}", n);
            if n != 0 {
                prop_assert_eq!(tree.value(idx), node.value, "value of {}", n);
                prop_assert_eq!(tree.parent(idx) as usize, node.parent, "parent of {}", n);
            }
            if node.level == self.m {
                prop_assert_eq!(tree.leaf_ids(idx), &node.ids[..], "ids of {}", n);
            } else {
                let (kids, vals) = tree.children_and_values(idx);
                let want: Vec<u32> = node.children.iter().map(|&c| c as u32).collect();
                let want_vals: Vec<u32> = node.children.iter().map(|&c| self.nodes[c].value).collect();
                prop_assert_eq!(kids, &want[..], "children of {}", n);
                prop_assert_eq!(vals, &want_vals[..], "child values of {}", n);
            }
        }
        Ok(())
    }
}
