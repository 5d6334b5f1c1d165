//! End-to-end reproduction of every worked example in the paper's text,
//! through the public API only.

use rsky::prelude::*;

/// Table 1 + Figure 1: result set and non-metricity.
#[test]
fn table1_and_figure1() {
    let (ds, q) = rsky::data::paper_example();
    // d1 violates the triangle inequality exactly as the paper points out.
    assert!(ds.dissim.attr(0).is_non_metric());
    assert!((ds.dissim.d(0, 0, 2) - 1.0).abs() < 1e-12); // d1(MSW, SL)
    // RS = {O3, O6}.
    assert_eq!(reverse_skyline_by_definition(&ds.dissim, &ds.rows, &q), vec![3, 6]);
}

/// Section 4.1's BRS walkthrough: 1-object pages, 3 pages of memory.
/// Batches {O1,O2,O3} and {O4,O5,O6} prune O2 and O5 intra-batch;
/// R = {O1, O3, O4, O6}; phase two in 2 batches outputs {O3, O6}.
#[test]
fn section41_brs_walkthrough() {
    let (ds, q) = rsky::data::paper_example();
    let mut disk = Disk::new_mem(16);
    let table = load_dataset(&mut disk, &ds).unwrap();
    let budget = MemoryBudget::from_bytes(48, 16).unwrap();
    let mut ctx = EngineCtx { disk: &mut disk, schema: &ds.schema, dissim: &ds.dissim, budget };
    let run = Brs.run(&mut ctx, &table, &q).unwrap();
    assert_eq!(run.ids, vec![3, 6]);
    assert_eq!(run.stats.phase1_batches, 2);
    assert_eq!(run.stats.phase1_survivors, 4);
    assert_eq!(run.stats.phase2_batches, 2);
}

/// Section 4.2: the multi-attribute sort on [OS, CPU, DB] yields
/// {O1, O4, O6, O2, O5, O3}, and SRS (Table 2) prunes all four non-results
/// in phase one, finishing phase two in a single batch.
#[test]
fn section42_srs_walkthrough() {
    let (ds, q) = rsky::data::paper_example();
    let mut disk = Disk::new_mem(16);
    let raw = load_dataset(&mut disk, &ds).unwrap();
    let budget = MemoryBudget::from_bytes(48, 16).unwrap();
    let lex = rsky::order::SortOrder::lex(&ds.schema, &[0, 1, 2]);
    let sorted = rsky::order::external_sort(&mut disk, &raw, &budget, &lex).unwrap();
    let order: Vec<u32> = sorted
        .file
        .read_all(&mut disk)
        .unwrap()
        .iter()
        .map(rsky::core::record::row::id)
        .collect();
    assert_eq!(order, vec![1, 4, 6, 2, 5, 3], "the paper's sorted order");

    let mut ctx = EngineCtx { disk: &mut disk, schema: &ds.schema, dissim: &ds.dissim, budget };
    let run = Srs.run(&mut ctx, &sorted.file, &q).unwrap();
    assert_eq!(run.ids, vec![3, 6]);
    assert_eq!(run.stats.phase1_survivors, 2, "R = {{O6, O3}}");
    assert_eq!(run.stats.phase2_batches, 1, "one database scan saved vs BRS");
}

/// Section 4.2's pruning-relationship list:
/// O1 → {O2,O4,O5}, O2 → {O5}, O4 → {O1,O2,O5}, O5 → {O2}.
#[test]
fn section42_pruning_relationships() {
    let (ds, q) = rsky::data::paper_example();
    let all = AttrSubset::all(3);
    let expected: &[(u32, &[u32])] =
        &[(1, &[2, 4, 5]), (2, &[5]), (3, &[]), (4, &[1, 2, 5]), (5, &[2]), (6, &[])];
    let mut checks = 0;
    for &(pruner_id, prunees) in expected {
        let yi = (pruner_id - 1) as usize;
        let got: Vec<u32> = (0..ds.rows.len())
            .filter(|&xi| {
                xi != yi
                    && rsky::core::dominate::prunes(
                        &ds.dissim,
                        &all,
                        ds.rows.values(yi),
                        ds.rows.values(xi),
                        &q.values,
                        &mut checks,
                    )
            })
            .map(|xi| ds.rows.id(xi))
            .collect();
        assert_eq!(got, prunees, "objects pruned by O{pruner_id}");
    }
}

/// Section 4.3's TRS walkthrough on sorted data: with 3-object batch trees
/// the first phase leaves R = {O6, O3} and phase two completes in one batch.
#[test]
fn section43_trs_walkthrough() {
    let (ds, q) = rsky::data::paper_example();
    let mut disk = Disk::new_mem(16);
    let raw = load_dataset(&mut disk, &ds).unwrap();
    let io_budget = MemoryBudget::from_bytes(48, 16).unwrap();
    let lex = rsky::order::SortOrder::lex(&ds.schema, &[0, 1, 2]);
    let sorted = rsky::order::external_sort(&mut disk, &raw, &io_budget, &lex).unwrap();
    // A tree budget that fits exactly three of these objects per batch
    // (16-byte modeled nodes; see rsky-altree docs).
    let budget = MemoryBudget::from_bytes(100, 16).unwrap();
    let mut ctx = EngineCtx { disk: &mut disk, schema: &ds.schema, dissim: &ds.dissim, budget };
    let run = Trs::with_order(vec![0, 1, 2]).run(&mut ctx, &sorted.file, &q).unwrap();
    assert_eq!(run.ids, vec![3, 6]);
    assert_eq!(run.stats.phase1_batches, 2, "two 3-object batch trees");
    assert_eq!(run.stats.phase1_survivors, 2, "R = {{O6, O3}}");
    assert_eq!(run.stats.phase2_batches, 1);
}

/// Figure 2: the prefix trees of the running example's first-phase batches
/// (insertion order, 3 objects each) and the second-phase tree over
/// R = {O3, O6}.
#[test]
fn figure2_tree_structures() {
    use rsky::altree::{AlTree, ROOT};
    // Batch 1 = {O1, O2, O3}: no shared prefixes → 1 + 3×3 nodes.
    let mut b1 = AlTree::new(3);
    b1.insert(&[0, 0, 1], 1);
    b1.insert(&[1, 0, 0], 2);
    b1.insert(&[2, 1, 2], 3);
    b1.seal();
    assert_eq!(b1.num_nodes(), 10);
    assert_eq!(b1.children(ROOT).len(), 3);
    // Batch 2 = {O4, O5, O6}: O4 and O6 share the MSW prefix → 9 nodes.
    let mut b2 = AlTree::new(3);
    b2.insert(&[0, 0, 1], 4);
    b2.insert(&[1, 0, 0], 5);
    b2.insert(&[0, 1, 1], 6);
    b2.seal();
    assert_eq!(b2.num_nodes(), 9);
    assert_eq!(b2.children(ROOT).len(), 2);
    // Second phase: M = {O3, O6}, distinct paths → 7 nodes ("the paths for
    // these two objects are distinct in the tree").
    let mut m = AlTree::new(3);
    m.insert(&[0, 1, 1], 6);
    m.insert(&[2, 1, 2], 3);
    m.seal();
    assert_eq!(m.num_nodes(), 7);
    b1.check_invariants().unwrap();
    b2.check_invariants().unwrap();
    m.check_invariants().unwrap();
}

/// Section 5.7's observation: intermediate results are small (a few times
/// the result size), so phase two always completes in a single pass.
#[test]
fn section57_two_passes_suffice() {
    use rand::SeedableRng;
    let mut rng = rand::rngs::StdRng::seed_from_u64(57);
    let ds = rsky::data::synthetic::normal_dataset(5, 8, 2_000, &mut rng).unwrap();
    let q = rsky::data::random_queries(&ds.schema, 1, &mut rng).unwrap().remove(0);
    let mut disk = Disk::new_mem(512);
    let raw = load_dataset(&mut disk, &ds).unwrap();
    let budget = MemoryBudget::from_percent(ds.data_bytes(), 25.0, 512).unwrap();
    let sorted = prepare_table(&mut disk, &ds.schema, &raw, Layout::MultiSort, &budget).unwrap();
    for algo in [&Brs as &dyn ReverseSkylineAlgo, &Srs] {
        let mut ctx =
            EngineCtx { disk: &mut disk, schema: &ds.schema, dissim: &ds.dissim, budget };
        let table = if algo.name() == "BRS" { &raw } else { &sorted.file };
        let run = algo.run(&mut ctx, table, &q).unwrap();
        assert_eq!(run.stats.phase2_batches, 1, "{}: one pass in phase two", algo.name());
        assert!(
            run.stats.phase1_survivors <= 20 * run.ids.len().max(10),
            "{}: intermediate results stay small ({} vs |RS|={})",
            algo.name(),
            run.stats.phase1_survivors,
            run.ids.len()
        );
    }
}

/// Section 5.5: pre-processing (external sort) is cheap relative to query
/// processing and query-independent.
#[test]
fn section55_preprocessing_is_query_independent() {
    use rand::SeedableRng;
    let mut rng = rand::rngs::StdRng::seed_from_u64(55);
    let ds = rsky::data::synthetic::normal_dataset(5, 10, 1_000, &mut rng).unwrap();
    let mut disk = Disk::new_mem(512);
    let raw = load_dataset(&mut disk, &ds).unwrap();
    let budget = MemoryBudget::from_percent(ds.data_bytes(), 10.0, 512).unwrap();
    let a = prepare_table(&mut disk, &ds.schema, &raw, Layout::MultiSort, &budget).unwrap();
    let b = prepare_table(&mut disk, &ds.schema, &raw, Layout::MultiSort, &budget).unwrap();
    // Same input ⇒ byte-identical sorted order, whatever the queries later are.
    assert_eq!(
        a.file.read_all(&mut disk).unwrap(),
        b.file.read_all(&mut disk).unwrap()
    );
    assert!(a.sort_outcome.unwrap().0 >= 1);
}
