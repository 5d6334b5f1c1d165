//! Tree Reverse Skyline — TRS (Algorithms 3, 4, 5): the paper's main
//! contribution.
//!
//! Batches are **AL-Trees** instead of flat buffers. Because objects sharing
//! a value prefix share a path, one distance check at an internal node
//! reasons about *every* object below it:
//!
//! * **early elimination** — a child whose value is farther from the
//!   candidate than the query is (on that attribute) cannot lead to a
//!   pruner; the entire subtree is skipped with a single check;
//! * **promising-first search** — qualifying children are visited in
//!   decreasing descendant count (pushed in increasing order onto the LIFO
//!   stack), so the subtrees most likely to contain a pruner are probed
//!   first;
//! * the **`FoundCloser` flag** carried with each stack entry records
//!   whether some attribute on the path is already *strictly* closer to the
//!   candidate than the query; reaching a leaf with the flag set proves
//!   domination.
//!
//! Phase one checks every loaded object against its batch tree
//! ([`is_prunable`], Alg. 4, one-pruner-suffices search); phase two streams
//! the database past a tree of intermediate results and evicts everything
//! each scanned object dominates ([`prune_with`], Alg. 5, exhaustive
//! removal). Batch capacity is governed by the *tree's* memory estimate —
//! prefix sharing packs more objects per batch than BRS/SRS manage, which is
//! where TRS's IO advantage comes from.
//!
//! ## Self-pruning and duplicates
//!
//! Leaves carry record ids. A candidate reaching its *own* leaf with
//! `FoundCloser` set is only pruned if the leaf holds another instance
//! (an exact duplicate — which legitimately prunes it); phase two's eviction
//! spares the scanned object's own id. This is exactly the paper's
//! "`M ∖ c`" and "other than `e` itself" provisos.

use rsky_altree::{AlTree, NodeIdx, ROOT};
use rsky_core::dissim::{DissimTable, FlatDissim};
use rsky_core::error::{Error, Result};
use rsky_core::query::{AttrSubset, Query};
use rsky_core::record::{RecordId, RowBuf, ValueId};
use rsky_core::schema::Schema;
use rsky_core::stats::RunStats;
use rsky_storage::{RecordFile, RecordWriter};

use crate::engine::{io_now, run_with_scaffolding, EngineCtx, ReverseSkylineAlgo, RsRun};
use crate::qcache::QueryDistCache;

/// Tuning switches, primarily for ablation studies.
#[derive(Debug, Clone, Copy)]
pub struct TrsOptions {
    /// Visit qualifying children in decreasing descendant count (the paper's
    /// heuristic). Disabled, children are visited in value order.
    pub order_children_by_count: bool,
}

impl Default for TrsOptions {
    fn default() -> Self {
        Self { order_children_by_count: true }
    }
}

/// Algorithms 3–5. Expects a table in [`crate::prep::Layout::MultiSort`]
/// (T-TRS: [`crate::prep::Layout::Tiled`]); correct on any layout, but batch
/// trees compress best when equal values are clustered.
///
/// ```
/// use rsky_algos::prep::{load_dataset, prepare_table, Layout};
/// use rsky_algos::{EngineCtx, ReverseSkylineAlgo, Trs};
/// use rsky_storage::{Disk, MemoryBudget};
///
/// let (ds, q) = rsky_data::paper_example();
/// let mut disk = Disk::new_mem(64);
/// let raw = load_dataset(&mut disk, &ds).unwrap();
/// let budget = MemoryBudget::from_percent(ds.data_bytes(), 50.0, 64).unwrap();
/// let sorted = prepare_table(&mut disk, &ds.schema, &raw, Layout::MultiSort, &budget).unwrap();
/// let trs = Trs::for_schema(&ds.schema);
/// let mut ctx = EngineCtx { disk: &mut disk, schema: &ds.schema, dissim: &ds.dissim, budget };
/// let run = trs.run(&mut ctx, &sorted.file, &q).unwrap();
/// assert_eq!(run.ids, vec![3, 6]); // Table 1's reverse skyline
/// ```
#[derive(Debug, Clone)]
pub struct Trs {
    /// `attr_order[level]` = schema attribute stored at tree level
    /// `level + 1`; ascending cardinality by default (Section 5.1).
    attr_order: Vec<usize>,
    /// Ablation switches.
    pub opts: TrsOptions,
}

impl Trs {
    /// TRS with the paper's default attribute ordering (ascending
    /// cardinality).
    pub fn for_schema(schema: &Schema) -> Self {
        Self { attr_order: rsky_order::ascending_cardinality_order(schema), opts: TrsOptions::default() }
    }

    /// TRS with an explicit attribute ordering (must be a permutation of
    /// `0..m`; checked at run time).
    pub fn with_order(attr_order: Vec<usize>) -> Self {
        Self { attr_order, opts: TrsOptions::default() }
    }

    /// The attribute ordering in use.
    pub fn attr_order(&self) -> &[usize] {
        &self.attr_order
    }

    pub(crate) fn validate_order(&self, m: usize) -> Result<()> {
        if m > MAX_ATTRS {
            return Err(Error::InvalidConfig(format!(
                "TRS supports up to {MAX_ATTRS} attributes, got {m}"
            )));
        }
        let mut seen = vec![false; m];
        if self.attr_order.len() != m {
            return Err(Error::InvalidConfig(format!(
                "attribute order has {} entries for {m} attributes",
                self.attr_order.len()
            )));
        }
        for &a in &self.attr_order {
            if a >= m || seen[a] {
                return Err(Error::InvalidConfig(format!(
                    "attribute order {:?} is not a permutation of 0..{m}",
                    self.attr_order
                )));
            }
            seen[a] = true;
        }
        Ok(())
    }
}

impl ReverseSkylineAlgo for Trs {
    fn name(&self) -> &str {
        "TRS"
    }

    fn run(&self, ctx: &mut EngineCtx<'_>, table: &RecordFile, query: &Query) -> Result<RsRun> {
        crate::engine::validate_inputs(ctx, table, query)?;
        let m = table.num_attrs();
        self.validate_order(m)?;
        run_with_scaffolding(ctx, query, "trs", |ctx, cache, stats, robs, kern| {
            let order = &self.attr_order;
            let subset = &query.subset;
            let total_pages = table.num_pages(ctx.disk);
            let mut tree = AlTree::new(m);
            let mut pbuf = RowBuf::new(m);
            let mut tvals = vec![0u32; m];

            // --- Phase one: batch trees, IsPrunable per loaded object ------
            let p1 = robs.scope("phase1", stats, io_now(stats, ctx.disk));
            let tree_budget = ctx.budget.phase1_tree_bytes();
            let mut writer = RecordWriter::create(ctx.disk, m)?;
            let mut page = 0;
            while page < total_pages {
                robs.check_cancelled()?;
                let bspan = robs.scope("phase1.batch", stats, io_now(stats, ctx.disk));
                load_batch_into_tree(
                    ctx, table, order, &mut page, total_pages, tree_budget, &mut tree, &mut pbuf,
                    &mut tvals,
                )?;
                stats.phase1_batches += 1;
                let disk = &mut *ctx.disk;
                phase1_tree_batch(
                    &mut tree, ctx.dissim, kern.flat(), subset, order, self.opts, cache, stats,
                    |row| writer.push(disk, row),
                )?;
                bspan
                    .field("batch", (stats.phase1_batches - 1) as u64)
                    .close(stats, io_now(stats, ctx.disk));
            }
            let r_file = writer.finish(ctx.disk)?;
            stats.phase1_survivors = r_file.len() as usize;
            stats.phase1_time = p1
                .field("batches", stats.phase1_batches as u64)
                .field("survivors", stats.phase1_survivors as u64)
                .close(stats, io_now(stats, ctx.disk));

            // --- Phase two: result trees, Prune per scanned object ---------
            let p2 = robs.scope("phase2", stats, io_now(stats, ctx.disk));
            let tree_budget = ctx.budget.phase2_tree_bytes();
            let r_pages = r_file.num_pages(ctx.disk);
            let mut result = Vec::new();
            let mut rpage = 0;
            while rpage < r_pages {
                robs.check_cancelled()?;
                let bspan = robs.scope("phase2.batch", stats, io_now(stats, ctx.disk));
                load_batch_into_tree(
                    ctx, &r_file, order, &mut rpage, r_pages, tree_budget, &mut tree, &mut pbuf,
                    &mut tvals,
                )?;
                stats.phase2_batches += 1;
                let disk = &mut *ctx.disk;
                phase2_tree_batch(
                    &mut tree, ctx.dissim, kern.flat(), subset, order, cache, total_pages,
                    |p, buf| table.read_page_rows(&mut *disk, p, buf).map(|_| ()),
                    stats, &mut result,
                )?;
                bspan
                    .field("batch", (stats.phase2_batches - 1) as u64)
                    .close(stats, io_now(stats, ctx.disk));
            }
            stats.phase2_time = p2
                .field("batches", stats.phase2_batches as u64)
                .close(stats, io_now(stats, ctx.disk));
            Ok(result)
        })
    }
}

/// Phase-one check of one loaded batch tree (Alg. 4 per leaf group): calls
/// `emit` with the flat row `[id, values…]` of every instance whose value
/// combination has no pruner in the tree, in DFS leaf order. Shared by the
/// sequential and parallel engines, so both walk identical batches the same
/// way.
#[allow(clippy::too_many_arguments)]
pub(crate) fn phase1_tree_batch(
    tree: &mut AlTree,
    dissim: &DissimTable,
    flat: Option<&FlatDissim>,
    subset: &AttrSubset,
    order: &[usize],
    opts: TrsOptions,
    cache: &QueryDistCache,
    stats: &mut RunStats,
    mut emit: impl FnMut(&[u32]) -> Result<()>,
) -> Result<()> {
    if opts.order_children_by_count {
        tree.order_children_for_search();
    }
    let m = order.len();
    let mut c_schema_vals = vec![0u32; m];
    let mut row = vec![0u32; m + 1];
    let mut stack = Vec::new();
    // Leaves in DFS order. The walk is preorder, so when it reaches a leaf
    // every level of `c_schema_vals` holds the value of the leaf's path.
    let mut dfs = vec![ROOT];
    while let Some(n) = dfs.pop() {
        let level = tree.level(n) as usize;
        if level > 0 {
            c_schema_vals[order[level - 1]] = tree.value(n);
        }
        if !tree.is_leaf(n) {
            dfs.extend(tree.children(n).iter().rev());
            continue;
        }
        let ids = tree.leaf_ids(n);
        stats.obj_comparisons += ids.len() as u64;
        if !is_prunable_with_stack(
            tree, dissim, flat, subset, order, &c_schema_vals, ids[0], cache, stats, &mut stack,
        ) {
            // No pruner for this value combination: every instance survives
            // (a duplicate pair would have been caught at its own leaf).
            row[1..].copy_from_slice(&c_schema_vals);
            for &id in ids {
                row[0] = id;
                emit(&row)?;
            }
        }
    }
    Ok(())
}

/// Phase-two refinement of one loaded result tree (Alg. 5 per scanned
/// object): streams the database past the tree via `read_page`, evicting
/// everything each scanned object dominates, then appends the surviving ids
/// to `result`. The page loop stops as soon as the tree is empty. Shared by
/// the sequential and parallel engines.
#[allow(clippy::too_many_arguments)]
pub(crate) fn phase2_tree_batch(
    tree: &mut AlTree,
    dissim: &DissimTable,
    flat: Option<&FlatDissim>,
    subset: &AttrSubset,
    order: &[usize],
    cache: &QueryDistCache,
    total_pages: u64,
    mut read_page: impl FnMut(u64, &mut RowBuf) -> Result<()>,
    stats: &mut RunStats,
    result: &mut Vec<RecordId>,
) -> Result<()> {
    let mut dpage = RowBuf::new(order.len());
    let mut stack = Vec::with_capacity(64);
    for p in 0..total_pages {
        if tree.is_empty() {
            break;
        }
        dpage.clear();
        read_page(p, &mut dpage)?;
        for ei in 0..dpage.len() {
            stats.obj_comparisons += 1;
            let (e, e_id) = (dpage.values(ei), dpage.id(ei));
            prune_with_stack(tree, dissim, flat, subset, order, e, e_id, cache, stats, &mut stack);
        }
    }
    result.extend(tree.collect_ids());
    Ok(())
}

/// Clears `tree`, then reads pages starting at `*page` into it (values
/// permuted to tree order) until the tree's memory estimate reaches
/// `tree_budget`, and seals it; always loads at least one page.
#[allow(clippy::too_many_arguments)]
pub(crate) fn load_batch_into_tree(
    ctx: &mut EngineCtx<'_>,
    file: &RecordFile,
    order: &[usize],
    page: &mut u64,
    total_pages: u64,
    tree_budget: u64,
    tree: &mut AlTree,
    pbuf: &mut RowBuf,
    tvals: &mut [u32],
) -> Result<()> {
    let disk = &mut *ctx.disk;
    load_batch_into_tree_with(
        |p, buf| file.read_page_rows(&mut *disk, p, buf).map(|_| ()),
        order,
        page,
        total_pages,
        tree_budget,
        tree,
        pbuf,
        tvals,
    )
}

/// [`load_batch_into_tree`] generic over the page source, so the parallel
/// engines ([`crate::par`]) can load byte-identical batches from a shared
/// snapshot scanner. The batch-boundary rule lives here, once.
#[allow(clippy::too_many_arguments)]
pub(crate) fn load_batch_into_tree_with(
    mut read_page: impl FnMut(u64, &mut RowBuf) -> Result<()>,
    order: &[usize],
    page: &mut u64,
    total_pages: u64,
    tree_budget: u64,
    tree: &mut AlTree,
    pbuf: &mut RowBuf,
    tvals: &mut [u32],
) -> Result<()> {
    tree.clear();
    let mut loaded_any = false;
    while *page < total_pages {
        if loaded_any && tree.estimated_bytes() >= tree_budget {
            break;
        }
        pbuf.clear();
        read_page(*page, pbuf)?;
        *page += 1;
        loaded_any = true;
        for r in 0..pbuf.len() {
            let vals = pbuf.values(r);
            for (l, &a) in order.iter().enumerate() {
                tvals[l] = vals[a];
            }
            tree.insert(tvals, pbuf.id(r));
        }
    }
    tree.seal();
    Ok(())
}

/// Reconstructs the schema-order values of `leaf` by walking its path.
pub(crate) fn leaf_schema_values(tree: &AlTree, leaf: NodeIdx, order: &[usize], out: &mut [u32]) {
    debug_assert!(tree.is_leaf(leaf));
    let mut n = leaf;
    for &a in order.iter().rev() {
        out[a] = tree.value(n);
        n = tree.parent(n);
    }
}

/// Algorithm 4: does the tree contain a pruner of the candidate `c`?
///
/// `c_schema_vals` are `c`'s values in schema order; `c_id` is its record id
/// (pass a non-member id such as `u32::MAX` when `c` is not in the tree).
/// DFS with per-entry `FoundCloser`; a subtree is entered only while every
/// path attribute is at most as far from `c` as the query is, and a leaf
/// with the flag set is a pruner — unless it is `c`'s own leaf holding no
/// other instance.
///
/// Call [`AlTree::order_children_for_search`] on the tree beforehand to get
/// the paper's promising-subtree-first probing; the walk pushes children in
/// list order, so the last-listed (largest) subtree pops first.
#[allow(clippy::too_many_arguments)]
pub fn is_prunable(
    tree: &AlTree,
    dt: &DissimTable,
    subset: &AttrSubset,
    order: &[usize],
    c_schema_vals: &[ValueId],
    c_id: RecordId,
    cache: &QueryDistCache,
    stats: &mut RunStats,
) -> bool {
    let mut stack = Vec::new();
    is_prunable_with_stack(
        tree, dt, None, subset, order, c_schema_vals, c_id, cache, stats, &mut stack,
    )
}

/// [`is_prunable`] with a caller-provided stack buffer, so tight loops over
/// many candidates avoid one allocation per call. With `flat` present the
/// per-child distance comes from the candidate's contiguous center row
/// instead of the dissimilarity enum — same values, same check counting.
#[allow(clippy::too_many_arguments)]
pub(crate) fn is_prunable_with_stack(
    tree: &AlTree,
    dt: &DissimTable,
    flat: Option<&FlatDissim>,
    subset: &AttrSubset,
    order: &[usize],
    c_schema_vals: &[ValueId],
    c_id: RecordId,
    cache: &QueryDistCache,
    stats: &mut RunStats,
    stack: &mut Vec<(NodeIdx, bool)>,
) -> bool {
    if tree.is_empty() {
        return false;
    }
    // d(q_i, c_i) per selected attribute, hoisted out of the walk.
    let mut d_qc = [0.0f64; MAX_ATTRS];
    for &i in subset.indices() {
        d_qc[i] = cache.d(i, c_schema_vals[i]);
    }
    // The live stack is `stack[..top]`. Every child is written at the top,
    // which advances only when the child qualifies, so the distance test
    // takes no branch; the buffer grows when a node's children would not
    // fit above the top.
    let (mut visits, mut checks, mut found) = (0u64, 0u64, false);
    if stack.is_empty() {
        stack.push((ROOT, false));
    }
    stack[0] = (ROOT, false);
    let mut top = 1;
    while top > 0 {
        top -= 1;
        let (s, found_closer) = stack[top];
        visits += 1;
        if tree.is_leaf(s) {
            if found_closer {
                let ids = tree.leaf_ids(s);
                if ids.len() > 1 || ids[0] != c_id {
                    found = true;
                    break;
                }
            }
            continue;
        }
        // All children of `s` sit at the same level, hence the same attribute.
        let attr = order[tree.level(s) as usize];
        let (children, values) = tree.children_and_values(s);
        if stack.len() < top + children.len() {
            stack.resize(top + children.len(), (ROOT, false));
        }
        if !subset.contains(attr) {
            // Unselected attribute: no constraint, no check.
            for (e, &p) in stack[top..].iter_mut().zip(children) {
                *e = (p, found_closer);
            }
            top += children.len();
            continue;
        }
        let (c_val, d_q) = (c_schema_vals[attr], d_qc[attr]);
        checks += children.len() as u64;
        match flat {
            Some(f) => {
                let row = f.center_row(attr, c_val);
                for (&p, &u) in children.iter().zip(values) {
                    let d_pc = row[u as usize];
                    stack[top] = (p, found_closer | (d_pc < d_q));
                    top += (d_pc <= d_q) as usize;
                }
            }
            None => {
                for (&p, &u) in children.iter().zip(values) {
                    let d_pc = dt.d(attr, u, c_val);
                    stack[top] = (p, found_closer | (d_pc < d_q));
                    top += (d_pc <= d_q) as usize;
                }
            }
        }
    }
    stats.tree_nodes_visited += visits;
    stats.dist_checks += checks;
    found
}

/// Upper bound on attribute count for stack-allocated scratch in the hot
/// walks (the paper's datasets use ≤ 7 attributes; 64 is generous).
const MAX_ATTRS: usize = 64;

/// Algorithm 5: evicts from the tree every object dominated (w.r.t. itself)
/// by the scanned object `e` — all leaves whose path satisfies
/// `∀i d_i(e_i, u_i) ≤ d_i(q_i, u_i)` with strict inequality somewhere —
/// sparing `e`'s own id. Returns the number of evicted instances.
#[allow(clippy::too_many_arguments)]
pub fn prune_with(
    tree: &mut AlTree,
    dt: &DissimTable,
    subset: &AttrSubset,
    order: &[usize],
    e_schema_vals: &[ValueId],
    e_id: RecordId,
    cache: &QueryDistCache,
    stats: &mut RunStats,
) -> u32 {
    let mut stack = Vec::new();
    prune_with_stack(tree, dt, None, subset, order, e_schema_vals, e_id, cache, stats, &mut stack)
}

/// [`prune_with`] with a caller-provided stack buffer. With `flat` present
/// the per-child distance comes from the scanned object's contiguous moving
/// row — same values, same check counting.
#[allow(clippy::too_many_arguments)]
pub(crate) fn prune_with_stack(
    tree: &mut AlTree,
    dt: &DissimTable,
    flat: Option<&FlatDissim>,
    subset: &AttrSubset,
    order: &[usize],
    e_schema_vals: &[ValueId],
    e_id: RecordId,
    cache: &QueryDistCache,
    stats: &mut RunStats,
    stack: &mut Vec<(NodeIdx, bool)>,
) -> u32 {
    if tree.is_empty() {
        return 0;
    }
    let mut removed = 0;
    stack.clear();
    stack.push((ROOT, false));
    while let Some((s, found_closer)) = stack.pop() {
        stats.tree_nodes_visited += 1;
        if tree.is_leaf(s) {
            if found_closer {
                removed += tree.remove_leaf_except(s, Some(e_id));
            }
            continue;
        }
        // No ordering: every dominated leaf must go (exhaustive traversal).
        // All children of `s` share one level, hence one attribute.
        let attr = order[tree.level(s) as usize];
        let (children, values) = tree.children_and_values(s);
        if !subset.contains(attr) {
            stack.extend(children.iter().map(|&p| (p, found_closer)));
            continue;
        }
        let e_val = e_schema_vals[attr];
        stats.dist_checks += children.len() as u64;
        let row = flat.map(|f| f.moving_row(attr, e_val));
        for (&p, &u) in children.iter().zip(values) {
            let d_pe = match row {
                Some(r) => r[u as usize],
                None => dt.d(attr, e_val, u),
            };
            let d_pq = cache.d(attr, u);
            if d_pe <= d_pq {
                stack.push((p, found_closer || d_pe < d_pq));
            }
        }
    }
    removed
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::prep::{load_dataset, prepare_table, Layout};
    use rsky_storage::{Disk, MemoryBudget};

    fn paper_ctx() -> (rsky_core::dataset::Dataset, Query) {
        rsky_data::paper_example()
    }

    /// Builds the paper's first-phase batch-1 tree {O1, O2, O3} under the
    /// paper's OS-first attribute order.
    fn batch1_tree() -> AlTree {
        let mut t = AlTree::new(3);
        t.insert(&[0, 0, 1], 1); // O1 [MSW, AMD, DB2]
        t.insert(&[1, 0, 0], 2); // O2 [RHL, AMD, Informix]
        t.insert(&[2, 1, 2], 3); // O3 [SL, Intel, Oracle]
        t.seal();
        t
    }

    #[test]
    fn is_prunable_matches_paper_batch1() {
        let (ds, q) = paper_ctx();
        let cache = QueryDistCache::new(&ds.dissim, &ds.schema, &q);
        let order = vec![0, 1, 2];
        let mut tree = batch1_tree();
        tree.order_children_for_search();
        let mut stats = RunStats::default();
        // O2 is pruned by O1 inside batch 1 (paper Table 2 / §4.1).
        assert!(is_prunable(
            &tree, &ds.dissim, &q.subset, &order, &[1, 0, 0], 2, &cache, &mut stats
        ));
        // O1 and O3 have no pruner in batch 1.
        assert!(!is_prunable(
            &tree, &ds.dissim, &q.subset, &order, &[0, 0, 1], 1, &cache, &mut stats
        ));
        assert!(!is_prunable(
            &tree, &ds.dissim, &q.subset, &order, &[2, 1, 2], 3, &cache, &mut stats
        ));
    }

    #[test]
    fn is_prunable_early_elimination_saves_checks() {
        // Checking O6 [MSW, Intel, DB2] against batch-2 tree without its own
        // path: subtrees RHL and AMD are cut at the first attribute check.
        let (ds, q) = paper_ctx();
        let cache = QueryDistCache::new(&ds.dissim, &ds.schema, &q);
        let order = vec![0, 1, 2];
        let mut tree = AlTree::new(3);
        tree.insert(&[0, 0, 1], 4); // O4
        tree.insert(&[1, 0, 0], 5); // O5
        tree.seal();
        tree.order_children_for_search();
        let mut stats = RunStats::default();
        assert!(!is_prunable(
            &tree, &ds.dissim, &q.subset, &order, &[0, 1, 1], 6, &cache, &mut stats
        ));
        // Root children: MSW (1 check, qualifies), RHL (1 check, cut).
        // Under MSW: AMD (1 check, cut). Total 3 — versus 6 attribute
        // comparisons for object-by-object SRS probing of O4 and O5.
        assert_eq!(stats.dist_checks, 3);
        // The same batch with O3 added.
        tree.clear();
        tree.insert(&[0, 0, 1], 4);
        tree.insert(&[1, 0, 0], 5);
        tree.insert(&[2, 1, 2], 3);
        tree.seal();
        tree.order_children_for_search();
        let mut stats2 = RunStats::default();
        // O3's subtree is cut at the root level too: d1(SL,MSW)=1.0 > 0.
        assert!(!is_prunable(
            &tree, &ds.dissim, &q.subset, &order, &[0, 1, 1], 6, &cache, &mut stats2
        ));
        assert_eq!(stats2.dist_checks, 4);
    }

    #[test]
    fn own_leaf_does_not_prune_but_duplicate_does() {
        let (ds, q) = paper_ctx();
        let cache = QueryDistCache::new(&ds.dissim, &ds.schema, &q);
        let order = vec![0, 1, 2];
        let mut tree = AlTree::new(3);
        tree.insert(&[2, 0, 2], 9);
        tree.seal();
        let mut stats = RunStats::default();
        // Alone in the tree: own leaf must not prune.
        assert!(!is_prunable(
            &tree, &ds.dissim, &q.subset, &order, &[2, 0, 2], 9, &cache, &mut stats
        ));
        // An exact duplicate arrives: now it is pruned (by its twin).
        tree.clear();
        tree.insert(&[2, 0, 2], 9);
        tree.insert(&[2, 0, 2], 10);
        tree.seal();
        assert!(is_prunable(
            &tree, &ds.dissim, &q.subset, &order, &[2, 0, 2], 9, &cache, &mut stats
        ));
        // …but a duplicate *of the query* is never pruned by its twin.
        let mut tied = AlTree::new(3);
        tied.insert(&[0, 1, 1], 1);
        tied.insert(&[0, 1, 1], 2);
        tied.seal();
        assert!(!is_prunable(
            &tied, &ds.dissim, &q.subset, &order, &[0, 1, 1], 1, &cache, &mut stats
        ));
    }

    #[test]
    fn prune_with_evicts_dominated_leaves_and_spares_self() {
        let (ds, q) = paper_ctx();
        let cache = QueryDistCache::new(&ds.dissim, &ds.schema, &q);
        let order = vec![0, 1, 2];
        // Phase-2 tree of the paper walkthrough: M = {O1, O3, O4, O6} (BRS's
        // R). Scanning e = O4 [MSW, AMD, DB2] must evict O1 (pruned by its
        // duplicate O4) but keep O4's own id, O3 and O6.
        let mut tree = AlTree::new(3);
        tree.insert(&[0, 0, 1], 1); // O1
        tree.insert(&[2, 1, 2], 3); // O3
        tree.insert(&[0, 0, 1], 4); // O4
        tree.insert(&[0, 1, 1], 6); // O6
        tree.seal();
        let mut stats = RunStats::default();
        let removed = prune_with(
            &mut tree, &ds.dissim, &q.subset, &order, &[0, 0, 1], 4, &cache, &mut stats,
        );
        assert_eq!(removed, 1);
        let mut left = tree.collect_ids();
        left.sort_unstable();
        assert_eq!(left, vec![3, 4, 6]);
        tree.check_invariants().unwrap();
        // Scanning O1 then evicts O4 symmetrically.
        let removed = prune_with(
            &mut tree, &ds.dissim, &q.subset, &order, &[0, 0, 1], 1, &cache, &mut stats,
        );
        assert_eq!(removed, 1);
        let mut left = tree.collect_ids();
        left.sort_unstable();
        assert_eq!(left, vec![3, 6]);
        tree.check_invariants().unwrap();
    }

    #[test]
    fn full_run_reproduces_paper_result() {
        let (ds, q) = paper_ctx();
        let mut disk = Disk::new_mem(16); // 1 object per page
        let raw = load_dataset(&mut disk, &ds).unwrap();
        let budget = MemoryBudget::from_bytes(700, 16).unwrap();
        let sorted = prepare_table(&mut disk, &ds.schema, &raw, Layout::MultiSort, &budget).unwrap();
        let mut ctx =
            EngineCtx { disk: &mut disk, schema: &ds.schema, dissim: &ds.dissim, budget };
        let trs = Trs::for_schema(&ds.schema);
        let run = trs.run(&mut ctx, &sorted.file, &q).unwrap();
        assert_eq!(run.ids, vec![3, 6]);
        assert!(run.stats.phase1_batches >= 1);
        assert!(run.stats.dist_checks > 0);
    }

    #[test]
    fn rejects_bad_attribute_order() {
        let (ds, q) = paper_ctx();
        let mut disk = Disk::new_mem(64);
        let raw = load_dataset(&mut disk, &ds).unwrap();
        let budget = MemoryBudget::from_bytes(1024, 64).unwrap();
        let mut ctx =
            EngineCtx { disk: &mut disk, schema: &ds.schema, dissim: &ds.dissim, budget };
        for bad in [vec![0, 1], vec![0, 1, 1], vec![0, 1, 5]] {
            let trs = Trs::with_order(bad);
            assert!(trs.run(&mut ctx, &raw, &q).is_err());
        }
    }

    #[test]
    fn agrees_with_oracle_on_random_data() {
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        let mut rng = StdRng::seed_from_u64(36);
        for trial in 0..10 {
            let ds = rsky_data::synthetic::normal_dataset(4, 7, 100, &mut rng).unwrap();
            let q = rsky_data::random_queries(&ds.schema, 1, &mut rng).unwrap().remove(0);
            let expect =
                rsky_core::skyline::reverse_skyline_by_definition(&ds.dissim, &ds.rows, &q);
            let mut disk = Disk::new_mem(128);
            let raw = load_dataset(&mut disk, &ds).unwrap();
            let budget = MemoryBudget::from_bytes(2048, 128).unwrap();
            let sorted =
                prepare_table(&mut disk, &ds.schema, &raw, Layout::MultiSort, &budget).unwrap();
            let mut ctx =
                EngineCtx { disk: &mut disk, schema: &ds.schema, dissim: &ds.dissim, budget };
            let trs = Trs::for_schema(&ds.schema);
            let run = trs.run(&mut ctx, &sorted.file, &q).unwrap();
            assert_eq!(run.ids, expect, "trial {trial}");
        }
    }

    #[test]
    fn subset_query_agrees_with_oracle() {
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        let mut rng = StdRng::seed_from_u64(37);
        let ds = rsky_data::synthetic::normal_dataset(5, 6, 120, &mut rng).unwrap();
        for indices in [vec![0usize, 1, 2], vec![2, 3, 4], vec![1, 3]] {
            let q = rsky_data::workload::random_subset_queries(&ds.schema, &indices, 1, &mut rng)
                .unwrap()
                .remove(0);
            let expect =
                rsky_core::skyline::reverse_skyline_by_definition(&ds.dissim, &ds.rows, &q);
            let mut disk = Disk::new_mem(128);
            let raw = load_dataset(&mut disk, &ds).unwrap();
            let budget = MemoryBudget::from_bytes(2048, 128).unwrap();
            let sorted =
                prepare_table(&mut disk, &ds.schema, &raw, Layout::MultiSort, &budget).unwrap();
            let mut ctx =
                EngineCtx { disk: &mut disk, schema: &ds.schema, dissim: &ds.dissim, budget };
            let trs = Trs::for_schema(&ds.schema);
            let run = trs.run(&mut ctx, &sorted.file, &q).unwrap();
            assert_eq!(run.ids, expect, "subset {indices:?}");
        }
    }

    #[test]
    fn child_ordering_ablation_same_result() {
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        let mut rng = StdRng::seed_from_u64(38);
        let ds = rsky_data::synthetic::normal_dataset(4, 8, 150, &mut rng).unwrap();
        let q = rsky_data::random_queries(&ds.schema, 1, &mut rng).unwrap().remove(0);
        let mut disk = Disk::new_mem(128);
        let raw = load_dataset(&mut disk, &ds).unwrap();
        let budget = MemoryBudget::from_bytes(1024, 128).unwrap();
        let sorted = prepare_table(&mut disk, &ds.schema, &raw, Layout::MultiSort, &budget).unwrap();
        let mut ctx =
            EngineCtx { disk: &mut disk, schema: &ds.schema, dissim: &ds.dissim, budget };
        let mut with = Trs::for_schema(&ds.schema);
        with.opts.order_children_by_count = true;
        let mut without = Trs::for_schema(&ds.schema);
        without.opts.order_children_by_count = false;
        let a = with.run(&mut ctx, &sorted.file, &q).unwrap();
        let b = without.run(&mut ctx, &sorted.file, &q).unwrap();
        assert_eq!(a.ids, b.ids);
    }
}
