//! Best-first Tree Reverse Skyline — TRS-BF.
//!
//! TRS consumes each batch tree leaf-by-leaf in DFS order. This variant
//! turns the AL-Tree into a search index on both sides of the algorithm:
//!
//! * **Phase one** traverses each batch tree best-first. A max-heap orders
//!   nodes by a *group-level prunability lower bound*: the sum of
//!   `d_i(q_i, v_i)` over the selected attributes fixed by the node's value
//!   prefix. Every completion of the prefix adds only non-negative terms, so
//!   the bound under-estimates the query distance of every record in the
//!   subtree — the deepest-in-the-dominated-region groups surface first,
//!   and they are exactly the groups a survivor is most likely to kill
//!   wholesale. Before a popped subtree is descended it is tested against a
//!   small pool of already-found survivors ("killers"): a killer whose
//!   values dominate the fixed prefix directly and dominate *every value
//!   present in the batch* on the free suffix attributes prunes the whole
//!   subtree with a handful of checks. Once a killer universally dominates
//!   all batch-present values with strictness available at every level, no
//!   queued node outside the killer's own path can change the result —
//!   each such pop dies with zero further distance checks, which is the
//!   early-termination condition.
//! * **Phase two** inverts TRS's roles. Survivors are blocked into
//!   candidate chunks ([`CandidateBlocks`], on the run's distance source)
//!   and the *database* is loaded into AL-Trees: one walk per batch tree
//!   visits children in decreasing descendant count and emits one or two
//!   representative rows per leaf — duplicates of a value combination
//!   beyond the second instance contribute nothing (two reps make the
//!   id-based self-skip exact: a candidate shares an id with at most one
//!   rep, and the other rep is then an exact duplicate, a legitimate
//!   pruner). The chunk scan stops as soon as every candidate of the chunk
//!   is dead.
//!
//! Results are bit-identical to TRS and the by-definition oracle: group
//! kills only discard leaves that provably have a pruner inside the same
//! batch, and phase two checks the exhaustive definition against all of `D`
//! (grouped by distinct value combination, which changes nothing — pruning
//! depends only on values, apart from the self-exclusion handled by the two
//! representatives).
//!
//! The engine is deliberately sequential: the heap is one global traversal
//! order per batch, not a partitionable work list, so `engine_by_name`
//! ignores the thread count for `trs-bf`.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

use rsky_altree::{AlTree, NodeIdx, ROOT};
use rsky_core::dissim::{DissimTable, FlatDissim};
use rsky_core::error::Result;
use rsky_core::obs;
use rsky_core::query::{AttrSubset, Query};
use rsky_core::record::{RecordId, RowBuf, ValueId};
use rsky_core::schema::Schema;
use rsky_core::stats::RunStats;
use rsky_storage::{ColumnarBatch, RecordFile, RecordWriter};

use crate::engine::{run_with_scaffolding, EngineCtx, ReverseSkylineAlgo, RsRun};
use crate::kernels::CandidateBlocks;
use crate::qcache::QueryDistCache;
use crate::trs::{
    find_pruner_leaf, leaf_schema_values, load_batch_into_tree_with, Trs,
};

/// Max-heap of `(prunability bound, node)` entries.
///
/// Ordering is total and deterministic: bounds compare by
/// [`f64::total_cmp`], ties break toward the smaller node index (nodes are
/// allocated in insertion order, so equal-bound siblings pop left-to-right).
/// Popping therefore yields a non-increasing bound sequence — the heap
/// invariant the property suite checks.
#[derive(Debug, Default)]
pub struct BoundHeap {
    heap: BinaryHeap<BoundEntry>,
}

impl BoundHeap {
    /// Queues `node` with its group-level bound.
    pub fn push(&mut self, bound: f64, node: NodeIdx) {
        self.heap.push(BoundEntry { bound, node });
    }

    /// Removes and returns the entry with the largest bound (smallest node
    /// index on ties), or `None` when empty.
    pub fn pop(&mut self) -> Option<(f64, NodeIdx)> {
        self.heap.pop().map(|e| (e.bound, e.node))
    }

    /// Number of queued entries.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// Whether no entries are queued.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// Drops all queued entries, keeping the allocation.
    pub fn clear(&mut self) {
        self.heap.clear();
    }
}

#[derive(Debug)]
struct BoundEntry {
    bound: f64,
    node: NodeIdx,
}

impl PartialEq for BoundEntry {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}

impl Eq for BoundEntry {}

impl PartialOrd for BoundEntry {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for BoundEntry {
    fn cmp(&self, other: &Self) -> Ordering {
        // Max-heap on bound; reversed node order so ties pop the smaller
        // node index first.
        self.bound.total_cmp(&other.bound).then_with(|| other.node.cmp(&self.node))
    }
}

/// Cap on the per-batch survivor pool used for group kills. Survivors past
/// the cap still go to phase two; they just don't serve as killers (each
/// admission costs up to `Σ |present values_i|` distance checks, so an
/// unbounded pool would trade the saved work straight back).
const KILLER_CAP: usize = 16;

/// A phase-one survivor admitted to the group-kill pool, with the
/// batch-restricted universality profile of its suffix attributes.
struct Killer {
    /// Values permuted to tree order (`tvals[level] = svals[order[level]]`),
    /// for the prefix self-exclusion test.
    tvals: Vec<ValueId>,
    /// Values in schema order, for distance lookups.
    svals: Vec<ValueId>,
    /// Smallest level `l` such that on every deeper level's selected
    /// attribute the killer dominates *all values present in the batch*;
    /// the killer can only kill subtrees rooted at level ≥ `l`.
    min_level: usize,
    /// `strict_suffix[l]`: some selected attribute at level ≥ `l` is
    /// *strictly* closer than the query to every batch-present value
    /// (indices below `min_level` are unused and false). Length `m + 1`.
    strict_suffix: Vec<bool>,
}

/// Best-first TRS. Same inputs, layout preference and result contract as
/// [`Trs`]; the traversal order and the group-kill/early-termination
/// machinery are what differ, which the `tree_nodes_visited` counter makes
/// observable.
///
/// ```
/// use rsky_algos::prep::{load_dataset, prepare_table, Layout};
/// use rsky_algos::{EngineCtx, ReverseSkylineAlgo, TrsBf};
/// use rsky_storage::{Disk, MemoryBudget};
///
/// let (ds, q) = rsky_data::paper_example();
/// let mut disk = Disk::new_mem(64);
/// let raw = load_dataset(&mut disk, &ds).unwrap();
/// let budget = MemoryBudget::from_percent(ds.data_bytes(), 50.0, 64).unwrap();
/// let sorted = prepare_table(&mut disk, &ds.schema, &raw, Layout::MultiSort, &budget).unwrap();
/// let bf = TrsBf::for_schema(&ds.schema);
/// let mut ctx = EngineCtx { disk: &mut disk, schema: &ds.schema, dissim: &ds.dissim, budget };
/// let run = bf.run(&mut ctx, &sorted.file, &q).unwrap();
/// assert_eq!(run.ids, vec![3, 6]); // Table 1's reverse skyline
/// ```
#[derive(Debug, Clone)]
pub struct TrsBf {
    /// `attr_order[level]` = schema attribute stored at tree level
    /// `level + 1`; ascending cardinality by default.
    attr_order: Vec<usize>,
}

impl TrsBf {
    /// TRS-BF with the paper's default attribute ordering (ascending
    /// cardinality).
    pub fn for_schema(schema: &Schema) -> Self {
        Self { attr_order: rsky_order::ascending_cardinality_order(schema) }
    }

    /// TRS-BF with an explicit attribute ordering (must be a permutation of
    /// `0..m`; checked at run time).
    pub fn with_order(attr_order: Vec<usize>) -> Self {
        Self { attr_order }
    }

    /// The attribute ordering in use.
    pub fn attr_order(&self) -> &[usize] {
        &self.attr_order
    }
}

impl ReverseSkylineAlgo for TrsBf {
    fn name(&self) -> &str {
        "TRS-BF"
    }

    fn run_with_cache(
        &self,
        ctx: &mut EngineCtx<'_>,
        table: &RecordFile,
        query: &Query,
        cache: Option<&QueryDistCache>,
    ) -> Result<RsRun> {
        crate::engine::validate_inputs(ctx, table, query)?;
        let m = table.num_attrs();
        Trs::with_order(self.attr_order.clone()).validate_order(m)?;
        run_with_scaffolding(ctx, query, cache, "trs-bf", |ctx, cache, stats, robs, kern| {
            let order = &self.attr_order;
            let subset = &query.subset;
            let total_pages = table.num_pages(ctx.disk);
            let mut tree = AlTree::new(m);
            let mut tvals = vec![0u32; m];
            let mut heap_pushes = 0u64;
            let mut group_kills = 0u64;

            // --- Phase one: best-first batch trees, group kills ------------
            let p1 = robs.scope("phase1", stats, ctx.disk.io_stats());
            let r_file = {
                let tree_budget = ctx.budget.phase1_tree_bytes();
                let mut writer = RecordWriter::create(ctx.disk, m)?;
                let mut page = 0;
                let mut pbuf = RowBuf::new(m);
                let mut flat = vec![0u32; m + 1];
                // Distinct values present in the current batch, per selected
                // attribute — the universe killer admission quantifies over.
                let mut present: Vec<Vec<ValueId>> = vec![Vec::new(); m];
                let mut present_flag: Vec<Vec<bool>> =
                    (0..m).map(|i| vec![false; ctx.schema.cardinality(i) as usize]).collect();
                let mut heap = BoundHeap::default();
                let mut killers: Vec<Killer> = Vec::new();
                let mut c_schema_vals = vec![0u32; m];
                let mut path_tvals = vec![0u32; m];
                let mut stack = Vec::with_capacity(64);
                while page < total_pages {
                    robs.check_cancelled()?;
                    let bspan = robs.scope("phase1.batch", stats, ctx.disk.io_stats());
                    for (flags, vals) in present_flag.iter_mut().zip(present.iter_mut()) {
                        for &v in vals.iter() {
                            flags[v as usize] = false;
                        }
                        vals.clear();
                    }
                    {
                        let disk = &mut *ctx.disk;
                        let present = &mut present;
                        let present_flag = &mut present_flag;
                        load_batch_into_tree_with(
                            |p, buf: &mut RowBuf| {
                                table.read_page_rows(&mut *disk, p, buf)?;
                                for r in 0..buf.len() {
                                    let vals = buf.values(r);
                                    for &i in subset.indices() {
                                        let v = vals[i];
                                        if !present_flag[i][v as usize] {
                                            present_flag[i][v as usize] = true;
                                            present[i].push(v);
                                        }
                                    }
                                }
                                Ok(())
                            },
                            order,
                            &mut page,
                            total_pages,
                            tree_budget,
                            &mut tree,
                            &mut pbuf,
                            &mut tvals,
                        )?;
                    }
                    stats.phase1_batches += 1;
                    killers.clear();
                    let mut universal: Option<usize> = None;
                    heap.clear();
                    if !tree.is_empty() {
                        heap.push(0.0, ROOT);
                        heap_pushes += 1;
                    }
                    while let Some((bound, n)) = heap.pop() {
                        stats.tree_nodes_visited += 1;
                        let level = tree.level(n) as usize;
                        if level > 0 && !killers.is_empty() {
                            // Reconstruct the node's fixed tree-order prefix.
                            let mut a = n;
                            for d in (0..level).rev() {
                                path_tvals[d] = tree.value(a);
                                a = tree.parent(a);
                            }
                            if group_killed(
                                &killers,
                                universal,
                                &path_tvals[..level],
                                order,
                                subset,
                                ctx.dissim,
                                kern.flat(),
                                cache,
                                stats,
                            ) {
                                group_kills += 1;
                                continue;
                            }
                        }
                        if tree.is_leaf(n) {
                            leaf_schema_values(&tree, n, order, &mut c_schema_vals);
                            let ids_len = tree.leaf_ids(n).len();
                            stats.obj_comparisons += ids_len as u64;
                            if find_pruner_leaf(
                                &tree,
                                ctx.dissim,
                                kern.flat(),
                                subset,
                                order,
                                &c_schema_vals,
                                tree.leaf_ids(n)[0],
                                cache,
                                stats,
                                &mut stack,
                            )
                            .is_none()
                            {
                                flat[1..].copy_from_slice(&c_schema_vals);
                                for k in 0..ids_len {
                                    flat[0] = tree.leaf_ids(n)[k];
                                    writer.push(ctx.disk, &flat)?;
                                }
                                admit_killer(
                                    &mut killers,
                                    &mut universal,
                                    &c_schema_vals,
                                    order,
                                    subset,
                                    &present,
                                    ctx.dissim,
                                    kern.flat(),
                                    cache,
                                    stats,
                                );
                            }
                            continue;
                        }
                        let attr = order[level];
                        let selected = subset.contains(attr);
                        let (children, values) = tree.children_and_values(n);
                        for (&c, &u) in children.iter().zip(values) {
                            let b = if selected { bound + cache.d(attr, u) } else { bound };
                            heap.push(b, c);
                        }
                        heap_pushes += children.len() as u64;
                    }
                    bspan
                        .field("batch", (stats.phase1_batches - 1) as u64)
                        .close(stats, ctx.disk.io_stats());
                }
                writer.finish(ctx.disk)?
            };
            stats.phase1_survivors = r_file.len() as usize;
            robs.handle().counter_add(obs::names::TRS_BF_HEAP_PUSHES, heap_pushes);
            robs.handle().counter_add(obs::names::TRS_BF_GROUP_KILLS, group_kills);
            stats.phase1_time = p1
                .field("batches", stats.phase1_batches as u64)
                .field("survivors", stats.phase1_survivors as u64)
                .field("heap_pushes", heap_pushes)
                .field("group_kills", group_kills)
                .close(stats, ctx.disk.io_stats());

            // --- Phase two: candidate chunks vs database trees -------------
            let p2 = robs.scope("phase2", stats, ctx.disk.io_stats());
            let result = {
                let chunk_budget = ctx.budget.phase2_tree_bytes();
                let d_tree_budget = ctx.budget.phase1_tree_bytes();
                let r_pages = r_file.num_pages(ctx.disk);
                let row_bytes = 4 * (m as u64 + 1);
                let mut result: Vec<RecordId> = Vec::new();
                let mut rpage = 0u64;
                let mut pbuf = RowBuf::new(m);
                let mut chunk = RowBuf::new(m);
                let mut ybuf = RowBuf::new(m);
                let mut lvals = vec![0u32; m];
                while rpage < r_pages {
                    robs.check_cancelled()?;
                    let bspan = robs.scope("phase2.batch", stats, ctx.disk.io_stats());
                    chunk.clear();
                    let mut loaded_any = false;
                    while rpage < r_pages {
                        if loaded_any && (chunk.len() as u64) * row_bytes >= chunk_budget {
                            break;
                        }
                        pbuf.clear();
                        r_file.read_page_rows(ctx.disk, rpage, &mut pbuf)?;
                        rpage += 1;
                        loaded_any = true;
                        for r in 0..pbuf.len() {
                            chunk.push(pbuf.id(r), pbuf.values(r));
                        }
                    }
                    stats.phase2_batches += 1;
                    let mut blocks = CandidateBlocks::build(
                        kern.source(ctx.dissim),
                        cache,
                        subset,
                        chunk.len(),
                        |i| (chunk.id(i), chunk.values(i)),
                    );
                    let mut dp = 0u64;
                    while dp < total_pages {
                        if blocks.alive_count() == 0 {
                            break;
                        }
                        robs.check_cancelled()?;
                        let disk = &mut *ctx.disk;
                        load_batch_into_tree_with(
                            |p, buf| table.read_page_rows(disk, p, buf).map(|_| ()),
                            order, &mut dp, total_pages, d_tree_budget, &mut tree, &mut pbuf,
                            &mut tvals,
                        )?;
                        collect_leaf_reps(&tree, order, &mut lvals, &mut ybuf, stats);
                        let ys = ColumnarBatch::from_rows(&ybuf);
                        blocks.scan(subset, &ys, true, stats);
                    }
                    for i in 0..chunk.len() {
                        if blocks.is_alive(i) {
                            result.push(chunk.id(i));
                        }
                    }
                    bspan
                        .field("batch", (stats.phase2_batches - 1) as u64)
                        .close(stats, ctx.disk.io_stats());
                }
                result
            };
            stats.phase2_time = p2
                .field("batches", stats.phase2_batches as u64)
                .close(stats, ctx.disk.io_stats());
            Ok(result)
        })
    }
}

/// Does some admitted killer prune the entire subtree whose fixed
/// tree-order prefix is `path`? The killer must (a) differ from the prefix
/// somewhere — an equal prefix means the killer may sit *inside* the
/// subtree, and a record never prunes itself; (b) dominate the prefix
/// values directly; (c) have batch-universal domination on every deeper
/// selected attribute (`min_level ≤ path.len()`); (d) be strictly closer
/// somewhere, either on a prefix attribute or universally on a suffix one.
///
/// The `universal` fast path (a killer with `min_level == 0` and suffix
/// strictness from the root) kills any diverging subtree with **zero**
/// distance checks — this is the early-termination regime: after such a
/// killer is found, only its own path chain is ever descended again.
#[allow(clippy::too_many_arguments)]
fn group_killed(
    killers: &[Killer],
    universal: Option<usize>,
    path: &[ValueId],
    order: &[usize],
    subset: &AttrSubset,
    dt: &DissimTable,
    flat: Option<&FlatDissim>,
    cache: &QueryDistCache,
    stats: &mut RunStats,
) -> bool {
    let l = path.len();
    if let Some(u) = universal {
        if killers[u].tvals[..l] != *path {
            return true;
        }
    }
    'next: for k in killers {
        if k.min_level > l || k.tvals[..l] == *path {
            continue;
        }
        let mut strict = k.strict_suffix[l];
        for (j, &v) in path.iter().enumerate() {
            let i = order[j];
            if !subset.contains(i) {
                continue;
            }
            stats.dist_checks += 1;
            let d = match flat {
                Some(f) => f.d(i, k.svals[i], v),
                None => dt.d(i, k.svals[i], v),
            };
            let dq = cache.d(i, v);
            if d > dq {
                continue 'next;
            }
            if d < dq {
                strict = true;
            }
        }
        if strict {
            return true;
        }
    }
    false
}

/// Admits a fresh survivor to the killer pool (until [`KILLER_CAP`]),
/// computing its batch-universality profile bottom-up: level `j`'s selected
/// attribute passes when the survivor is at most as far as the query from
/// *every value present in the batch* on that attribute, and is strict when
/// it is strictly closer to all of them. The scan stops at the first failing
/// level — levels above it never consult the suffix profile. A survivor
/// universal on no suffix at all (`min_level == m`) could only re-kill
/// single leaves, which `is_prunable` already handles, so it is skipped.
#[allow(clippy::too_many_arguments)]
fn admit_killer(
    killers: &mut Vec<Killer>,
    universal: &mut Option<usize>,
    svals: &[ValueId],
    order: &[usize],
    subset: &AttrSubset,
    present: &[Vec<ValueId>],
    dt: &DissimTable,
    flat: Option<&FlatDissim>,
    cache: &QueryDistCache,
    stats: &mut RunStats,
) {
    if killers.len() >= KILLER_CAP {
        return;
    }
    let m = order.len();
    let mut min_level = 0usize;
    let mut strict_at = vec![false; m];
    for j in (0..m).rev() {
        let i = order[j];
        if !subset.contains(i) {
            continue; // unselected: no constraint to satisfy
        }
        let yv = svals[i];
        let mut dom = true;
        let mut strict_all = true;
        for &u in &present[i] {
            stats.dist_checks += 1;
            let d = match flat {
                Some(f) => f.d(i, yv, u),
                None => dt.d(i, yv, u),
            };
            let dq = cache.d(i, u);
            if d > dq {
                dom = false;
                break;
            }
            if d >= dq {
                strict_all = false;
            }
        }
        if !dom {
            min_level = j + 1;
            break;
        }
        strict_at[j] = strict_all;
    }
    if min_level >= m {
        return;
    }
    let mut strict_suffix = vec![false; m + 1];
    for j in (min_level..m).rev() {
        strict_suffix[j] = strict_suffix[j + 1] || strict_at[j];
    }
    let tvals: Vec<ValueId> = order.iter().map(|&a| svals[a]).collect();
    let k = Killer { tvals, svals: svals.to_vec(), min_level, strict_suffix };
    if universal.is_none() && k.min_level == 0 && k.strict_suffix[0] {
        *universal = Some(killers.len());
    }
    killers.push(k);
}

/// Walks one database batch tree biggest-subtree-first (children were
/// ordered ascending by descendant count, the LIFO stack pops them
/// descending) and gathers representative rows: one per leaf, two when the
/// leaf holds multiple instances. Pruning depends only on values, so extra
/// duplicates add nothing; the second instance makes the id-based self-skip
/// exact — a candidate shares an id with at most one representative, and
/// the other is then an exact duplicate, which legitimately prunes it.
fn collect_leaf_reps(
    tree: &AlTree,
    order: &[usize],
    lvals: &mut [ValueId],
    out: &mut RowBuf,
    stats: &mut RunStats,
) {
    out.clear();
    if tree.is_empty() {
        return;
    }
    let mut stack = vec![ROOT];
    while let Some(n) = stack.pop() {
        stats.tree_nodes_visited += 1;
        if tree.is_leaf(n) {
            leaf_schema_values(tree, n, order, lvals);
            let ids = tree.leaf_ids(n);
            out.push(ids[0], lvals);
            if ids.len() > 1 {
                out.push(ids[1], lvals);
            }
        } else {
            stack.extend_from_slice(tree.children(n));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::prep::{load_dataset, prepare_table, Layout};
    use rsky_storage::{Disk, MemoryBudget};

    #[test]
    fn bound_heap_pops_non_increasing_with_node_tiebreak() {
        let mut h = BoundHeap::default();
        h.push(1.5, 7);
        h.push(3.0, 4);
        h.push(3.0, 2);
        h.push(0.0, 9);
        h.push(2.25, 1);
        assert_eq!(h.len(), 5);
        let mut popped = Vec::new();
        while let Some(e) = h.pop() {
            popped.push(e);
        }
        assert!(h.is_empty());
        assert_eq!(popped, vec![(3.0, 2), (3.0, 4), (2.25, 1), (1.5, 7), (0.0, 9)]);
        for w in popped.windows(2) {
            assert!(w[0].0 >= w[1].0);
        }
    }

    #[test]
    fn full_run_reproduces_paper_result() {
        let (ds, q) = rsky_data::paper_example();
        let mut disk = Disk::new_mem(16); // 1 object per page
        let raw = load_dataset(&mut disk, &ds).unwrap();
        let budget = MemoryBudget::from_bytes(700, 16).unwrap();
        let sorted = prepare_table(&mut disk, &ds.schema, &raw, Layout::MultiSort, &budget).unwrap();
        let mut ctx =
            EngineCtx { disk: &mut disk, schema: &ds.schema, dissim: &ds.dissim, budget };
        let bf = TrsBf::for_schema(&ds.schema);
        let run = bf.run(&mut ctx, &sorted.file, &q).unwrap();
        assert_eq!(run.ids, vec![3, 6]);
        assert!(run.stats.phase1_batches >= 1);
        assert!(run.stats.tree_nodes_visited > 0);
    }

    #[test]
    fn agrees_with_oracle_on_random_data() {
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        let mut rng = StdRng::seed_from_u64(91);
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
            let bf = TrsBf::for_schema(&ds.schema);
            let run = bf.run(&mut ctx, &sorted.file, &q).unwrap();
            assert_eq!(run.ids, expect, "trial {trial}");
        }
    }

    #[test]
    fn subset_query_agrees_with_oracle() {
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        let mut rng = StdRng::seed_from_u64(92);
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
            let bf = TrsBf::for_schema(&ds.schema);
            let run = bf.run(&mut ctx, &sorted.file, &q).unwrap();
            assert_eq!(run.ids, expect, "subset {indices:?}");
        }
    }

    #[test]
    fn tight_budget_agrees_with_trs_across_batch_splits() {
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        let mut rng = StdRng::seed_from_u64(93);
        let ds = rsky_data::synthetic::normal_dataset(4, 5, 150, &mut rng).unwrap();
        let q = rsky_data::random_queries(&ds.schema, 1, &mut rng).unwrap().remove(0);
        for bytes in [400u64, 900, 4096] {
            let mut disk = Disk::new_mem(64);
            let raw = load_dataset(&mut disk, &ds).unwrap();
            let budget = MemoryBudget::from_bytes(bytes, 64).unwrap();
            let sorted =
                prepare_table(&mut disk, &ds.schema, &raw, Layout::MultiSort, &budget).unwrap();
            let mut ctx =
                EngineCtx { disk: &mut disk, schema: &ds.schema, dissim: &ds.dissim, budget };
            let bf = TrsBf::for_schema(&ds.schema).run(&mut ctx, &sorted.file, &q).unwrap();
            let trs = Trs::for_schema(&ds.schema).run(&mut ctx, &sorted.file, &q).unwrap();
            assert_eq!(bf.ids, trs.ids, "budget {bytes}");
            assert!(bf.stats.tree_nodes_visited > 0);
        }
    }

    #[test]
    fn rejects_bad_attribute_order() {
        let (ds, q) = rsky_data::paper_example();
        let mut disk = Disk::new_mem(64);
        let raw = load_dataset(&mut disk, &ds).unwrap();
        let budget = MemoryBudget::from_bytes(1024, 64).unwrap();
        let mut ctx =
            EngineCtx { disk: &mut disk, schema: &ds.schema, dissim: &ds.dissim, budget };
        for bad in [vec![0, 1], vec![0, 1, 1], vec![0, 1, 5]] {
            let bf = TrsBf::with_order(bad);
            assert!(bf.run(&mut ctx, &raw, &q).is_err());
        }
    }
}
