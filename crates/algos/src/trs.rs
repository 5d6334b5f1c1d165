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
//! ## The witness probe
//!
//! Phase one visits a batch's leaves in DFS order, and in a multi-sorted
//! batch neighbouring leaves share long value prefixes, so the record that
//! pruned one leaf usually prunes the next. Before it walks for a leaf,
//! phase one therefore tests the leaf against a small pool of *witnesses*:
//! up to `WITNESS_POOL` pruners that this batch's walks found, ordered by
//! when each last pruned a leaf, most recent first — the self-organizing
//! window of BNL-style skyline algorithms, which tries its recently
//! successful dominators first. A witness that prunes moves to the front; a
//! walk's pruner enters at the front and, in a full pool, evicts the
//! witness at the back. The test is the walk's own leaf condition on the
//! witness's values — `d(w_i, c_i) ≤ d(q_i, c_i)` on every selected
//! attribute, strict on one — and it skips the candidate's own leaf when
//! that holds a single id, as the walk does. A hit is therefore a pruner the
//! walk would accept, and a miss runs the walk unchanged: survivors, phase
//! two, page IO and ids are exactly Alg. 4's, and only distance checks and
//! tree-node visits move. [`TrsOptions::witness_first`] turns the probe off
//! (the paper's plain Alg. 4, an ablation).
//!
//! The leaves of one parent share every value but the leaf level's, so the
//! test is split the same way. As the DFS descends it keeps, for each
//! selected attribute, the query's distance to the path's value and that
//! value's center row, one lookup per node. Each witness keeps its test
//! over the current leaf parent's path, run in schema order and stopped at
//! the path's first failing attribute, and resumed only as far as a leaf
//! needs it. A leaf then evaluates only the leaf-level attribute, and only
//! when that comes before the path's first failure: a leaf with siblings
//! reuses its parent's work, and a leaf without any (sparse data, where the
//! parent changes at every leaf) evaluates no more than the whole test
//! would. The checks are still counted as the whole test, in schema order,
//! would count them — up to and including the first failing attribute, or
//! every selected attribute on a hit — so every `RunStats` counter is the
//! same as with a per-leaf test.
//!
//! ## The scan memo
//!
//! Phase two streams the table past each result tree, and a multi-sorted
//! (or tiled) table delivers its objects in the tree's own attribute
//! order, so consecutive objects share long value prefixes. Alg. 5's walk
//! is exhaustive: which nodes it reaches at a depth, and with which
//! `FoundCloser` flags, depends only on the tree and on the scanned
//! object's values above that depth. Phase two therefore walks each tree
//! level by level and keeps every level's frontier with the visits and
//! checks spent expanding it (`ScanMemo`). Each scanned object resumes at
//! the first level whose attribute the query selects and whose value
//! differs from its predecessor's, counts the levels it reuses as the
//! walk would, and expands only the rest; an object that evicts a leaf
//! drops the memo, since evictions reshape the tree. The evicted leaves,
//! the ids, the page IO and every `RunStats` counter are the depth-first
//! walk's, checks and tree-node visits included: they count the paper
//! algorithm's work, as the batched kernels count a per-pair loop's checks.
//! Only wall-clock moves. On a layout whose neighbours share no prefix
//! (Original), every walk starts near the root and does the DFS's work.
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

use crate::engine::{run_batches, run_with_scaffolding, EngineCtx, ReverseSkylineAlgo, RsRun};
use crate::kernels::DistSource;
use crate::qcache::QueryDistCache;

/// Tuning switches, primarily for ablation studies.
#[derive(Debug, Clone, Copy)]
pub struct TrsOptions {
    /// Visit qualifying children in decreasing descendant count (the paper's
    /// heuristic). Disabled, children are visited in value order.
    pub order_children_by_count: bool,
    /// Test each phase-one leaf against the batch's recent pruners before
    /// walking for it (the witness probe of the module docs). Disabled,
    /// every leaf gets a walk: the paper's plain Alg. 4.
    pub witness_first: bool,
}

impl Default for TrsOptions {
    fn default() -> Self {
        Self { order_children_by_count: true, witness_first: true }
    }
}

impl TrsOptions {
    /// An empty batch tree of `m` attributes whose sealed child ranges are
    /// in the order these options walk them.
    pub(crate) fn batch_tree(&self, m: usize) -> AlTree {
        if self.order_children_by_count { AlTree::new(m) } else { AlTree::in_value_order(m) }
    }
}

/// How many witnesses phase one keeps per batch tree: the smallest pool
/// that no larger pool beats on warm-mem's and cold-file's `trs_ms`. First
/// set to 4 over {1, 2, 4, 8} for a test of every attribute at every leaf;
/// re-swept over {4, 8, 16} once the test became one per leaf parent,
/// since a cheaper test moves the trade between probing and walking.
/// perfbench could not tell the three apart beyond its noise, so paired
/// in-process runs on the workloads' data decided: against 4, 8 took
/// 0.90–0.95 of the time on the Census-like data and 0.93–1.00 on normal
/// 5 × 50; against 8, 16 took 0.91–1.12 on the Census-like data but did
/// not beat it on normal 5 × 50 (0.81–1.04 at n = 100k, 0.99–1.06 at
/// n = 10k). The runs are in CHANGES.md.
pub(crate) const WITNESS_POOL: usize = 8;

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
    /// Workers that walk batch trees at once, over the run's one disk
    /// (`engine::run_batches`); 1 (the default) is the paper's engine, and
    /// more report themselves as TRS-P.
    pub threads: usize,
}

impl Trs {
    /// TRS with the paper's default attribute ordering (ascending
    /// cardinality).
    pub fn for_schema(schema: &Schema) -> Self {
        Self::with_order(rsky_order::ascending_cardinality_order(schema))
    }

    /// TRS with an explicit attribute ordering (must be a permutation of
    /// `0..m`; checked at run time).
    pub fn with_order(attr_order: Vec<usize>) -> Self {
        Self { attr_order, opts: TrsOptions::default(), threads: 1 }
    }

    /// The same engine on `threads` workers.
    pub fn with_threads(self, threads: usize) -> Self {
        Self { threads, ..self }
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
        if self.threads > 1 { "TRS-P" } else { "TRS" }
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
        self.validate_order(m)?;
        let prefix = if self.threads > 1 { "trs-p" } else { "trs" };
        run_with_scaffolding(ctx, query, cache, prefix, |ctx, cache, stats, robs, kern| {
            let order = &self.attr_order;
            let subset = &query.subset;
            let dissim = ctx.dissim;
            let total_pages = table.num_pages(ctx.disk);
            let tree_batch = || (self.opts.batch_tree(m), RowBuf::new(m), vec![0u32; m]);

            // --- Phase one: batch trees, IsPrunable per loaded object ------
            let p1 = robs.scope("phase1", stats, ctx.disk.io_stats());
            let tree_budget = ctx.budget.phase1_tree_bytes();
            let mut writer = RecordWriter::create(ctx.disk, m)?;
            stats.phase1_batches = run_batches(
                ctx.disk,
                robs,
                self.threads,
                "phase1.batch",
                total_pages,
                stats,
                tree_batch,
                |disk, page, (tree, pbuf, tvals)| {
                    load_batch_into_tree_with(
                        |p, buf| table.read_page_rows(disk, p, buf).map(|_| ()),
                        order, page, total_pages, tree_budget, tree, pbuf, tvals,
                    )
                },
                |(tree, _, _), _, bs| {
                    let mut survivors = RowBuf::new(m);
                    phase1_tree_batch(
                        tree, dissim, kern.flat(), subset, order, self.opts, cache, bs,
                        |row| {
                            survivors.push_flat(row);
                            Ok(())
                        },
                    )?;
                    Ok(survivors)
                },
                |disk, survivors| writer.push_all(disk, &survivors),
            )?;
            let r_file = writer.finish(ctx.disk)?;
            stats.phase1_survivors = r_file.len() as usize;
            stats.phase1_time = p1
                .field("batches", stats.phase1_batches as u64)
                .field("survivors", stats.phase1_survivors as u64)
                .close(stats, ctx.disk.io_stats());

            // --- Phase two: result trees, Prune per scanned object ---------
            let p2 = robs.scope("phase2", stats, ctx.disk.io_stats());
            let tree_budget = ctx.budget.phase2_tree_bytes();
            let r_pages = r_file.num_pages(ctx.disk);
            let mut result = Vec::new();
            stats.phase2_batches = run_batches(
                ctx.disk,
                robs,
                self.threads,
                "phase2.batch",
                r_pages,
                stats,
                tree_batch,
                |disk, page, (tree, pbuf, tvals)| {
                    load_batch_into_tree_with(
                        |p, buf| r_file.read_page_rows(disk, p, buf).map(|_| ()),
                        order, page, r_pages, tree_budget, tree, pbuf, tvals,
                    )
                },
                |(tree, _, _), disk, bs| {
                    let mut ids = Vec::new();
                    phase2_tree_batch(
                        tree, kern.source(dissim), subset, order, cache, total_pages,
                        |p, buf| disk.with(|disk| table.read_page_rows(disk, p, buf).map(|_| ())),
                        bs, &mut ids,
                    )?;
                    Ok(ids)
                },
                |_, ids| {
                    result.extend(ids);
                    Ok(())
                },
            )?;
            stats.phase2_time = p2
                .field("batches", stats.phase2_batches as u64)
                .close(stats, ctx.disk.io_stats());
            Ok(result)
        })
    }
}

/// Phase-one check of one loaded batch tree (Alg. 4 per leaf group): calls
/// `emit` with the flat row `[id, values…]` of every instance whose value
/// combination has no pruner in the tree, in DFS leaf order. Each leaf is
/// tested against the batch's witnesses first when `opts.witness_first` is
/// set (see the module docs).
#[allow(clippy::too_many_arguments)]
pub(crate) fn phase1_tree_batch(
    tree: &AlTree,
    dissim: &DissimTable,
    flat: Option<&FlatDissim>,
    subset: &AttrSubset,
    order: &[usize],
    opts: TrsOptions,
    cache: &QueryDistCache,
    stats: &mut RunStats,
    mut emit: impl FnMut(&[u32]) -> Result<()>,
) -> Result<()> {
    let m = order.len();
    let src = match flat {
        Some(f) => DistSource::Flat(f),
        None => DistSource::Table(dissim),
    };
    let mut path = CandidatePath::new(src, subset, order, cache);
    let mut pool = WitnessPool::default();
    let mut row = vec![0u32; m + 1];
    let mut stack = Vec::new();
    // Leaves in DFS order. The walk is preorder, so when it reaches a leaf
    // every level of `path` holds the leaf's path.
    let mut dfs = vec![ROOT];
    while let Some(n) = dfs.pop() {
        let level = tree.level(n) as usize;
        if level > 0 {
            path.set(level - 1, tree.value(n));
        }
        if !tree.is_leaf(n) {
            dfs.extend(tree.children(n).iter().rev());
            continue;
        }
        let ids = tree.leaf_ids(n);
        stats.obj_comparisons += ids.len() as u64;
        if let Some(k) = pool.probe(&path, n, tree.parent(n), ids.len(), &mut stats.dist_checks) {
            pool.promote(k);
            continue;
        }
        match find_pruner_leaf(
            tree, dissim, flat, subset, order, &path.c, ids[0], cache, stats, &mut stack,
        ) {
            Some(p) if opts.witness_first => pool.admit(tree, p, &path),
            Some(_) => {}
            None => {
                // No pruner for this value combination: every instance
                // survives (a duplicate pair would have been caught at its
                // own leaf).
                row[1..].copy_from_slice(&path.c);
                for &id in ids {
                    row[0] = id;
                    emit(&row)?;
                }
            }
        }
    }
    Ok(())
}

/// The candidate side of the witness test, kept up to date as phase one's
/// DFS descends: the path's values and, for each selected attribute (by its
/// position `k` in `subset.indices()`), the query's distance to the path's
/// value and, on a flat domain, that value's center row. A node sets only
/// its own level, so a leaf costs one lookup of each, not one per selected
/// attribute.
struct CandidatePath<'f> {
    src: DistSource<'f>,
    cache: &'f QueryDistCache,
    order: &'f [usize],
    indices: &'f [usize],
    /// Each schema attribute's subset position, `indices.len()` when the
    /// query does not select it.
    pos: Vec<usize>,
    /// The leaf-level attribute's subset position (the same sentinel).
    leaf_pos: usize,
    /// The path's values, in schema order.
    c: Vec<ValueId>,
    /// `dq[k]` = `d(q_a, c_a)` and `rows[k]` = the center row at `c_a`, for
    /// `a = indices[k]` (no rows on a domain that does not flatten).
    dq: Vec<f64>,
    rows: Vec<&'f [f64]>,
}

impl<'f> CandidatePath<'f> {
    fn new(
        src: DistSource<'f>,
        subset: &'f AttrSubset,
        order: &'f [usize],
        cache: &'f QueryDistCache,
    ) -> Self {
        let (m, indices) = (order.len(), subset.indices());
        let s = indices.len();
        let mut pos = vec![s; m];
        for (k, &a) in indices.iter().enumerate() {
            pos[a] = k;
        }
        let rows = match src {
            DistSource::Flat(_) => vec![&[][..]; s],
            DistSource::Table(_) => Vec::new(),
        };
        Self {
            src,
            cache,
            order,
            indices,
            leaf_pos: pos[order[m - 1]],
            pos,
            c: vec![0; m],
            dq: vec![0.0; s],
            rows,
        }
    }

    /// Sets tree level `l + 1` of the path to `value`.
    #[inline]
    fn set(&mut self, l: usize, value: ValueId) {
        let a = self.order[l];
        self.c[a] = value;
        let k = self.pos[a];
        if k < self.dq.len() {
            self.dq[k] = self.cache.d(a, value);
            if let DistSource::Flat(f) = self.src {
                self.rows[k] = f.center_row(a, value);
            }
        }
    }

    /// `d(y, c_a)` for the attribute `a` at subset position `k`.
    #[inline]
    fn dist(&self, k: usize, y: ValueId) -> f64 {
        match self.src {
            DistSource::Flat(_) => self.rows[k][y as usize],
            DistSource::Table(dt) => {
                let a = self.indices[k];
                dt.d(a, y, self.c[a])
            }
        }
    }
}

/// Marks a witness whose test covers no leaf parent yet.
const NO_PARENT: NodeIdx = NodeIdx::MAX;

/// One witness: a pruner leaf of the batch tree, its values by subset
/// position, and its test over one leaf parent's path.
struct Witness {
    leaf: NodeIdx,
    vals: Vec<ValueId>,
    /// The leaf parent whose path the fields below describe.
    parent: NodeIdx,
    /// Subset positions `0..tested` of the parent's path are tested (the
    /// leaf-level attribute's position is skipped), in schema order;
    /// testing stops at the first that fails.
    tested: usize,
    /// That first failing position, whose distance exceeds the query's.
    fail: Option<usize>,
    /// Whether a tested position is strictly closer than the query.
    strict: bool,
}

impl Witness {
    /// Tests the parent's path up to subset position `upto`, from where the
    /// last test stopped.
    #[inline]
    fn test_path(&mut self, path: &CandidatePath<'_>, upto: usize) {
        while self.fail.is_none() && self.tested < upto {
            let k = self.tested;
            self.tested += 1;
            if k == path.leaf_pos {
                continue;
            }
            let (d, dq) = (path.dist(k, self.vals[k]), path.dq[k]);
            if d > dq {
                self.fail = Some(k);
            }
            self.strict |= d < dq;
        }
    }
}

/// The witnesses of one batch tree, most recent pruner first (the witness
/// probe of the module docs).
#[derive(Default)]
struct WitnessPool {
    witnesses: Vec<Witness>,
}

impl WitnessPool {
    /// The position of the first witness that prunes the candidate leaf
    /// `leaf`, a child of `parent` holding `n_ids` ids, whose path is
    /// `path`. The test is the walk's own leaf condition on the witness's
    /// values, so a hit is a pruner [`find_pruner_leaf`] would accept; like
    /// the walk, it skips the candidate's own leaf when that holds a single
    /// id. Each witness keeps its test over `parent`'s path, which every
    /// leaf of `parent` shares, and a leaf evaluates only the leaf-level
    /// attribute, and only when that comes before the path's first failing
    /// attribute. `checks` counts what a test of every attribute in schema
    /// order would, up to the first failing one.
    fn probe(
        &mut self,
        path: &CandidatePath<'_>,
        leaf: NodeIdx,
        parent: NodeIdx,
        n_ids: usize,
        checks: &mut u64,
    ) -> Option<usize> {
        let (s, kl) = (path.dq.len(), path.leaf_pos);
        self.witnesses.iter_mut().position(|w| {
            if w.leaf == leaf && n_ids == 1 {
                return false;
            }
            if w.parent != parent {
                (w.parent, w.tested, w.fail, w.strict) = (parent, 0, None, false);
            }
            w.test_path(path, kl);
            if let Some(f) = w.fail.filter(|&f| f < kl) {
                *checks += f as u64 + 1;
                return false;
            }
            let mut strict = false;
            if kl < s {
                let (d, dq) = (path.dist(kl, w.vals[kl]), path.dq[kl]);
                if d > dq {
                    *checks += kl as u64 + 1;
                    return false;
                }
                strict = d < dq;
            }
            w.test_path(path, s);
            if let Some(f) = w.fail {
                *checks += f as u64 + 1;
                return false;
            }
            *checks += s as u64;
            strict | w.strict
        })
    }

    /// Moves the witness at position `k`, which just pruned a leaf, to the
    /// front.
    fn promote(&mut self, k: usize) {
        self.witnesses[..=k].rotate_right(1);
    }

    /// Takes the pruner leaf `p` that a walk found into the front slot; a
    /// full pool evicts the witness at the back.
    fn admit(&mut self, tree: &AlTree, p: NodeIdx, path: &CandidatePath<'_>) {
        if self.witnesses.len() < WITNESS_POOL {
            let vals = vec![0; path.dq.len()];
            let (parent, tested, fail, strict) = (NO_PARENT, 0, None, false);
            self.witnesses.push(Witness { leaf: p, vals, parent, tested, fail, strict });
        }
        self.witnesses.rotate_right(1);
        let w = &mut self.witnesses[0];
        (w.leaf, w.parent) = (p, NO_PARENT);
        let mut n = p;
        for &a in path.order.iter().rev() {
            let k = path.pos[a];
            if k < w.vals.len() {
                w.vals[k] = tree.value(n);
            }
            n = tree.parent(n);
        }
    }
}

/// The per-leaf witness probe that [`WitnessPool::probe`] replaced, kept as
/// the reference its tests compare against: the position of the first
/// witness — a `(leaf, schema-order values)` pair of `witnesses`, tried in
/// order — that prunes the candidate leaf `leaf`, whose values are `c` and
/// which holds `n_ids` ids, testing every selected attribute at every leaf.
/// `dqx` and `crows` are scratch for the candidate's query distances and
/// flat center rows.
#[cfg(test)]
#[allow(clippy::too_many_arguments)]
fn witness_prunes<'f>(
    witnesses: &[(NodeIdx, Vec<ValueId>)],
    src: DistSource<'f>,
    subset: &AttrSubset,
    cache: &QueryDistCache,
    leaf: NodeIdx,
    n_ids: usize,
    c: &[ValueId],
    dqx: &mut Vec<f64>,
    crows: &mut Vec<&'f [f64]>,
    checks: &mut u64,
) -> Option<usize> {
    use crate::kernels::prunes_center_hoisted;
    use rsky_core::dominate::prunes_with_center_dists;
    if witnesses.is_empty() {
        return None;
    }
    let indices = subset.indices();
    cache.center_dists_into(subset, c, dqx);
    if let DistSource::Flat(flat) = src {
        crows.clear();
        crows.extend(indices.iter().map(|&a| flat.center_row(a, c[a])));
    }
    witnesses.iter().position(|(w, y)| {
        (*w != leaf || n_ids > 1)
            && match src {
                DistSource::Flat(_) => prunes_center_hoisted(crows, dqx, indices, y, checks),
                DistSource::Table(dt) => prunes_with_center_dists(dt, subset, y, c, dqx, checks),
            }
    })
}

/// Phase-two refinement of one loaded result tree (Alg. 5 per scanned
/// object): streams the database past the tree via `read_page`, evicting
/// everything each scanned object dominates, then appends the surviving ids
/// to `result`. The page loop stops as soon as the tree is empty. One
/// [`ScanMemo`] serves the whole scan, so each object resumes its walk
/// where it first differs from its predecessor's.
#[allow(clippy::too_many_arguments)]
pub(crate) fn phase2_tree_batch(
    tree: &mut AlTree,
    src: DistSource<'_>,
    subset: &AttrSubset,
    order: &[usize],
    cache: &QueryDistCache,
    total_pages: u64,
    mut read_page: impl FnMut(u64, &mut RowBuf) -> Result<()>,
    stats: &mut RunStats,
    result: &mut Vec<RecordId>,
) -> Result<()> {
    let mut dpage = RowBuf::new(order.len());
    let mut memo = ScanMemo::new(order, subset);
    for p in 0..total_pages {
        if tree.is_empty() {
            break;
        }
        dpage.clear();
        read_page(p, &mut dpage)?;
        for ei in 0..dpage.len() {
            stats.obj_comparisons += 1;
            memo.prune(tree, src, cache, dpage.values(ei), dpage.id(ei), stats);
        }
    }
    result.extend(tree.collect_ids());
    Ok(())
}

/// Clears `tree`, then reads pages from `read_page` starting at `*page`
/// into it (values permuted to tree order) until the tree's memory estimate
/// reaches `tree_budget`, and seals it; always loads at least one page.
/// Returns the number of records loaded. The batch-boundary rule lives
/// here, once.
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
) -> Result<usize> {
    tree.clear();
    let mut records = 0;
    while *page < total_pages {
        if records > 0 && tree.estimated_bytes() >= tree_budget {
            break;
        }
        pbuf.clear();
        read_page(*page, pbuf)?;
        *page += 1;
        for r in 0..pbuf.len() {
            let vals = pbuf.values(r);
            for (l, &a) in order.iter().enumerate() {
                tvals[l] = vals[a];
            }
            tree.insert(tvals, pbuf.id(r));
        }
        records += pbuf.len();
    }
    tree.seal();
    Ok(records)
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
/// The walk pushes children in range order, so in a tree sealed in search
/// order ([`AlTree::new`]) the last-listed (largest) subtree pops first: the
/// paper's promising-subtree-first probing.
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
    find_pruner_leaf(tree, dt, None, subset, order, c_schema_vals, c_id, cache, stats, &mut stack)
        .is_some()
}

/// [`is_prunable`] with a caller-provided stack buffer, so tight loops over
/// many candidates avoid one allocation per call, returning the leaf of the
/// pruner found. With `flat` present the per-child distance comes from the
/// candidate's contiguous center row instead of the dissimilarity enum —
/// same values, same check counting.
#[allow(clippy::too_many_arguments)]
pub(crate) fn find_pruner_leaf(
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
) -> Option<NodeIdx> {
    if tree.is_empty() {
        return None;
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
    let (mut visits, mut checks, mut found) = (0u64, 0u64, None);
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
                    found = Some(s);
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
/// sparing `e`'s own id. Returns the number of evicted instances. This is
/// phase two's level-by-level walk (the scan memo of the module docs) with
/// nothing remembered, so it starts at the root.
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
    let src = DistSource::Table(dt);
    ScanMemo::new(order, subset).prune(tree, src, cache, e_schema_vals, e_id, stats)
}

/// Phase two's walk (Alg. 5) over one batch tree, done level by level and
/// remembered between scanned objects: the scan memo of the module docs.
///
/// Alg. 5's walk is exhaustive, so the nodes it reaches at depth `l + 1`,
/// and their `FoundCloser` flags, depend only on the tree and on the
/// scanned object's values at depths `..=l`. The memo keeps every depth's
/// frontier from the previous object's walk, with the visits and checks
/// spent reaching it. The next object resumes at the first depth whose
/// attribute the query selects and whose value differs from its
/// predecessor's (an unselected depth passes every child on whatever the
/// value), counts the kept depths' visits and checks again, and walks on
/// from there. Every `RunStats` counter is therefore the DFS's, and so are
/// the evicted leaves. An eviction reshapes the tree, so it drops the memo
/// and the next walk starts at the root.
pub(crate) struct ScanMemo {
    /// Each inner depth's schema attribute and whether the query selects it.
    attrs: Vec<(usize, bool)>,
    /// `depths[l]`: what the last walk reached at depth `l`.
    depths: Vec<Frontier>,
    /// Tree-order values of the object whose walk built the frontiers.
    prev: Vec<ValueId>,
    /// The depth where the last walk ended: the leaves, or the first depth
    /// it reached no node at. `depths[..=end]` hold for the tree as it is
    /// now; an eviction sets it to 0, where the root always holds.
    end: usize,
}

/// What one walk reached at one depth of the tree.
#[derive(Clone, Default)]
struct Frontier {
    /// `nodes[..len]`: the nodes reached, each with its `FoundCloser` flag.
    /// At the leaf depth only the flagged leaves are kept, since those are
    /// the ones the walk evicts from. The buffer only grows, so a walk
    /// writes into it without clearing it.
    nodes: Vec<(NodeIdx, bool)>,
    len: usize,
    /// Visits and checks the walk spent reaching this depth, its own
    /// visits included.
    visits: u64,
    checks: u64,
}

impl ScanMemo {
    /// An empty memo for walks over trees in attribute order `order`, under
    /// the query's `subset`.
    pub(crate) fn new(order: &[usize], subset: &AttrSubset) -> Self {
        let m = order.len();
        let mut depths = vec![Frontier::default(); m + 1];
        // Every walk visits the root.
        depths[0] = Frontier { nodes: vec![(ROOT, false)], len: 1, visits: 1, checks: 0 };
        Self {
            attrs: order.iter().map(|&a| (a, subset.contains(a))).collect(),
            depths,
            prev: vec![0; m],
            end: 0,
        }
    }

    /// Algorithm 5 for the scanned object `e` (schema-order values) over
    /// `tree`, which must be the tree the memo's earlier walks ran over,
    /// with no change since but this memo's own evictions. Returns the
    /// number of evicted instances, as [`prune_with`] does.
    pub(crate) fn prune(
        &mut self,
        tree: &mut AlTree,
        src: DistSource<'_>,
        cache: &QueryDistCache,
        e: &[ValueId],
        e_id: RecordId,
        stats: &mut RunStats,
    ) -> u32 {
        if tree.is_empty() {
            return 0;
        }
        let m = self.attrs.len();
        let mut l = self.resume_depth(e);
        while l < m && self.depths[l].len > 0 {
            let (attr, selected) = self.attrs[l];
            self.prev[l] = e[attr];
            let (above, below) = self.depths.split_at_mut(l + 1);
            let (cur, next) = (&above[l], &mut below[0]);
            let nodes = &cur.nodes[..cur.len];
            // Below the last inner depth only flagged leaves are kept.
            let keep_unflagged = l + 1 < m;
            let (len, reached, checks) = match (selected, src) {
                (false, _) => pass_level(tree, nodes, &mut next.nodes, keep_unflagged),
                (true, DistSource::Flat(f)) => {
                    let row = f.moving_row(attr, e[attr]);
                    let (d_e, d_q) = (|u: ValueId| row[u as usize], |u| cache.d(attr, u));
                    expand_level(tree, nodes, &mut next.nodes, keep_unflagged, d_e, d_q)
                }
                (true, DistSource::Table(dt)) => {
                    let (d_e, d_q) = (|u| dt.d(attr, e[attr], u), |u| cache.d(attr, u));
                    expand_level(tree, nodes, &mut next.nodes, keep_unflagged, d_e, d_q)
                }
            };
            next.len = len;
            next.visits = cur.visits + reached;
            next.checks = cur.checks + checks;
            l += 1;
        }
        self.end = l;
        let last = &self.depths[l];
        stats.tree_nodes_visited += last.visits;
        stats.dist_checks += last.checks;
        if l < m {
            return 0;
        }
        let mut removed = 0;
        for &(leaf, _) in &last.nodes[..last.len] {
            removed += tree.remove_leaf_except(leaf, Some(e_id));
        }
        if removed > 0 {
            self.end = 0;
        }
        removed
    }

    /// The depth at which `e`'s walk resumes: the first one whose attribute
    /// the query selects and whose value differs from the previous object's,
    /// at most the depth where the previous walk ended.
    fn resume_depth(&self, e: &[ValueId]) -> usize {
        (0..self.end)
            .find(|&l| {
                let (attr, selected) = self.attrs[l];
                selected && e[attr] != self.prev[l]
            })
            .unwrap_or(self.end)
    }
}

/// One depth of [`ScanMemo`]'s walk at a selected attribute: writes into
/// `next` every child of `cur`'s nodes whose distance `d_e` to the scanned
/// object is at most its distance `d_q` to the query, flagged when some
/// attribute on its path is strictly closer; unflagged children are kept
/// only when `keep_unflagged` is set. Returns how many entries of `next`
/// it wrote, the children reached (the next depth's visits) and the
/// distances checked. Every child is written at the top, which advances
/// only when the child is kept, so the distance test takes no branch.
#[inline]
fn expand_level(
    tree: &AlTree,
    cur: &[(NodeIdx, bool)],
    next: &mut Vec<(NodeIdx, bool)>,
    keep_unflagged: bool,
    d_e: impl Fn(ValueId) -> f64,
    d_q: impl Fn(ValueId) -> f64,
) -> (usize, u64, u64) {
    let (mut top, mut reached, mut checks) = (0, 0u64, 0u64);
    for &(s, found_closer) in cur {
        let (children, values) = tree.children_and_values(s);
        if next.len() < top + children.len() {
            next.resize(top + children.len(), (ROOT, false));
        }
        checks += children.len() as u64;
        for (&p, &u) in children.iter().zip(values) {
            let (d_pe, d_pq) = (d_e(u), d_q(u));
            let within = d_pe <= d_pq;
            let flag = found_closer | (d_pe < d_pq);
            next[top] = (p, flag);
            reached += within as u64;
            top += (within & (keep_unflagged | flag)) as usize;
        }
    }
    (top, reached, checks)
}

/// One depth of [`ScanMemo`]'s walk at an unselected attribute: no
/// constraint and no check, so every child is reached with its parent's
/// flag. Keeps, writes and counts as [`expand_level`] does.
fn pass_level(
    tree: &AlTree,
    cur: &[(NodeIdx, bool)],
    next: &mut Vec<(NodeIdx, bool)>,
    keep_unflagged: bool,
) -> (usize, u64, u64) {
    let (mut top, mut reached) = (0, 0u64);
    for &(s, found_closer) in cur {
        let children = tree.children(s);
        reached += children.len() as u64;
        if keep_unflagged || found_closer {
            if next.len() < top + children.len() {
                next.resize(top + children.len(), (ROOT, false));
            }
            for (slot, &p) in next[top..].iter_mut().zip(children) {
                *slot = (p, found_closer);
            }
            top += children.len();
        }
    }
    (top, reached, 0)
}

/// The depth-first Alg. 5 walk that [`ScanMemo`] replaced, kept as the
/// reference its tests compare against. With `flat` present the per-child
/// distance comes from the scanned object's contiguous moving row — same
/// values, same check counting.
#[cfg(test)]
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
        let tree = batch1_tree();
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

    /// Phase one of one sealed batch tree over `rows` (ids and schema-order
    /// values): the emitted rows, in emission order, and the run's counters.
    fn phase1_rows(
        rows: &[(RecordId, Vec<ValueId>)],
        ds: &rsky_core::dataset::Dataset,
        q: &Query,
        order: &[usize],
        opts: TrsOptions,
    ) -> (Vec<Vec<u32>>, RunStats) {
        let m = order.len();
        let mut tree = opts.batch_tree(m);
        let mut tvals = vec![0u32; m];
        for (id, vals) in rows {
            for (l, &a) in order.iter().enumerate() {
                tvals[l] = vals[a];
            }
            tree.insert(&tvals, *id);
        }
        tree.seal();
        let cache = QueryDistCache::new(&ds.dissim, &ds.schema, q);
        let kern = crate::kernels::PrunerKernel::new(&ds.schema, &ds.dissim);
        let (mut out, mut stats) = (Vec::new(), RunStats::default());
        phase1_tree_batch(
            &tree, &ds.dissim, kern.flat(), &q.subset, order, opts, &cache, &mut stats,
            |row| {
                out.push(row.to_vec());
                Ok(())
            },
        )
        .unwrap();
        (out, stats)
    }

    #[test]
    fn witness_probe_emits_the_walks_rows() {
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        let mut rng = StdRng::seed_from_u64(39);
        // Normal 4 × 8 plus exact duplicates under fresh ids and rows
        // inserted twice under one id.
        let mut normal = rsky_data::synthetic::normal_dataset(4, 8, 300, &mut rng).unwrap();
        for k in 0..40 {
            let vals = normal.rows.values(k * 7).to_vec();
            normal.rows.push(1000 + k as RecordId, &vals);
        }
        for k in 0..10 {
            let (id, vals) = (normal.rows.id(k * 11), normal.rows.values(k * 11).to_vec());
            normal.rows.push(id, &vals);
        }
        let census = rsky_data::census_income_like(400, &mut rng).unwrap();
        let forest = rsky_data::forest_cover_like(400, &mut rng).unwrap();
        // Each group shares its rows and queries; the normal rows run under
        // both linear twins, so both distance sources are covered.
        let (flat_twin, wide_twin) = rsky_data::twin::linear_twins(&normal).unwrap();
        let groups = [
            (&normal, vec![flat_twin, wide_twin], vec![1, 3]),
            (&census, vec![], vec![0, 2, 4]),
            (&forest, vec![], vec![1, 3, 5]),
        ];
        let (mut flat_runs, mut table_runs) = (0, 0);
        let (mut visits_on, mut visits_off) = (0, 0);
        for (base, twins, subset) in groups {
            let mut queries = rsky_data::random_queries(&base.schema, 2, &mut rng).unwrap();
            queries.extend(
                rsky_data::workload::random_subset_queries(&base.schema, &subset, 2, &mut rng)
                    .unwrap(),
            );
            let sets = if twins.is_empty() { vec![base.clone()] } else { twins };
            for ds in &sets {
                let order = rsky_order::ascending_cardinality_order(&ds.schema);
                let rows: Vec<(RecordId, Vec<ValueId>)> = (0..ds.rows.len())
                    .map(|i| (ds.rows.id(i), ds.rows.values(i).to_vec()))
                    .collect();
                match crate::kernels::PrunerKernel::new(&ds.schema, &ds.dissim).flat() {
                    Some(_) => flat_runs += 1,
                    None => table_runs += 1,
                }
                for q in &queries {
                    // One tree over every row, and batches of 64 rows.
                    for batch in [rows.len(), 64] {
                        for chunk in rows.chunks(batch) {
                            let run = |witness_first| {
                                let opts = TrsOptions { witness_first, ..TrsOptions::default() };
                                phase1_rows(chunk, ds, q, &order, opts)
                            };
                            let (on, on_stats) = run(true);
                            let (off, off_stats) = run(false);
                            assert_eq!(on, off, "{}: {:?}", ds.label, q.subset.indices());
                            assert_eq!(on_stats.obj_comparisons, off_stats.obj_comparisons);
                            visits_on += on_stats.tree_nodes_visited;
                            visits_off += off_stats.tree_nodes_visited;
                        }
                    }
                }
            }
        }
        assert!(flat_runs > 0 && table_runs > 0, "both distance sources ran");
        assert!(visits_on < visits_off, "the probe spared walks ({visits_on} vs {visits_off})");
    }

    #[test]
    fn witness_probe_skips_the_candidates_own_single_leaf() {
        // Tree order [DB, CPU, OS]: O2 [RHL, AMD, Informix] is visited before
        // O1 [MSW, AMD, DB2], and O1 prunes O2 but nothing prunes O1. O2's
        // walk makes O1's leaf the witness that O1 is then tested against.
        let (ds, q) = paper_ctx();
        let order = [2, 1, 0];
        let (o2, o1) = ((2, vec![1, 0, 0]), (1, vec![0, 0, 1]));
        for witness_first in [true, false] {
            let opts = TrsOptions { witness_first, ..TrsOptions::default() };
            let (rows, _) = phase1_rows(&[o2.clone(), o1.clone()], &ds, &q, &order, opts);
            assert_eq!(rows, vec![vec![1, 0, 0, 1]], "O1 survives (probe {witness_first})");
            // O4 duplicates O1: the witness leaf holds two ids, and both
            // copies are pruned, O1 by O4 and O4 by O1.
            let (rows, stats) =
                phase1_rows(&[o2.clone(), o1.clone(), (4, o1.1.clone())], &ds, &q, &order, opts);
            assert_eq!(rows, Vec::<Vec<u32>>::new(), "O1 and O4 pruned (probe {witness_first})");
            // Each walk visits 4 nodes; with the probe, O1's leaf is pruned
            // by its witness (3 checks) and gets no walk.
            let (visits, checks) = if witness_first { (4, 7) } else { (8, 8) };
            assert_eq!((stats.tree_nodes_visited, stats.dist_checks), (visits, checks));
        }
    }

    /// What the probe-reference test saw happen across its cases.
    #[derive(Default)]
    struct ProbeCoverage {
        flat_runs: usize,
        table_runs: usize,
        /// Batches whose query does not select the leaf-level attribute,
        /// and those where it is the first selected attribute in schema
        /// order or a later one.
        leaf_unselected: usize,
        leaf_first: usize,
        leaf_later: usize,
        /// Batches over a one-attribute schema (every leaf's parent is the
        /// root).
        one_attr: usize,
        /// Probes where a witness is the candidate's own single-id leaf, and
        /// where it is the candidate's own leaf holding duplicates.
        own_single_leaf: usize,
        own_duplicate_leaf: usize,
        /// Probed leaves that are their parent's only child, and those that
        /// are not.
        only_child: usize,
        with_sibling: usize,
        /// Witness tests that found their parent's path already tested.
        cached: usize,
        /// Hits, and witnesses evicted from a full pool.
        hits: usize,
        evictions: usize,
    }

    /// Phase one of `tree` twice: through [`phase1_tree_batch`], and through
    /// a copy of its loop that at every leaf runs both the pool's probe and
    /// the per-leaf reference [`witness_prunes`] over the pool's witnesses,
    /// asserting the same hit position and the same counted checks. Then
    /// asserts that both emitted the same rows and counted the same totals.
    fn assert_probe_matches_reference(
        tree: &AlTree,
        ds: &rsky_core::dataset::Dataset,
        q: &Query,
        order: &[usize],
        cov: &mut ProbeCoverage,
    ) {
        let (m, subset) = (order.len(), &q.subset);
        let what = format!("{} {:?}", ds.label, subset.indices());
        let cache = QueryDistCache::new(&ds.dissim, &ds.schema, q);
        let kern = crate::kernels::PrunerKernel::new(&ds.schema, &ds.dissim);
        let flat = kern.flat();
        let src = match flat {
            Some(f) => {
                cov.flat_runs += 1;
                DistSource::Flat(f)
            }
            None => {
                cov.table_runs += 1;
                DistSource::Table(&ds.dissim)
            }
        };
        let leaf_attr = order[m - 1];
        match subset.indices().iter().position(|&a| a == leaf_attr) {
            None => cov.leaf_unselected += 1,
            Some(0) => cov.leaf_first += 1,
            Some(_) => cov.leaf_later += 1,
        }
        cov.one_attr += usize::from(m == 1);

        let (mut engine_rows, mut engine_stats) = (Vec::new(), RunStats::default());
        phase1_tree_batch(
            tree, &ds.dissim, flat, subset, order, TrsOptions::default(), &cache,
            &mut engine_stats,
            |row| {
                engine_rows.push(row.to_vec());
                Ok(())
            },
        )
        .unwrap();

        let mut path = CandidatePath::new(src, subset, order, &cache);
        let mut pool = WitnessPool::default();
        let (mut rows, mut stats) = (Vec::<Vec<u32>>::new(), RunStats::default());
        let (mut dqx, mut crows, mut stack) = (Vec::new(), Vec::new(), Vec::new());
        let mut dfs = vec![ROOT];
        while let Some(n) = dfs.pop() {
            let level = tree.level(n) as usize;
            if level > 0 {
                path.set(level - 1, tree.value(n));
            }
            if !tree.is_leaf(n) {
                dfs.extend(tree.children(n).iter().rev());
                continue;
            }
            let (ids, parent) = (tree.leaf_ids(n), tree.parent(n));
            stats.obj_comparisons += ids.len() as u64;
            let witnesses: Vec<(NodeIdx, Vec<ValueId>)> = pool
                .witnesses
                .iter()
                .map(|w| {
                    let mut y = vec![0; m];
                    leaf_schema_values(tree, w.leaf, order, &mut y);
                    (w.leaf, y)
                })
                .collect();
            if witnesses.iter().any(|(w, _)| *w == n) {
                match ids.len() {
                    1 => cov.own_single_leaf += 1,
                    _ => cov.own_duplicate_leaf += 1,
                }
            }
            if !witnesses.is_empty() {
                match tree.children(parent).len() {
                    1 => cov.only_child += 1,
                    _ => cov.with_sibling += 1,
                }
            }
            cov.cached += pool.witnesses.iter().filter(|w| w.parent == parent).count();
            let (mut want_checks, mut got_checks) = (0, 0);
            let want = witness_prunes(
                &witnesses, src, subset, &cache, n, ids.len(), &path.c, &mut dqx, &mut crows,
                &mut want_checks,
            );
            let got = pool.probe(&path, n, parent, ids.len(), &mut got_checks);
            assert_eq!((got, got_checks), (want, want_checks), "{what}: leaf {n}");
            stats.dist_checks += got_checks;
            if let Some(k) = got {
                cov.hits += 1;
                pool.promote(k);
                continue;
            }
            match find_pruner_leaf(
                tree, &ds.dissim, flat, subset, order, &path.c, ids[0], &cache, &mut stats,
                &mut stack,
            ) {
                Some(p) => {
                    cov.evictions += usize::from(pool.witnesses.len() == WITNESS_POOL);
                    pool.admit(tree, p, &path);
                }
                None => rows.extend(ids.iter().map(|&id| {
                    let mut row = vec![id];
                    row.extend_from_slice(&path.c);
                    row
                })),
            }
        }
        assert_eq!(rows, engine_rows, "{what}");
        let totals = |s: &RunStats| (s.dist_checks, s.tree_nodes_visited, s.obj_comparisons);
        assert_eq!(totals(&stats), totals(&engine_stats), "{what}");
    }

    #[test]
    fn witness_pool_matches_the_per_leaf_probe() {
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        let mut rng = StdRng::seed_from_u64(41);
        // Exact duplicates under fresh ids of every 7th row, and rows
        // inserted twice under one id.
        let with_duplicates = |mut ds: rsky_core::dataset::Dataset| {
            for (k, i) in (0..ds.rows.len()).step_by(7).enumerate() {
                let vals = ds.rows.values(i).to_vec();
                ds.rows.push(10_000 + k as RecordId, &vals);
            }
            for i in (0..ds.rows.len()).step_by(31) {
                let (id, vals) = (ds.rows.id(i), ds.rows.values(i).to_vec());
                ds.rows.push(id, &vals);
            }
            ds
        };
        let normal =
            with_duplicates(rsky_data::synthetic::normal_dataset(4, 8, 300, &mut rng).unwrap());
        // The normal rows run under both linear twins, so both distance
        // sources are covered; their leaf-level attribute is the last in
        // schema order, Census-like data's the first.
        let (flat_twin, wide_twin) = rsky_data::twin::linear_twins(&normal).unwrap();
        let census = with_duplicates(rsky_data::census_income_like(400, &mut rng).unwrap());
        let forest = with_duplicates(rsky_data::forest_cover_like(400, &mut rng).unwrap());
        let single = with_duplicates(rsky_data::synthetic::normal_dataset(1, 12, 60, &mut rng).unwrap());
        let mut cov = ProbeCoverage::default();
        for ds in [&flat_twin, &wide_twin, &census, &forest, &single] {
            let m = ds.schema.num_attrs();
            let order = rsky_order::ascending_cardinality_order(&ds.schema);
            // Full queries, and subset queries without the leaf-level
            // attribute and without the first tree level's.
            let mut queries = rsky_data::random_queries(&ds.schema, 2, &mut rng).unwrap();
            for dropped in [order[m - 1], order[0]] {
                let keep: Vec<usize> = (0..m).filter(|&a| a != dropped).collect();
                if !keep.is_empty() {
                    queries.extend(
                        rsky_data::workload::random_subset_queries(&ds.schema, &keep, 1, &mut rng)
                            .unwrap(),
                    );
                }
            }
            let mut sorted = ds.rows.clone();
            rsky_order::sort_rows_lex(&mut sorted, &order);
            for q in &queries {
                // One tree over every row in arrival order, and trees of 64
                // multi-sorted rows, as the engine's batches.
                for (rows, batch) in [(&ds.rows, ds.rows.len()), (&sorted, 64)] {
                    for start in (0..rows.len()).step_by(batch) {
                        let mut tree = AlTree::new(m);
                        let mut tvals = vec![0u32; m];
                        for i in start..(start + batch).min(rows.len()) {
                            for (l, &a) in order.iter().enumerate() {
                                tvals[l] = rows.values(i)[a];
                            }
                            tree.insert(&tvals, rows.id(i));
                        }
                        tree.seal();
                        assert_probe_matches_reference(&tree, ds, q, &order, &mut cov);
                    }
                }
            }
        }
        let c = &cov;
        assert!(c.flat_runs > 0 && c.table_runs > 0, "both distance sources ran");
        assert!(c.leaf_unselected > 0, "queries left the leaf-level attribute out");
        assert!(c.leaf_first > 0 && c.leaf_later > 0, "the leaf-level attribute came first and later");
        assert!(c.one_attr > 0, "one-attribute trees ran");
        assert!(c.own_single_leaf > 0, "witnesses met their own single-id leaves");
        assert!(c.own_duplicate_leaf > 0, "witnesses met their own duplicate leaves");
        assert!(c.only_child > c.with_sibling / 10 && c.with_sibling > 0, "sparse and dense leaves");
        assert!(c.cached > 0, "witnesses reused their parent's path test");
        assert!(c.hits > 0 && c.evictions > 0, "the pool hit, filled and evicted");
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

    /// What the scan-memo test saw happen across its cases.
    #[derive(Default)]
    struct MemoCoverage {
        flat_runs: usize,
        table_runs: usize,
        /// Walks that resumed below the root, and those that resumed at the
        /// leaves (an object equal to its predecessor on every selected
        /// attribute).
        resumed: usize,
        resumed_at_leaves: usize,
        /// Scans of an object whose own id sits alone at its leaf.
        own_single_leaf: usize,
        /// Pages on which the tree emptied before their last object.
        emptied_mid_page: usize,
    }

    /// Scans every row of `scan` past the batch tree of `tree_rows`, page by
    /// page as [`phase2_tree_batch`] does, once with the DFS reference and
    /// once with a [`ScanMemo`], each on its own clone of the tree, and
    /// asserts after every object that both evicted the same ids, left the
    /// same ids and spent the same visits and checks. Then runs
    /// [`phase2_tree_batch`] itself over the same pages and asserts the
    /// reference's result and counters.
    fn assert_memo_matches_dfs(
        ds: &rsky_core::dataset::Dataset,
        q: &Query,
        tree_rows: &RowBuf,
        scan: &RowBuf,
        cov: &mut MemoCoverage,
    ) {
        const PAGE: usize = 16;
        let m = ds.schema.num_attrs();
        let order = rsky_order::ascending_cardinality_order(&ds.schema);
        let mut tree = AlTree::new(m);
        let (mut page, mut pbuf, mut tvals) = (0, RowBuf::new(m), vec![0u32; m]);
        let one_page = |_, buf: &mut RowBuf| {
            buf.clone_from(tree_rows);
            Ok(())
        };
        load_batch_into_tree_with(one_page, &order, &mut page, 1, 0, &mut tree, &mut pbuf, &mut tvals)
            .unwrap();
        let cache = QueryDistCache::new(&ds.dissim, &ds.schema, q);
        let kern = crate::kernels::PrunerKernel::new(&ds.schema, &ds.dissim);
        let src = match kern.flat() {
            Some(f) => {
                cov.flat_runs += 1;
                DistSource::Flat(f)
            }
            None => {
                cov.table_runs += 1;
                DistSource::Table(&ds.dissim)
            }
        };
        let sorted_ids = |t: &AlTree| {
            let mut ids = t.collect_ids();
            ids.sort_unstable();
            ids
        };
        let (mut dfs_tree, mut memo_tree) = (tree.clone(), tree.clone());
        let (mut dfs_stats, mut memo_stats) = (RunStats::default(), RunStats::default());
        let mut memo = ScanMemo::new(&order, &q.subset);
        let mut stack = Vec::new();
        let pages: Vec<std::ops::Range<usize>> =
            (0..scan.len()).step_by(PAGE).map(|s| s..(s + PAGE).min(scan.len())).collect();
        let row_of: std::collections::HashMap<RecordId, usize> =
            (0..scan.len()).map(|i| (scan.id(i), i)).collect();
        let what = format!("{} {:?}", ds.label, q.subset.indices());
        for page in &pages {
            if dfs_tree.is_empty() {
                break;
            }
            for ei in page.clone() {
                let (e, e_id) = (scan.values(ei), scan.id(ei));
                let before = sorted_ids(&dfs_tree);
                let twins = before.iter().filter(|id| scan.values(row_of[id]) == e).count();
                if before.binary_search(&e_id).is_ok() && twins == 1 {
                    cov.own_single_leaf += 1;
                }
                if !memo_tree.is_empty() && memo.end > 0 {
                    let depth = memo.resume_depth(e);
                    cov.resumed += usize::from(depth > 0);
                    cov.resumed_at_leaves += usize::from(depth == m);
                }
                let (v0, c0) = (dfs_stats.tree_nodes_visited, dfs_stats.dist_checks);
                let dfs_removed = prune_with_stack(
                    &mut dfs_tree, &ds.dissim, kern.flat(), &q.subset, &order, e, e_id, &cache,
                    &mut dfs_stats, &mut stack,
                );
                let (w0, k0) = (memo_stats.tree_nodes_visited, memo_stats.dist_checks);
                let memo_removed =
                    memo.prune(&mut memo_tree, src, &cache, e, e_id, &mut memo_stats);
                let after = sorted_ids(&dfs_tree);
                let evicted = |left: &[RecordId]| -> Vec<RecordId> {
                    before.iter().copied().filter(|id| left.binary_search(id).is_err()).collect()
                };
                let memo_after = sorted_ids(&memo_tree);
                assert_eq!(evicted(&memo_after), evicted(&after), "{what}: object {e_id}");
                assert_eq!(memo_after, after, "{what}: object {e_id}");
                assert_eq!(memo_removed, dfs_removed, "{what}: object {e_id}");
                assert_eq!(
                    (memo_stats.tree_nodes_visited - w0, memo_stats.dist_checks - k0),
                    (dfs_stats.tree_nodes_visited - v0, dfs_stats.dist_checks - c0),
                    "{what}: visits and checks of object {e_id}"
                );
                memo_tree.check_invariants().unwrap();
                if after.is_empty() && !before.is_empty() && ei + 1 < page.end {
                    // The page's later objects meet an empty tree.
                    cov.emptied_mid_page += 1;
                }
            }
        }
        // The whole batch through the engine's own page loop.
        let mut batch_tree = tree.clone();
        let (mut batch_stats, mut ids) = (RunStats::default(), Vec::new());
        phase2_tree_batch(
            &mut batch_tree, src, &q.subset, &order, &cache,
            pages.len() as u64,
            |p, buf| {
                for i in pages[p as usize].clone() {
                    buf.push(scan.id(i), scan.values(i));
                }
                Ok(())
            },
            &mut batch_stats, &mut ids,
        )
        .unwrap();
        assert_eq!(ids, dfs_tree.collect_ids(), "{what}");
        assert_eq!(
            (batch_stats.tree_nodes_visited, batch_stats.dist_checks),
            (dfs_stats.tree_nodes_visited, dfs_stats.dist_checks),
            "{what}"
        );
    }

    #[test]
    fn scan_memo_matches_the_dfs_object_by_object() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(40);
        // Exact duplicates under fresh ids of every 7th row: a tree of the
        // duplicated rows empties once their twins are scanned.
        let with_duplicates = |mut ds: rsky_core::dataset::Dataset| {
            let n = ds.rows.len();
            let mut originals = RowBuf::new(ds.schema.num_attrs());
            for (k, i) in (0..n).step_by(7).enumerate() {
                let (id, vals) = (ds.rows.id(i), ds.rows.values(i).to_vec());
                originals.push(id, &vals);
                ds.rows.push(10_000 + k as RecordId, &vals);
            }
            (ds, originals)
        };
        let (normal, normal_dups) =
            with_duplicates(rsky_data::synthetic::normal_dataset(4, 8, 300, &mut rng).unwrap());
        let (census, census_dups) =
            with_duplicates(rsky_data::census_income_like(400, &mut rng).unwrap());
        // The normal rows run under both linear twins, so both distance
        // sources are covered.
        let (flat_twin, wide_twin) = rsky_data::twin::linear_twins(&normal).unwrap();
        let mut cov = MemoCoverage::default();
        let cases = [(&flat_twin, &normal_dups), (&wide_twin, &normal_dups), (&census, &census_dups)];
        for (ds, dups) in cases {
            let order = rsky_order::ascending_cardinality_order(&ds.schema);
            // Full queries, and subset queries without the first tree level's
            // attribute and without the last's.
            let mut queries = rsky_data::random_queries(&ds.schema, 2, &mut rng).unwrap();
            for dropped in [order[0], order[order.len() - 1]] {
                let keep: Vec<usize> =
                    (0..ds.schema.num_attrs()).filter(|&a| a != dropped).collect();
                queries.extend(
                    rsky_data::workload::random_subset_queries(&ds.schema, &keep, 1, &mut rng)
                        .unwrap(),
                );
            }
            // Scan orders: multi-sorted, tiled and shuffled.
            let mut sorted = ds.rows.clone();
            rsky_order::sort_rows_lex(&mut sorted, &order);
            let mut tiled = ds.rows.clone();
            let tiles = rsky_order::TileConfig::uniform(&ds.schema, 2).unwrap();
            rsky_order::tiling::sort_rows_tiled(&mut tiled, &tiles, &order);
            let mut shuffled = RowBuf::new(ds.schema.num_attrs());
            let mut perm: Vec<usize> = (0..ds.rows.len()).collect();
            for i in (1..perm.len()).rev() {
                perm.swap(i, rng.gen_range(0..=i));
            }
            for &i in &perm {
                shuffled.push(ds.rows.id(i), ds.rows.values(i));
            }
            for q in &queries {
                for scan in [&sorted, &tiled, &shuffled] {
                    // A tree of every 4th scanned row (the scanned objects
                    // include the tree's own), and one of the duplicated rows.
                    let mut sample = RowBuf::new(ds.schema.num_attrs());
                    for i in (0..scan.len()).step_by(4) {
                        sample.push(scan.id(i), scan.values(i));
                    }
                    assert_memo_matches_dfs(ds, q, &sample, scan, &mut cov);
                    assert_memo_matches_dfs(ds, q, dups, scan, &mut cov);
                }
            }
        }
        let c = &cov;
        assert!(c.flat_runs > 0 && c.table_runs > 0, "both distance sources ran");
        assert!(c.resumed > 0 && c.resumed_at_leaves > 0, "walks resumed below the root");
        assert!(c.own_single_leaf > 0, "objects met their own single-id leaves");
        assert!(c.emptied_mid_page > 0, "a tree emptied part-way through a page");
    }
}
