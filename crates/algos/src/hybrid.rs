//! Numeric attributes via discretization inside the TRS framework
//! (Section 6).
//!
//! Group-level reasoning needs many objects per group, which continuous
//! domains do not give. The paper's fix: **discretize** each numeric
//! attribute into buckets, build the AL-Tree over `(categorical values,
//! bucket ids)`, and
//!
//! * in **phase one**, replace the exact per-attribute check with a
//!   bucket-bound check that only qualifies a subtree when *every* value in
//!   the bucket is guaranteed at most as dissimilar as the query
//!   ("obviously stronger than a check on the dissimilarities between the
//!   actual values. Thus, there could be more false positives among first
//!   phase results; these are refined in the second phase");
//! * in **phase two**, keep the **actual numeric values** at the leaves and
//!   evict with exact checks.
//!
//! ## A soundness refinement over the paper
//!
//! The paper writes the phase-one bound as corner evaluations
//! `max{d(c.l, p.u), d(c.u, p.l)} ≤ min{d(c.l, q.u), d(c.u, q.l)}`. For
//! `d = |·−·|` the corner *min* on the right over-estimates the true minimum
//! when `q` falls inside `c`'s bucket (the true minimum is 0), which could
//! prune a true result. We use the exact candidate value on the left-hand
//! center (candidates are enumerated from leaves, where exact values are
//! available) and the true interval bounds, so phase one only ever
//! over-*retains* — the direction phase two can fix. Recorded in DESIGN.md.
//!
//! Numeric dissimilarity is absolute difference; categorical attributes keep
//! their arbitrary non-metric matrices, so the engine exercises genuinely
//! mixed schemas.

use rsky_altree::{AlTree, NodeIdx, ROOT};
use rsky_core::dissim::DissimTable;
use rsky_core::error::{Error, Result};
use rsky_core::record::{RecordId, RowBuf, ValueId};
use rsky_core::schema::Schema;
use rsky_core::stats::RunStats;

/// One numeric attribute: value range and bucket count for discretization.
#[derive(Debug, Clone, PartialEq)]
pub struct NumericAttr {
    /// Inclusive lower bound of the domain.
    pub lo: f64,
    /// Inclusive upper bound of the domain.
    pub hi: f64,
    /// Number of equi-width buckets.
    pub buckets: u32,
}

impl NumericAttr {
    /// Creates a numeric attribute descriptor.
    pub fn new(lo: f64, hi: f64, buckets: u32) -> Result<Self> {
        if lo >= hi || buckets == 0 || !lo.is_finite() || !hi.is_finite() {
            return Err(Error::InvalidConfig(format!(
                "invalid numeric attribute: lo={lo}, hi={hi}, buckets={buckets}"
            )));
        }
        Ok(Self { lo, hi, buckets })
    }

    /// Bucket id of `v` (values clamped into `[lo, hi]`).
    pub fn bucket(&self, v: f64) -> u32 {
        let v = v.clamp(self.lo, self.hi);
        let t = (v - self.lo) / (self.hi - self.lo);
        ((t * self.buckets as f64) as u32).min(self.buckets - 1)
    }

    /// Inclusive value bounds of bucket `b`.
    pub fn bounds(&self, b: u32) -> (f64, f64) {
        let w = (self.hi - self.lo) / self.buckets as f64;
        (self.lo + b as f64 * w, self.lo + (b + 1) as f64 * w)
    }
}

/// Absolute-difference bounds between a point and an interval.
fn point_interval_minmax(c: f64, lo: f64, hi: f64) -> (f64, f64) {
    let min = if c < lo {
        lo - c
    } else if c > hi {
        c - hi
    } else {
        0.0
    };
    let max = (c - lo).abs().max((c - hi).abs());
    (min, max)
}

/// A dataset mixing non-metric categorical attributes with numeric ones.
///
/// Record ids must be dense `0..n`: numeric values are stored columnar and
/// indexed by id (`num[id * num_attrs + k]`).
#[derive(Debug, Clone)]
pub struct HybridDataset {
    /// Categorical side (schema + arbitrary matrices).
    pub cat_schema: Schema,
    /// Categorical dissimilarities.
    pub dissim: DissimTable,
    /// Numeric attribute descriptors.
    pub num_attrs: Vec<NumericAttr>,
    /// Categorical rows (ids `0..n`).
    pub cat_rows: RowBuf,
    /// Numeric values, row-major by record id.
    pub num: Vec<f64>,
}

impl HybridDataset {
    /// Validates shape invariants (dense ids, matching lengths).
    pub fn validate(&self) -> Result<()> {
        let n = self.cat_rows.len();
        if self.num.len() != n * self.num_attrs.len() {
            return Err(Error::SchemaMismatch(format!(
                "{} numeric values for {n} rows × {} attributes",
                self.num.len(),
                self.num_attrs.len()
            )));
        }
        for i in 0..n {
            if self.cat_rows.id(i) != i as u32 {
                return Err(Error::SchemaMismatch("record ids must be dense 0..n".into()));
            }
        }
        self.cat_rows.validate(&self.cat_schema)
    }

    /// Numeric vector of record `id`.
    #[inline]
    pub fn num_of(&self, id: RecordId) -> &[f64] {
        let k = self.num_attrs.len();
        &self.num[id as usize * k..(id as usize + 1) * k]
    }
}

/// A query over a hybrid dataset: categorical + numeric target values.
#[derive(Debug, Clone, PartialEq)]
pub struct HybridQuery {
    /// Categorical values, one per categorical attribute.
    pub cat: Vec<ValueId>,
    /// Numeric values, one per numeric attribute.
    pub num: Vec<f64>,
}

/// Exact pruning predicate on a hybrid dataset: does `y` prune `x`
/// (`y ≻_x q`) across both attribute kinds?
pub fn prunes_exact(
    ds: &HybridDataset,
    q: &HybridQuery,
    y_cat: &[ValueId],
    y_num: &[f64],
    x_cat: &[ValueId],
    x_num: &[f64],
    checks: &mut u64,
) -> bool {
    let mut strict = false;
    for i in 0..ds.cat_schema.num_attrs() {
        *checks += 2;
        let dyx = ds.dissim.d(i, y_cat[i], x_cat[i]);
        let dqx = ds.dissim.d(i, q.cat[i], x_cat[i]);
        if dyx > dqx {
            return false;
        }
        if dyx < dqx {
            strict = true;
        }
    }
    for k in 0..ds.num_attrs.len() {
        *checks += 2;
        let dyx = (y_num[k] - x_num[k]).abs();
        let dqx = (q.num[k] - x_num[k]).abs();
        if dyx > dqx {
            return false;
        }
        if dyx < dqx {
            strict = true;
        }
    }
    strict
}

/// Definitional oracle on hybrid data (`O(n²)`), for tests and benches.
pub fn hybrid_oracle(ds: &HybridDataset, q: &HybridQuery) -> Vec<RecordId> {
    let n = ds.cat_rows.len();
    let mut checks = 0;
    let mut out = Vec::new();
    'cand: for i in 0..n {
        for j in 0..n {
            if i == j {
                continue;
            }
            if prunes_exact(
                ds,
                q,
                ds.cat_rows.values(j),
                ds.num_of(j as u32),
                ds.cat_rows.values(i),
                ds.num_of(i as u32),
                &mut checks,
            ) {
                continue 'cand;
            }
        }
        out.push(i as u32);
    }
    out
}

/// Two-phase discretized TRS over hybrid data (Section 6), processing
/// `batch_records` objects per batch tree. Returns the exact reverse skyline
/// plus run counters (phase-one survivor count in `phase1_survivors`).
///
/// ```
/// use rsky_algos::hybrid::{hybrid_trs, HybridDataset, HybridQuery, NumericAttr};
/// use rsky_core::dissim::{AttrDissim, DissimTable};
/// use rsky_core::record::RowBuf;
/// use rsky_core::schema::Schema;
///
/// // One categorical flag + one numeric price.
/// let cat_schema = Schema::with_cardinalities(&[2]).unwrap();
/// let dissim = DissimTable::new(&cat_schema, vec![AttrDissim::Identity]).unwrap();
/// let mut cat_rows = RowBuf::new(1);
/// cat_rows.push(0, &[0]);
/// cat_rows.push(1, &[0]);
/// cat_rows.push(2, &[1]);
/// let ds = HybridDataset {
///     cat_schema,
///     dissim,
///     num_attrs: vec![NumericAttr::new(0.0, 100.0, 4).unwrap()],
///     cat_rows,
///     num: vec![10.0, 55.0, 30.0],
/// };
/// let q = HybridQuery { cat: vec![0], num: vec![30.0] };
/// let (ids, _stats) = hybrid_trs(&ds, &q, 2).unwrap();
/// // Record 2 matches the query's price region but the wrong flag; 0 and 1
/// // bracket the price — all fates decided by exact, non-metric domination.
/// assert_eq!(ids, rsky_algos::hybrid::hybrid_oracle(&ds, &q));
/// ```
pub fn hybrid_trs(
    ds: &HybridDataset,
    q: &HybridQuery,
    batch_records: usize,
) -> Result<(Vec<RecordId>, RunStats)> {
    ds.validate()?;
    if q.cat.len() != ds.cat_schema.num_attrs() || q.num.len() != ds.num_attrs.len() {
        return Err(Error::SchemaMismatch("hybrid query arity mismatch".into()));
    }
    let batch = batch_records.max(1);
    let n = ds.cat_rows.len();
    let mc = ds.cat_schema.num_attrs();
    let mn = ds.num_attrs.len();
    let depth = mc + mn;
    let mut stats = RunStats::default();
    let t0 = std::time::Instant::now();

    // --- Phase one: bucket-conservative intra-batch pruning ----------------
    let mut survivors: Vec<RecordId> = Vec::new();
    let mut tvals = vec![0u32; depth];
    let mut start = 0;
    while start < n {
        let end = (start + batch).min(n);
        let mut tree = AlTree::new(depth);
        for i in start..end {
            encode(ds, i as u32, &mut tvals);
            tree.insert(&tvals, i as u32);
        }
        tree.seal();
        stats.phase1_batches += 1;
        for i in start..end {
            stats.obj_comparisons += 1;
            if !is_prunable_hybrid(&tree, ds, q, i as u32, &mut stats) {
                survivors.push(i as u32);
            }
        }
        start = end;
    }
    stats.phase1_survivors = survivors.len();

    // --- Phase two: exact refinement against a full pass -------------------
    let mut result = Vec::new();
    let mut sstart = 0;
    while sstart < survivors.len() {
        let send = (sstart + batch).min(survivors.len());
        let mut tree = AlTree::new(depth);
        for &id in &survivors[sstart..send] {
            encode(ds, id, &mut tvals);
            tree.insert(&tvals, id);
        }
        tree.seal();
        stats.phase2_batches += 1;
        for e in 0..n as u32 {
            if tree.is_empty() {
                break;
            }
            stats.obj_comparisons += 1;
            prune_hybrid(&mut tree, ds, q, e, &mut stats);
        }
        result.extend(tree.collect_ids());
        sstart = send;
    }
    result.sort_unstable();
    stats.result_size = result.len();
    stats.total_time = t0.elapsed();
    Ok((result, stats))
}

/// Tree encoding of record `id`: categorical value ids, then numeric bucket
/// ids.
fn encode(ds: &HybridDataset, id: RecordId, out: &mut [u32]) {
    let mc = ds.cat_schema.num_attrs();
    out[..mc].copy_from_slice(ds.cat_rows.values(id as usize));
    for (k, na) in ds.num_attrs.iter().enumerate() {
        out[mc + k] = na.bucket(ds.num_of(id)[k]);
    }
}

/// Phase-one check: is candidate `c_id` *certainly* pruned by some tree
/// object? Categorical levels use exact checks; numeric levels qualify a
/// bucket only when its entire range is at most as dissimilar to the
/// candidate as the query is (strict flag only when the whole range is
/// strictly closer). The batch tree is sealed in search order
/// ([`AlTree::new`]), so pushing its children in range order pops the
/// largest subtree first.
fn is_prunable_hybrid(
    tree: &AlTree,
    ds: &HybridDataset,
    q: &HybridQuery,
    c_id: RecordId,
    stats: &mut RunStats,
) -> bool {
    let mc = ds.cat_schema.num_attrs();
    let c_cat = ds.cat_rows.values(c_id as usize);
    let c_num = ds.num_of(c_id);
    let mut stack: Vec<(NodeIdx, bool)> = vec![(ROOT, false)];
    while let Some((s, found_closer)) = stack.pop() {
        if tree.is_leaf(s) {
            if found_closer {
                let ids = tree.leaf_ids(s);
                if ids.len() > 1 || ids[0] != c_id {
                    return true;
                }
            }
            continue;
        }
        // Children of `s` fix attribute `level(s)` of the tree encoding.
        let level = tree.level(s) as usize;
        let (children, values) = tree.children_and_values(s);
        for (&p, &u) in children.iter().zip(values) {
            if level < mc {
                stats.dist_checks += 1;
                let d_pc = ds.dissim.d(level, u, c_cat[level]);
                let d_qc = ds.dissim.d(level, q.cat[level], c_cat[level]);
                if d_pc <= d_qc {
                    stack.push((p, found_closer || d_pc < d_qc));
                }
            } else {
                let k = level - mc;
                stats.dist_checks += 1;
                let (blo, bhi) = ds.num_attrs[k].bounds(u);
                let (_, max_pc) = point_interval_minmax(c_num[k], blo, bhi);
                let d_qc = (q.num[k] - c_num[k]).abs();
                if max_pc <= d_qc {
                    stack.push((p, found_closer || max_pc < d_qc));
                }
            }
        }
    }
    false
}

/// Phase-two eviction: remove from the tree every object *exactly* pruned by
/// `e`. Traversal descends any subtree that could possibly contain a pruned
/// object (numeric levels use interval bounds both ways); leaves are decided
/// with exact checks on the stored numeric values.
fn prune_hybrid(
    tree: &mut AlTree,
    ds: &HybridDataset,
    q: &HybridQuery,
    e_id: RecordId,
    stats: &mut RunStats,
) {
    let mc = ds.cat_schema.num_attrs();
    let depth = mc + ds.num_attrs.len();
    let e_cat = ds.cat_rows.values(e_id as usize);
    let e_num = ds.num_of(e_id);
    // Collect candidate leaves first (mutating during DFS would invalidate
    // the walk), then evict with exact checks.
    let mut victims: Vec<(Vec<u32>, RecordId)> = Vec::new();
    let mut stack: Vec<NodeIdx> = vec![ROOT];
    while let Some(s) = stack.pop() {
        if tree.is_leaf(s) {
            for &uid in tree.leaf_ids(s) {
                if uid == e_id {
                    continue;
                }
                // Exact final check on the full value vectors.
                let mut checks = 0;
                if prunes_exact(
                    ds,
                    q,
                    e_cat,
                    e_num,
                    ds.cat_rows.values(uid as usize),
                    ds.num_of(uid),
                    &mut checks,
                ) {
                    victims.push((path_of(tree, s, depth), uid));
                }
                stats.dist_checks += checks;
            }
            continue;
        }
        let level = tree.level(s) as usize;
        let (children, values) = tree.children_and_values(s);
        for (&p, &u) in children.iter().zip(values) {
            if level < mc {
                stats.dist_checks += 1;
                let d_pe = ds.dissim.d(level, e_cat[level], u);
                let d_pq = ds.dissim.d(level, q.cat[level], u);
                if d_pe <= d_pq {
                    stack.push(p);
                }
            } else {
                let k = level - mc;
                stats.dist_checks += 1;
                let (blo, bhi) = ds.num_attrs[k].bounds(u);
                let (min_pe, _) = point_interval_minmax(e_num[k], blo, bhi);
                let (_, max_pq) = point_interval_minmax(q.num[k], blo, bhi);
                // Possible that d(e,u) ≤ d(q,u) for some u in the bucket.
                if min_pe <= max_pq {
                    stack.push(p);
                }
            }
        }
    }
    for (path, uid) in victims {
        tree.remove(&path, uid);
    }
}

/// Reconstructs the tree-order values of `leaf`.
fn path_of(tree: &AlTree, leaf: NodeIdx, depth: usize) -> Vec<u32> {
    let mut out = vec![0u32; depth];
    let mut n = leaf;
    loop {
        let level = tree.level(n) as usize;
        if level == 0 {
            break;
        }
        out[level - 1] = tree.value(n);
        n = tree.parent(n);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use rsky_core::dissim::AttrDissim;

    fn random_hybrid(n: usize, seed: u64) -> (HybridDataset, HybridQuery) {
        let mut rng = StdRng::seed_from_u64(seed);
        let cat_schema = Schema::with_cardinalities(&[4, 3]).unwrap();
        let dissim = rsky_data::dissim_gen::random_dissim_table(&cat_schema, &mut rng).unwrap();
        let num_attrs = vec![
            NumericAttr::new(0.0, 100.0, 8).unwrap(),
            NumericAttr::new(-1.0, 1.0, 4).unwrap(),
        ];
        let mut cat_rows = RowBuf::new(2);
        let mut num = Vec::new();
        for id in 0..n {
            cat_rows.push(id as u32, &[rng.gen_range(0..4), rng.gen_range(0..3)]);
            num.push(rng.gen_range(0.0..100.0));
            num.push(rng.gen_range(-1.0..1.0));
        }
        let q = HybridQuery {
            cat: vec![rng.gen_range(0..4), rng.gen_range(0..3)],
            num: vec![rng.gen_range(0.0..100.0), rng.gen_range(-1.0..1.0)],
        };
        (HybridDataset { cat_schema, dissim, num_attrs, cat_rows, num }, q)
    }

    #[test]
    fn bucket_mapping_and_bounds() {
        let na = NumericAttr::new(0.0, 10.0, 5).unwrap();
        assert_eq!(na.bucket(0.0), 0);
        assert_eq!(na.bucket(1.99), 0);
        assert_eq!(na.bucket(2.0), 1);
        assert_eq!(na.bucket(10.0), 4); // top edge clamps into last bucket
        assert_eq!(na.bucket(-5.0), 0); // clamped
        assert_eq!(na.bucket(99.0), 4);
        let (lo, hi) = na.bounds(2);
        assert!((lo - 4.0).abs() < 1e-12 && (hi - 6.0).abs() < 1e-12);
    }

    #[test]
    fn invalid_numeric_attr_rejected() {
        assert!(NumericAttr::new(5.0, 5.0, 3).is_err());
        assert!(NumericAttr::new(0.0, 1.0, 0).is_err());
        assert!(NumericAttr::new(f64::NAN, 1.0, 2).is_err());
    }

    #[test]
    fn point_interval_bounds() {
        assert_eq!(point_interval_minmax(5.0, 6.0, 8.0), (1.0, 3.0));
        assert_eq!(point_interval_minmax(9.0, 6.0, 8.0), (1.0, 3.0));
        assert_eq!(point_interval_minmax(7.0, 6.0, 8.0), (0.0, 1.0));
    }

    #[test]
    fn hybrid_trs_matches_oracle() {
        for seed in 0..8 {
            let (ds, q) = random_hybrid(120, seed);
            let expect = hybrid_oracle(&ds, &q);
            let (got, stats) = hybrid_trs(&ds, &q, 25).unwrap();
            assert_eq!(got, expect, "seed {seed}");
            assert!(stats.phase1_survivors >= expect.len());
        }
    }

    #[test]
    fn hybrid_trs_single_batch_matches_oracle() {
        let (ds, q) = random_hybrid(80, 99);
        let expect = hybrid_oracle(&ds, &q);
        let (got, _) = hybrid_trs(&ds, &q, 10_000).unwrap();
        assert_eq!(got, expect);
    }

    #[test]
    fn discretization_produces_false_positives_not_false_negatives() {
        // Phase-one survivor sets must be supersets of the result for every
        // bucket resolution.
        let (mut ds, q) = random_hybrid(150, 5);
        let expect = hybrid_oracle(&ds, &q);
        for buckets in [1, 2, 16] {
            ds.num_attrs =
                vec![NumericAttr::new(0.0, 100.0, buckets).unwrap(), NumericAttr::new(-1.0, 1.0, buckets).unwrap()];
            let (got, stats) = hybrid_trs(&ds, &q, 30).unwrap();
            assert_eq!(got, expect, "buckets {buckets}");
            assert!(stats.phase1_survivors >= expect.len());
        }
    }

    #[test]
    fn query_inside_candidate_bucket_is_not_lost() {
        // Regression for the corner-min unsoundness discussed in the module
        // docs: q and a candidate share a bucket.
        let cat_schema = Schema::with_cardinalities(&[1]).unwrap();
        let dissim =
            DissimTable::new(&cat_schema, vec![AttrDissim::Identity]).unwrap();
        let num_attrs = vec![NumericAttr::new(0.0, 10.0, 1).unwrap()]; // one huge bucket
        let mut cat_rows = RowBuf::new(1);
        cat_rows.push(0, &[0]);
        cat_rows.push(1, &[0]);
        let ds = HybridDataset { cat_schema, dissim, num_attrs, cat_rows, num: vec![5.0, 9.0] };
        let q = HybridQuery { cat: vec![0], num: vec![5.0] };
        // Object 0 ties the query exactly ⇒ in the result; object 1 is pruned
        // by object 0 (|5−9|=4 > |5−5|... wait: center is object 1: d(y=5,
        // x=9)=4 ≤ d(q=5, x=9)=4, no strict ⇒ NOT pruned either.
        let expect = hybrid_oracle(&ds, &q);
        let (got, _) = hybrid_trs(&ds, &q, 10).unwrap();
        assert_eq!(got, expect);
        assert!(got.contains(&0), "query twin must survive discretization");
    }

    #[test]
    fn duplicates_knock_each_other_out() {
        let cat_schema = Schema::with_cardinalities(&[2]).unwrap();
        let dissim = DissimTable::new(&cat_schema, vec![AttrDissim::Identity]).unwrap();
        let num_attrs = vec![NumericAttr::new(0.0, 1.0, 4).unwrap()];
        let mut cat_rows = RowBuf::new(1);
        cat_rows.push(0, &[1]);
        cat_rows.push(1, &[1]);
        let ds =
            HybridDataset { cat_schema, dissim, num_attrs, cat_rows, num: vec![0.5, 0.5] };
        let q = HybridQuery { cat: vec![0], num: vec![0.5] };
        let (got, _) = hybrid_trs(&ds, &q, 10).unwrap();
        assert!(got.is_empty(), "duplicate pair differing from q must vanish, got {got:?}");
    }

    /// Ids and costs of one seeded run, pinned: the phase-one walk pops the
    /// largest subtree first (value order among ties) and stops at the first
    /// certain pruner, so its check count moves with any change of order.
    #[test]
    fn seeded_run_keeps_its_ids_and_costs() {
        let (ds, q) = random_hybrid(400, 2024);
        let (ids, stats) = hybrid_trs(&ds, &q, 48).unwrap();
        assert_eq!(
            ids,
            [70, 76, 78, 79, 122, 127, 142, 145, 146, 238, 270, 289, 294, 310, 333, 376, 394]
        );
        assert_eq!(ids, hybrid_oracle(&ds, &q));
        assert_eq!(stats.dist_checks, 38_240);
        assert_eq!(stats.obj_comparisons, 2_400);
        assert_eq!(stats.phase1_survivors, 209);
    }

    #[test]
    fn validates_shape() {
        let (mut ds, q) = random_hybrid(10, 1);
        ds.num.pop();
        assert!(hybrid_trs(&ds, &q, 5).is_err());
    }
}
