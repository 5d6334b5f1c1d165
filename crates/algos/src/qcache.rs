//! Query-side distance cache.
//!
//! Every pruning check compares `d_i(y_i, x_i)` against `d_i(q_i, x_i)`. The
//! right-hand side depends only on the attribute and the center's value —
//! and the query is fixed for the whole run — so all engines precompute
//! `d_i(q_i, v)` for every value `v` of every selected attribute once
//! (`Σ cardinality_i` evaluations, reported as `query_dist_checks`), and the
//! inner loops reduce to one data-data distance evaluation per attribute.
//!
//! A run builds its own cache unless its caller passes one
//! ([`ReverseSkylineAlgo::run_with_cache`](crate::ReverseSkylineAlgo::run_with_cache)):
//! the sharded executor's coordinator builds one per query, accounts its
//! build once, and hands it to every shard's engine run as an argument.

use rsky_core::dissim::DissimTable;
use rsky_core::query::{AttrSubset, Query};
use rsky_core::record::ValueId;
use rsky_core::schema::Schema;

/// Precomputed `d_i(q_i, v)` for every selected attribute `i` and value `v`.
///
/// Stored as one contiguous `Vec<f64>` with per-attribute offsets rather
/// than a `Vec<Vec<f64>>`: the lookup in [`QueryDistCache::d`] sits inside
/// the innermost loop of every engine, and the flat layout replaces two
/// dependent pointer chases with one offset add into a single allocation.
#[derive(Debug, Clone)]
pub struct QueryDistCache {
    /// All cached rows, concatenated in subset order:
    /// `dists[offsets[i] + v] = d_i(q_i, v)` for selected attributes `i`.
    dists: Vec<f64>,
    /// Start of attribute `i`'s row in `dists`. Unselected attributes point
    /// at `dists.len()`, so any lookup against them panics (out of bounds)
    /// instead of silently returning another attribute's value.
    offsets: Vec<usize>,
    /// Evaluations spent building the cache.
    pub build_checks: u64,
}

impl QueryDistCache {
    /// Builds the cache for `query` over `schema`.
    pub fn new(dt: &DissimTable, schema: &Schema, query: &Query) -> Self {
        let m = schema.num_attrs();
        let total: usize =
            query.subset.indices().iter().map(|&i| schema.cardinality(i) as usize).sum();
        let mut dists = Vec::with_capacity(total);
        let mut offsets = vec![usize::MAX; m];
        let mut build_checks = 0;
        for &i in query.subset.indices() {
            offsets[i] = dists.len();
            for v in 0..schema.cardinality(i) {
                dists.push(dt.d(i, query.values[i], v));
                build_checks += 1;
            }
        }
        let sentinel = dists.len();
        for o in &mut offsets {
            if *o == usize::MAX {
                *o = sentinel;
            }
        }
        Self { dists, offsets, build_checks }
    }

    /// `d_i(q_i, center_value)` — the query's distance to a center whose
    /// attribute `i` takes `center_value`.
    #[inline]
    pub fn d(&self, attr: usize, center_value: ValueId) -> f64 {
        self.dists[self.offsets[attr] + center_value as usize]
    }

    /// Fills `out` with the center's cached query-distance row in subset
    /// order: `out[k] = d_i(q_i, center_i)` for `i = subset.indices()[k]`.
    /// Engines hoist this out of their per-scan-object loops and feed it to
    /// [`rsky_core::dominate::prunes_with_center_dists`].
    #[inline]
    pub fn center_dists_into(&self, subset: &AttrSubset, center: &[ValueId], out: &mut Vec<f64>) {
        out.clear();
        out.extend(subset.indices().iter().map(|&i| self.d(i, center[i])));
    }

    /// Whether the query is at distance zero from `center` on every selected
    /// attribute — such centers cannot be pruned by anything (nothing can be
    /// strictly closer than distance 0).
    #[inline]
    pub fn query_ties_center(&self, subset: &AttrSubset, center: &[ValueId]) -> bool {
        subset.indices().iter().all(|&i| self.d(i, center[i]) == 0.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rsky_data::paper_example;

    #[test]
    fn cache_matches_direct_evaluation() {
        let (d, q) = paper_example();
        let cache = QueryDistCache::new(&d.dissim, &d.schema, &q);
        for i in 0..3 {
            for v in 0..d.schema.cardinality(i) {
                assert_eq!(cache.d(i, v), d.dissim.d(i, q.values[i], v));
            }
        }
        assert_eq!(cache.build_checks, (3 + 2 + 3) as u64);
    }

    #[test]
    fn subset_queries_only_cache_selected_attrs() {
        let (d, _) = paper_example();
        let q = rsky_core::query::Query::on_subset(&d.schema, vec![0, 1, 1], &[1]).unwrap();
        let cache = QueryDistCache::new(&d.dissim, &d.schema, &q);
        assert_eq!(cache.build_checks, 2);
        assert_eq!(cache.d(1, 0), 0.5);
    }

    #[test]
    fn center_row_matches_pointwise_lookup() {
        let (d, q) = paper_example();
        let cache = QueryDistCache::new(&d.dissim, &d.schema, &q);
        let mut row = Vec::new();
        for center in [[0u32, 0, 0], [2, 1, 2], [0, 1, 1]] {
            cache.center_dists_into(&q.subset, &center, &mut row);
            assert_eq!(row.len(), q.subset.len());
            for (k, &i) in q.subset.indices().iter().enumerate() {
                assert_eq!(row[k], cache.d(i, center[i]));
            }
        }
        // Subset queries produce rows in subset order.
        let qs = rsky_core::query::Query::on_subset(&d.schema, vec![0, 1, 1], &[2, 1]).unwrap();
        let cache = QueryDistCache::new(&d.dissim, &d.schema, &qs);
        let center = [1u32, 0, 2];
        cache.center_dists_into(&qs.subset, &center, &mut row);
        let idx = qs.subset.indices();
        let expect: Vec<f64> = idx.iter().map(|&i| cache.d(i, center[i])).collect();
        assert_eq!(row, expect);
    }

    #[test]
    fn query_ties_center_detects_zero_distance_centers() {
        let (d, q) = paper_example();
        let cache = QueryDistCache::new(&d.dissim, &d.schema, &q);
        assert!(cache.query_ties_center(&q.subset, &[0, 1, 1])); // == Q
        assert!(!cache.query_ties_center(&q.subset, &[0, 0, 1]));
    }
}
