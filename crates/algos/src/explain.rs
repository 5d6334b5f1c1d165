//! Result explanation: pruner witnesses.
//!
//! A reverse-skyline answer is more trustworthy (and more actionable) when
//! every *exclusion* comes with a witness: the concrete object `Y` that
//! dominates the query with respect to the excluded `X`. Table 1 of the
//! paper lists exactly these witnesses for the running example; this module
//! produces them for arbitrary datasets.

use rsky_core::dataset::Dataset;
use rsky_core::query::Query;
use rsky_core::record::{row, RecordId};

use crate::delta::first_pruners;
use crate::engine::prunes_cached;
use crate::kernels::PrunerKernel;
use crate::qcache::QueryDistCache;

/// Why one object is, or is not, in the reverse skyline.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Membership {
    /// In the result: no object dominates the query with respect to it.
    InResult,
    /// Excluded: `witness` dominates the query with respect to this object.
    PrunedBy {
        /// Record id of one pruner (the first in dataset order).
        witness: RecordId,
    },
}

/// Full explanation of a query over a dataset: one entry per record, in
/// dataset order.
#[derive(Debug, Clone)]
pub struct Explanation {
    /// `(record id, membership)` per record.
    pub entries: Vec<(RecordId, Membership)>,
}

impl Explanation {
    /// Record ids in the reverse skyline.
    pub fn result_ids(&self) -> Vec<RecordId> {
        self.entries
            .iter()
            .filter(|(_, m)| matches!(m, Membership::InResult))
            .map(|&(id, _)| id)
            .collect()
    }

    /// The witness for an excluded record (`None` if it is in the result or
    /// unknown).
    pub fn witness_for(&self, id: RecordId) -> Option<RecordId> {
        self.entries.iter().find(|&&(e, _)| e == id).and_then(|(_, m)| match m {
            Membership::PrunedBy { witness } => Some(*witness),
            Membership::InResult => None,
        })
    }

    /// Number of records covered (the dataset size at explain time).
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the explanation covers no records.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

/// Explains every record's membership: one [`first_pruners`] scan with
/// the whole dataset as the only part, so each excluded record's witness is
/// its first pruner in dataset order (`O(n²)` worst case with early abort —
/// intended for result presentation, not bulk processing).
///
/// ```
/// let (ds, q) = rsky_data::paper_example();
/// let ex = rsky_algos::explain(&ds, &q);
/// assert_eq!(ex.result_ids(), vec![3, 6]);
/// assert_eq!(ex.witness_for(2), Some(1)); // O2 is pruned (first witness: O1)
/// assert_eq!(ex.witness_for(3), None);    // O3 is in the result
/// ```
pub fn explain(ds: &Dataset, query: &Query) -> Explanation {
    let cache = QueryDistCache::new(&ds.dissim, &ds.schema, query);
    let kernel = PrunerKernel::new(&ds.schema, &ds.dissim);
    let witnesses =
        first_pruners(&kernel, &ds.dissim, &cache, query, &ds.rows, &[&ds.rows], &mut 0);
    let entries = witnesses
        .into_iter()
        .enumerate()
        .map(|(i, w)| {
            let membership = match w {
                Some(witness) => Membership::PrunedBy { witness },
                None => Membership::InResult,
            };
            (ds.rows.id(i), membership)
        })
        .collect();
    Explanation { entries }
}

/// All pruners of one record, in dataset order (the full witness list, like
/// Table 1's pruner column).
pub fn all_witnesses(ds: &Dataset, query: &Query, id: RecordId) -> Vec<RecordId> {
    let cache = QueryDistCache::new(&ds.dissim, &ds.schema, query);
    let Some(xi) = (0..ds.rows.len()).find(|&i| ds.rows.id(i) == id) else {
        return Vec::new();
    };
    let x = ds.rows.values(xi);
    ds.rows
        .iter()
        .filter(|y| {
            row::id(y) != id
                && prunes_cached(&ds.dissim, &query.subset, row::values(y), x, &cache, &mut 0)
        })
        .map(row::id)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_table1_witness_lists() {
        let (ds, q) = rsky_data::paper_example();
        // Table 1 pruner columns.
        assert_eq!(all_witnesses(&ds, &q, 1), vec![4]);
        assert_eq!(all_witnesses(&ds, &q, 2), vec![1, 4, 5]);
        assert_eq!(all_witnesses(&ds, &q, 3), Vec::<u32>::new());
        assert_eq!(all_witnesses(&ds, &q, 4), vec![1]);
        assert_eq!(all_witnesses(&ds, &q, 5), vec![1, 2, 4]);
        assert_eq!(all_witnesses(&ds, &q, 6), Vec::<u32>::new());
        // Unknown ids yield no witnesses.
        assert!(all_witnesses(&ds, &q, 99).is_empty());
    }

    #[test]
    fn explain_agrees_with_oracle() {
        let (ds, q) = rsky_data::paper_example();
        let ex = explain(&ds, &q);
        assert_eq!(ex.result_ids(), vec![3, 6]);
        assert_eq!(ex.len(), 6);
        assert!(!ex.is_empty());
        // Every reported witness must actually be a pruner.
        for (id, m) in &ex.entries {
            if let Membership::PrunedBy { witness } = m {
                assert!(
                    all_witnesses(&ds, &q, *id).contains(witness),
                    "bogus witness {witness} for {id}"
                );
            }
        }
        assert_eq!(ex.witness_for(1), Some(4));
        assert_eq!(ex.witness_for(3), None);
    }

    #[test]
    fn explain_on_random_data_matches_definition() {
        use rand::SeedableRng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(123);
        let ds = rsky_data::synthetic::normal_dataset(4, 6, 120, &mut rng).unwrap();
        let q = rsky_data::random_queries(&ds.schema, 1, &mut rng).unwrap().remove(0);
        let ex = explain(&ds, &q);
        let expect = rsky_core::skyline::reverse_skyline_by_definition(&ds.dissim, &ds.rows, &q);
        assert_eq!(ex.result_ids(), expect);
    }
}
