//! Delta classification for materialized-view maintenance.
//!
//! A maintained RS(Q) view needs, per candidate record, not just *whether*
//! it is pruned but *who* prunes it first — the witness whose expiry forces
//! that candidate to be re-qualified. [`first_pruners`] answers this for a
//! batch of candidates against an ordered sequence of scan parts (the whole
//! dataset, shard parts in shard order, or a [`pruner_band`] prepended as a
//! cheap kill filter, reusing the pruner-exchange ranking).
//!
//! Each candidate is one early-exit scan: its center rows
//! ([`FlatDissim::center_row`](rsky_core::dissim::FlatDissim::center_row))
//! and cached query distances are hoisted once, then the parts are walked
//! in scan order (parts in the given order, records in row order within a
//! part) until the first pruner, which is the witness. Domains too large to
//! flatten run the same scan over the scalar cached check. Both checks
//! count distance evaluations alike, so witnesses and check counts do not
//! depend on the distance source.

use rsky_core::dissim::DissimTable;
use rsky_core::query::{AttrSubset, Query};
use rsky_core::record::{row, RecordId, RowBuf, ValueId};

use crate::engine::prunes_cached;
use crate::kernels::{prunes_center_hoisted, DistSource, PrunerKernel};
use crate::qcache::QueryDistCache;

/// For every candidate row in `cands`, the id of its first pruner under
/// `query` across `parts` in scan order, or `None` when nothing in `parts`
/// prunes it (the candidate qualifies for RS(Q)). Adds the data-data
/// distance evaluations spent to `checks`.
///
/// Self-comparisons are skipped by id, so `cands` may itself appear inside
/// `parts` (and a band part may duplicate records of a later part — the
/// first occurrence wins, which keeps the result independent of
/// duplication).
pub fn first_pruners(
    kernel: &PrunerKernel,
    dt: &DissimTable,
    cache: &QueryDistCache,
    query: &Query,
    cands: &RowBuf,
    parts: &[&RowBuf],
    checks: &mut u64,
) -> Vec<Option<RecordId>> {
    let subset = &query.subset;
    let indices = subset.indices();
    let mut dqx = Vec::with_capacity(indices.len());
    let mut crows: Vec<&[f64]> = Vec::with_capacity(indices.len());
    (0..cands.len())
        .map(|i| {
            let (id, x) = (cands.id(i), cands.values(i));
            match kernel.source(dt) {
                DistSource::Flat(flat) => {
                    cache.center_dists_into(subset, x, &mut dqx);
                    crows.clear();
                    crows.extend(indices.iter().map(|&a| flat.center_row(a, x[a])));
                    first_in_scan(parts, id, |y| {
                        prunes_center_hoisted(&crows, &dqx, indices, y, checks)
                    })
                }
                DistSource::Table(dt) => {
                    first_in_scan(parts, id, |y| prunes_cached(dt, subset, y, x, cache, checks))
                }
            }
        })
        .collect()
}

/// The id of the first record of `parts` in scan order, other than `id`
/// itself, whose values `prunes` accepts.
fn first_in_scan(
    parts: &[&RowBuf],
    id: RecordId,
    mut prunes: impl FnMut(&[ValueId]) -> bool,
) -> Option<RecordId> {
    parts.iter().find_map(|part| {
        part.iter().find(|y| row::id(y) != id && prunes(row::values(y))).map(row::id)
    })
}

/// The strongest `budget` candidate pruners of `rows` under the view's
/// query, ranked by summed cached query distance over `subset` (ties broken
/// by id) — the same ranking the cross-shard pruner exchange broadcasts.
/// Prepending this band to the scan parts lets most re-qualifications die
/// without touching the full dataset. Returns all rows when `budget`
/// covers them.
pub fn pruner_band(
    rows: &RowBuf,
    cache: &QueryDistCache,
    subset: &AttrSubset,
    budget: usize,
) -> RowBuf {
    let mut scored: Vec<(f64, RecordId, usize)> = (0..rows.len())
        .map(|j| {
            let x = rows.values(j);
            let score: f64 = subset.indices().iter().map(|&i| cache.d(i, x[i])).sum();
            (score, rows.id(j), j)
        })
        .collect();
    scored.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
    scored.truncate(budget);
    let mut band = RowBuf::with_capacity(rows.num_attrs(), scored.len());
    for &(_, _, j) in &scored {
        band.push(rows.id(j), rows.values(j));
    }
    band
}

#[cfg(test)]
mod tests {
    use super::*;
    use rsky_core::skyline::reverse_skyline_by_definition;

    /// Paper running example: RS = {3, 6}; Table 1 witnesses are
    /// O1×{4}, O2×{1,4,5}, O4×{1}, O5×{1,2,4} — the first in row order is
    /// the deterministic witness this module must report, on the flat
    /// tables and on the measures themselves.
    #[test]
    fn paper_example_witnesses_match_table_one() {
        let (ds, q) = rsky_data::paper_example();
        let cache = QueryDistCache::new(&ds.dissim, &ds.schema, &q);
        for kernel in [PrunerKernel::new(&ds.schema, &ds.dissim), PrunerKernel::scalar()] {
            let got =
                first_pruners(&kernel, &ds.dissim, &cache, &q, &ds.rows, &[&ds.rows], &mut 0);
            let by_id: Vec<(RecordId, Option<RecordId>)> =
                (0..ds.rows.len()).map(|i| (ds.rows.id(i), got[i])).collect();
            assert_eq!(
                by_id,
                vec![
                    (1, Some(4)),
                    (2, Some(1)),
                    (3, None),
                    (4, Some(1)),
                    (5, Some(1)),
                    (6, None)
                ],
                "flat={}",
                kernel.flat().is_some()
            );
        }
    }

    /// Survivors of `first_pruners` are exactly the reverse skyline, and a
    /// witness must actually prune its candidate — checked on a synthetic
    /// dataset under a flattening domain and its non-flattening twin, with
    /// the band prepended. The twins report the same witnesses at the same
    /// cost.
    #[test]
    fn survivors_equal_oracle_and_witnesses_prune() {
        use rand::{rngs::StdRng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(7);
        let ds = rsky_data::synthetic::normal_dataset(3, 8, 120, &mut rng).unwrap();
        let (flat_ds, wide_ds) = rsky_data::twin::linear_twins(&ds).unwrap();
        let q = Query::new(&ds.schema, vec![5, 6, 4]).unwrap();
        let mut runs = Vec::new();
        for ds in [&flat_ds, &wide_ds] {
            let oracle = reverse_skyline_by_definition(&ds.dissim, &ds.rows, &q);
            let cache = QueryDistCache::new(&ds.dissim, &ds.schema, &q);
            let band = pruner_band(&ds.rows, &cache, &q.subset, 16);
            let kernel = PrunerKernel::new(&ds.schema, &ds.dissim);
            let mut spent = 0u64;
            let got = first_pruners(
                &kernel,
                &ds.dissim,
                &cache,
                &q,
                &ds.rows,
                &[&band, &ds.rows],
                &mut spent,
            );
            let mut survivors: Vec<RecordId> = (0..ds.rows.len())
                .filter(|&i| got[i].is_none())
                .map(|i| ds.rows.id(i))
                .collect();
            survivors.sort_unstable();
            assert_eq!(survivors, oracle, "{}", ds.label);
            let mut checks = 0u64;
            for (i, w) in got.iter().enumerate() {
                if let Some(w) = w {
                    let j = (0..ds.rows.len()).find(|&j| ds.rows.id(j) == *w).unwrap();
                    assert!(
                        prunes_cached(
                            &ds.dissim,
                            &q.subset,
                            ds.rows.values(j),
                            ds.rows.values(i),
                            &cache,
                            &mut checks
                        ),
                        "witness {w} does not prune {} ({})",
                        ds.rows.id(i),
                        ds.label
                    );
                }
            }
            runs.push((got, spent));
        }
        assert!(runs[0].1 > 0);
        assert_eq!(runs[0], runs[1], "twin domains must agree on witnesses and checks");
    }
}
