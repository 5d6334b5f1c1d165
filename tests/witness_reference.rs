//! Witness identity of `first_pruners` against a brute-force reference.
//!
//! A maintained view keeps, per non-member `x`, its witness: the first `y`
//! in scan order (parts in the given order, then row order) with `y ≠ x` by
//! id and `y ≻_x q`. The reference below computes exactly that from the
//! pruning definition (`rsky_core::dominate::prunes`, no query-distance
//! cache, no flat tables), and every case runs under a kernel that flattens
//! the domain and under `PrunerKernel::scalar()`, which must also spend the
//! same number of distance checks.

use rand::rngs::StdRng;
use rand::SeedableRng;
use rsky::algos::delta::{first_pruners, pruner_band};
use rsky::algos::kernels::PrunerKernel;
use rsky::algos::qcache::QueryDistCache;
use rsky::core::dominate::prunes;
use rsky::prelude::*;

/// The first `y` of `parts` in scan order with a different id that prunes
/// each candidate by the definition.
fn reference_witnesses(
    ds: &Dataset,
    q: &Query,
    cands: &RowBuf,
    parts: &[&RowBuf],
) -> Vec<Option<RecordId>> {
    let mut checks = 0u64;
    (0..cands.len())
        .map(|i| {
            let (id, x) = (cands.id(i), cands.values(i));
            parts
                .iter()
                .flat_map(|p| (0..p.len()).map(move |j| (p.id(j), p.values(j))))
                .find(|&(yid, y)| {
                    yid != id && prunes(&ds.dissim, &q.subset, y, x, &q.values, &mut checks)
                })
                .map(|(yid, _)| yid)
        })
        .collect()
}

/// A kernel that flattens `ds`'s domain, and `PrunerKernel::scalar()`.
fn both_kernels(ds: &Dataset) -> [PrunerKernel; 2] {
    let flat = PrunerKernel::new(&ds.schema, &ds.dissim);
    assert!(flat.flat().is_some(), "{}: domain must flatten", ds.label);
    [flat, PrunerKernel::scalar()]
}

/// Asserts `first_pruners` reports the reference witnesses under both
/// `kernels`, with equal check counts. Returns the witnesses.
fn assert_reference(
    ds: &Dataset,
    kernels: &[PrunerKernel; 2],
    q: &Query,
    cands: &RowBuf,
    parts: &[&RowBuf],
    ctx: &str,
) -> Vec<Option<RecordId>> {
    let cache = QueryDistCache::new(&ds.dissim, &ds.schema, q);
    let want = reference_witnesses(ds, q, cands, parts);
    let mut counts = Vec::new();
    for kernel in kernels {
        let mut checks = 0u64;
        let got = first_pruners(kernel, &ds.dissim, &cache, q, cands, parts, &mut checks);
        assert_eq!(got, want, "{ctx}: flat={}", kernel.flat().is_some());
        counts.push(checks);
    }
    assert_eq!(counts[0], counts[1], "{ctx}: check counts differ between kernels");
    assert!(cands.is_empty() || counts[0] > 0, "{ctx}: no checks counted");
    want
}

/// Every row twice under fresh ids (`id + n`), so each record has an exact
/// duplicate at distance zero from it.
fn with_duplicates(rows: &RowBuf) -> RowBuf {
    let n = rows.len() as RecordId;
    let mut out = RowBuf::with_capacity(rows.num_attrs(), 2 * rows.len());
    for i in 0..rows.len() {
        out.push(rows.id(i), rows.values(i));
        out.push(rows.id(i) + n, rows.values(i));
    }
    out
}

#[test]
fn witnesses_match_the_brute_force_reference() {
    let mut rng = StdRng::seed_from_u64(11);
    let shapes = [
        rsky::data::normal_dataset(4, 10, 160, &mut rng).unwrap(),
        rsky::data::census_income_like(160, &mut rng).unwrap(),
        rsky::data::forest_cover_like(160, &mut rng).unwrap(),
    ];
    for ds in &shapes {
        let kernels = both_kernels(ds);
        let m = ds.schema.num_attrs();
        let mut queries = rsky::data::random_queries(&ds.schema, 3, &mut rng).unwrap();
        queries.extend(
            rsky::data::workload::random_subset_queries(&ds.schema, &[0, m - 1], 2, &mut rng)
                .unwrap(),
        );
        let dup = with_duplicates(&ds.rows);
        let spec = ShardSpec::new(3, ShardPolicy::RoundRobin).unwrap();
        let shards = partition_rows(&ds.rows, &spec);
        let shard_refs: Vec<&RowBuf> = shards.iter().collect();
        let mut band_moved = false;
        for (qi, q) in queries.iter().enumerate() {
            let ctx = format!("{} q{qi}", ds.label);
            let case = |cands: &RowBuf, parts: &[&RowBuf], what: &str| {
                assert_reference(ds, &kernels, q, cands, parts, &format!("{ctx} {what}"))
            };
            let got = case(&ds.rows, &[&ds.rows], "whole");
            assert!(got.iter().any(Option::is_some), "{ctx}: nothing pruned");
            let mut members: Vec<RecordId> =
                (0..ds.rows.len()).filter(|&i| got[i].is_none()).map(|i| ds.rows.id(i)).collect();
            members.sort_unstable();
            let oracle = reverse_skyline_by_definition(&ds.dissim, &ds.rows, q);
            assert_eq!(members, oracle, "{ctx}");
            case(&dup, &[&dup], "duplicates");
            case(&ds.rows, &shard_refs, "shards");
            // A band repeats rows of the later parts, so those rows are seen
            // twice and the band's copy must win.
            let cache = QueryDistCache::new(&ds.dissim, &ds.schema, q);
            let band = pruner_band(&ds.rows, &cache, &q.subset, 24);
            let mut order = vec![&band];
            order.extend(shard_refs.iter().copied());
            band_moved |= case(&ds.rows, &order, "band") != got;
            // Candidates outside the scan (an insert's probe) and an empty
            // candidate set.
            case(&shards[1], &[&shards[0]], "probe");
            case(&RowBuf::new(m), &[&ds.rows], "empty");
        }
        assert!(band_moved, "{}: no witness moved onto a band", ds.label);
    }
}
