//! Ranked reverse skylines: ordering RS(Q) members by influence strength.
//!
//! When RS(Q) is large, clients want its most *influential* members first.
//! Following the inverse-query ranking literature, a member's strength is
//! the cardinality of its own reverse skyline — `|RS(X)|` with the member's
//! values taken as the query on the same attribute subset — computed by an
//! influence run: [`rank_members`] prepares an [`InfluenceEngine`] of its
//! own, and [`rank_members_with`] takes the caller's run (the server ranks
//! through the tables it already serves). Ties break by ascending id, so
//! rankings are deterministic across runs and engines.

use std::cmp::Reverse;
use std::collections::HashMap;

use rsky_core::dataset::Dataset;
use rsky_core::error::{Error, Result};
use rsky_core::query::Query;
use rsky_core::record::RecordId;

use crate::influence::{InfluenceEngine, InfluenceReport};

/// One ranked RS(Q) member.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RankedMember {
    /// The member's record id.
    pub id: RecordId,
    /// `|RS(member)|` — how many records the member influences.
    pub strength: usize,
}

/// Ranks `members` (ids of RS(Q) members, any order) by descending
/// influence strength, ties by ascending id, and keeps the top `k`
/// (`k >= members.len()` keeps all). `subset` is the attribute subset of
/// the originating query, applied to the members-as-queries too. The
/// strengths come from an [`InfluenceEngine`] prepared over `ds` for this
/// call.
pub fn rank_members(
    ds: &Dataset,
    subset: Option<&[usize]>,
    members: &[RecordId],
    k: usize,
) -> Result<Vec<RankedMember>> {
    rank_members_with(ds, subset, members, k, |queries| {
        InfluenceEngine::new(ds.clone(), 10.0, 4096)?.run(queries, false)
    })
}

/// [`rank_members`] with the strengths from `influence`, a run that
/// reports `|RS|` for each of the member queries it is given, in order.
/// The members' rows are found in one pass over `ds`.
pub fn rank_members_with(
    ds: &Dataset,
    subset: Option<&[usize]>,
    members: &[RecordId],
    k: usize,
    influence: impl FnOnce(&[Query]) -> Result<InfluenceReport>,
) -> Result<Vec<RankedMember>> {
    if members.is_empty() || k == 0 {
        return Ok(Vec::new());
    }
    let slot: HashMap<RecordId, usize> =
        members.iter().enumerate().map(|(i, &id)| (id, i)).collect();
    let mut rows = vec![None; members.len()];
    for i in 0..ds.rows.len() {
        if let Some(&at) = slot.get(&ds.rows.id(i)) {
            rows[at].get_or_insert(i);
        }
    }
    let mut queries = Vec::with_capacity(members.len());
    for (&id, row) in members.iter().zip(rows) {
        let row =
            row.ok_or_else(|| Error::InvalidConfig(format!("rank: member id {id} not in dataset")))?;
        let values = ds.rows.values(row).to_vec();
        queries.push(match subset {
            Some(indices) => Query::on_subset(&ds.schema, values, indices)?,
            None => Query::new(&ds.schema, values)?,
        });
    }
    let report = influence(&queries)?;
    let mut ranked: Vec<RankedMember> = report
        .per_query
        .iter()
        .map(|inf| RankedMember { id: members[inf.query_index], strength: inf.cardinality })
        .collect();
    ranked.sort_by_key(|m| (Reverse(m.strength), m.id));
    ranked.truncate(k);
    Ok(ranked)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rsky_core::skyline::reverse_skyline_by_definition;

    /// Strengths must equal a by-definition |RS(member)| recount, the order
    /// must be (strength desc, id asc), and `k` truncates.
    #[test]
    fn strengths_match_definition_and_order_is_deterministic() {
        use rand::{rngs::StdRng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(11);
        let ds = rsky_data::synthetic::normal_dataset(3, 8, 80, &mut rng).unwrap();
        let q = Query::new(&ds.schema, vec![3, 4, 2]).unwrap();
        let members = reverse_skyline_by_definition(&ds.dissim, &ds.rows, &q);
        let ranked = rank_members(&ds, None, &members, usize::MAX).unwrap();
        assert_eq!(ranked.len(), members.len());
        for m in &ranked {
            let row = (0..ds.rows.len()).find(|&i| ds.rows.id(i) == m.id).unwrap();
            let mq = Query::new(&ds.schema, ds.rows.values(row).to_vec()).unwrap();
            let rs = reverse_skyline_by_definition(&ds.dissim, &ds.rows, &mq);
            assert_eq!(m.strength, rs.len(), "member {}", m.id);
        }
        for w in ranked.windows(2) {
            assert!(
                (Reverse(w[0].strength), w[0].id) <= (Reverse(w[1].strength), w[1].id),
                "ranking must be strength desc, id asc"
            );
        }
        let top2 = rank_members(&ds, None, &members, 2).unwrap();
        assert_eq!(top2, ranked[..2.min(ranked.len())].to_vec());
        assert!(rank_members(&ds, None, &members, 0).unwrap().is_empty());
        assert!(rank_members(&ds, None, &[], 3).unwrap().is_empty());
        assert!(rank_members(&ds, None, &[999_999], 3).is_err());
    }
}
