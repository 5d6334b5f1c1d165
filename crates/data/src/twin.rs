//! Twin domains: the same rows under a dissimilarity domain that
//! [`FlatDissim`](rsky_core::dissim::FlatDissim) flattens and under one it
//! refuses.
//!
//! The pruner kernels read distances from the flattened tables when a
//! domain fits [`MAX_FLAT_CELLS`] and from [`DissimTable::d`] otherwise. A
//! `Linear` measure computes `|a − b| · scale` whatever its declared domain,
//! so declaring the same attribute over 8 or over 4098 values changes no
//! distance between the rows' values — only whether the domain flattens
//! (`4098² > 2²⁴`). Running the same rows and queries under both twins
//! therefore pins the two distance sources to identical ids and counters;
//! the one counter that moves is `query_dist_checks`, because the query
//! cache evaluates `d(q, v)` over the whole declared domain of a selected
//! attribute ([`WIDE_CARD`] − [`FLAT_CARD`] more evaluations).

use rsky_core::dataset::Dataset;
use rsky_core::dissim::{AttrDissim, DissimTable, MAX_FLAT_CELLS};
use rsky_core::error::{Error, Result};
use rsky_core::schema::Schema;

/// Declared domain of the twin attribute in the flattening twin.
pub const FLAT_CARD: u32 = 8;

/// Declared domain of the twin attribute in the non-flattening twin: its
/// `Linear` measure alone needs `4098²` cells, more than [`MAX_FLAT_CELLS`].
pub const WIDE_CARD: u32 = 4098;

const _: () = assert!(WIDE_CARD as usize * WIDE_CARD as usize > MAX_FLAT_CELLS);

/// Scale of the twin attribute's `Linear` measure: distances `0..=0.875`
/// over the values both twins hold, inside the `[0, 1]` range of the
/// generated matrices.
const SCALE: f64 = 0.125;

/// `ds`'s rows under two domains: the last attribute re-declared as
/// `Linear` over [`FLAT_CARD`] values (flattens) and over [`WIDE_CARD`]
/// values (does not); every other attribute keeps its measure. The twin
/// attribute is the last and the widest in both, so the ascending-cardinality
/// attribute order (the AL-Tree levels and the sort keys) is the same in
/// both twins. Queries over `ds` are valid in both.
///
/// # Errors
/// [`Error::InvalidConfig`] when an attribute of `ds` has more than
/// [`FLAT_CARD`] values.
pub fn linear_twins(ds: &Dataset) -> Result<(Dataset, Dataset)> {
    if let Some(i) = (0..ds.schema.num_attrs()).find(|&i| ds.schema.cardinality(i) > FLAT_CARD) {
        return Err(Error::InvalidConfig(format!(
            "attribute {i} has {} values; twin domains need at most {FLAT_CARD}",
            ds.schema.cardinality(i)
        )));
    }
    let twin = |card: u32| -> Result<Dataset> {
        let last = ds.schema.num_attrs() - 1;
        let mut attrs = ds.schema.attrs().to_vec();
        attrs[last].cardinality = card;
        let schema = Schema::new(attrs)?;
        let mut measures: Vec<AttrDissim> = (0..=last).map(|i| ds.dissim.attr(i).clone()).collect();
        measures[last] = AttrDissim::Linear { scale: SCALE };
        let dissim = DissimTable::new(&schema, measures)?;
        let label = format!("{} linear-{card}", ds.label);
        Ok(Dataset { schema, dissim, rows: ds.rows.clone(), label })
    };
    Ok((twin(FLAT_CARD)?, twin(WIDE_CARD)?))
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use rsky_core::dissim::FlatDissim;

    #[test]
    fn only_the_flat_twin_flattens_and_distances_agree() {
        let mut rng = StdRng::seed_from_u64(5);
        let ds = crate::normal_dataset(3, 6, 40, &mut rng).unwrap();
        let (flat, wide) = linear_twins(&ds).unwrap();
        assert!(FlatDissim::build_for(&flat.schema, &flat.dissim).is_some());
        assert!(FlatDissim::build_for(&wide.schema, &wide.dissim).is_none());
        assert_eq!(wide.schema.cardinality(2), WIDE_CARD);
        for i in 0..3 {
            for a in 0..6 {
                for b in 0..6 {
                    assert_eq!(flat.dissim.d(i, a, b), wide.dissim.d(i, a, b));
                }
            }
        }
        for r in 0..ds.rows.len() {
            flat.schema.validate_values(ds.rows.values(r)).unwrap();
        }
    }

    #[test]
    fn rejects_domains_wider_than_the_flat_twin() {
        let mut rng = StdRng::seed_from_u64(6);
        let ds = crate::normal_dataset(2, 9, 10, &mut rng).unwrap();
        assert!(linear_twins(&ds).is_err());
    }
}
