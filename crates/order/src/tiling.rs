//! Multidimensional tiling with Z-order tile ordering (Section 5.6).
//!
//! The multi-attribute sort clusters perfectly on prefixes of the attribute
//! ordering, but queries on attribute *subsets* that skip the leading
//! attributes lose the clustering. "To address this issue, we need to cluster
//! the objects in a way that is fair to all the dimensions. … Tiles are
//! hyper-rectangles in the multi-dimensional space, formed by dividing the
//! range of attribute values along each dimension. The objects within a tile
//! are sorted as before and the tiles are ordered using a Z-order."
//!
//! Value ids have no semantic order in a non-metric space — neither here nor
//! in the multi-attribute sort does the ordering carry meaning; it only
//! drives clustering (objects sharing a tile share *value-id ranges*, which
//! correlates with sharing values).

use rsky_core::error::{Error, Result};
use rsky_core::record::{row, RowBuf, ValueId};
use rsky_core::schema::Schema;

/// Tiling of a schema's value space: per attribute, the number of equi-width
/// tiles its value-id range is divided into.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TileConfig {
    cards: Vec<u32>,
    tiles: Vec<u32>,
}

impl TileConfig {
    /// `tiles_per_attr[i]` tiles for attribute `i` (clamped to the attribute
    /// cardinality, must be ≥ 1).
    pub fn new(schema: &Schema, tiles_per_attr: &[u32]) -> Result<Self> {
        if tiles_per_attr.len() != schema.num_attrs() {
            return Err(Error::SchemaMismatch(format!(
                "{} tile counts for {} attributes",
                tiles_per_attr.len(),
                schema.num_attrs()
            )));
        }
        if tiles_per_attr.contains(&0) {
            return Err(Error::InvalidConfig("tile count must be ≥ 1".into()));
        }
        let cards: Vec<u32> = (0..schema.num_attrs()).map(|i| schema.cardinality(i)).collect();
        let tiles =
            tiles_per_attr.iter().zip(&cards).map(|(&t, &c)| t.min(c)).collect();
        Ok(Self { cards, tiles })
    }

    /// Uniform tiling: `t` tiles on every attribute.
    pub fn uniform(schema: &Schema, t: u32) -> Result<Self> {
        Self::new(schema, &vec![t; schema.num_attrs()])
    }

    /// Tile coordinate of `value` on attribute `attr` (equi-width buckets
    /// over the value-id range).
    #[inline]
    pub fn tile_of(&self, attr: usize, value: ValueId) -> u32 {
        let c = self.cards[attr] as u64;
        let t = self.tiles[attr] as u64;
        debug_assert!((value as u64) < c);
        ((value as u64 * t) / c) as u32
    }

    /// Tile coordinates of a full value vector.
    pub fn coords(&self, values: &[ValueId]) -> Vec<u32> {
        values.iter().enumerate().map(|(i, &v)| self.tile_of(i, v)).collect()
    }

    /// Z-order key of a record's tile, then used as the major sort key.
    /// Equal to `z_order_key(&self.coords(values))`, without the allocation.
    pub fn z_key(&self, values: &[ValueId]) -> u128 {
        interleave(values.len(), values.iter().enumerate().map(|(i, &v)| self.tile_of(i, v)))
    }

    /// Bits a [`TileConfig::z_key`] can occupy: every coordinate fits in the
    /// bit length of the largest tile count less one, times the dimensions.
    pub(crate) fn z_bits(&self) -> u32 {
        let coord_bits = self.tiles.iter().map(|&t| u32::BITS - (t - 1).leading_zeros()).max();
        coord_bits.unwrap_or(0) * self.tiles.len() as u32
    }

    /// Cardinality of each attribute.
    pub(crate) fn cardinalities(&self) -> &[u32] {
        &self.cards
    }

    /// Number of tiles along each attribute.
    pub fn tiles_per_attr(&self) -> &[u32] {
        &self.tiles
    }
}

/// Interleaves the bits of `coords` into a Morton (Z-order) key: bit `b` of
/// coordinate `d` lands at position `b * ndims + d`. Supports up to 8
/// dimensions of 16-bit coordinates (the paper uses ≤ 7 attributes).
///
/// # Panics
/// Panics if a coordinate needs more than 16 bits or there are more than
/// 8 dimensions.
/// ```
/// use rsky_order::z_order_key;
/// // The classic 2×2 Z: (0,0) (1,0) (0,1) (1,1).
/// assert_eq!(z_order_key(&[0, 0]), 0);
/// assert_eq!(z_order_key(&[1, 0]), 1);
/// assert_eq!(z_order_key(&[0, 1]), 2);
/// assert_eq!(z_order_key(&[1, 1]), 3);
/// ```
pub fn z_order_key(coords: &[u32]) -> u128 {
    interleave(coords.len(), coords.iter().copied())
}

/// [`z_order_key`] over `ndims` coordinates given one by one; visits only
/// each coordinate's set bits.
fn interleave(ndims: usize, coords: impl Iterator<Item = u32>) -> u128 {
    assert!(ndims <= 8, "z-order supports up to 8 dimensions");
    let mut key: u128 = 0;
    for (d, c) in coords.enumerate() {
        assert!(c < (1 << 16), "tile coordinate {c} exceeds 16 bits");
        let mut rest = c;
        while rest != 0 {
            key |= 1u128 << (rest.trailing_zeros() as usize * ndims + d);
            rest &= rest - 1;
        }
    }
    key
}

/// Sorts `rows` by `(Z-order tile key, multi-attribute lexicographic order
/// under `order`, id)` — the T-SRS / T-TRS physical ordering.
pub fn sort_rows_tiled(rows: &mut RowBuf, config: &TileConfig, order: &[usize]) {
    rows.sort_by(|a, b| {
        config
            .z_key(row::values(a))
            .cmp(&config.z_key(row::values(b)))
            .then_with(|| crate::multisort::lex_cmp(a, b, order))
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn z_order_2d_matches_textbook_curve() {
        // Classic 2×2 Z: (0,0)=0, (1,0)=1, (0,1)=2, (1,1)=3 with x as dim 0.
        assert_eq!(z_order_key(&[0, 0]), 0);
        assert_eq!(z_order_key(&[1, 0]), 1);
        assert_eq!(z_order_key(&[0, 1]), 2);
        assert_eq!(z_order_key(&[1, 1]), 3);
        // Next block: (2,0) → bit1 of dim0 → position 2 → 4.
        assert_eq!(z_order_key(&[2, 0]), 4);
    }

    #[test]
    fn z_order_is_injective_on_a_grid() {
        let mut seen = std::collections::HashSet::new();
        for x in 0..8u32 {
            for y in 0..8u32 {
                for z in 0..4u32 {
                    assert!(seen.insert(z_order_key(&[x, y, z])));
                }
            }
        }
    }

    #[test]
    fn tile_of_is_equi_width_and_total() {
        let s = Schema::with_cardinalities(&[10]).unwrap();
        let c = TileConfig::uniform(&s, 4).unwrap();
        let tiles: Vec<u32> = (0..10).map(|v| c.tile_of(0, v)).collect();
        assert_eq!(tiles, vec![0, 0, 0, 1, 1, 2, 2, 2, 3, 3]);
    }

    #[test]
    fn tiles_clamped_to_cardinality() {
        let s = Schema::with_cardinalities(&[2, 50]).unwrap();
        let c = TileConfig::uniform(&s, 8).unwrap();
        assert_eq!(c.tiles_per_attr(), &[2, 8]);
        assert_eq!(c.tile_of(0, 1), 1);
    }

    #[test]
    fn invalid_configs_rejected() {
        let s = Schema::with_cardinalities(&[4, 4]).unwrap();
        assert!(TileConfig::new(&s, &[2]).is_err());
        assert!(TileConfig::new(&s, &[2, 0]).is_err());
    }

    #[test]
    fn sort_rows_tiled_groups_same_tile_together() {
        let s = Schema::with_cardinalities(&[8, 8]).unwrap();
        let c = TileConfig::uniform(&s, 2).unwrap();
        let mut rows = RowBuf::new(2);
        rows.push(0, &[7, 7]); // tile (1,1) → z=3
        rows.push(1, &[0, 0]); // tile (0,0) → z=0
        rows.push(2, &[7, 0]); // tile (1,0) → z=1
        rows.push(3, &[0, 7]); // tile (0,1) → z=2
        rows.push(4, &[1, 1]); // tile (0,0) → z=0
        sort_rows_tiled(&mut rows, &c, &[0, 1]);
        let ids: Vec<u32> = rows.iter().map(row::id).collect();
        assert_eq!(ids, vec![1, 4, 2, 3, 0]);
    }

    #[test]
    fn within_tile_order_is_lexicographic() {
        let s = Schema::with_cardinalities(&[8, 8]).unwrap();
        let c = TileConfig::uniform(&s, 1).unwrap(); // single tile
        let mut rows = RowBuf::new(2);
        rows.push(0, &[3, 0]);
        rows.push(1, &[1, 5]);
        rows.push(2, &[1, 2]);
        sort_rows_tiled(&mut rows, &c, &[0, 1]);
        let ids: Vec<u32> = rows.iter().map(row::id).collect();
        assert_eq!(ids, vec![2, 1, 0]);
    }

    #[test]
    fn z_key_matches_z_order_of_coords() {
        let s = Schema::with_cardinalities(&[50, 7, 2, 700]).unwrap();
        let c = TileConfig::new(&s, &[4, 7, 2, 300]).unwrap();
        for vals in [[0, 0, 0, 0], [49, 6, 1, 699], [13, 3, 0, 350], [25, 5, 1, 1]] {
            let z = c.z_key(&vals);
            assert_eq!(z, z_order_key(&c.coords(&vals)));
            assert!(z >> c.z_bits() == 0, "z-key {z} exceeds {} bits", c.z_bits());
        }
    }
}
