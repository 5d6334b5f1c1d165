//! Table preparation: loading a dataset to disk and arranging it in one of
//! the paper's physical layouts.
//!
//! * [`Layout::Original`] — generation order (what Naive and BRS run on);
//! * [`Layout::MultiSort`] — the multi-attribute sort of Section 4.2
//!   (SRS / TRS), under the ascending-cardinality attribute ordering unless
//!   overridden;
//! * [`Layout::Tiled`] — Z-ordered tiles with lexicographic order inside a
//!   tile, Section 5.6 (T-SRS / T-TRS).
//!
//! Sorting is the **pre-processing step** whose cost Section 5.5 reports;
//! [`PreparedTable`] carries the measured time, run/pass counts and IO delta
//! so the harness can reproduce that table.

use std::time::{Duration, Instant};

use rsky_core::error::Result;
use rsky_core::schema::Schema;
use rsky_core::stats::IoCounts;
use rsky_core::dataset::Dataset;
use rsky_order::tiling::TileConfig;
use rsky_order::{ascending_cardinality_order, external_sort, SortOrder, SortOutcome};
use rsky_storage::{Disk, MemoryBudget, RecordFile};

/// Physical arrangement of the table on disk.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Layout {
    /// Generation order, no pre-processing.
    Original,
    /// Multi-attribute lexicographic sort (Section 4.2).
    MultiSort,
    /// Z-ordered tiles, lexicographic inside each tile (Section 5.6).
    Tiled {
        /// Tiles per attribute (clamped to each attribute's cardinality).
        tiles_per_attr: u32,
    },
}

/// A table ready for an engine, plus pre-processing cost.
#[derive(Debug)]
pub struct PreparedTable {
    /// The (possibly re-arranged) record file.
    pub file: RecordFile,
    /// Layout the file is in.
    pub layout: Layout,
    /// Attribute ordering used for sorting and for the AL-Tree (ascending
    /// cardinality by default).
    pub attr_order: Vec<usize>,
    /// Wall time of the pre-processing (zero for [`Layout::Original`]).
    pub prep_time: Duration,
    /// Page IOs spent pre-processing.
    pub prep_io: IoCounts,
    /// Runs and merge passes of the external sort, when one ran.
    pub sort_outcome: Option<(usize, usize)>,
}

/// Writes an in-memory dataset to a fresh record file on `disk`.
pub fn load_dataset(disk: &mut Disk, dataset: &Dataset) -> Result<RecordFile> {
    let mut rf = RecordFile::create(disk, dataset.schema.num_attrs())?;
    rf.write_all(disk, &dataset.rows)?;
    Ok(rf)
}

/// The order `layout` arranges rows in, under the ascending-cardinality
/// attribute ordering; `None` for [`Layout::Original`], which keeps
/// generation order.
pub fn sort_order(schema: &Schema, layout: &Layout) -> Result<Option<SortOrder>> {
    let attr_order = ascending_cardinality_order(schema);
    Ok(match layout {
        Layout::Original => None,
        Layout::MultiSort => Some(SortOrder::lex(schema, &attr_order)),
        Layout::Tiled { tiles_per_attr } => {
            Some(SortOrder::tiled(TileConfig::uniform(schema, *tiles_per_attr)?, &attr_order))
        }
    })
}

/// Arranges `table` according to `layout` (externally, within `budget`),
/// returning the prepared table. [`Layout::Original`] returns the input file
/// untouched.
pub fn prepare_table(
    disk: &mut Disk,
    schema: &Schema,
    table: &RecordFile,
    layout: Layout,
    budget: &MemoryBudget,
) -> Result<PreparedTable> {
    let attr_order = ascending_cardinality_order(schema);
    let io_before = disk.io_stats();
    let t0 = Instant::now();
    let (file, outcome) = match sort_order(schema, &layout)? {
        None => (table.clone(), None),
        Some(order) => {
            let SortOutcome { file, runs, merge_passes } =
                external_sort(disk, table, budget, &order)?;
            (file, Some((runs, merge_passes)))
        }
    };
    Ok(PreparedTable {
        file,
        layout,
        attr_order,
        prep_time: t0.elapsed(),
        prep_io: disk.io_stats().delta_since(io_before),
        sort_outcome: outcome,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use rsky_core::record::row;
    use rsky_data::synthetic::normal_dataset;
    use rsky_order::multisort::is_sorted_lex;

    fn setup(n: usize) -> (Disk, Dataset, RecordFile, MemoryBudget) {
        let mut rng = StdRng::seed_from_u64(21);
        let ds = normal_dataset(3, 8, n, &mut rng).unwrap();
        let mut disk = Disk::new_mem(256);
        let rf = load_dataset(&mut disk, &ds).unwrap();
        let budget = MemoryBudget::from_bytes(1024, 256).unwrap();
        (disk, ds, rf, budget)
    }

    #[test]
    fn original_layout_is_untouched() {
        let (mut disk, ds, rf, budget) = setup(50);
        let p = prepare_table(&mut disk, &ds.schema, &rf, Layout::Original, &budget).unwrap();
        assert_eq!(p.file.read_all(&mut disk).unwrap(), ds.rows);
        assert!(p.sort_outcome.is_none());
        assert_eq!(p.prep_io.total(), 0);
    }

    #[test]
    fn multisort_layout_is_sorted_permutation() {
        let (mut disk, ds, rf, budget) = setup(200);
        let p = prepare_table(&mut disk, &ds.schema, &rf, Layout::MultiSort, &budget).unwrap();
        let rows = p.file.read_all(&mut disk).unwrap();
        assert!(is_sorted_lex(&rows, &p.attr_order));
        let mut ids: Vec<u32> = rows.iter().map(row::id).collect();
        ids.sort_unstable();
        assert_eq!(ids, (0..200).collect::<Vec<u32>>());
        assert!(p.sort_outcome.is_some());
        assert!(p.prep_io.total() > 0);
    }

    #[test]
    fn tiled_layout_clusters_by_z_key() {
        let (mut disk, ds, rf, budget) = setup(200);
        let p = prepare_table(&mut disk, &ds.schema, &rf, Layout::Tiled { tiles_per_attr: 2 }, &budget)
            .unwrap();
        let rows = p.file.read_all(&mut disk).unwrap();
        let config = TileConfig::uniform(&ds.schema, 2).unwrap();
        let keys: Vec<u128> = rows.iter().map(|r| config.z_key(row::values(r))).collect();
        assert!(keys.windows(2).all(|w| w[0] <= w[1]), "tiles not in Z order");
        assert_eq!(rows.len(), 200);
    }
}
