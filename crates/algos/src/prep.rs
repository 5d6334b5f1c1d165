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
//!
//! A table that serves many queries is a [`SortedTable`]: sorted once, kept
//! in the multi-sort order through inserts and removals, and encoded into
//! one page image per layout, a bare [`SharedRecords`] that records nothing
//! and holds no disk. Each query mounts it on a scratch disk of its own
//! ([`run_on_image`]); the sharded executor also scans Original images
//! directly, on a head of their own.

use std::cmp::Ordering;
use std::ops::Range;
use std::sync::{Mutex, PoisonError};
use std::time::{Duration, Instant};

use rsky_core::dataset::Dataset;
use rsky_core::dissim::DissimTable;
use rsky_core::error::{Error, Result};
use rsky_core::query::Query;
use rsky_core::record::{RecordId, RowBuf};
use rsky_core::schema::Schema;
use rsky_core::stats::IoCounts;
use rsky_order::tiling::TileConfig;
use rsky_order::{
    ascending_cardinality_order, external_sort, lex_cmp, sort_rows_lex, SortOrder, SortOutcome,
};
use rsky_storage::{Disk, MemoryBudget, RecordFile, RecordWriter, SharedRecords};

use crate::engine::{EngineCtx, ReverseSkylineAlgo, RsRun};

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

/// A page image kept with the layout it holds.
type Slot = Mutex<Option<(Layout, SharedRecords)>>;

/// A table that serves many queries: its rows in the multi-sort order of
/// [`Layout::MultiSort`] (the ascending-cardinality attribute ordering,
/// ties broken by record id, so the order is total up to identical rows),
/// and one page image per layout.
///
/// The table is sorted once, when it is created. [`insert`](Self::insert)
/// and [`expire`](Self::expire) return the next version, with the row put
/// where a binary search finds its place or taken out of it: no write
/// re-sorts. The rows in generation order stay with the caller (a
/// dataset or a shard part), which passes them wherever they are needed.
///
/// [`image`](Self::image) encodes a layout at most once, on first use:
/// Original from the generation-order rows, MultiSort from the kept order,
/// and Tiled by one external sort of the Original image. Each image is
/// byte for byte the file [`load_dataset`] and [`prepare_table`] write.
/// Only a successful encode is kept: a failure reaches its caller as it is,
/// and the next caller encodes again.
pub struct SortedTable {
    /// The attribute ordering of the kept order.
    order: Vec<usize>,
    /// The rows in the multi-sort order.
    sorted: RowBuf,
    original: Slot,
    multisort: Slot,
    tiled: Slot,
}

impl SortedTable {
    /// Sorts a copy of `rows` into the multi-sort order of `schema`.
    pub fn new(schema: &Schema, rows: &RowBuf) -> Self {
        let order = ascending_cardinality_order(schema);
        let mut sorted = rows.clone();
        sort_rows_lex(&mut sorted, &order);
        Self::kept(order, sorted)
    }

    fn kept(order: Vec<usize>, sorted: RowBuf) -> Self {
        let (original, multisort, tiled) = (Slot::default(), Slot::default(), Slot::default());
        Self { order, sorted, original, multisort, tiled }
    }

    /// `rows` with `row` (id first) appended, and this table with `row`
    /// where a binary search puts it: the next version of both, which has
    /// encoded no image yet.
    pub fn insert(&self, rows: &RowBuf, row: &[u32]) -> (RowBuf, Self) {
        let at = lower_bound(&self.sorted, row, &self.order);
        let sorted = with_row_at(&self.sorted, at, row);
        (with_row_at(rows, rows.len(), row), Self::kept(self.order.clone(), sorted))
    }

    /// `rows` and this table without any copy of record `id`, or `None`
    /// when `rows` holds none.
    pub fn expire(&self, rows: &RowBuf, id: RecordId) -> Option<(RowBuf, Self)> {
        let copies = copies_of(rows, id)?;
        // Each copy sits in the kept order where a binary search puts it,
        // in a run of rows identical to it.
        let mut gaps: Vec<Range<usize>> = copies
            .iter()
            .map(|copy| {
                let row = rows.flat_row(copy.start);
                let start = lower_bound(&self.sorted, row, &self.order);
                let len = (start..self.sorted.len())
                    .take_while(|&j| self.sorted.flat_row(j) == row)
                    .count();
                start..start + len
            })
            .collect();
        gaps.sort_unstable_by_key(|gap| gap.start);
        gaps.dedup();
        let sorted = without_rows(&self.sorted, &gaps);
        Some((without_rows(rows, &copies), Self::kept(self.order.clone(), sorted)))
    }

    /// The page image of `layout` on pages of `budget`'s size, for the
    /// table whose generation-order rows are `rows`: encoded by the first
    /// caller, which the others wait for, and shared from then on. A Tiled
    /// image sorts within `budget`.
    ///
    /// # Errors
    /// The error encoding fails with, unchanged (a record that does not fit
    /// a page is [`Error::InvalidConfig`]); [`Error::InvalidConfig`] when
    /// the Tiled image was encoded with another tile count.
    pub fn image(
        &self,
        schema: &Schema,
        rows: &RowBuf,
        layout: &Layout,
        budget: &MemoryBudget,
    ) -> Result<SharedRecords> {
        let slot = match layout {
            Layout::Original => &self.original,
            Layout::MultiSort => &self.multisort,
            Layout::Tiled { .. } => &self.tiled,
        };
        // A slot holds nothing or a whole image, so a panic in another
        // caller's encode leaves it usable.
        let mut slot = slot.lock().unwrap_or_else(PoisonError::into_inner);
        match &*slot {
            Some((kept, image)) if kept == layout => return Ok(image.clone()),
            Some((kept, _)) => {
                let held = format!("the table holds {kept:?}, not {layout:?}");
                return Err(Error::InvalidConfig(held));
            }
            None => {}
        }
        let page = budget.page_size();
        let image = match layout {
            Layout::Original => encode(page, |disk| write(disk, rows))?,
            Layout::MultiSort => encode(page, |disk| write(disk, &self.sorted))?,
            Layout::Tiled { .. } => {
                let original = self.image(schema, rows, &Layout::Original, budget)?;
                encode(page, |disk| {
                    let raw = original.mount(disk)?;
                    let order = sort_order(schema, layout)?.expect("a tiled layout sorts");
                    Ok(external_sort(disk, &raw, budget, &order)?.file)
                })?
            }
        };
        *slot = Some((layout.clone(), image.clone()));
        Ok(image)
    }
}

/// Runs `engine` over `image`, mounted on a fresh scratch disk that is
/// dropped with the engine's scratch files (the R-file) when the run ends.
/// A mounted image reads exactly like a freshly prepared table, so the
/// run costs what it costs there, whatever ran before it.
pub fn run_on_image(
    engine: &dyn ReverseSkylineAlgo,
    image: &SharedRecords,
    schema: &Schema,
    dissim: &DissimTable,
    budget: MemoryBudget,
    query: &Query,
) -> Result<RsRun> {
    let mut disk = Disk::new_mem(image.page_size());
    let table = image.mount(&mut disk)?;
    engine.run(&mut EngineCtx { disk: &mut disk, schema, dissim, budget }, &table, query)
}

/// Keeps the pages of the file `build` writes on a scratch disk.
fn encode(
    page: usize,
    build: impl FnOnce(&mut Disk) -> Result<RecordFile>,
) -> Result<SharedRecords> {
    let mut disk = Disk::new_mem(page);
    build(&mut disk)?.share(&disk)
}

/// Writes `rows` as a new record file.
fn write(disk: &mut Disk, rows: &RowBuf) -> Result<RecordFile> {
    let mut writer = RecordWriter::create(disk, rows.num_attrs())?;
    writer.push_all(disk, rows)?;
    writer.finish(disk)
}

/// The rows of `rows` that hold record `id`, each as a one-row range;
/// `None` when there is none.
pub(crate) fn copies_of(rows: &RowBuf, id: RecordId) -> Option<Vec<Range<usize>>> {
    let copies: Vec<Range<usize>> =
        (0..rows.len()).filter(|&i| rows.id(i) == id).map(|i| i..i + 1).collect();
    (!copies.is_empty()).then_some(copies)
}

/// `rows` with `row` inserted before row `at`, built in one exact-capacity
/// pass.
pub(crate) fn with_row_at(rows: &RowBuf, at: usize, row: &[u32]) -> RowBuf {
    let (flat, w) = (rows.as_flat(), rows.row_width());
    let mut out = RowBuf::with_capacity(rows.num_attrs(), rows.len() + 1);
    out.extend_flat(flat[..at * w].iter().copied());
    out.push_flat(row);
    out.extend_flat(flat[at * w..].iter().copied());
    out
}

/// `rows` without the rows in `gaps` (ascending, disjoint ranges of row
/// indices), built in one exact-capacity pass.
pub(crate) fn without_rows(rows: &RowBuf, gaps: &[Range<usize>]) -> RowBuf {
    let (flat, w) = (rows.as_flat(), rows.row_width());
    let removed: usize = gaps.iter().map(ExactSizeIterator::len).sum();
    let mut out = RowBuf::with_capacity(rows.num_attrs(), rows.len() - removed);
    let mut from = 0;
    for gap in gaps.iter().chain([&(rows.len()..rows.len())]) {
        out.extend_flat(flat[from * w..gap.start * w].iter().copied());
        from = gap.end;
    }
    out
}

/// The first row of `sorted` that does not order before `row`.
fn lower_bound(sorted: &RowBuf, row: &[u32], order: &[usize]) -> usize {
    let (mut lo, mut hi) = (0, sorted.len());
    while lo < hi {
        let mid = lo + (hi - lo) / 2;
        if lex_cmp(sorted.flat_row(mid), row, order) == Ordering::Less {
            lo = mid + 1;
        } else {
            hi = mid;
        }
    }
    lo
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
