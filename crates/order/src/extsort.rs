//! External merge sort over record files (the pre-processing of Sections 4.2
//! and 5.5).
//!
//! Classic two-stage design within a [`MemoryBudget`]:
//!
//! 1. **Run generation** — fill memory, sort, write: memory-sized sorted
//!    runs;
//! 2. **Merge** — k-way merge of runs with one page of memory per run;
//!    when the number of runs exceeds the budgeted fan-in, merge in multiple
//!    passes.
//!
//! Both stages order rows by one [`SortOrder`]. A packed `u64` prefix of the
//! sort key decides almost every comparison; the full comparator only runs
//! on equal prefixes. Run generation sorts `(prefix, row index)` pairs, and
//! the merge keeps each run's current row in its decoded page, so neither
//! stage allocates per row.
//!
//! All IO flows through the [`Disk`], so the pre-processing cost experiment
//! (Section 5.5) reads its page counts straight off the disk counters.

use std::cmp::Ordering;

use rsky_core::error::Result;
use rsky_core::record::{row, RowBuf};
use rsky_core::schema::Schema;
use rsky_storage::{Disk, MemoryBudget, RecordFile, RecordWriter};

use crate::multisort::lex_cmp;
use crate::tiling::TileConfig;

/// The total order an external sort arranges rows in: the multi-attribute
/// order of Section 4.2 under an attribute ordering, optionally led by the
/// Z-order tile key of Section 5.6. Ties on every ordered attribute fall
/// back to the record id, as in [`lex_cmp`].
#[derive(Debug, Clone)]
pub struct SortOrder {
    order: Vec<usize>,
    /// The tiling that leads the order, with the prefix field of its
    /// Z-order key.
    tiles: Option<(TileConfig, Field)>,
    /// Prefix fields after it, most significant first, each with the column
    /// of the flat row (`[id, v_0, …]`) it reads: the ordered attributes,
    /// then the id, as far as they fit.
    fields: Vec<(usize, Field)>,
}

/// One field of the packed prefix: a key component `v` contributes its top
/// bits `v >> drop` at bit `shift`. `v >> drop > max` puts `v` outside its
/// domain.
#[derive(Debug, Clone, Copy)]
struct Field {
    max: u64,
    drop: u32,
    shift: u32,
    /// The prefix bits from this field down, all set: what a component
    /// outside its domain saturates to.
    fill: u64,
}

impl SortOrder {
    /// Lexicographic by value id under `order`, then by id: the layout SRS
    /// and TRS run on. Value widths come from the schema's cardinalities.
    pub fn lex(schema: &Schema, order: &[usize]) -> Self {
        let cards: Vec<u32> = (0..schema.num_attrs()).map(|i| schema.cardinality(i)).collect();
        Self::build(&cards, order, None)
    }

    /// Z-order tile first, then lexicographic under `order`, then id: the
    /// layout of T-SRS and T-TRS.
    pub fn tiled(config: TileConfig, order: &[usize]) -> Self {
        let cards = config.cardinalities().to_vec();
        Self::build(&cards, order, Some(config))
    }

    fn build(cards: &[u32], order: &[usize], tiles: Option<TileConfig>) -> Self {
        let low_bits = |n: u32| u64::MAX.checked_shr(u64::BITS - n).unwrap_or(0);
        let mut left = u64::BITS;
        // Packs the next `bits`-wide key component below the previous ones:
        // whole, or its top bits when the prefix runs out.
        let mut take = |bits: u32| {
            if left == 0 && bits > 0 {
                return None;
            }
            let kept = bits.min(left);
            let fill = low_bits(left);
            left -= kept;
            let shift = if kept == 0 { 0 } else { left };
            Some(Field { max: low_bits(kept), drop: bits - kept, shift, fill })
        };
        let tiles = tiles.map(|t| {
            let field = take(t.z_bits()).expect("the tile key leads the prefix");
            (t, field)
        });
        let bit_len = |x: u32| u32::BITS - x.leading_zeros();
        let fields = order
            .iter()
            .map(|&a| (a + 1, bit_len(cards[a].saturating_sub(1))))
            .chain([(0, u32::BITS)])
            .map_while(|(col, bits)| Some((col, take(bits)?)))
            .collect();
        Self { order: order.to_vec(), tiles, fields }
    }

    /// The packed `u64` prefix of a flat row's sort key. It never decreases
    /// along the order, so rows whose prefixes differ compare as their
    /// prefixes do.
    fn prefix(&self, flat_row: &[u32]) -> u64 {
        let mut prefix = 0;
        if let Some((t, f)) = &self.tiles {
            let z = t.z_key(row::values(flat_row)) >> f.drop;
            if z > u128::from(f.max) {
                return f.fill;
            }
            prefix = (z as u64) << f.shift;
        }
        for &(col, f) in &self.fields {
            let v = u64::from(flat_row[col]) >> f.drop;
            if v > f.max {
                // Outside the schema's domain: saturate the rest of the
                // prefix so it stays monotone, and let the rows decide.
                return prefix | f.fill;
            }
            prefix |= v << f.shift;
        }
        prefix
    }

    /// Compares two flat rows under the order (the reference the prefix
    /// agrees with).
    fn cmp_rows(&self, a: &[u32], b: &[u32]) -> Ordering {
        let tile = match &self.tiles {
            Some((t, _)) => t.z_key(row::values(a)).cmp(&t.z_key(row::values(b))),
            None => Ordering::Equal,
        };
        tile.then_with(|| lex_cmp(a, b, &self.order))
    }
}

/// Result of an external sort.
#[derive(Debug)]
pub struct SortOutcome {
    /// The sorted output file.
    pub file: RecordFile,
    /// Sorted runs produced by run generation.
    pub runs: usize,
    /// Merge passes performed (0 when a single run sufficed).
    pub merge_passes: usize,
}

/// Sorts `input` externally by `order`. Rows with equal keys keep their
/// input order.
pub fn external_sort(
    disk: &mut Disk,
    input: &RecordFile,
    budget: &MemoryBudget,
    order: &SortOrder,
) -> Result<SortOutcome> {
    let m = input.num_attrs();
    let batch_cap = budget.phase1_records(input.record_bytes());
    let mut runs = write_runs(disk, input, batch_cap, order)?;
    if runs.is_empty() {
        return Ok(SortOutcome { file: RecordFile::create(disk, m)?, runs: 0, merge_passes: 0 });
    }
    let num_runs = runs.len();

    // One page of memory per input run plus one output page.
    let budget_pages = (budget.bytes() / disk.page_size() as u64).max(2) as usize;
    let fanin = budget_pages.saturating_sub(1).max(2);
    let mut passes = 0;
    while runs.len() > 1 {
        passes += 1;
        runs = runs
            .chunks(fanin)
            .map(|group| merge_runs(disk, group, order))
            .collect::<Result<Vec<_>>>()?;
    }
    Ok(SortOutcome {
        file: runs.pop().expect("at least one run"),
        runs: num_runs,
        merge_passes: passes,
    })
}

/// Run generation: memory-sized batches, each sorted through an index of
/// `(prefix, row index)` and written as one run.
fn write_runs(
    disk: &mut Disk,
    input: &RecordFile,
    batch_cap: usize,
    order: &SortOrder,
) -> Result<Vec<RecordFile>> {
    let m = input.num_attrs();
    let total_pages = input.num_pages(disk);
    let mut runs = Vec::new();
    let mut page = 0;
    let mut batch = RowBuf::new(m);
    let mut keys: Vec<(u64, usize)> = Vec::new();
    while page < total_pages {
        batch.clear();
        let (pages, _) = input.read_batch(disk, page, batch_cap, &mut batch)?;
        page += pages;
        keys.clear();
        keys.extend(batch.iter().enumerate().map(|(i, r)| (order.prefix(r), i)));
        keys.sort_unstable();
        // Rows with equal prefixes: the full comparator decides, and the
        // stable sort keeps equal keys in input order.
        for group in keys.chunk_by_mut(|x, y| x.0 == y.0).filter(|g| g.len() > 1) {
            group.sort_by(|x, y| order.cmp_rows(batch.flat_row(x.1), batch.flat_row(y.1)));
        }
        let mut writer = RecordWriter::create(disk, m)?;
        for &(_, i) in &keys {
            writer.push(disk, batch.flat_row(i))?;
        }
        runs.push(writer.finish(disk)?);
    }
    Ok(runs)
}

/// A sorted run being merged: its current page of rows and the position of
/// the current row in it. A cursor with no page read yet sits before the
/// run's first row.
struct RunCursor {
    rf: RecordFile,
    next_page: u64,
    rows: RowBuf,
    pos: usize,
}

impl RunCursor {
    /// Moves to the next row, reading the run's next page once the current
    /// one is used up. Returns `false` at the end of the run.
    fn advance(&mut self, disk: &mut Disk) -> Result<bool> {
        self.pos += 1;
        if self.pos >= self.rows.len() {
            if self.next_page >= self.rf.num_pages(disk) {
                return Ok(false);
            }
            self.rows.clear();
            self.rf.read_page_rows(disk, self.next_page, &mut self.rows)?;
            self.next_page += 1;
            self.pos = 0;
        }
        Ok(true)
    }

    fn row(&self) -> &[u32] {
        self.rows.flat_row(self.pos)
    }
}

/// Merges sorted runs into a single sorted file. A binary min-heap of
/// `(prefix, run)` picks the next row; equal keys leave the earlier run
/// first, which keeps the sort stable.
fn merge_runs(disk: &mut Disk, runs: &[RecordFile], order: &SortOrder) -> Result<RecordFile> {
    let m = runs[0].num_attrs();
    let mut writer = RecordWriter::create(disk, m)?;
    let mut cursors = Vec::with_capacity(runs.len());
    for rf in runs {
        let mut c = RunCursor { rf: rf.clone(), next_page: 0, rows: RowBuf::new(m), pos: 0 };
        if c.advance(disk)? {
            cursors.push(c);
        }
    }
    let less = |cursors: &[RunCursor], &(pa, a): &(u64, usize), &(pb, b): &(u64, usize)| {
        let rows = || order.cmp_rows(cursors[a].row(), cursors[b].row());
        pa.cmp(&pb).then_with(rows).then(a.cmp(&b)) == Ordering::Less
    };
    let mut heap: Vec<(u64, usize)> =
        cursors.iter().enumerate().map(|(i, c)| (order.prefix(c.row()), i)).collect();
    for i in (0..heap.len() / 2).rev() {
        sift_down(&mut heap, i, |x, y| less(&cursors, x, y));
    }
    while let Some(&(_, top)) = heap.first() {
        writer.push(disk, cursors[top].row())?;
        if cursors[top].advance(disk)? {
            heap[0].0 = order.prefix(cursors[top].row());
        } else {
            heap.swap_remove(0);
        }
        sift_down(&mut heap, 0, |x, y| less(&cursors, x, y));
    }
    writer.finish(disk)
}

/// Restores the min-heap property of `heap` below slot `i` under `less`.
fn sift_down<T>(heap: &mut [T], mut i: usize, less: impl Fn(&T, &T) -> bool) {
    loop {
        let mut child = 2 * i + 1;
        if child >= heap.len() {
            return;
        }
        if child + 1 < heap.len() && less(&heap[child + 1], &heap[child]) {
            child += 1;
        }
        if !less(&heap[child], &heap[i]) {
            return;
        }
        heap.swap(i, child);
        i = child;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::multisort::sort_rows_lex;
    use crate::tiling::sort_rows_tiled;
    use rsky_core::record::row;
    use rsky_core::stats::IoCounts;

    /// `n` pseudo-random rows (LCG) over `cards`, ids `0..n`.
    fn lcg_rows(cards: &[u32], n: usize, seed: u64) -> RowBuf {
        let mut state = seed.wrapping_mul(6364136223846793005).wrapping_add(1);
        let mut rows = RowBuf::new(cards.len());
        for i in 0..n {
            let vals: Vec<u32> = cards
                .iter()
                .map(|&c| {
                    state =
                        state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                    ((state >> 33) % c as u64) as u32
                })
                .collect();
            rows.push(i as u32, &vals);
        }
        rows
    }

    fn write(disk: &mut Disk, rows: &RowBuf) -> RecordFile {
        let mut rf = RecordFile::create(disk, rows.num_attrs()).unwrap();
        rf.write_all(disk, rows).unwrap();
        rf
    }

    /// External sort of `rows` under `order` must equal the in-memory
    /// reference row for row.
    fn assert_matches_reference(
        rows: &RowBuf,
        order: &SortOrder,
        expect: &RowBuf,
        page: usize,
        mem: u64,
    ) {
        let mut disk = Disk::new_mem(page);
        let input = write(&mut disk, rows);
        let budget = MemoryBudget::from_bytes(mem, page).unwrap();
        let o = external_sort(&mut disk, &input, &budget, order).unwrap();
        assert_eq!(&o.file.read_all(&mut disk).unwrap(), expect, "page {page} mem {mem}");
    }

    fn lex_reference(rows: &RowBuf, order: &[usize]) -> RowBuf {
        let mut expect = rows.clone();
        sort_rows_lex(&mut expect, order);
        expect
    }

    #[test]
    fn single_run_needs_no_merge() {
        let s = Schema::with_cardinalities(&[10, 10, 10]).unwrap();
        let rows = lcg_rows(&[10, 10, 10], 10, 7);
        let mut disk = Disk::new_mem(256);
        let input = write(&mut disk, &rows);
        let budget = MemoryBudget::from_bytes(10_000, 256).unwrap();
        let o = external_sort(&mut disk, &input, &budget, &SortOrder::lex(&s, &[0, 1, 2])).unwrap();
        assert_eq!(o.runs, 1);
        assert_eq!(o.merge_passes, 0);
        assert_eq!(o.file.read_all(&mut disk).unwrap(), lex_reference(&rows, &[0, 1, 2]));
    }

    #[test]
    fn multiple_runs_single_pass() {
        let s = Schema::with_cardinalities(&[10, 10, 10]).unwrap();
        let rows = lcg_rows(&[10, 10, 10], 200, 3);
        let mut disk = Disk::new_mem(256); // 16 rows/page for m=3
        let input = write(&mut disk, &rows);
        // budget 1 KiB = 4 pages → 64 records per run, fanin = 3.
        let budget = MemoryBudget::from_bytes(1024, 256).unwrap();
        let o = external_sort(&mut disk, &input, &budget, &SortOrder::lex(&s, &[0, 1, 2])).unwrap();
        assert!(o.runs >= 3, "expected several runs, got {}", o.runs);
        assert!(o.merge_passes >= 1);
        assert_eq!(o.file.read_all(&mut disk).unwrap(), lex_reference(&rows, &[0, 1, 2]));
    }

    #[test]
    fn tiny_budget_forces_multipass_merge() {
        let s = Schema::with_cardinalities(&[10, 10, 10]).unwrap();
        let rows = lcg_rows(&[10, 10, 10], 160, 11);
        let mut disk = Disk::new_mem(64); // 4 rows/page for m=3
        let input = write(&mut disk, &rows);
        // One page of memory → runs of one page, fanin forced to 2.
        let budget = MemoryBudget::from_bytes(64, 64).unwrap();
        let o = external_sort(&mut disk, &input, &budget, &SortOrder::lex(&s, &[0, 1, 2])).unwrap();
        assert_eq!(o.runs, 40);
        assert!(o.merge_passes >= 5, "40 runs at fanin 2 need ≥ 6 passes, got {}", o.merge_passes);
        assert_eq!(o.file.read_all(&mut disk).unwrap(), lex_reference(&rows, &[0, 1, 2]));
    }

    #[test]
    fn empty_input_yields_empty_output() {
        let s = Schema::with_cardinalities(&[10, 10, 10]).unwrap();
        let mut disk = Disk::new_mem(256);
        let input = RecordFile::create(&mut disk, 3).unwrap();
        let budget = MemoryBudget::from_bytes(1024, 256).unwrap();
        let o = external_sort(&mut disk, &input, &budget, &SortOrder::lex(&s, &[0, 1, 2])).unwrap();
        assert_eq!(o.file.len(), 0);
        assert_eq!(o.runs, 0);
    }

    #[test]
    fn respects_attribute_order_permutation() {
        let s = Schema::with_cardinalities(&[2, 2]).unwrap();
        let mut rows = RowBuf::new(2);
        rows.push(0, &[1, 0]);
        rows.push(1, &[0, 1]);
        let mut disk = Disk::new_mem(256);
        let input = write(&mut disk, &rows);
        let budget = MemoryBudget::from_bytes(4096, 256).unwrap();
        let o = external_sort(&mut disk, &input, &budget, &SortOrder::lex(&s, &[1, 0])).unwrap();
        let out = o.file.read_all(&mut disk).unwrap();
        assert_eq!(out.id(0), 0); // value 0 on attribute 1 first
    }

    #[test]
    fn duplicate_heavy_input_stays_stable_by_id() {
        let s = Schema::with_cardinalities(&[4, 4, 4]).unwrap();
        let mut rows = RowBuf::new(3);
        for i in 0..40 {
            rows.push(i, &[1, 2, 3]);
        }
        let mut disk = Disk::new_mem(64);
        let input = write(&mut disk, &rows);
        let budget = MemoryBudget::from_bytes(64, 64).unwrap();
        let o = external_sort(&mut disk, &input, &budget, &SortOrder::lex(&s, &[0, 1, 2])).unwrap();
        let out = o.file.read_all(&mut disk).unwrap();
        let ids: Vec<u32> = out.iter().map(row::id).collect();
        assert_eq!(ids, (0..40).collect::<Vec<u32>>());
    }

    #[test]
    fn equal_keys_keep_input_order_across_runs() {
        // Ordered on attribute 0 alone under one shared id, rows tie in
        // groups of 30 and only stability orders them: 12 one-page runs,
        // merged two at a time.
        let s = Schema::with_cardinalities(&[2, 100]).unwrap();
        let mut rows = RowBuf::new(2);
        for i in 0..60 {
            rows.push(7, &[i % 2, i]);
        }
        let expect = lex_reference(&rows, &[0]);
        assert_matches_reference(&rows, &SortOrder::lex(&s, &[0]), &expect, 64, 64);
    }

    #[test]
    fn key_overflowing_the_prefix_sorts_like_the_reference() {
        // ForestCover cardinalities: 33 value bits under the ascending
        // ordering, so the id only partly fits and equal prefixes fall to
        // the full comparator.
        let cards = [67, 551, 2, 700, 2, 7, 2];
        let s = Schema::with_cardinalities(&cards).unwrap();
        let order = crate::ascending_cardinality_order(&s);
        let lex = SortOrder::lex(&s, &order);
        let mut rows = lcg_rows(&cards, 300, 5);
        // Duplicate values under distinct ids, and duplicate ids.
        let (a, b) = (rows.flat_row(7).to_vec(), rows.flat_row(8).to_vec());
        for i in 0..60u32 {
            rows.push(1000 + (i % 4) * 2, row::values(&a));
            rows.push(1001 + (i % 4) * 2, row::values(&a));
            rows.push(row::id(&b), row::values(if i % 2 == 0 { &a } else { &b }));
        }
        let expect = lex_reference(&rows, &order);
        for (page, mem) in [(128, 128), (128, 1024), (256, 1 << 20)] {
            assert_matches_reference(&rows, &lex, &expect, page, mem);
        }
    }

    #[test]
    fn whole_key_prefix_sorts_like_the_reference() {
        let cards = [50, 50, 50, 50, 50];
        let s = Schema::with_cardinalities(&cards).unwrap();
        // 5 × 6 value bits + 32 id bits: the whole key fits the prefix.
        let lex = SortOrder::lex(&s, &[3, 1, 4, 0, 2]);
        let mut rows = lcg_rows(&cards, 400, 9);
        let dup = rows.flat_row(3).to_vec();
        for _ in 0..20 {
            rows.push_flat(&dup);
        }
        let expect = lex_reference(&rows, &[3, 1, 4, 0, 2]);
        for (page, mem) in [(64, 64), (128, 512), (4096, 1 << 20)] {
            assert_matches_reference(&rows, &lex, &expect, page, mem);
        }
    }

    #[test]
    fn tiled_sort_matches_in_memory_tiled_sort() {
        for (cards, tiles) in
            [(vec![8, 8], 2), (vec![50, 50, 50, 50, 50], 4), (vec![67, 551, 2, 700, 2, 7, 2], 3)]
        {
            let s = Schema::with_cardinalities(&cards).unwrap();
            let order = crate::ascending_cardinality_order(&s);
            let config = TileConfig::uniform(&s, tiles).unwrap();
            let mut rows = lcg_rows(&cards, 300, 13);
            let dup = rows.flat_row(0).to_vec();
            rows.push_flat(&dup);
            let mut expect = rows.clone();
            sort_rows_tiled(&mut expect, &config, &order);
            let tiled = SortOrder::tiled(config, &order);
            for (page, mem) in [(128, 256), (256, 4096)] {
                assert_matches_reference(&rows, &tiled, &expect, page, mem);
            }
        }
    }

    #[test]
    fn prefix_is_monotone_even_outside_the_domain() {
        // Values past an attribute's cardinality saturate the prefix rather
        // than spill into the next field, so the order stays correct.
        let s = Schema::with_cardinalities(&[4, 4]).unwrap();
        let lex = SortOrder::lex(&s, &[0, 1]);
        let mut rows = RowBuf::new(2);
        rows.push(0, &[3, 3]);
        rows.push(1, &[4, 0]);
        rows.push(2, &[9, 1]);
        rows.push(3, &[3, 9]);
        rows.push(4, &[0, 0]);
        let expect = lex_reference(&rows, &[0, 1]);
        assert_matches_reference(&rows, &lex, &expect, 64, 64);
        for i in 1..expect.len() {
            assert!(lex.prefix(expect.flat_row(i - 1)) <= lex.prefix(expect.flat_row(i)));
        }
    }

    #[test]
    fn run_merge_and_io_counts_are_pinned() {
        // n = 10k, 5 × 50, 4 KiB in-memory disk, 10 % memory: the cost units
        // of the Section 5.5 experiment.
        let cards = [50; 5];
        let s = Schema::with_cardinalities(&cards).unwrap();
        let rows = lcg_rows(&cards, 10_000, 17);
        let mut disk = Disk::new_mem(4096);
        let input = write(&mut disk, &rows);
        let budget = MemoryBudget::from_percent(input.data_bytes(), 10.0, 4096).unwrap();
        let before = disk.io_stats();
        let order = crate::ascending_cardinality_order(&s);
        let o = external_sort(&mut disk, &input, &budget, &SortOrder::lex(&s, &order)).unwrap();
        let io = disk.io_stats().delta_since(before);
        assert_eq!((o.runs, o.merge_passes), (12, 2));
        assert_eq!(
            io,
            IoCounts { seq_reads: 47, rand_reads: 130, seq_writes: 101, rand_writes: 76 }
        );
        assert_eq!(o.file.read_all(&mut disk).unwrap(), lex_reference(&rows, &order));
    }
}
