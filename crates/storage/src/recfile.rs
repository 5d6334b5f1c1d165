//! Fixed-width record files on a [`Disk`].
//!
//! Records are the flat rows of [`rsky_core::record`]: `m + 1` little-endian
//! `u32`s (`[id, v_0, …, v_{m-1}]`). A page holds
//! `page_size / (4 · (m + 1))` records; the last page may be partially
//! filled, trailing bytes are zero and ignored (the record count is tracked
//! by the [`RecordFile`] handle).

use rsky_core::error::{Error, Result};
use rsky_core::record::{row, RowBuf};

use crate::disk::{Disk, FileId};

/// Decodes `count` fixed-width records from a raw page image into `out`
/// (appended), as one bulk word copy. Shared by [`RecordFile::read_page_rows`]
/// and the concurrent scanners in [`crate::shared`] so both decode
/// identically.
pub(crate) fn decode_page_rows(buf: &[u8], m: usize, count: usize, out: &mut RowBuf) {
    let bytes = &buf[..count * row::width(m) * 4];
    out.extend_flat(bytes.chunks_exact(4).map(|w| u32::from_le_bytes([w[0], w[1], w[2], w[3]])));
}

/// Handle to a file of fixed-width records.
#[derive(Debug, Clone)]
pub struct RecordFile {
    file: FileId,
    /// Attributes per record.
    m: usize,
    /// Total records.
    n: u64,
}

impl RecordFile {
    /// Creates an empty record file for rows of `m` attributes.
    pub fn create(disk: &mut Disk, m: usize) -> Result<Self> {
        let rec_bytes = row::width(m) * 4;
        if rec_bytes > disk.page_size() {
            return Err(Error::InvalidConfig(format!(
                "record of {rec_bytes} bytes exceeds page size {}",
                disk.page_size()
            )));
        }
        Ok(Self { file: disk.create_file()?, m, n: 0 })
    }

    /// The handle of a file of `n` records that is already on the disk
    /// (see [`SharedRecords::mount`](crate::SharedRecords::mount)).
    pub(crate) fn mounted(file: FileId, m: usize, n: u64) -> Self {
        Self { file, m, n }
    }

    /// Underlying disk file.
    #[inline]
    pub fn file_id(&self) -> FileId {
        self.file
    }

    /// Attributes per record.
    #[inline]
    pub fn num_attrs(&self) -> usize {
        self.m
    }

    /// Total records stored.
    #[inline]
    pub fn len(&self) -> u64 {
        self.n
    }

    /// Whether the file holds no records.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// Bytes one record occupies.
    #[inline]
    pub fn record_bytes(&self) -> usize {
        row::width(self.m) * 4
    }

    /// Records that fit in one page.
    #[inline]
    pub fn records_per_page(&self, disk: &Disk) -> usize {
        disk.page_size() / self.record_bytes()
    }

    /// Number of pages the current contents occupy.
    pub fn num_pages(&self, disk: &Disk) -> u64 {
        let rpp = self.records_per_page(disk) as u64;
        self.n.div_ceil(rpp)
    }

    /// Total bytes of live record data (the paper's "dataset size", the base
    /// of the memory-percentage knob).
    pub fn data_bytes(&self) -> u64 {
        self.n * self.record_bytes() as u64
    }

    /// Removes all records.
    pub fn truncate(&mut self, disk: &mut Disk) -> Result<()> {
        disk.truncate(self.file)?;
        self.n = 0;
        Ok(())
    }

    /// Decodes the records of page `page` into `out` (appended).
    pub fn read_page_rows(&self, disk: &mut Disk, page: u64, out: &mut RowBuf) -> Result<usize> {
        let rpp = self.records_per_page(disk) as u64;
        let start = page * rpp;
        if start >= self.n {
            return Err(Error::Corrupt(format!(
                "page {page} past end of record file ({} records)",
                self.n
            )));
        }
        let count = (self.n - start).min(rpp) as usize;
        decode_page_rows(disk.read_page_ref(self.file, page)?, self.m, count, out);
        Ok(count)
    }

    /// Reads pages `[first_page, …]` until `max_records` records have been
    /// decoded or the file ends. Returns `(pages_read, records_read)`.
    pub fn read_batch(
        &self,
        disk: &mut Disk,
        first_page: u64,
        max_records: usize,
        out: &mut RowBuf,
    ) -> Result<(u64, usize)> {
        let mut pages = 0;
        let mut records = 0;
        let rpp = self.records_per_page(disk);
        let total_pages = self.num_pages(disk);
        let mut page = first_page;
        while page < total_pages && records + rpp <= max_records.max(rpp) {
            let got = self.read_page_rows(disk, page, out)?;
            records += got;
            pages += 1;
            page += 1;
            if records >= max_records {
                break;
            }
        }
        Ok((pages, records))
    }

    /// Reads the whole file into memory.
    pub fn read_all(&self, disk: &mut Disk) -> Result<RowBuf> {
        let mut out = RowBuf::with_capacity(self.m, self.n as usize);
        for page in 0..self.num_pages(disk) {
            self.read_page_rows(disk, page, &mut out)?;
        }
        Ok(out)
    }

    /// Writes all of `rows`, replacing current contents.
    pub fn write_all(&mut self, disk: &mut Disk, rows: &RowBuf) -> Result<()> {
        self.truncate(disk)?;
        let mut w = RecordWriter::new(disk, self.clone());
        w.push_all(disk, rows)?;
        *self = w.finish(disk)?;
        Ok(())
    }
}

/// Streaming appender packing records into full pages.
///
/// Buffers one page worth of records; [`RecordWriter::push`] flushes the page
/// to disk when full, [`RecordWriter::finish`] flushes the trailing partial
/// page and returns the updated [`RecordFile`].
#[derive(Debug)]
pub struct RecordWriter {
    rf: RecordFile,
    /// Page image being filled. Bytes past the last record slot are never
    /// written, so they stay zero; a partial page's unused slots are zeroed
    /// when it is flushed.
    page_buf: Vec<u8>,
    records_per_page: usize,
    in_page: usize,
}

impl RecordWriter {
    /// Starts appending at the end of `rf`.
    ///
    /// # Panics
    /// Panics if `rf` ends in a partial page (append-after-partial is not a
    /// pattern the engines need; rewrite the file instead).
    pub fn new(disk: &Disk, rf: RecordFile) -> Self {
        let records_per_page = rf.records_per_page(disk);
        assert!(
            rf.n.is_multiple_of(records_per_page as u64),
            "cannot append to a record file that ends in a partial page ({} records, {records_per_page} per page)",
            rf.n
        );
        Self { rf, page_buf: vec![0u8; disk.page_size()], records_per_page, in_page: 0 }
    }

    /// Creates an empty record file for rows of `m` attributes and starts
    /// writing it.
    pub fn create(disk: &mut Disk, m: usize) -> Result<Self> {
        let rf = RecordFile::create(disk, m)?;
        Ok(Self::new(disk, rf))
    }

    /// Target record file (observes the record count *excluding* unflushed
    /// buffered rows).
    pub fn record_file(&self) -> &RecordFile {
        &self.rf
    }

    /// Appends one flat row.
    ///
    /// # Panics
    /// Panics if `flat_row` is not one row of the file's width.
    pub fn push(&mut self, disk: &mut Disk, flat_row: &[u32]) -> Result<()> {
        let rec = self.rf.record_bytes();
        assert_eq!(flat_row.len() * 4, rec, "flat row width mismatch");
        let base = self.in_page * rec;
        for (dst, v) in self.page_buf[base..base + rec].chunks_exact_mut(4).zip(flat_row) {
            dst.copy_from_slice(&v.to_le_bytes());
        }
        self.in_page += 1;
        if self.in_page == self.records_per_page {
            self.flush_page(disk)?;
        }
        Ok(())
    }

    /// Appends every row of `rows`.
    pub fn push_all(&mut self, disk: &mut Disk, rows: &RowBuf) -> Result<()> {
        for r in rows.iter() {
            self.push(disk, r)?;
        }
        Ok(())
    }

    fn flush_page(&mut self, disk: &mut Disk) -> Result<()> {
        if self.in_page == 0 {
            return Ok(());
        }
        // A partial page still holds the previous page's records past its
        // last one: zero them, as the format requires.
        let rec = self.rf.record_bytes();
        self.page_buf[self.in_page * rec..self.records_per_page * rec].fill(0);
        disk.append_page(self.rf.file, &self.page_buf)?;
        self.rf.n += self.in_page as u64;
        self.in_page = 0;
        Ok(())
    }

    /// Flushes the trailing partial page and returns the record file.
    pub fn finish(mut self, disk: &mut Disk) -> Result<RecordFile> {
        self.flush_page(disk)?;
        Ok(self.rf)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rows(m: usize, n: usize) -> RowBuf {
        let mut b = RowBuf::new(m);
        for i in 0..n {
            let vals: Vec<u32> = (0..m).map(|k| ((i * 31 + k * 7) % 97) as u32).collect();
            b.push(i as u32, &vals);
        }
        b
    }

    #[test]
    fn round_trip_exact_pages() {
        // page 64 bytes, m=3 → record 16 bytes → 4 records/page.
        let mut disk = Disk::new_mem(64);
        let mut rf = RecordFile::create(&mut disk, 3).unwrap();
        let data = rows(3, 8);
        rf.write_all(&mut disk, &data).unwrap();
        assert_eq!(rf.len(), 8);
        assert_eq!(rf.num_pages(&disk), 2);
        assert_eq!(rf.read_all(&mut disk).unwrap(), data);
    }

    #[test]
    fn round_trip_partial_last_page() {
        let mut disk = Disk::new_mem(64);
        let mut rf = RecordFile::create(&mut disk, 3).unwrap();
        let data = rows(3, 7);
        rf.write_all(&mut disk, &data).unwrap();
        assert_eq!(rf.num_pages(&disk), 2);
        let back = rf.read_all(&mut disk).unwrap();
        assert_eq!(back, data);
    }

    #[test]
    fn read_page_rows_respects_record_count() {
        let mut disk = Disk::new_mem(64);
        let mut rf = RecordFile::create(&mut disk, 3).unwrap();
        rf.write_all(&mut disk, &rows(3, 5)).unwrap();
        let mut out = RowBuf::new(3);
        assert_eq!(rf.read_page_rows(&mut disk, 0, &mut out).unwrap(), 4);
        assert_eq!(rf.read_page_rows(&mut disk, 1, &mut out).unwrap(), 1);
        assert_eq!(out.len(), 5);
        assert!(rf.read_page_rows(&mut disk, 2, &mut out).is_err());
    }

    #[test]
    fn read_batch_honours_record_budget() {
        let mut disk = Disk::new_mem(64);
        let mut rf = RecordFile::create(&mut disk, 3).unwrap();
        rf.write_all(&mut disk, &rows(3, 20)).unwrap(); // 5 pages
        let mut out = RowBuf::new(3);
        // Budget of 10 records = 2 whole pages (a third page would overshoot
        // the memory budget: 12 > 10).
        let (pages, recs) = rf.read_batch(&mut disk, 0, 10, &mut out).unwrap();
        assert_eq!(pages, 2);
        assert_eq!(recs, 8);
        // Tiny budget still reads at least one page.
        let mut out2 = RowBuf::new(3);
        let (pages, recs) = rf.read_batch(&mut disk, 3, 1, &mut out2).unwrap();
        assert_eq!(pages, 1);
        assert_eq!(recs, 4);
    }

    #[test]
    fn read_batch_stops_at_eof() {
        let mut disk = Disk::new_mem(64);
        let mut rf = RecordFile::create(&mut disk, 3).unwrap();
        rf.write_all(&mut disk, &rows(3, 6)).unwrap();
        let mut out = RowBuf::new(3);
        let (pages, recs) = rf.read_batch(&mut disk, 0, 1000, &mut out).unwrap();
        assert_eq!(pages, 2);
        assert_eq!(recs, 6);
        let (pages, recs) = rf.read_batch(&mut disk, 2, 1000, &mut out).unwrap();
        assert_eq!((pages, recs), (0, 0));
    }

    #[test]
    fn writer_counts_only_flushed_records() {
        let mut disk = Disk::new_mem(64);
        let rf = RecordFile::create(&mut disk, 3).unwrap();
        let mut w = RecordWriter::new(&disk, rf);
        w.push(&mut disk, &[0, 1, 2, 3]).unwrap();
        assert_eq!(w.record_file().len(), 0); // buffered, not flushed
        let rf = w.finish(&mut disk).unwrap();
        assert_eq!(rf.len(), 1);
    }

    #[test]
    fn partial_last_page_trailing_bytes_stay_zero() {
        // page 70 bytes, m=3 → 4 records/page plus 6 slack bytes. Page 0
        // fills every record slot; page 1 holds 2 records and must not keep
        // page 0's records 2–3 behind them.
        let mut disk = Disk::new_mem(70);
        let mut rf = RecordFile::create(&mut disk, 3).unwrap();
        let data = rows(3, 6);
        rf.write_all(&mut disk, &data).unwrap();
        let mut page = vec![0u8; 70];
        disk.read_page(rf.file_id(), 0, &mut page).unwrap();
        assert!(page[64..].iter().all(|&b| b == 0), "slack after full page not zero");
        disk.read_page(rf.file_id(), 1, &mut page).unwrap();
        assert!(page[32..].iter().all(|&b| b == 0), "bytes after the last record not zero");
        assert_eq!(u32::from_le_bytes(page[16..20].try_into().unwrap()), 5);
        assert_eq!(rf.read_all(&mut disk).unwrap(), data);
    }

    #[test]
    #[should_panic(expected = "partial page")]
    fn writer_refuses_to_append_after_a_partial_page() {
        let mut disk = Disk::new_mem(64);
        let mut rf = RecordFile::create(&mut disk, 3).unwrap();
        rf.write_all(&mut disk, &rows(3, 5)).unwrap(); // 4 + 1 records
        let _ = RecordWriter::new(&disk, rf);
    }

    #[test]
    fn writer_appends_after_whole_pages() {
        let mut disk = Disk::new_mem(64);
        let mut rf = RecordFile::create(&mut disk, 3).unwrap();
        let data = rows(3, 6);
        let mut head = RowBuf::new(3);
        for r in data.iter().take(4) {
            head.push_flat(r);
        }
        rf.write_all(&mut disk, &head).unwrap();
        let mut w = RecordWriter::new(&disk, rf);
        for r in data.iter().skip(4) {
            w.push(&mut disk, r).unwrap();
        }
        let rf = w.finish(&mut disk).unwrap();
        assert_eq!(rf.read_all(&mut disk).unwrap(), data);
    }

    #[test]
    fn sequential_write_costs_one_seek_plus_sequential_pages() {
        let mut disk = Disk::new_mem(64);
        let mut rf = RecordFile::create(&mut disk, 3).unwrap();
        rf.write_all(&mut disk, &rows(3, 16)).unwrap(); // 4 pages
        let io = disk.io_stats();
        assert_eq!(io.rand_writes, 1);
        assert_eq!(io.seq_writes, 3);
    }

    #[test]
    fn record_wider_than_page_rejected() {
        let mut disk = Disk::new_mem(16);
        assert!(RecordFile::create(&mut disk, 8).is_err()); // 36 bytes > 16
    }

    #[test]
    fn dir_backend_record_round_trip() {
        let dir = std::env::temp_dir().join(format!("rsky-recfile-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        {
            let mut disk = Disk::new_dir(&dir, 4096).unwrap();
            let mut rf = RecordFile::create(&mut disk, 5).unwrap();
            let data = rows(5, 1000);
            rf.write_all(&mut disk, &data).unwrap();
            assert_eq!(rf.read_all(&mut disk).unwrap(), data);
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
