//! Shared read-only page access for concurrent scans.
//!
//! The [`Disk`] models a *single* head — that is the paper's
//! cost model and the sequential engines keep it. The parallel execution
//! layer instead gives every worker thread its own scanner over a read-only
//! snapshot of a file: IO is still counted (per scanner, with the same
//! sequential/random classification, each scanner owning its own head), and
//! the snapshot guarantees workers can never observe a torn write.
//!
//! * For the in-memory backend, a file's bytes are a copy-on-write
//!   `Arc<Vec<u8>>`: [`Disk::share_file`] clones the `Arc`, so a snapshot
//!   copies nothing, and a later write through the disk copies the bytes
//!   first, so the snapshot never changes.
//! * For the directory backend, the snapshot is the path; every scanner
//!   opens its own `File`, so no handle (or head) is shared across threads.
//!
//! [`SharedRecords`] mirrors [`RecordFile`]'s page/batch readers on top of a
//! [`SharedFile`], byte-for-byte: batch boundaries computed by a
//! [`RecordScanner`] are identical to the sequential reader's, which is what
//! lets the parallel engines reproduce sequential batch composition exactly.
//!
//! [`SharedRecords::mount`] goes the other way: it adds an in-memory
//! snapshot to another in-memory disk as a file of its own, again without a
//! copy. Reads of a mounted file go through that disk's single head like
//! any other file's, so an engine run over it costs what it costs over the
//! original. This is how server workers share one page image per dataset
//! generation.

use std::fs::File;
use std::io::{Read, Seek, SeekFrom};
use std::path::PathBuf;
use std::sync::Arc;

use rsky_core::error::{Error, Result};
use rsky_core::obs::{self, ObsHandle, Span};
use rsky_core::record::RowBuf;
use rsky_core::stats::IoCounts;

use crate::disk::{Backend, Disk, FileId};
use crate::recfile::{decode_page_rows, RecordFile};

/// Where a snapshot's pages live.
#[derive(Debug, Clone)]
enum Backing {
    /// Immutable copy of the file's bytes, shared by reference count.
    Mem(Arc<Vec<u8>>),
    /// Path of the page file; each scanner opens it independently.
    Dir(PathBuf),
}

/// A read-only snapshot of one disk file, cloneable and shareable across
/// threads. Create scanners with [`SharedFile::scanner`] — one per thread.
#[derive(Debug, Clone)]
pub struct SharedFile {
    backing: Backing,
    page_size: usize,
    num_pages: u64,
    /// Disk write generation at share time (see [`Disk::generation`]).
    generation: u64,
    /// Recorder in effect when the snapshot was taken (on the coordinator
    /// thread); scanners created on worker threads record through it.
    obs: ObsHandle,
}

impl SharedFile {
    /// Page size of the originating disk.
    #[inline]
    pub fn page_size(&self) -> usize {
        self.page_size
    }

    /// Number of pages in the snapshot.
    #[inline]
    pub fn num_pages(&self) -> u64 {
        self.num_pages
    }

    /// The disk's write generation when this snapshot was taken. Comparing
    /// against [`Disk::generation`] answers "has anything been written since
    /// I snapshotted?" without touching page contents — the serving layer
    /// keys its result cache on this.
    #[inline]
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// A new independent scanner (own head, own IO counters, own file
    /// handle for the directory backend).
    pub fn scanner(&self) -> PageScanner {
        let span = self.obs.span("storage", "scanner");
        PageScanner {
            shared: self.clone(),
            head: None,
            stats: IoCounts::default(),
            handle: None,
            span,
        }
    }
}

impl Disk {
    /// Snapshots `file` for shared read-only access across threads.
    ///
    /// The snapshot reflects the file's contents *now*; later writes through
    /// the disk are not seen by scanners over the in-memory backend (and
    /// must not be interleaved with scans on the directory backend).
    pub fn share_file(&self, file: FileId) -> Result<SharedFile> {
        let num_pages = self.num_pages(file);
        let backing = match self.backend() {
            Backend::Mem(files) => Backing::Mem(Arc::clone(&files[file.0])),
            Backend::Dir { dir, .. } => Backing::Dir(dir.join(format!("f{}.pages", file.0))),
        };
        Ok(SharedFile {
            backing,
            page_size: self.page_size(),
            num_pages,
            generation: self.generation(),
            obs: obs::handle(),
        })
    }
}

/// A per-thread reader over a [`SharedFile`]: sequential/random IO is
/// classified against this scanner's own head, exactly like [`Disk`] does
/// for its single head.
#[derive(Debug)]
pub struct PageScanner {
    shared: SharedFile,
    head: Option<u64>,
    stats: IoCounts,
    /// Lazily opened handle (directory backend only).
    handle: Option<File>,
    /// `storage.scanner` span covering the scanner's lifetime; its close
    /// (on drop) carries this scanner's final IO counters.
    span: Span,
}

impl Drop for PageScanner {
    fn drop(&mut self) {
        if self.span.is_recording() {
            self.span.io_fields(self.stats);
        }
    }
}

impl PageScanner {
    /// Page size in bytes.
    #[inline]
    pub fn page_size(&self) -> usize {
        self.shared.page_size
    }

    /// Number of pages in the underlying snapshot.
    #[inline]
    pub fn num_pages(&self) -> u64 {
        self.shared.num_pages
    }

    /// IO counters accumulated by this scanner.
    #[inline]
    pub fn io_stats(&self) -> IoCounts {
        self.stats
    }

    /// Reads page `page` into `buf` (must be `page_size` bytes).
    pub fn read_page(&mut self, page: u64, buf: &mut [u8]) -> Result<()> {
        debug_assert_eq!(buf.len(), self.shared.page_size);
        if page >= self.shared.num_pages {
            return Err(Error::Corrupt(format!(
                "read of page {page} past end of shared file ({} pages)",
                self.shared.num_pages
            )));
        }
        let sequential = matches!(self.head, Some(p) if page == p || page == p + 1);
        self.head = Some(page);
        if sequential {
            self.stats.seq_reads += 1;
        } else {
            self.stats.rand_reads += 1;
        }
        match &self.shared.backing {
            Backing::Mem(bytes) => {
                let off = page as usize * self.shared.page_size;
                buf.copy_from_slice(&bytes[off..off + self.shared.page_size]);
            }
            Backing::Dir(path) => {
                if self.handle.is_none() {
                    self.handle = Some(File::open(path)?);
                }
                let f = self.handle.as_mut().expect("just opened");
                f.seek(SeekFrom::Start(page * self.shared.page_size as u64))?;
                f.read_exact(buf)?;
            }
        }
        Ok(())
    }
}

/// A read-only snapshot of a [`RecordFile`], shareable across threads.
#[derive(Debug, Clone)]
pub struct SharedRecords {
    pages: SharedFile,
    m: usize,
    n: u64,
}

impl RecordFile {
    /// Snapshots this record file for concurrent scans (see
    /// [`Disk::share_file`] for the snapshot semantics).
    pub fn share(&self, disk: &Disk) -> Result<SharedRecords> {
        Ok(SharedRecords {
            pages: disk.share_file(self.file_id())?,
            m: self.num_attrs(),
            n: self.len(),
        })
    }
}

impl SharedRecords {
    /// Attributes per record.
    #[inline]
    pub fn num_attrs(&self) -> usize {
        self.m
    }

    /// Total records.
    #[inline]
    pub fn len(&self) -> u64 {
        self.n
    }

    /// Whether the snapshot holds no records.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// Page size of the originating disk.
    #[inline]
    pub fn page_size(&self) -> usize {
        self.pages.page_size()
    }

    /// Adds this snapshot to `disk` as a new record file that shares the
    /// snapshot's bytes instead of copying them. The disk's head moves to
    /// the file's last page, where writing the file would have left it, so
    /// reads of the mounted file count exactly as reads of the original
    /// right after it was written on a disk without a page cache. Writes
    /// to either file copy its bytes first and leave the other as it was.
    ///
    /// # Errors
    /// [`Error::InvalidConfig`] when `disk` or the snapshot is on the
    /// directory backend, when `disk` has a page cache
    /// ([`Disk::set_cache_pages`]; writing the file would have filled it,
    /// a mount starts it cold), or when the page sizes differ.
    pub fn mount(&self, disk: &mut Disk) -> Result<RecordFile> {
        let Backing::Mem(bytes) = &self.pages.backing else {
            return Err(Error::InvalidConfig(
                "a snapshot of a directory disk cannot be mounted".into(),
            ));
        };
        if disk.page_size() != self.page_size() {
            return Err(Error::InvalidConfig(format!(
                "cannot mount {}-byte pages on a disk of {}-byte pages",
                self.page_size(),
                disk.page_size()
            )));
        }
        let file = disk.mount_bytes(bytes, self.pages.num_pages)?;
        Ok(RecordFile::mounted(file, self.m, self.n))
    }

    /// Disk write generation at share time (see [`SharedFile::generation`]).
    #[inline]
    pub fn generation(&self) -> u64 {
        self.pages.generation()
    }

    /// Bytes one record occupies.
    #[inline]
    pub fn record_bytes(&self) -> usize {
        (self.m + 1) * 4
    }

    /// Records that fit in one page.
    #[inline]
    pub fn records_per_page(&self) -> usize {
        self.pages.page_size() / self.record_bytes()
    }

    /// Number of pages the records occupy.
    pub fn num_pages(&self) -> u64 {
        let rpp = self.records_per_page() as u64;
        self.n.div_ceil(rpp)
    }

    /// A new independent record scanner for one thread.
    pub fn scanner(&self) -> RecordScanner {
        RecordScanner {
            shared: self.clone(),
            pages: self.pages.scanner(),
            buf: vec![0u8; self.pages.page_size()],
        }
    }
}

/// Per-thread record reader mirroring [`RecordFile::read_page_rows`] and
/// [`RecordFile::read_batch`] over a snapshot.
#[derive(Debug)]
pub struct RecordScanner {
    shared: SharedRecords,
    pages: PageScanner,
    buf: Vec<u8>,
}

impl RecordScanner {
    /// The snapshot this scanner reads.
    #[inline]
    pub fn records(&self) -> &SharedRecords {
        &self.shared
    }

    /// IO counters accumulated by this scanner.
    #[inline]
    pub fn io_stats(&self) -> IoCounts {
        self.pages.io_stats()
    }

    /// Decodes the records of page `page` into `out` (appended); returns the
    /// record count. Identical semantics to [`RecordFile::read_page_rows`].
    pub fn read_page_rows(&mut self, page: u64, out: &mut RowBuf) -> Result<usize> {
        let rpp = self.shared.records_per_page() as u64;
        let start = page * rpp;
        if start >= self.shared.n {
            return Err(Error::Corrupt(format!(
                "page {page} past end of shared record file ({} records)",
                self.shared.n
            )));
        }
        let count = (self.shared.n - start).min(rpp) as usize;
        self.pages.read_page(page, &mut self.buf)?;
        decode_page_rows(&self.buf, self.shared.m, count, out);
        Ok(count)
    }

    /// Reads pages from `first_page` until `max_records` records have been
    /// decoded or the file ends; returns `(pages_read, records_read)`.
    /// Identical batch boundaries to [`RecordFile::read_batch`].
    pub fn read_batch(
        &mut self,
        first_page: u64,
        max_records: usize,
        out: &mut RowBuf,
    ) -> Result<(u64, usize)> {
        let mut pages = 0;
        let mut records = 0;
        let rpp = self.shared.records_per_page();
        let total_pages = self.shared.num_pages();
        let mut page = first_page;
        while page < total_pages && records + rpp <= max_records.max(rpp) {
            let got = self.read_page_rows(page, out)?;
            records += got;
            pages += 1;
            page += 1;
            if records >= max_records {
                break;
            }
        }
        Ok((pages, records))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rows(m: usize, n: usize) -> RowBuf {
        let mut b = RowBuf::new(m);
        for i in 0..n {
            let vals: Vec<u32> = (0..m).map(|k| ((i * 13 + k * 5) % 89) as u32).collect();
            b.push(i as u32, &vals);
        }
        b
    }

    #[test]
    fn snapshot_matches_sequential_reader() {
        let mut disk = Disk::new_mem(64);
        let mut rf = RecordFile::create(&mut disk, 3).unwrap();
        let data = rows(3, 23);
        rf.write_all(&mut disk, &data).unwrap();
        let shared = rf.share(&disk).unwrap();
        assert_eq!(shared.len(), rf.len());
        assert_eq!(shared.num_pages(), rf.num_pages(&disk));
        let mut sc = shared.scanner();
        let mut out = RowBuf::new(3);
        for p in 0..shared.num_pages() {
            sc.read_page_rows(p, &mut out).unwrap();
        }
        assert_eq!(out, data);
    }

    #[test]
    fn snapshot_is_isolated_from_later_writes() {
        let mut disk = Disk::new_mem(64);
        let mut rf = RecordFile::create(&mut disk, 3).unwrap();
        rf.write_all(&mut disk, &rows(3, 8)).unwrap();
        let shared = rf.share(&disk).unwrap();
        rf.write_all(&mut disk, &rows(3, 2)).unwrap(); // shrink after snapshot
        let mut sc = shared.scanner();
        let mut out = RowBuf::new(3);
        for p in 0..shared.num_pages() {
            sc.read_page_rows(p, &mut out).unwrap();
        }
        assert_eq!(out, rows(3, 8));
    }

    #[test]
    fn batch_boundaries_match_record_file() {
        let mut disk = Disk::new_mem(64);
        let mut rf = RecordFile::create(&mut disk, 3).unwrap();
        rf.write_all(&mut disk, &rows(3, 20)).unwrap(); // 4 rec/page, 5 pages
        let shared = rf.share(&disk).unwrap();
        for cap in [1, 4, 7, 10, 1000] {
            let mut page = 0;
            loop {
                let mut a = RowBuf::new(3);
                let mut b = RowBuf::new(3);
                let seq = rf.read_batch(&mut disk, page, cap, &mut a).unwrap();
                let par = shared.scanner().read_batch(page, cap, &mut b).unwrap();
                assert_eq!(seq, par, "cap={cap} page={page}");
                assert_eq!(a, b, "cap={cap} page={page}");
                if seq.0 == 0 {
                    break;
                }
                page += seq.0;
            }
        }
    }

    #[test]
    fn scanner_counts_its_own_io() {
        let mut disk = Disk::new_mem(64);
        let mut rf = RecordFile::create(&mut disk, 3).unwrap();
        rf.write_all(&mut disk, &rows(3, 16)).unwrap(); // 4 pages
        let shared = rf.share(&disk).unwrap();
        let disk_io_before = disk.io_stats();
        let mut sc = shared.scanner();
        let mut out = RowBuf::new(3);
        for p in 0..4 {
            sc.read_page_rows(p, &mut out).unwrap();
        }
        // First read seeks, the rest are sequential; the disk saw nothing.
        assert_eq!(sc.io_stats().rand_reads, 1);
        assert_eq!(sc.io_stats().seq_reads, 3);
        assert_eq!(disk.io_stats(), disk_io_before);
        // A second scanner starts with a fresh head.
        let mut sc2 = shared.scanner();
        let mut out2 = RowBuf::new(3);
        sc2.read_page_rows(2, &mut out2).unwrap();
        assert_eq!(sc2.io_stats().rand_reads, 1);
    }

    #[test]
    fn scanners_work_across_threads() {
        let mut disk = Disk::new_mem(128);
        let mut rf = RecordFile::create(&mut disk, 4).unwrap();
        let data = rows(4, 101);
        rf.write_all(&mut disk, &data).unwrap();
        let shared = rf.share(&disk).unwrap();
        let chunks: Vec<RowBuf> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..4)
                .map(|t| {
                    let shared = shared.clone();
                    scope.spawn(move || {
                        let mut sc = shared.scanner();
                        let mut out = RowBuf::new(4);
                        let mut p = t as u64;
                        while p < shared.num_pages() {
                            sc.read_page_rows(p, &mut out).unwrap();
                            p += 4;
                        }
                        out
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        let total: usize = chunks.iter().map(|c| c.len()).sum();
        assert_eq!(total, data.len());
    }

    #[test]
    fn dir_backend_snapshot_round_trips() {
        let dir = std::env::temp_dir().join(format!("rsky-shared-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        {
            let mut disk = Disk::new_dir(&dir, 256).unwrap();
            let mut rf = RecordFile::create(&mut disk, 5).unwrap();
            let data = rows(5, 77);
            rf.write_all(&mut disk, &data).unwrap();
            let shared = rf.share(&disk).unwrap();
            let mut sc = shared.scanner();
            let mut out = RowBuf::new(5);
            for p in 0..shared.num_pages() {
                sc.read_page_rows(p, &mut out).unwrap();
            }
            assert_eq!(out, data);
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn snapshot_generation_detects_staleness() {
        let mut disk = Disk::new_mem(64);
        let mut rf = RecordFile::create(&mut disk, 3).unwrap();
        rf.write_all(&mut disk, &rows(3, 8)).unwrap();
        let snap1 = rf.share(&disk).unwrap();
        assert_eq!(snap1.generation(), disk.generation(), "fresh snapshot is current");
        // Any write through the disk makes the snapshot detectably stale.
        rf.write_all(&mut disk, &rows(3, 8)).unwrap();
        assert!(disk.generation() > snap1.generation(), "writes bump the generation");
        let snap2 = rf.share(&disk).unwrap();
        assert_eq!(snap2.generation(), disk.generation());
        assert!(snap2.generation() > snap1.generation());
        // Reads never bump it.
        let mut sc = snap2.scanner();
        let mut out = RowBuf::new(3);
        sc.read_page_rows(0, &mut out).unwrap();
        assert_eq!(snap2.generation(), disk.generation());
    }

    /// The bytes of `file` on an in-memory disk.
    fn file_bytes(disk: &Disk, file: FileId) -> &Arc<Vec<u8>> {
        match disk.backend() {
            Backend::Mem(files) => &files[file.0],
            Backend::Dir { .. } => unreachable!("in-memory disk"),
        }
    }

    /// Every page of `rf` read in order, then page 0 again, with the IO
    /// the reads cost.
    fn read_pages(disk: &mut Disk, rf: &RecordFile) -> (Vec<Vec<u8>>, IoCounts) {
        let before = disk.io_stats();
        let mut pages = Vec::new();
        for p in (0..rf.num_pages(disk)).chain((rf.num_pages(disk) > 0).then_some(0)) {
            let mut buf = vec![0u8; disk.page_size()];
            disk.read_page(rf.file_id(), p, &mut buf).unwrap();
            pages.push(buf);
        }
        (pages, disk.io_stats().delta_since(before))
    }

    #[test]
    fn mounted_file_reads_like_the_written_original() {
        // 4 records per page: none, one partial page, one full page, and
        // several pages ending in a partial one.
        for n in [0, 3, 4, 9, 23] {
            let mut disk = Disk::new_mem(64);
            let mut rf = RecordFile::create(&mut disk, 3).unwrap();
            rf.write_all(&mut disk, &rows(3, n)).unwrap();
            let shared = rf.share(&disk).unwrap();
            let mut other = Disk::new_mem(64);
            let scratch = RecordFile::create(&mut other, 3).unwrap();
            let mounted = shared.mount(&mut other).unwrap();
            assert_ne!(mounted.file_id(), scratch.file_id());
            assert_eq!((mounted.len(), mounted.num_attrs()), (rf.len(), rf.num_attrs()));
            assert_eq!(mounted.num_pages(&other), rf.num_pages(&disk), "n={n}");
            let (want, want_io) = read_pages(&mut disk, &rf);
            let (got, got_io) = read_pages(&mut other, &mounted);
            assert_eq!(got, want, "n={n}: pages");
            assert_eq!(got_io, want_io, "n={n}: sequential/random counts");
            assert_eq!(mounted.read_all(&mut other).unwrap(), rows(3, n));
        }
    }

    #[test]
    fn mount_and_share_copy_nothing() {
        let mut disk = Disk::new_mem(64);
        let mut rf = RecordFile::create(&mut disk, 3).unwrap();
        rf.write_all(&mut disk, &rows(3, 9)).unwrap();
        let shared = rf.share(&disk).unwrap();
        let Backing::Mem(snapshot) = &shared.pages.backing else { unreachable!() };
        assert!(Arc::ptr_eq(snapshot, file_bytes(&disk, rf.file_id())));
        let mut other = Disk::new_mem(64);
        let mounted = shared.mount(&mut other).unwrap();
        assert!(Arc::ptr_eq(file_bytes(&other, mounted.file_id()), snapshot));
        // Sharing the mounted file again still copies nothing.
        let again = mounted.share(&other).unwrap();
        let Backing::Mem(again) = &again.pages.backing else { unreachable!() };
        assert!(Arc::ptr_eq(again, snapshot));
    }

    #[test]
    fn writes_on_either_side_leave_the_other_unchanged() {
        let data = rows(3, 9);
        let setup = || {
            let mut disk = Disk::new_mem(64);
            let mut rf = RecordFile::create(&mut disk, 3).unwrap();
            rf.write_all(&mut disk, &data).unwrap();
            let mut other = Disk::new_mem(64);
            let mounted = rf.share(&disk).unwrap().mount(&mut other).unwrap();
            (disk, rf, other, mounted)
        };
        let page = [7u8; 64];
        // A page write, then a truncate, on the original.
        let (mut disk, rf, mut other, mounted) = setup();
        disk.write_page(rf.file_id(), 1, &page).unwrap();
        assert_eq!(mounted.read_all(&mut other).unwrap(), data);
        disk.truncate(rf.file_id()).unwrap();
        assert_eq!(mounted.read_all(&mut other).unwrap(), data);
        // The same on the mounted file.
        let (mut disk, rf, mut other, mut mounted) = setup();
        other.write_page(mounted.file_id(), 0, &page).unwrap();
        let mut buf = [0u8; 64];
        other.read_page(mounted.file_id(), 0, &mut buf).unwrap();
        assert_eq!(buf, page);
        assert_eq!(rf.read_all(&mut disk).unwrap(), data);
        mounted.truncate(&mut other).unwrap();
        assert_eq!(other.num_pages(mounted.file_id()), 0);
        assert_eq!(rf.read_all(&mut disk).unwrap(), data);
    }

    #[test]
    fn mount_rejects_directory_backends_page_caches_and_other_page_sizes() {
        let mut disk = Disk::new_mem(64);
        let mut rf = RecordFile::create(&mut disk, 3).unwrap();
        rf.write_all(&mut disk, &rows(3, 9)).unwrap();
        let shared = rf.share(&disk).unwrap();
        assert!(shared.mount(&mut Disk::new_mem(128)).is_err(), "other page size");
        let mut cached = Disk::new_mem(64);
        cached.set_cache_pages(4);
        let err = shared.mount(&mut cached).unwrap_err();
        assert!(matches!(err, Error::InvalidConfig(_)), "{err:?}");
        cached.set_cache_pages(0);
        assert!(shared.mount(&mut cached).is_ok(), "cache turned off");

        let dir = std::env::temp_dir().join(format!("rsky-mount-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        {
            let mut on_dir = Disk::new_dir(&dir, 64).unwrap();
            let err = shared.mount(&mut on_dir).unwrap_err();
            assert!(matches!(err, Error::InvalidConfig(_)), "{err:?}");
            let mut rf = RecordFile::create(&mut on_dir, 3).unwrap();
            rf.write_all(&mut on_dir, &rows(3, 9)).unwrap();
            let from_dir = rf.share(&on_dir).unwrap();
            let err = from_dir.mount(&mut Disk::new_mem(64)).unwrap_err();
            assert!(matches!(err, Error::InvalidConfig(_)), "{err:?}");
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn read_past_end_errors() {
        let mut disk = Disk::new_mem(64);
        let mut rf = RecordFile::create(&mut disk, 3).unwrap();
        rf.write_all(&mut disk, &rows(3, 4)).unwrap();
        let shared = rf.share(&disk).unwrap();
        let mut sc = shared.scanner();
        let mut out = RowBuf::new(3);
        assert!(sc.read_page_rows(5, &mut out).is_err());
    }
}
