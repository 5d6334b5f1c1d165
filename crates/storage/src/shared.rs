//! Read-only snapshots of in-memory record files: bare page images that
//! outlive the disk they were written on.
//!
//! The [`Disk`] models a *single* head — the paper's cost model. Engines
//! keep it at every thread count: the workers of a parallel run read and
//! write through the run's one disk, under a lock. A [`SharedRecords`] is
//! the shared bytes of a record file on an in-memory disk with its page
//! size, arity and record count, and a run reads it one of two ways:
//!
//! * [`SharedRecords::mount`] adds it to another in-memory disk as a file
//!   of its own, without a copy. Reads of a mounted file go through that
//!   disk's single head like any other file's, so an engine run over it
//!   costs what it costs over the original. This is how every run over a
//!   served table reads its page image.
//! * A [`RecordScanner`] reads it on a head of its own, with its own IO
//!   counters (classified as [`Disk`] classifies them) and its own
//!   `storage.scanner` span, opened on the recorder its caller passes; the
//!   sharded executor scans the other shards' windows this way.
//!
//! An in-memory file's bytes are a copy-on-write `Arc<Vec<u8>>`:
//! [`RecordFile::share`] clones the `Arc`, so a snapshot copies nothing,
//! and a later write through the disk copies the bytes first, so the
//! snapshot never changes. A file on a directory disk cannot be shared.

use std::sync::Arc;

use rsky_core::error::{Error, Result};
use rsky_core::obs::{ObsHandle, Span};
use rsky_core::record::RowBuf;
use rsky_core::stats::IoCounts;

use crate::disk::{Backend, Disk};
use crate::recfile::{decode_page_rows, RecordFile};

/// A read-only snapshot of a [`RecordFile`] on an in-memory disk,
/// cloneable and shareable across threads.
#[derive(Debug, Clone)]
pub struct SharedRecords {
    /// The file's pages, shared by reference count.
    bytes: Arc<Vec<u8>>,
    page_size: usize,
    m: usize,
    n: u64,
}

impl RecordFile {
    /// Snapshots this record file for mounts and concurrent scans.
    ///
    /// # Errors
    /// [`Error::InvalidConfig`] when `disk` is on the directory backend.
    pub fn share(&self, disk: &Disk) -> Result<SharedRecords> {
        let Backend::Mem(files) = disk.backend() else {
            return Err(Error::InvalidConfig(
                "only a file on an in-memory disk can be shared".into(),
            ));
        };
        Ok(SharedRecords {
            bytes: Arc::clone(&files[self.file_id().0]),
            page_size: disk.page_size(),
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
        self.page_size
    }

    /// Adds this snapshot to `disk` as a new record file that shares the
    /// snapshot's bytes instead of copying them. The disk's head moves to
    /// the file's last page, where writing the file would have left it, so
    /// reads of the mounted file count exactly as reads of the original
    /// right after it was written on a disk without a page cache. Writes
    /// to either file copy its bytes first and leave the other as it was.
    ///
    /// # Errors
    /// [`Error::InvalidConfig`] when `disk` is on the directory backend,
    /// when it has a page cache ([`Disk::set_cache_pages`]; writing the
    /// file would have filled it, a mount starts it cold), or when the page
    /// sizes differ.
    pub fn mount(&self, disk: &mut Disk) -> Result<RecordFile> {
        if disk.page_size() != self.page_size {
            return Err(Error::InvalidConfig(format!(
                "cannot mount {}-byte pages on a disk of {}-byte pages",
                self.page_size,
                disk.page_size()
            )));
        }
        let file = disk.mount_bytes(&self.bytes, self.num_pages())?;
        Ok(RecordFile::mounted(file, self.m, self.n))
    }

    /// Whether `other` reads the very pages this snapshot reads: a clone
    /// of it, or the same image mounted and shared again.
    pub fn same_pages(&self, other: &SharedRecords) -> bool {
        Arc::ptr_eq(&self.bytes, &other.bytes)
    }

    /// Records that fit in one page.
    #[inline]
    fn records_per_page(&self) -> usize {
        self.page_size / ((self.m + 1) * 4)
    }

    /// Number of pages the records occupy.
    pub fn num_pages(&self) -> u64 {
        self.n.div_ceil(self.records_per_page() as u64)
    }

    /// A new scanner with a head of its own, whose `storage.scanner` span
    /// records on `obs`.
    pub fn scanner(&self, obs: &ObsHandle) -> RecordScanner {
        RecordScanner {
            shared: self.clone(),
            head: None,
            stats: IoCounts::default(),
            span: obs.span("storage", "scanner"),
        }
    }
}

/// A reader over a [`SharedRecords`] with a head of its own: each read is
/// classified sequential or random against this scanner's head, exactly as
/// [`Disk`] classifies them against its single head, and decodes straight
/// from the shared bytes.
#[derive(Debug)]
pub struct RecordScanner {
    shared: SharedRecords,
    head: Option<u64>,
    stats: IoCounts,
    /// `storage.scanner` span covering the scanner's lifetime; its close
    /// (on drop) carries this scanner's final IO counters.
    span: Span,
}

impl Drop for RecordScanner {
    fn drop(&mut self) {
        if self.span.is_recording() {
            self.span.io_fields(self.stats);
        }
    }
}

impl RecordScanner {
    /// IO counters accumulated by this scanner.
    #[inline]
    pub fn io_stats(&self) -> IoCounts {
        self.stats
    }

    /// Decodes the records of page `page` into `out` (appended); returns the
    /// record count. Identical semantics to [`RecordFile::read_page_rows`].
    pub fn read_page_rows(&mut self, page: u64, out: &mut RowBuf) -> Result<usize> {
        let (ps, n) = (self.shared.page_size, self.shared.n);
        let rpp = self.shared.records_per_page() as u64;
        let start = page * rpp;
        if start >= n {
            return Err(Error::Corrupt(format!(
                "page {page} past end of shared record file ({n} records)"
            )));
        }
        let sequential = matches!(self.head, Some(p) if page == p || page == p + 1);
        self.head = Some(page);
        if sequential {
            self.stats.seq_reads += 1;
        } else {
            self.stats.rand_reads += 1;
        }
        let off = page as usize * ps;
        let count = (n - start).min(rpp) as usize;
        decode_page_rows(&self.shared.bytes[off..off + ps], self.shared.m, count, out);
        Ok(count)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::disk::FileId;

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
        let mut sc = shared.scanner(&ObsHandle::noop());
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
        let mut sc = shared.scanner(&ObsHandle::noop());
        let mut out = RowBuf::new(3);
        for p in 0..shared.num_pages() {
            sc.read_page_rows(p, &mut out).unwrap();
        }
        assert_eq!(out, rows(3, 8));
    }

    #[test]
    fn scanner_counts_its_own_io() {
        let mut disk = Disk::new_mem(64);
        let mut rf = RecordFile::create(&mut disk, 3).unwrap();
        rf.write_all(&mut disk, &rows(3, 16)).unwrap(); // 4 pages
        let shared = rf.share(&disk).unwrap();
        let disk_io_before = disk.io_stats();
        let mut sc = shared.scanner(&ObsHandle::noop());
        let mut out = RowBuf::new(3);
        for p in 0..4 {
            sc.read_page_rows(p, &mut out).unwrap();
        }
        // First read seeks, the rest are sequential; the disk saw nothing.
        assert_eq!(sc.io_stats().rand_reads, 1);
        assert_eq!(sc.io_stats().seq_reads, 3);
        assert_eq!(disk.io_stats(), disk_io_before);
        // A second scanner starts with a fresh head.
        let mut sc2 = shared.scanner(&ObsHandle::noop());
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
                        let mut sc = shared.scanner(&ObsHandle::noop());
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
    fn share_refuses_a_directory_file() {
        let dir = std::env::temp_dir().join(format!("rsky-shared-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        {
            let mut disk = Disk::new_dir(&dir, 256).unwrap();
            let mut rf = RecordFile::create(&mut disk, 5).unwrap();
            rf.write_all(&mut disk, &rows(5, 77)).unwrap();
            let err = rf.share(&disk).unwrap_err();
            assert!(matches!(err, Error::InvalidConfig(_)), "{err:?}");
        }
        std::fs::remove_dir_all(&dir).unwrap();
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
        assert!(Arc::ptr_eq(&shared.bytes, file_bytes(&disk, rf.file_id())));
        let mut other = Disk::new_mem(64);
        let mounted = shared.mount(&mut other).unwrap();
        assert!(Arc::ptr_eq(file_bytes(&other, mounted.file_id()), &shared.bytes));
        // Sharing the mounted file again still copies nothing.
        let again = mounted.share(&other).unwrap();
        assert!(again.same_pages(&shared));
        assert!(Arc::ptr_eq(&again.bytes, &shared.bytes));
        // A snapshot of another file's equal bytes is not the same pages.
        let mut copy = RecordFile::create(&mut disk, 3).unwrap();
        copy.write_all(&mut disk, &rows(3, 9)).unwrap();
        assert!(!copy.share(&disk).unwrap().same_pages(&shared));
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
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn read_past_end_errors() {
        let mut disk = Disk::new_mem(64);
        let mut rf = RecordFile::create(&mut disk, 3).unwrap();
        rf.write_all(&mut disk, &rows(3, 4)).unwrap();
        let shared = rf.share(&disk).unwrap();
        let mut sc = shared.scanner(&ObsHandle::noop());
        let mut out = RowBuf::new(3);
        assert!(sc.read_page_rows(5, &mut out).is_err());
    }
}
