//! Single-head paged disk with sequential/random IO accounting.
//!
//! A file on the in-memory backend is a copy-on-write `Arc<Vec<u8>>`, so a
//! snapshot of it ([`RecordFile::share`](crate::RecordFile::share)) and a
//! mount of a snapshot ([`SharedRecords::mount`](crate::SharedRecords::mount))
//! share its bytes, and the first write or truncate through a disk that
//! shares them replaces them instead of changing them.

use std::fs::{File, OpenOptions};
use std::io::{Read, Seek, SeekFrom, Write};
use std::path::PathBuf;
use std::sync::Arc;

use rsky_core::error::{Error, Result};
use rsky_core::stats::IoCounts;

use crate::cache::PageCache;

/// Page size used throughout the paper's experiments.
pub const DEFAULT_PAGE_SIZE: usize = 32 * 1024;

/// Handle to a file on a [`Disk`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct FileId(pub(crate) usize);

/// Where pages physically live.
#[derive(Debug)]
pub enum Backend {
    /// Pages held in memory, one copy-on-write buffer per file (see the
    /// module docs). IO accounting is identical to the file backend; only
    /// the transfer cost differs.
    Mem(Vec<Arc<Vec<u8>>>),
    /// Pages in real files under `dir` (`f0.pages`, `f1.pages`, …), used for
    /// wall-clock response-time experiments.
    Dir {
        /// Directory holding the page files.
        dir: PathBuf,
        /// One open file per created [`FileId`].
        files: Vec<File>,
    },
}

/// A simulated disk: a set of page files served by a single head.
///
/// Every page access is classified *sequential* or *random*:
/// an access to `(file, page)` is sequential iff the head is already on
/// `file` at `page` or `page - 1`. Anything else — first access, switching
/// files, skipping or rewinding — is a seek, i.e. random.
///
/// ```
/// use rsky_storage::Disk;
///
/// let mut disk = Disk::new_mem(64);
/// let f = disk.create_file().unwrap();
/// for i in 0..3u8 {
///     disk.append_page(f, &vec![i; 64]).unwrap();
/// }
/// // First append seeks, the rest continue the scan.
/// assert_eq!(disk.io_stats().rand_writes, 1);
/// assert_eq!(disk.io_stats().seq_writes, 2);
/// let mut buf = vec![0u8; 64];
/// disk.read_page(f, 0, &mut buf).unwrap(); // head was on page 2 → seek
/// assert_eq!(disk.io_stats().rand_reads, 1);
/// assert_eq!(buf[0], 0);
/// ```
#[derive(Debug)]
pub struct Disk {
    backend: Backend,
    page_size: usize,
    /// Logical length of each file in pages.
    pages: Vec<u64>,
    /// Current head position.
    head: Option<(FileId, u64)>,
    stats: IoCounts,
    /// Optional buffer pool; hits skip the backend and the IO counters.
    cache: Option<PageCache>,
    /// One page the file backend and the buffer pool read into, reused by
    /// every [`Disk::read_page_ref`].
    read_buf: Vec<u8>,
}

impl Disk {
    /// In-memory disk with the given page size.
    pub fn new_mem(page_size: usize) -> Self {
        Self {
            backend: Backend::Mem(Vec::new()),
            page_size,
            pages: Vec::new(),
            head: None,
            stats: IoCounts::default(),
            cache: None,
            read_buf: Vec::new(),
        }
    }

    /// In-memory disk with the paper's 32 KiB pages.
    pub fn default_mem() -> Self {
        Self::new_mem(DEFAULT_PAGE_SIZE)
    }

    /// File-backed disk storing pages under `dir` (created if absent).
    pub fn new_dir(dir: impl Into<PathBuf>, page_size: usize) -> Result<Self> {
        let dir = dir.into();
        std::fs::create_dir_all(&dir)?;
        Ok(Self {
            backend: Backend::Dir { dir, files: Vec::new() },
            page_size,
            pages: Vec::new(),
            head: None,
            stats: IoCounts::default(),
            cache: None,
            read_buf: Vec::new(),
        })
    }

    /// Enables an LRU buffer pool of `pages` pages (0 disables). Cache hits
    /// are served without backend access and **without counting IO** — the
    /// model becomes "IO = buffer-pool misses". Off by default, matching the
    /// paper's accounting.
    pub fn set_cache_pages(&mut self, pages: usize) {
        self.cache =
            (pages > 0).then(|| PageCache::new(pages, self.page_size));
    }

    /// Buffer-pool (hits, misses) counters, when a cache is enabled.
    pub fn cache_stats(&self) -> Option<(u64, u64)> {
        self.cache.as_ref().map(|c| (c.hits(), c.misses()))
    }

    /// Page size in bytes.
    #[inline]
    pub fn page_size(&self) -> usize {
        self.page_size
    }

    /// Read-only view of the backend, for snapshots (`shared` module).
    #[inline]
    pub(crate) fn backend(&self) -> &Backend {
        &self.backend
    }

    /// Creates a new empty file and returns its handle.
    pub fn create_file(&mut self) -> Result<FileId> {
        let id = FileId(self.pages.len());
        match &mut self.backend {
            Backend::Mem(files) => files.push(Arc::default()),
            Backend::Dir { dir, files } => {
                let path = dir.join(format!("f{}.pages", id.0));
                let f = OpenOptions::new()
                    .read(true)
                    .write(true)
                    .create(true)
                    .truncate(true)
                    .open(path)?;
                files.push(f);
            }
        }
        self.pages.push(0);
        Ok(id)
    }

    /// Number of pages currently in `file`.
    #[inline]
    pub fn num_pages(&self, file: FileId) -> u64 {
        self.pages[file.0]
    }

    /// Truncates `file` back to zero pages (head is invalidated if on it).
    pub fn truncate(&mut self, file: FileId) -> Result<()> {
        match &mut self.backend {
            Backend::Mem(files) => match Arc::get_mut(&mut files[file.0]) {
                Some(bytes) => bytes.clear(),
                // Shared with a snapshot or a mount: leave their bytes alone.
                None => files[file.0] = Arc::default(),
            },
            Backend::Dir { files, .. } => files[file.0].set_len(0)?,
        }
        self.pages[file.0] = 0;
        if matches!(self.head, Some((f, _)) if f == file) {
            self.head = None;
        }
        if let Some(cache) = &mut self.cache {
            cache.invalidate_file(file);
        }
        Ok(())
    }

    /// IO counters accumulated so far.
    #[inline]
    pub fn io_stats(&self) -> IoCounts {
        self.stats
    }

    /// Resets the IO counters (head position is kept).
    pub fn reset_stats(&mut self) {
        self.stats = IoCounts::default();
    }

    #[inline]
    fn classify(&mut self, file: FileId, page: u64) -> bool {
        let sequential = match self.head {
            Some((f, p)) if f == file => page == p || page == p + 1,
            _ => false,
        };
        self.head = Some((file, page));
        sequential
    }

    /// Reads page `page` of `file` into `buf` (must be `page_size` bytes).
    ///
    /// # Errors
    /// [`Error::Corrupt`] when the page does not exist.
    pub fn read_page(&mut self, file: FileId, page: u64, buf: &mut [u8]) -> Result<()> {
        debug_assert_eq!(buf.len(), self.page_size);
        buf.copy_from_slice(self.read_page_ref(file, page)?);
        Ok(())
    }

    /// Reads page `page` of `file` and lends out its bytes: the in-memory
    /// backend's own page, or a page buffer the disk reuses, so a page scan
    /// neither allocates nor copies. Counts IO exactly as
    /// [`Disk::read_page`].
    ///
    /// # Errors
    /// [`Error::Corrupt`] when the page does not exist.
    pub(crate) fn read_page_ref(&mut self, file: FileId, page: u64) -> Result<&[u8]> {
        if page >= self.pages[file.0] {
            return Err(Error::Corrupt(format!(
                "read of page {page} past end of file {} ({} pages)",
                file.0, self.pages[file.0]
            )));
        }
        let ps = self.page_size;
        self.read_buf.resize(ps, 0);
        if let Some(cache) = &mut self.cache {
            if cache.get(file, page, &mut self.read_buf) {
                return Ok(&self.read_buf);
            }
        }
        if self.classify(file, page) {
            self.stats.seq_reads += 1;
        } else {
            self.stats.rand_reads += 1;
        }
        let bytes: &[u8] = match &mut self.backend {
            Backend::Mem(files) => {
                let off = page as usize * ps;
                &files[file.0][off..off + ps]
            }
            Backend::Dir { files, .. } => {
                let f = &mut files[file.0];
                f.seek(SeekFrom::Start(page * ps as u64))?;
                f.read_exact(&mut self.read_buf)?;
                &self.read_buf
            }
        };
        if let Some(cache) = &mut self.cache {
            cache.put(file, page, bytes);
        }
        Ok(bytes)
    }

    /// Writes page `page` of `file`. Writing at `num_pages` appends; writing
    /// further past the end is an error.
    pub fn write_page(&mut self, file: FileId, page: u64, data: &[u8]) -> Result<()> {
        debug_assert_eq!(data.len(), self.page_size);
        if page > self.pages[file.0] {
            return Err(Error::Corrupt(format!(
                "write of page {page} would leave a hole in file {} ({} pages)",
                file.0, self.pages[file.0]
            )));
        }
        if self.classify(file, page) {
            self.stats.seq_writes += 1;
        } else {
            self.stats.rand_writes += 1;
        }
        match &mut self.backend {
            Backend::Mem(files) => {
                let f = Arc::make_mut(&mut files[file.0]);
                let off = page as usize * self.page_size;
                if off == f.len() {
                    f.extend_from_slice(data);
                } else {
                    f[off..off + self.page_size].copy_from_slice(data);
                }
            }
            Backend::Dir { files, .. } => {
                let f = &mut files[file.0];
                f.seek(SeekFrom::Start(page * self.page_size as u64))?;
                f.write_all(data)?;
            }
        }
        if page == self.pages[file.0] {
            self.pages[file.0] = page + 1;
        }
        if let Some(cache) = &mut self.cache {
            cache.put(file, page, data);
        }
        Ok(())
    }

    /// Appends a page at the end of `file`, returning its page number.
    pub fn append_page(&mut self, file: FileId, data: &[u8]) -> Result<u64> {
        let page = self.pages[file.0];
        self.write_page(file, page, data)?;
        Ok(page)
    }

    /// Adds a file of `num_pages` pages whose bytes are `bytes`, shared
    /// rather than copied, and leaves the head on its last page, where
    /// writing the file would have left it. Only the in-memory backend can
    /// hold shared bytes, and only a disk without a page cache: writing the
    /// file would have left its pages in the cache, and a mount cannot.
    pub(crate) fn mount_bytes(&mut self, bytes: &Arc<Vec<u8>>, num_pages: u64) -> Result<FileId> {
        if self.cache.is_some() {
            return Err(Error::InvalidConfig(
                "a disk with a page cache cannot mount a shared file".into(),
            ));
        }
        let Backend::Mem(files) = &mut self.backend else {
            return Err(Error::InvalidConfig(
                "only an in-memory disk can mount a shared file".into(),
            ));
        };
        let id = FileId(self.pages.len());
        files.push(Arc::clone(bytes));
        self.pages.push(num_pages);
        if let Some(last) = num_pages.checked_sub(1) {
            self.head = Some((id, last));
        }
        Ok(id)
    }
}

/// A directory that is removed, with everything in it, when the guard is
/// dropped: the page files of a file-backed [`Disk`] that must not outlive
/// its run, on success and on error alike. Make the guard before the disk,
/// so the disk is dropped first.
#[derive(Debug)]
pub struct ScratchDir(PathBuf);

impl ScratchDir {
    /// Guards `dir`, which need not exist yet.
    pub fn new(dir: impl Into<PathBuf>) -> Self {
        Self(dir.into())
    }

    /// The guarded directory.
    pub fn path(&self) -> &std::path::Path {
        &self.0
    }
}

impl Drop for ScratchDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn page(disk: &Disk, fill: u8) -> Vec<u8> {
        vec![fill; disk.page_size()]
    }

    #[test]
    fn first_access_is_random_then_sequential() {
        let mut d = Disk::new_mem(64);
        let f = d.create_file().unwrap();
        for i in 0..4 {
            d.append_page(f, &page(&d, i)).unwrap();
        }
        assert_eq!(d.num_pages(f), 4);
        // Appends: first is random (head unset), the rest sequential.
        assert_eq!(d.io_stats().rand_writes, 1);
        assert_eq!(d.io_stats().seq_writes, 3);

        d.reset_stats();
        let mut buf = vec![0u8; 64];
        for i in 0..4 {
            d.read_page(f, i, &mut buf).unwrap();
            assert!(buf.iter().all(|&b| b == i as u8));
        }
        // Head was on page 3 after the appends, so reading page 0 seeks.
        assert_eq!(d.io_stats().rand_reads, 1);
        assert_eq!(d.io_stats().seq_reads, 3);
    }

    #[test]
    fn rereading_same_page_is_sequential() {
        let mut d = Disk::new_mem(64);
        let f = d.create_file().unwrap();
        d.append_page(f, &page(&d, 1)).unwrap();
        let mut buf = vec![0u8; 64];
        d.read_page(f, 0, &mut buf).unwrap();
        d.reset_stats();
        d.read_page(f, 0, &mut buf).unwrap();
        assert_eq!(d.io_stats().seq_reads, 1);
        assert_eq!(d.io_stats().rand_reads, 0);
    }

    #[test]
    fn switching_files_costs_random_io() {
        let mut d = Disk::new_mem(64);
        let a = d.create_file().unwrap();
        let b = d.create_file().unwrap();
        for _ in 0..2 {
            d.append_page(a, &page(&d, 0)).unwrap();
            d.append_page(b, &page(&d, 0)).unwrap();
        }
        // a0 (rand), b0 (rand: switch), a1 (rand: switch), b1 (rand: switch)
        assert_eq!(d.io_stats().rand_writes, 4);
        assert_eq!(d.io_stats().seq_writes, 0);
    }

    #[test]
    fn backwards_and_skipping_reads_are_random() {
        let mut d = Disk::new_mem(64);
        let f = d.create_file().unwrap();
        for i in 0..5 {
            d.append_page(f, &page(&d, i)).unwrap();
        }
        d.reset_stats();
        let mut buf = vec![0u8; 64];
        d.read_page(f, 2, &mut buf).unwrap(); // head was at 4 → random
        d.read_page(f, 1, &mut buf).unwrap(); // backwards → random
        d.read_page(f, 3, &mut buf).unwrap(); // skip → random
        d.read_page(f, 4, &mut buf).unwrap(); // 3→4 → sequential
        assert_eq!(d.io_stats().rand_reads, 3);
        assert_eq!(d.io_stats().seq_reads, 1);
    }

    #[test]
    fn read_past_end_errors() {
        let mut d = Disk::new_mem(64);
        let f = d.create_file().unwrap();
        let mut buf = vec![0u8; 64];
        assert!(d.read_page(f, 0, &mut buf).is_err());
    }

    #[test]
    fn write_hole_errors() {
        let mut d = Disk::new_mem(64);
        let f = d.create_file().unwrap();
        assert!(d.write_page(f, 1, &[0u8; 64]).is_err());
    }

    #[test]
    fn overwrite_keeps_page_count() {
        let mut d = Disk::new_mem(64);
        let f = d.create_file().unwrap();
        d.append_page(f, &page(&d, 1)).unwrap();
        d.append_page(f, &page(&d, 2)).unwrap();
        d.write_page(f, 0, &page(&d, 9)).unwrap();
        assert_eq!(d.num_pages(f), 2);
        let mut buf = vec![0u8; 64];
        d.read_page(f, 0, &mut buf).unwrap();
        assert_eq!(buf[0], 9);
    }

    #[test]
    fn truncate_resets_file_and_head() {
        let mut d = Disk::new_mem(64);
        let f = d.create_file().unwrap();
        d.append_page(f, &page(&d, 1)).unwrap();
        d.truncate(f).unwrap();
        assert_eq!(d.num_pages(f), 0);
        // Next append is a seek again.
        d.reset_stats();
        d.append_page(f, &page(&d, 2)).unwrap();
        assert_eq!(d.io_stats().rand_writes, 1);
    }

    #[test]
    fn cache_hits_skip_io_counters() {
        let mut d = Disk::new_mem(64);
        d.set_cache_pages(4);
        let f = d.create_file().unwrap();
        for i in 0..3 {
            d.append_page(f, &page(&d, i)).unwrap();
        }
        d.reset_stats();
        let mut buf = vec![0u8; 64];
        // Writes populated the cache: these reads are all hits, zero IO.
        for i in 0..3 {
            d.read_page(f, i, &mut buf).unwrap();
            assert_eq!(buf[0], i as u8);
        }
        assert_eq!(d.io_stats().total(), 0);
        assert_eq!(d.cache_stats(), Some((3, 0)));
    }

    #[test]
    fn cache_misses_fall_through_and_populate() {
        let mut d = Disk::new_mem(64);
        let f = d.create_file().unwrap();
        for i in 0..6 {
            d.append_page(f, &page(&d, i)).unwrap();
        }
        // Enable the cache only after writing: first reads miss.
        d.set_cache_pages(2);
        d.reset_stats();
        let mut buf = vec![0u8; 64];
        d.read_page(f, 0, &mut buf).unwrap(); // miss
        d.read_page(f, 0, &mut buf).unwrap(); // hit
        d.read_page(f, 1, &mut buf).unwrap(); // miss
        d.read_page(f, 2, &mut buf).unwrap(); // miss, evicts page 0
        d.read_page(f, 0, &mut buf).unwrap(); // miss again
        assert_eq!(d.cache_stats(), Some((1, 4)));
        assert_eq!(d.io_stats().seq_reads + d.io_stats().rand_reads, 4);
    }

    #[test]
    fn truncate_invalidates_cache() {
        let mut d = Disk::new_mem(64);
        d.set_cache_pages(4);
        let f = d.create_file().unwrap();
        d.append_page(f, &page(&d, 9)).unwrap();
        d.truncate(f).unwrap();
        d.append_page(f, &page(&d, 5)).unwrap();
        let mut buf = vec![0u8; 64];
        d.read_page(f, 0, &mut buf).unwrap();
        assert_eq!(buf[0], 5, "stale cached page served after truncate");
    }

    #[test]
    fn dir_backend_round_trips() {
        let dir = std::env::temp_dir().join(format!("rsky-disk-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        {
            let mut d = Disk::new_dir(&dir, 128).unwrap();
            let f = d.create_file().unwrap();
            let mut data = vec![0u8; 128];
            for (i, b) in data.iter_mut().enumerate() {
                *b = (i % 251) as u8;
            }
            d.append_page(f, &data).unwrap();
            d.append_page(f, &[7u8; 128]).unwrap();
            let mut buf = vec![0u8; 128];
            d.read_page(f, 0, &mut buf).unwrap();
            assert_eq!(buf, data);
            d.read_page(f, 1, &mut buf).unwrap();
            assert_eq!(buf, vec![7u8; 128]);
            // Same classification rules as the mem backend.
            assert_eq!(d.io_stats().rand_writes + d.io_stats().seq_writes, 2);
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
