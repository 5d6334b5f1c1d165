//! Optional LRU page cache (buffer pool).
//!
//! The paper's cost model charges every page access; real systems sit behind
//! a buffer pool. [`PageCache`] is an exact-LRU cache the [`crate::Disk`]
//! can be configured with ([`crate::Disk::set_cache_pages`]): cache hits are
//! served without touching the backend **or the IO counters**, making the
//! model "IO = misses". Disabled by default so the engines reproduce the
//! paper's accounting; `rsky query --cache N` switches it on, to show how
//! much of the IO story a small buffer pool absorbs. Every engine read goes
//! through the run's disk at any thread count, so a parallel run asks the
//! pool for exactly the pages a one-thread run asks for.

use std::collections::HashMap;

use crate::disk::FileId;

/// Exact LRU over `(file, page) → page bytes`.
#[derive(Debug)]
pub struct PageCache {
    capacity: usize,
    page_size: usize,
    /// Key → (slot index, stamp).
    map: HashMap<(FileId, u64), usize>,
    /// Slot storage.
    slots: Vec<Slot>,
    /// Monotone access clock.
    clock: u64,
    hits: u64,
    misses: u64,
}

#[derive(Debug)]
struct Slot {
    key: (FileId, u64),
    last_used: u64,
    data: Vec<u8>,
}

impl PageCache {
    /// Cache holding up to `capacity` pages of `page_size` bytes.
    pub fn new(capacity: usize, page_size: usize) -> Self {
        Self {
            capacity: capacity.max(1),
            page_size,
            map: HashMap::with_capacity(capacity),
            slots: Vec::with_capacity(capacity),
            clock: 0,
            hits: 0,
            misses: 0,
        }
    }

    /// Cache hits so far.
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Cache misses so far.
    pub fn misses(&self) -> u64 {
        self.misses
    }

    /// Pages currently cached.
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    /// Whether the cache holds no pages.
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    /// Looks up a page; on hit, copies it into `buf` and refreshes LRU.
    pub fn get(&mut self, file: FileId, page: u64, buf: &mut [u8]) -> bool {
        self.clock += 1;
        match self.map.get(&(file, page)) {
            Some(&slot) => {
                self.slots[slot].last_used = self.clock;
                buf.copy_from_slice(&self.slots[slot].data);
                self.hits += 1;
                true
            }
            None => {
                self.misses += 1;
                false
            }
        }
    }

    /// Inserts or refreshes a page (write-through population).
    pub fn put(&mut self, file: FileId, page: u64, data: &[u8]) {
        debug_assert_eq!(data.len(), self.page_size);
        self.clock += 1;
        if let Some(&slot) = self.map.get(&(file, page)) {
            self.slots[slot].data.copy_from_slice(data);
            self.slots[slot].last_used = self.clock;
            return;
        }
        if self.slots.len() < self.capacity {
            self.map.insert((file, page), self.slots.len());
            self.slots.push(Slot { key: (file, page), last_used: self.clock, data: data.to_vec() });
            return;
        }
        // Evict the least recently used slot.
        let victim = self
            .slots
            .iter()
            .enumerate()
            .min_by_key(|(_, s)| s.last_used)
            .map(|(i, _)| i)
            .expect("cache is non-empty at capacity");
        let old_key = self.slots[victim].key;
        self.map.remove(&old_key);
        self.map.insert((file, page), victim);
        self.slots[victim].key = (file, page);
        self.slots[victim].last_used = self.clock;
        self.slots[victim].data.copy_from_slice(data);
    }

    /// Drops every cached page of `file` (used by truncate).
    pub fn invalidate_file(&mut self, file: FileId) {
        let keys: Vec<(FileId, u64)> =
            self.map.keys().filter(|(f, _)| *f == file).copied().collect();
        for k in keys {
            let slot = self.map.remove(&k).expect("key just listed");
            // Mark the slot reusable by pointing it at an impossible key and
            // making it the LRU victim.
            self.slots[slot].key = (FileId(usize::MAX), u64::MAX);
            self.slots[slot].last_used = 0;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fid(i: usize) -> FileId {
        FileId(i)
    }

    #[test]
    fn hit_after_put() {
        let mut c = PageCache::new(2, 4);
        let mut buf = [0u8; 4];
        assert!(!c.get(fid(0), 0, &mut buf));
        c.put(fid(0), 0, &[1, 2, 3, 4]);
        assert!(c.get(fid(0), 0, &mut buf));
        assert_eq!(buf, [1, 2, 3, 4]);
        assert_eq!((c.hits(), c.misses()), (1, 1));
    }

    #[test]
    fn lru_eviction_order() {
        let mut c = PageCache::new(2, 1);
        c.put(fid(0), 0, &[0]);
        c.put(fid(0), 1, &[1]);
        let mut buf = [0u8; 1];
        assert!(c.get(fid(0), 0, &mut buf)); // refresh page 0
        c.put(fid(0), 2, &[2]); // evicts page 1 (LRU)
        assert!(c.get(fid(0), 0, &mut buf));
        assert!(!c.get(fid(0), 1, &mut buf));
        assert!(c.get(fid(0), 2, &mut buf));
    }

    #[test]
    fn put_refreshes_existing_page() {
        let mut c = PageCache::new(2, 1);
        c.put(fid(0), 0, &[7]);
        c.put(fid(0), 0, &[9]);
        assert_eq!(c.len(), 1);
        let mut buf = [0u8; 1];
        assert!(c.get(fid(0), 0, &mut buf));
        assert_eq!(buf, [9]);
    }

    #[test]
    fn files_do_not_collide() {
        let mut c = PageCache::new(4, 1);
        c.put(fid(0), 5, &[1]);
        c.put(fid(1), 5, &[2]);
        let mut buf = [0u8; 1];
        assert!(c.get(fid(0), 5, &mut buf));
        assert_eq!(buf, [1]);
        assert!(c.get(fid(1), 5, &mut buf));
        assert_eq!(buf, [2]);
    }

    #[test]
    fn invalidate_file_clears_only_that_file() {
        let mut c = PageCache::new(4, 1);
        c.put(fid(0), 0, &[1]);
        c.put(fid(1), 0, &[2]);
        c.invalidate_file(fid(0));
        let mut buf = [0u8; 1];
        assert!(!c.get(fid(0), 0, &mut buf));
        assert!(c.get(fid(1), 0, &mut buf));
        // The freed slot is reused before evicting a live page.
        c.put(fid(2), 0, &[3]);
        assert!(c.get(fid(1), 0, &mut buf));
        assert!(c.get(fid(2), 0, &mut buf));
    }
}
