//! Shared query-result cache with generation-based invalidation.
//!
//! Results are keyed by `(dataset generation, engine, query values, attr
//! subset)`. The generation is part of the key, so a result computed
//! against an old dataset can never be served after an `insert`/`expire`
//! bumped the generation — and [`ResultCache::invalidate_before`] drops the
//! stale entries eagerly so they don't occupy capacity until FIFO eviction
//! reaches them.

use std::collections::{HashMap, VecDeque};
use std::sync::{Arc, Mutex};

use rsky_core::record::{RecordId, ValueId};
use rsky_storage::ShardSpec;

/// Cache key: everything that determines a query result.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct CacheKey {
    /// Dataset generation the result was computed against.
    pub generation: u64,
    /// Engine name — engines agree on results, but stats and span streams
    /// differ, and keying by engine keeps "same query, different engine"
    /// runs observable rather than silently coalesced.
    pub engine: String,
    /// Query value ids.
    pub values: Vec<ValueId>,
    /// Attribute subset (`None` = all attributes).
    pub subset: Option<Vec<usize>>,
    /// Shard configuration the server ran under (`None` = one part).
    /// Results are identical across shard configs — that is the point of
    /// the differential harness — but the config stays in the key for the
    /// same reason the engine does: reconfigured servers must be observable
    /// as cold rather than silently reusing another topology's entries.
    pub shard: Option<ShardSpec>,
}

struct Inner {
    map: HashMap<CacheKey, Arc<Vec<RecordId>>>,
    order: VecDeque<CacheKey>,
    hits: u64,
    misses: u64,
}

/// A bounded FIFO result cache shared by all worker threads.
pub struct ResultCache {
    inner: Mutex<Inner>,
    cap: usize,
}

impl ResultCache {
    /// Creates a cache holding at most `cap` results (`cap == 0` disables
    /// caching: every lookup misses and nothing is stored).
    pub fn new(cap: usize) -> Self {
        Self {
            inner: Mutex::new(Inner {
                map: HashMap::new(),
                order: VecDeque::new(),
                hits: 0,
                misses: 0,
            }),
            cap,
        }
    }

    /// Looks up `key`, counting a hit or miss.
    pub fn get(&self, key: &CacheKey) -> Option<Arc<Vec<RecordId>>> {
        let mut inner = self.inner.lock().unwrap();
        match inner.map.get(key).cloned() {
            Some(ids) => {
                inner.hits += 1;
                Some(ids)
            }
            None => {
                inner.misses += 1;
                None
            }
        }
    }

    /// Stores a result, evicting the oldest entry at capacity. A second
    /// insert under the same key (two workers racing the same query) keeps
    /// the first value; engine results are deterministic so both are equal.
    pub fn insert(&self, key: CacheKey, ids: Vec<RecordId>) {
        if self.cap == 0 {
            return;
        }
        let mut inner = self.inner.lock().unwrap();
        if inner.map.contains_key(&key) {
            return;
        }
        while inner.map.len() >= self.cap {
            match inner.order.pop_front() {
                Some(old) => {
                    inner.map.remove(&old);
                }
                None => break,
            }
        }
        inner.order.push_back(key.clone());
        inner.map.insert(key, Arc::new(ids));
    }

    /// Drops every entry computed against a generation older than
    /// `generation` (called after a dataset mutation).
    pub fn invalidate_before(&self, generation: u64) {
        let mut inner = self.inner.lock().unwrap();
        inner.order.retain(|k| k.generation >= generation);
        inner.map.retain(|k, _| k.generation >= generation);
    }

    /// `(hits, misses)` so far.
    pub fn stats(&self) -> (u64, u64) {
        let inner = self.inner.lock().unwrap();
        (inner.hits, inner.misses)
    }

    /// Entries currently held.
    pub fn len(&self) -> usize {
        self.inner.lock().unwrap().map.len()
    }

    /// Whether the cache holds no entries.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key(generation: u64, values: &[u32]) -> CacheKey {
        CacheKey {
            generation,
            engine: "trs".into(),
            values: values.to_vec(),
            subset: None,
            shard: None,
        }
    }

    #[test]
    fn hit_after_insert_and_counters() {
        let c = ResultCache::new(4);
        assert!(c.get(&key(1, &[1, 2])).is_none());
        c.insert(key(1, &[1, 2]), vec![3, 6]);
        assert_eq!(c.get(&key(1, &[1, 2])).unwrap().as_slice(), &[3, 6]);
        assert_eq!(c.stats(), (1, 1));
    }

    #[test]
    fn generation_is_part_of_the_key() {
        let c = ResultCache::new(4);
        c.insert(key(1, &[1, 2]), vec![3]);
        // Same query against a newer generation misses.
        assert!(c.get(&key(2, &[1, 2])).is_none());
        // Different engine under the same generation misses too.
        let other = CacheKey { engine: "brs".into(), ..key(1, &[1, 2]) };
        assert!(c.get(&other).is_none());
    }

    #[test]
    fn shard_config_is_part_of_the_key() {
        use rsky_storage::ShardPolicy;
        let c = ResultCache::new(4);
        c.insert(key(1, &[1, 2]), vec![3]);
        let spec = |k, p| Some(ShardSpec::new(k, p).unwrap());
        let sharded = CacheKey { shard: spec(3, ShardPolicy::RoundRobin), ..key(1, &[1, 2]) };
        assert!(c.get(&sharded).is_none(), "sharded config never reuses single-node entries");
        c.insert(sharded.clone(), vec![3]);
        assert!(c.get(&sharded).is_some());
        // A different shard count or policy is a different key.
        let more = CacheKey { shard: spec(4, ShardPolicy::RoundRobin), ..key(1, &[1, 2]) };
        let hashed = CacheKey { shard: spec(3, ShardPolicy::HashById), ..key(1, &[1, 2]) };
        assert!(c.get(&more).is_none());
        assert!(c.get(&hashed).is_none());
    }

    #[test]
    fn invalidate_before_drops_stale_entries() {
        let c = ResultCache::new(8);
        c.insert(key(1, &[1]), vec![1]);
        c.insert(key(2, &[1]), vec![2]);
        c.insert(key(3, &[1]), vec![3]);
        c.invalidate_before(3);
        assert_eq!(c.len(), 1);
        assert_eq!(c.get(&key(3, &[1])).unwrap().as_slice(), &[3]);
    }

    #[test]
    fn fifo_eviction_at_capacity() {
        let c = ResultCache::new(2);
        c.insert(key(1, &[1]), vec![1]);
        c.insert(key(1, &[2]), vec![2]);
        c.insert(key(1, &[3]), vec![3]);
        assert_eq!(c.len(), 2);
        assert!(c.get(&key(1, &[1])).is_none(), "oldest entry evicted");
        assert!(c.get(&key(1, &[3])).is_some());
    }

    #[test]
    fn zero_capacity_disables_caching() {
        let c = ResultCache::new(0);
        c.insert(key(1, &[1]), vec![1]);
        assert!(c.is_empty());
        assert!(c.get(&key(1, &[1])).is_none());
    }

    #[test]
    fn duplicate_insert_keeps_first_value() {
        let c = ResultCache::new(2);
        c.insert(key(1, &[1]), vec![1]);
        c.insert(key(1, &[1]), vec![1]);
        assert_eq!(c.len(), 1);
    }
}
