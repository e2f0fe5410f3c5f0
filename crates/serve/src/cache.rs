//! A small intrusive-list LRU cache with hit/miss accounting.
//!
//! The serving engine keys this by `(center, d)` and stores
//! `Arc<CenterSite>` values, so hot candidate centers are never
//! re-extracted: a d-ball extraction is a BFS plus an induced-subgraph
//! build (`O(|G_d(v)|)`), which dominates per-candidate latency for small
//! patterns. All operations are `O(1)`; the engine wraps the cache in a
//! `Mutex` shared by the worker pool.

use rustc_hash::FxHashMap;
use std::hash::Hash;

/// Monotonic counters describing cache effectiveness.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups that found the key.
    pub hits: u64,
    /// Lookups that missed.
    pub misses: u64,
    /// Entries evicted to make room.
    pub evictions: u64,
    /// Entries dropped by [`LruCache::cloned_retain`] (graph-update
    /// invalidation, as opposed to capacity pressure).
    pub invalidations: u64,
    /// Entries inserted (new keys only, not value replacements). With
    /// `evictions` and `invalidations` this makes churn derivable from a
    /// snapshot: `inserted - evictions - invalidations` entries are live
    /// or replaced-in-place.
    pub inserted: u64,
}

impl CacheStats {
    /// Hit fraction in `[0, 1]` (0 when no lookups happened).
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

struct Entry<K, V> {
    key: K,
    value: V,
    prev: usize,
    next: usize,
}

const NIL: usize = usize::MAX;

/// A fixed-capacity least-recently-used cache.
///
/// Capacity 0 disables the cache entirely: every `get` misses and
/// `insert` is a no-op, which the throughput bench uses as its baseline.
pub struct LruCache<K, V> {
    map: FxHashMap<K, usize>,
    entries: Vec<Entry<K, V>>,
    free: Vec<usize>,
    head: usize,
    tail: usize,
    capacity: usize,
    stats: CacheStats,
}

impl<K: Eq + Hash + Clone, V: Clone> LruCache<K, V> {
    /// Creates a cache holding at most `capacity` entries.
    pub fn new(capacity: usize) -> Self {
        Self {
            map: FxHashMap::default(),
            entries: Vec::with_capacity(capacity.min(4096)),
            free: Vec::new(),
            head: NIL,
            tail: NIL,
            capacity,
            stats: CacheStats::default(),
        }
    }

    /// The configured capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Number of live entries.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// Whether the cache holds no entries.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// A snapshot of the counters.
    pub fn stats(&self) -> CacheStats {
        self.stats
    }

    fn unlink(&mut self, i: usize) {
        let (prev, next) = (self.entries[i].prev, self.entries[i].next);
        if prev != NIL {
            self.entries[prev].next = next;
        } else {
            self.head = next;
        }
        if next != NIL {
            self.entries[next].prev = prev;
        } else {
            self.tail = prev;
        }
    }

    fn push_front(&mut self, i: usize) {
        self.entries[i].prev = NIL;
        self.entries[i].next = self.head;
        if self.head != NIL {
            self.entries[self.head].prev = i;
        }
        self.head = i;
        if self.tail == NIL {
            self.tail = i;
        }
    }

    /// Looks up `key`, refreshing its recency. Returns a clone of the
    /// value (values are `Arc`s in the serving engine, so this is cheap).
    pub fn get(&mut self, key: &K) -> Option<V> {
        match self.map.get(key).copied() {
            Some(i) => {
                self.stats.hits += 1;
                if self.head != i {
                    self.unlink(i);
                    self.push_front(i);
                }
                Some(self.entries[i].value.clone())
            }
            None => {
                self.stats.misses += 1;
                None
            }
        }
    }

    /// Inserts `key → value` as most-recently used, evicting the LRU
    /// entry if the cache is full. Replaces the value on key collision.
    /// Returns the evicted key, if the insert displaced one.
    pub fn insert(&mut self, key: K, value: V) -> Option<K> {
        if self.capacity == 0 {
            return None;
        }
        if let Some(&i) = self.map.get(&key) {
            self.entries[i].value = value;
            if self.head != i {
                self.unlink(i);
                self.push_front(i);
            }
            return None;
        }
        self.stats.inserted += 1;
        let mut evicted = None;
        if self.map.len() == self.capacity {
            let lru = self.tail;
            debug_assert_ne!(lru, NIL);
            self.unlink(lru);
            let old = self.entries[lru].key.clone();
            self.map.remove(&old);
            evicted = Some(old);
            self.free.push(lru);
            self.stats.evictions += 1;
        }
        let i = match self.free.pop() {
            Some(slot) => {
                self.entries[slot] = Entry { key: key.clone(), value, prev: NIL, next: NIL };
                slot
            }
            None => {
                self.entries.push(Entry { key: key.clone(), value, prev: NIL, next: NIL });
                self.entries.len() - 1
            }
        };
        self.map.insert(key, i);
        self.push_front(i);
        evicted
    }

    /// Iterator over the live keys (arbitrary order).
    pub fn keys(&self) -> impl Iterator<Item = &K> {
        self.map.keys()
    }

    /// Builds a new cache holding exactly the entries whose key passes
    /// `keep`, preserving recency order and carrying the cumulative
    /// counters forward (dropped entries count as invalidations). The
    /// source is untouched: the serving engine derives the next
    /// snapshot's cache from the published one while readers keep
    /// hitting it — this is the scoped-invalidation hook, dropping
    /// exactly the `(center, d)` extractions an update's union ball may
    /// have changed. Returns the new cache and the dropped keys.
    pub fn cloned_retain(&self, mut keep: impl FnMut(&K) -> bool) -> (Self, Vec<K>) {
        let mut out = Self::new(self.capacity);
        out.stats = self.stats;
        let mut dropped = Vec::new();
        // Walk LRU → MRU so each push_front lands the entry exactly where
        // the source had it.
        let mut i = self.tail;
        while i != NIL {
            let e = &self.entries[i];
            let up = e.prev;
            if keep(&e.key) {
                let slot = out.entries.len();
                out.entries.push(Entry {
                    key: e.key.clone(),
                    value: e.value.clone(),
                    prev: NIL,
                    next: NIL,
                });
                out.map.insert(e.key.clone(), slot);
                out.push_front(slot);
            } else {
                dropped.push(e.key.clone());
                out.stats.invalidations += 1;
            }
            i = up;
        }
        (out, dropped)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn evicts_least_recently_used() {
        let mut c: LruCache<u32, &str> = LruCache::new(2);
        c.insert(1, "a");
        c.insert(2, "b");
        assert_eq!(c.get(&1), Some("a")); // 1 is now MRU
        c.insert(3, "c"); // evicts 2
        assert_eq!(c.get(&2), None);
        assert_eq!(c.get(&1), Some("a"));
        assert_eq!(c.get(&3), Some("c"));
        assert_eq!(c.stats().evictions, 1);
    }

    #[test]
    fn reinsert_refreshes_and_replaces() {
        let mut c: LruCache<u32, u32> = LruCache::new(2);
        c.insert(1, 10);
        c.insert(2, 20);
        c.insert(1, 11); // refresh 1 → 2 becomes LRU
        c.insert(3, 30); // evicts 2
        assert_eq!(c.get(&1), Some(11));
        assert_eq!(c.get(&2), None);
        assert_eq!(c.len(), 2);
    }

    #[test]
    fn capacity_zero_disables_caching() {
        let mut c: LruCache<u32, u32> = LruCache::new(0);
        c.insert(1, 10);
        assert_eq!(c.get(&1), None);
        assert_eq!(c.len(), 0);
        assert_eq!(c.stats().misses, 1);
    }

    #[test]
    fn stats_track_hits_and_misses() {
        let mut c: LruCache<u32, u32> = LruCache::new(8);
        assert_eq!(c.get(&1), None);
        c.insert(1, 1);
        assert_eq!(c.get(&1), Some(1));
        assert_eq!(c.get(&1), Some(1));
        let s = c.stats();
        assert_eq!((s.hits, s.misses), (2, 1));
        assert!(s.hit_rate() > 0.6);
    }

    #[test]
    fn inserted_counts_new_keys_and_insert_reports_evictee() {
        let mut c: LruCache<u32, u32> = LruCache::new(2);
        assert_eq!(c.insert(1, 10), None);
        assert_eq!(c.insert(2, 20), None);
        assert_eq!(c.insert(1, 11), None, "replacement is not an insert");
        assert_eq!(c.stats().inserted, 2);
        // 2 is now LRU; inserting 3 reports it as displaced.
        assert_eq!(c.insert(3, 30), Some(2));
        let s = c.stats();
        assert_eq!((s.inserted, s.evictions), (3, 1));
        // Capacity 0: nothing inserted, nothing displaced.
        let mut z: LruCache<u32, u32> = LruCache::new(0);
        assert_eq!(z.insert(1, 1), None);
        assert_eq!(z.stats().inserted, 0);
    }

    #[test]
    fn cloned_retain_preserves_order_stats_and_source() {
        let mut c: LruCache<u32, u32> = LruCache::new(8);
        for i in 0..6u32 {
            c.insert(i, i * 10);
        }
        let _ = c.get(&0); // 0 becomes MRU
        let before = c.stats();
        let (mut d, mut gone) = c.cloned_retain(|&k| k % 2 == 0);
        gone.sort_unstable();
        assert_eq!(gone, vec![1, 3, 5]);
        assert_eq!(d.len(), 3);
        assert_eq!(d.stats().invalidations, before.invalidations + 3);
        // Source untouched.
        assert_eq!(c.len(), 6);
        assert_eq!(c.stats(), before);
        // Recency order survives the copy: 2 and 4 are older than 0, so
        // filling the clone to capacity evicts them first.
        for i in 10..15u32 {
            d.insert(i, i);
        }
        assert_eq!(d.len(), 8);
        assert_eq!(d.insert(20, 20), Some(2));
        assert_eq!(d.insert(21, 21), Some(4));
        assert_eq!(d.insert(22, 22), Some(0));
        assert_eq!(d.get(&0), None);
        assert_eq!(d.get(&10), Some(10));
    }

    #[test]
    fn heavy_churn_keeps_list_consistent() {
        let mut c: LruCache<u32, u32> = LruCache::new(5);
        for i in 0..1000u32 {
            c.insert(i % 13, i);
            let _ = c.get(&(i % 7));
            assert!(c.len() <= 5);
        }
        // The five most recent distinct keys of the i%13 stream survive.
        assert_eq!(c.len(), 5);
    }
}
