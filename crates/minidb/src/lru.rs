//! A bounded least-recently-used map with hit, miss, eviction and
//! invalidation counts: the one store behind minidb's plan cache and
//! the policy server's translation and verdict caches.
//!
//! Every lookup and insert stamps its entry with the next tick of the
//! map's counter. Inserting a new key at capacity evicts the entry with
//! the oldest stamp, found by a scan: these caches hold at most a few
//! thousand entries and rarely evict. Lowering the capacity evicts down
//! to it at once, and capacity 0 stores nothing. Each map counts into
//! its own [`CacheStats`] and into the process-wide
//! `p3p_<name>_cache_{hits,misses,evictions,invalidations}_total`
//! counters.
//!
//! Holders share one map through a [`SharedLru`]: clones of a database
//! or a policy server warm each other's caches until one of them
//! changes what its entries depend on and [detaches](SharedLru::detach).

use p3p_telemetry::metrics::{self, Counter};
use std::borrow::Borrow;
use std::collections::HashMap;
use std::hash::Hash;
use std::sync::{Arc, Mutex, MutexGuard};

/// Cumulative counts of one cache lineage.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    pub hits: u64,
    pub misses: u64,
    pub evictions: u64,
    pub invalidations: u64,
}

impl CacheStats {
    /// Hits over counted lookups (0 before the first).
    pub fn hit_rate(&self) -> f64 {
        let lookups = self.hits + self.misses;
        if lookups == 0 {
            0.0
        } else {
            self.hits as f64 / lookups as f64
        }
    }
}

/// The process-wide counters one cache name reports to.
#[derive(Debug, Clone)]
struct Counters {
    hits: Arc<Counter>,
    misses: Arc<Counter>,
    evictions: Arc<Counter>,
    invalidations: Arc<Counter>,
}

/// A bounded LRU map (see the module docs). Cloning copies the
/// entries, their stamps and the counts; the copy reports to the same
/// process-wide counters.
#[derive(Debug, Clone)]
pub struct Lru<K, V> {
    /// Each value with the tick of its last use.
    entries: HashMap<K, (V, u64)>,
    tick: u64,
    capacity: usize,
    stats: CacheStats,
    counters: Counters,
}

impl<K: Hash + Eq + Clone, V> Lru<K, V> {
    fn new(name: &str, capacity: usize) -> Self {
        let counter = |count: &str| metrics::counter(&format!("p3p_{name}_cache_{count}_total"));
        Lru {
            entries: HashMap::new(),
            tick: 0,
            capacity,
            stats: CacheStats::default(),
            counters: Counters {
                hits: counter("hits"),
                misses: counter("misses"),
                evictions: counter("evictions"),
                invalidations: counter("invalidations"),
            },
        }
    }

    /// The value under `key`, now the most recently used, counted as a
    /// hit. An absent key counts nothing: the caller decides with
    /// [`Lru::miss`] whether the lookup was a miss, so the plan cache
    /// counts none for statements it would not cache.
    pub fn get<Q>(&mut self, key: &Q) -> Option<&V>
    where
        K: Borrow<Q>,
        Q: Hash + Eq + ?Sized,
    {
        self.tick += 1;
        let (value, last_used) = self.entries.get_mut(key)?;
        *last_used = self.tick;
        self.stats.hits += 1;
        self.counters.hits.inc();
        Some(value)
    }

    /// Count a lookup that missed.
    pub fn miss(&mut self) {
        self.stats.misses += 1;
        self.counters.misses.inc();
    }

    /// Store `value` under `key` as the most recently used entry. A new
    /// key at capacity first evicts the least recently used entry.
    pub fn insert(&mut self, key: K, value: V) {
        if self.capacity == 0 {
            return;
        }
        if self.entries.len() >= self.capacity && !self.entries.contains_key(&key) {
            self.evict_one();
        }
        self.tick += 1;
        self.entries.insert(key, (value, self.tick));
    }

    fn evict_one(&mut self) {
        let oldest = self
            .entries
            .iter()
            .min_by_key(|(_, (_, last_used))| *last_used)
            .map(|(key, _)| key.clone());
        if let Some(key) = oldest {
            self.entries.remove(&key);
            self.stats.evictions += 1;
            self.counters.evictions.inc();
        }
    }

    /// Change the capacity, evicting least recently used entries down
    /// to it at once.
    pub fn set_capacity(&mut self, capacity: usize) {
        self.capacity = capacity;
        while self.entries.len() > capacity {
            self.evict_one();
        }
    }

    /// Drop every entry, counted as one invalidation: the plan cache
    /// counts the DDL statements that emptied it.
    pub fn clear(&mut self) {
        self.entries.clear();
        self.stats.invalidations += 1;
        self.counters.invalidations.inc();
    }

    /// Drop the entries whose key `stale` selects, each counted as an
    /// invalidation. Returns how many were dropped.
    pub fn remove_where(&mut self, mut stale: impl FnMut(&K) -> bool) -> usize {
        let before = self.entries.len();
        self.entries.retain(|key, _| !stale(key));
        let dropped = before - self.entries.len();
        self.stats.invalidations += dropped as u64;
        self.counters.invalidations.add(dropped as u64);
        dropped
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when the map holds nothing.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// This map's counts.
    pub fn stats(&self) -> CacheStats {
        self.stats
    }
}

/// An [`Lru`] behind a lock, shared by every clone of its holder.
#[derive(Debug, Clone)]
pub struct SharedLru<K, V>(Arc<Mutex<Lru<K, V>>>);

impl<K: Hash + Eq + Clone, V: Clone> SharedLru<K, V> {
    /// An unshared empty map of at most `capacity` entries that reports
    /// to the `p3p_<name>_cache_*_total` counters.
    pub fn new(name: &str, capacity: usize) -> Self {
        SharedLru(Arc::new(Mutex::new(Lru::new(name, capacity))))
    }

    /// Lock the map.
    pub fn lock(&self) -> MutexGuard<'_, Lru<K, V>> {
        self.0
            .lock()
            .expect("a thread panicked while holding a cache lock")
    }

    /// If other holders share the map, take a private copy of it, with
    /// its entries and counts, so that what this holder does next never
    /// reaches them. A sole holder keeps its map.
    pub fn detach(&mut self) {
        if Arc::strong_count(&self.0) > 1 {
            let private = self.lock().clone();
            self.0 = Arc::new(Mutex::new(private));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lru(capacity: usize) -> Lru<u32, &'static str> {
        Lru::new("lru_test", capacity)
    }

    #[test]
    fn hits_count_on_lookup_and_misses_when_the_caller_says() {
        let mut map = lru(4);
        assert_eq!(map.get(&1), None);
        assert_eq!(
            map.stats(),
            CacheStats::default(),
            "absent keys count nothing"
        );
        map.miss();
        map.insert(1, "a");
        assert_eq!(map.get(&1), Some(&"a"));
        let stats = map.stats();
        assert_eq!((stats.hits, stats.misses), (1, 1));
        assert!((stats.hit_rate() - 0.5).abs() < 1e-9);
        assert_eq!(CacheStats::default().hit_rate(), 0.0);
    }

    #[test]
    fn a_new_key_at_capacity_evicts_the_least_recently_used() {
        let mut map = lru(2);
        map.insert(1, "a");
        map.insert(2, "b");
        map.get(&1); // 2 is now the oldest
        map.insert(3, "c");
        assert_eq!(map.len(), 2);
        assert_eq!(map.get(&2), None, "least recently used entry evicted");
        assert_eq!(map.get(&1), Some(&"a"), "recently used entry survives");
        assert_eq!(map.stats().evictions, 1);
        // Replacing a present key at capacity evicts nothing.
        map.insert(3, "c2");
        assert_eq!(map.get(&3), Some(&"c2"));
        assert_eq!(map.stats().evictions, 1);
    }

    #[test]
    fn capacity_bounds_the_map_after_many_distinct_inserts() {
        let mut map = lru(4);
        for key in 0..1000 {
            map.insert(key, "v");
        }
        assert_eq!(map.len(), 4);
        assert_eq!(map.stats().evictions, 996);
        for key in 996..1000 {
            assert!(map.get(&key).is_some(), "the newest {key} survives");
        }
    }

    #[test]
    fn shrinking_evicts_at_once_and_zero_stores_nothing() {
        let mut map = lru(8);
        for key in 0..8 {
            map.insert(key, "v");
        }
        map.get(&0);
        map.set_capacity(3);
        assert_eq!(map.len(), 3);
        assert_eq!(map.stats().evictions, 5);
        assert_eq!(map.get(&0), Some(&"v"), "the touched entry is kept");
        map.set_capacity(0);
        assert!(map.is_empty());
        map.insert(9, "v");
        assert!(map.is_empty(), "capacity 0 stores nothing");
    }

    #[test]
    fn clear_counts_once_and_remove_where_counts_each_entry() {
        let mut map = lru(8);
        for key in 0..6 {
            map.insert(key, "v");
        }
        assert_eq!(map.remove_where(|key| key % 2 == 0), 3);
        assert_eq!(map.len(), 3);
        assert_eq!(map.stats().invalidations, 3);
        map.clear();
        map.clear();
        assert!(map.is_empty());
        assert_eq!(map.stats().invalidations, 5, "one per clear, empty or not");
    }

    #[test]
    fn maps_report_to_their_names_process_counters() {
        let hits = metrics::counter("p3p_lru_counter_test_cache_hits_total");
        let evictions = metrics::counter("p3p_lru_counter_test_cache_evictions_total");
        let (hits_before, evictions_before) = (hits.get(), evictions.get());
        let mut map = Lru::new("lru_counter_test", 1);
        map.insert(1, ());
        map.get(&1);
        map.insert(2, ());
        assert_eq!(hits.get() - hits_before, 1);
        assert_eq!(evictions.get() - evictions_before, 1);
    }

    #[test]
    fn clones_share_until_one_detaches() {
        let shared = SharedLru::new("lru_test", 4);
        shared.lock().insert(1, "a");
        let mut other = shared.clone();
        assert!(Arc::ptr_eq(&other.0, &shared.0));
        other.lock().insert(2, "b");
        assert_eq!(shared.lock().len(), 2, "clones see each other's inserts");
        other.detach();
        assert!(!Arc::ptr_eq(&other.0, &shared.0));
        other.lock().clear();
        assert_eq!(
            shared.lock().len(),
            2,
            "the detached copy's clear stays private"
        );
        assert_eq!(shared.lock().stats().invalidations, 0);
        assert_eq!(other.lock().stats().invalidations, 1);
        // A sole holder keeps its map.
        let before = Arc::as_ptr(&other.0);
        other.detach();
        assert_eq!(before, Arc::as_ptr(&other.0));
    }
}
