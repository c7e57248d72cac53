//! Memoized verdict cache for live-update traffic.
//!
//! The paper's motivation for database technology (§4.2) is that
//! "policies of a website will not stay static forever" — yet between
//! two updates, the same preference matched against the same policy
//! always produces the same verdict. This module memoizes that fact:
//! a sharded, LRU-bounded map from
//!
//! ```text
//! (ruleset fingerprint × policy id × policy version × engine × execution options)
//! ```
//!
//! to the [`Verdict`] the engine produced. The fingerprint is the same
//! 64-bit structural hash the translation cache uses
//! ([`crate::translation::TranslationCache::fingerprint`]); the policy
//! version is the per-name counter [`crate::PolicyServer`] bumps on
//! every install/replace/remove (so a re-shred of policy P silently
//! orphans P's old entries even before they are swept); the options are
//! the database's whole [`ExecOptions`] value, so an A/B comparison of
//! any option never aliases. A hit answers a match without touching
//! minidb at all.
//!
//! Invalidation is precise: removing or re-shredding policy P evicts
//! only P's entries ([`VerdictCache::invalidate_policy`]). Capacity 0
//! disables the cache entirely (the default for a fresh server —
//! deployments and the churn workload opt in).
//!
//! ## Sharing and copy-on-write forks
//!
//! Cloning a cache (as [`crate::PolicyServer::clone_state`] does)
//! shares the underlying shards, so a [`MatchPool`] snapshot and the
//! server it came from warm each other — safe while their catalogs are
//! identical, because every key pins a policy id and version. The
//! moment a server *mutates its catalog* it must call
//! [`VerdictCache::detach_for_update`] first: if the cache is shared,
//! the server splits off a private warm copy, so a fork's installs,
//! removals, and invalidations are never visible to its parent (and
//! two forks can never poison each other through reused policy ids).
//!
//! [`MatchPool`]: crate::concurrent::MatchPool

use crate::server::EngineKind;
use p3p_appel::engine::Verdict;
use p3p_minidb::ExecOptions;
use p3p_telemetry::metrics::{self, Counter, Gauge};
use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

/// Number of independently locked shards. Keys spread by hash, so
/// concurrent matchers on a [`MatchPool`](crate::concurrent::MatchPool)
/// snapshot rarely contend.
const SHARDS: usize = 16;

/// The identity of one memoized verdict.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct VerdictKey {
    /// Structural fingerprint of the APPEL ruleset (shared with the
    /// translation cache).
    pub fingerprint: u64,
    /// The installed policy's id (unique within a server lineage).
    pub policy_id: i64,
    /// The per-name version counter at match time.
    pub policy_version: u64,
    /// Which engine produced the verdict.
    pub engine: EngineKind,
    /// The execution options the verdict was computed under, so
    /// variants never alias each other's verdicts.
    pub options: ExecOptions,
}

impl VerdictKey {
    fn shard(&self) -> usize {
        let mut h = DefaultHasher::new();
        self.hash(&mut h);
        (h.finish() as usize) % SHARDS
    }
}

/// Hit/miss/eviction/invalidation counters plus current size, per
/// cache lineage (the Prometheus `p3p_verdict_cache_*` counters
/// aggregate across every cache in the process).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct VerdictCacheStats {
    pub hits: u64,
    pub misses: u64,
    pub evictions: u64,
    pub invalidations: u64,
    pub entries: usize,
}

impl VerdictCacheStats {
    /// Hits over consulted lookups (0 when never consulted).
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

struct CacheMetrics {
    hits: Arc<Counter>,
    misses: Arc<Counter>,
    evictions: Arc<Counter>,
    invalidations: Arc<Counter>,
}

fn cache_metrics() -> &'static CacheMetrics {
    static METRICS: OnceLock<CacheMetrics> = OnceLock::new();
    METRICS.get_or_init(|| CacheMetrics {
        hits: metrics::counter("p3p_verdict_cache_hits_total"),
        misses: metrics::counter("p3p_verdict_cache_misses_total"),
        evictions: metrics::counter("p3p_verdict_cache_evictions_total"),
        invalidations: metrics::counter("p3p_verdict_cache_invalidations_total"),
    })
}

/// The `p3p_catalog_epoch` gauge: the most recent catalog epoch any
/// server in the process reached.
pub(crate) fn epoch_gauge() -> &'static Arc<Gauge> {
    static GAUGE: OnceLock<Arc<Gauge>> = OnceLock::new();
    GAUGE.get_or_init(|| metrics::gauge("p3p_catalog_epoch"))
}

#[derive(Debug)]
struct Entry {
    verdict: Verdict,
    last_used: u64,
}

#[derive(Debug, Default)]
struct Shard {
    entries: HashMap<VerdictKey, Entry>,
    tick: u64,
}

#[derive(Debug)]
struct Inner {
    shards: Vec<Mutex<Shard>>,
    /// Total capacity across shards; 0 disables the cache.
    capacity: AtomicUsize,
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
    invalidations: AtomicU64,
}

impl Inner {
    fn with_capacity(capacity: usize) -> Inner {
        Inner {
            shards: (0..SHARDS).map(|_| Mutex::new(Shard::default())).collect(),
            capacity: AtomicUsize::new(capacity),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
            invalidations: AtomicU64::new(0),
        }
    }

    fn per_shard_capacity(&self) -> usize {
        (self.capacity.load(Ordering::Relaxed) / SHARDS).max(1)
    }

    /// A warm private copy: contents, capacity, and counters carry
    /// over; the new inner shares nothing with this one.
    fn deep_copy(&self) -> Inner {
        let copy = Inner::with_capacity(self.capacity.load(Ordering::Relaxed));
        for (from, to) in self.shards.iter().zip(&copy.shards) {
            let from = from.lock().unwrap();
            let mut to = to.lock().unwrap();
            to.tick = from.tick;
            to.entries = from
                .entries
                .iter()
                .map(|(k, e)| {
                    (
                        *k,
                        Entry {
                            verdict: e.verdict.clone(),
                            last_used: e.last_used,
                        },
                    )
                })
                .collect();
        }
        copy.hits
            .store(self.hits.load(Ordering::Relaxed), Ordering::Relaxed);
        copy.misses
            .store(self.misses.load(Ordering::Relaxed), Ordering::Relaxed);
        copy.evictions
            .store(self.evictions.load(Ordering::Relaxed), Ordering::Relaxed);
        copy.invalidations.store(
            self.invalidations.load(Ordering::Relaxed),
            Ordering::Relaxed,
        );
        copy
    }
}

/// Sharded LRU map from [`VerdictKey`] to [`Verdict`]. Cloning shares
/// the shards (see the module docs for the copy-on-write contract).
#[derive(Debug, Clone)]
pub struct VerdictCache {
    inner: Arc<Inner>,
}

impl Default for VerdictCache {
    /// Disabled (capacity 0) — callers opt in with
    /// [`VerdictCache::set_capacity`].
    fn default() -> Self {
        VerdictCache {
            inner: Arc::new(Inner::with_capacity(0)),
        }
    }
}

impl VerdictCache {
    /// A cache bounded to `capacity` entries in total.
    pub fn with_capacity(capacity: usize) -> VerdictCache {
        VerdictCache {
            inner: Arc::new(Inner::with_capacity(capacity)),
        }
    }

    /// True when lookups can ever hit (capacity > 0).
    pub fn is_enabled(&self) -> bool {
        self.capacity() > 0
    }

    /// Total entry budget across shards.
    pub fn capacity(&self) -> usize {
        self.inner.capacity.load(Ordering::Relaxed)
    }

    /// Adjust the budget. 0 disables lookups and inserts; oversized
    /// contents drain through normal LRU eviction, except that setting
    /// 0 clears eagerly (a disabled cache must never serve a hit).
    pub fn set_capacity(&self, capacity: usize) {
        self.inner.capacity.store(capacity, Ordering::Relaxed);
        if capacity == 0 {
            for shard in &self.inner.shards {
                shard.lock().unwrap().entries.clear();
            }
        }
    }

    /// Split off a private warm copy if the shards are shared with any
    /// other holder. Servers call this before every catalog mutation,
    /// which is what keeps forks and parents from seeing each other's
    /// cache mutations (and from aliasing independently assigned
    /// policy ids).
    pub fn detach_for_update(&mut self) {
        if Arc::strong_count(&self.inner) > 1 {
            self.inner = Arc::new(self.inner.deep_copy());
        }
    }

    /// Look up a memoized verdict. Counts a hit or a miss; a disabled
    /// cache returns `None` without counting.
    pub fn get(&self, key: &VerdictKey) -> Option<Verdict> {
        if !self.is_enabled() {
            return None;
        }
        let mut shard = self.inner.shards[key.shard()].lock().unwrap();
        shard.tick += 1;
        let tick = shard.tick;
        match shard.entries.get_mut(key) {
            Some(entry) => {
                entry.last_used = tick;
                let verdict = entry.verdict.clone();
                self.inner.hits.fetch_add(1, Ordering::Relaxed);
                cache_metrics().hits.inc();
                Some(verdict)
            }
            None => {
                self.inner.misses.fetch_add(1, Ordering::Relaxed);
                cache_metrics().misses.inc();
                None
            }
        }
    }

    /// Memoize a verdict, evicting the shard's least recently used
    /// entry when the shard is at budget. No-op when disabled.
    pub fn insert(&self, key: VerdictKey, verdict: Verdict) {
        if !self.is_enabled() {
            return;
        }
        let per_shard = self.inner.per_shard_capacity();
        let mut shard = self.inner.shards[key.shard()].lock().unwrap();
        shard.tick += 1;
        let tick = shard.tick;
        if shard.entries.len() >= per_shard && !shard.entries.contains_key(&key) {
            if let Some(oldest) = shard
                .entries
                .iter()
                .min_by_key(|(_, e)| e.last_used)
                .map(|(k, _)| *k)
            {
                shard.entries.remove(&oldest);
                self.inner.evictions.fetch_add(1, Ordering::Relaxed);
                cache_metrics().evictions.inc();
            }
        }
        shard.entries.insert(
            key,
            Entry {
                verdict,
                last_used: tick,
            },
        );
    }

    /// Evict every entry of one policy (precise invalidation on
    /// re-shred/remove). Returns how many entries were dropped.
    pub fn invalidate_policy(&self, policy_id: i64) -> usize {
        let mut dropped = 0;
        for shard in &self.inner.shards {
            let mut shard = shard.lock().unwrap();
            let before = shard.entries.len();
            shard.entries.retain(|k, _| k.policy_id != policy_id);
            dropped += before - shard.entries.len();
        }
        if dropped > 0 {
            self.inner
                .invalidations
                .fetch_add(dropped as u64, Ordering::Relaxed);
            cache_metrics().invalidations.add(dropped as u64);
        }
        dropped
    }

    /// Number of memoized verdicts.
    pub fn len(&self) -> usize {
        self.inner
            .shards
            .iter()
            .map(|s| s.lock().unwrap().entries.len())
            .sum()
    }

    /// True when nothing is memoized.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Counter snapshot for this cache lineage.
    pub fn stats(&self) -> VerdictCacheStats {
        VerdictCacheStats {
            hits: self.inner.hits.load(Ordering::Relaxed),
            misses: self.inner.misses.load(Ordering::Relaxed),
            evictions: self.inner.evictions.load(Ordering::Relaxed),
            invalidations: self.inner.invalidations.load(Ordering::Relaxed),
            entries: self.len(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use p3p_appel::model::Behavior;

    fn key(fingerprint: u64, policy_id: i64, version: u64) -> VerdictKey {
        VerdictKey {
            fingerprint,
            policy_id,
            policy_version: version,
            engine: EngineKind::Sql,
            options: ExecOptions::default(),
        }
    }

    fn verdict(behavior: Behavior) -> Verdict {
        Verdict {
            behavior,
            fired_rule: Some(0),
        }
    }

    #[test]
    fn disabled_cache_never_hits_or_counts() {
        let cache = VerdictCache::default();
        assert!(!cache.is_enabled());
        cache.insert(key(1, 1, 1), verdict(Behavior::Block));
        assert_eq!(cache.get(&key(1, 1, 1)), None);
        assert_eq!(cache.stats(), VerdictCacheStats::default());
    }

    #[test]
    fn second_lookup_hits_and_counts() {
        let cache = VerdictCache::with_capacity(64);
        assert_eq!(cache.get(&key(1, 1, 1)), None);
        cache.insert(key(1, 1, 1), verdict(Behavior::Request));
        assert_eq!(cache.get(&key(1, 1, 1)), Some(verdict(Behavior::Request)));
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses, stats.entries), (1, 1, 1));
        assert!((stats.hit_rate() - 0.5).abs() < 1e-9);
    }

    #[test]
    fn version_and_knob_changes_are_distinct_keys() {
        let cache = VerdictCache::with_capacity(64);
        cache.insert(key(1, 1, 1), verdict(Behavior::Request));
        assert_eq!(cache.get(&key(1, 1, 2)), None, "new version must miss");
        let mut knobbed = key(1, 1, 1);
        knobbed.options.columnar = false;
        assert_eq!(cache.get(&knobbed), None, "option variant must miss");
        let mut other_engine = key(1, 1, 1);
        other_engine.engine = EngineKind::Native;
        assert_eq!(cache.get(&other_engine), None, "engine variant must miss");
    }

    #[test]
    fn invalidation_is_per_policy() {
        let cache = VerdictCache::with_capacity(64);
        for fp in 0..4 {
            cache.insert(key(fp, 1, 1), verdict(Behavior::Block));
            cache.insert(key(fp, 2, 1), verdict(Behavior::Request));
        }
        assert_eq!(cache.invalidate_policy(1), 4);
        assert_eq!(cache.len(), 4);
        assert_eq!(cache.get(&key(0, 1, 1)), None);
        assert_eq!(cache.get(&key(0, 2, 1)), Some(verdict(Behavior::Request)));
        assert_eq!(cache.stats().invalidations, 4);
    }

    #[test]
    fn lru_eviction_respects_recency_within_a_shard() {
        // Capacity SHARDS gives each shard a budget of exactly one
        // entry, so two keys in the same shard must evict.
        let cache = VerdictCache::with_capacity(SHARDS);
        let a = key(1, 1, 1);
        let mut b = a;
        b.fingerprint = 2;
        // Force both keys into the same shard by brute-force search.
        while b.shard() != a.shard() {
            b.fingerprint += 1;
        }
        cache.insert(a, verdict(Behavior::Block));
        cache.insert(b, verdict(Behavior::Request));
        assert_eq!(cache.get(&a), None, "older entry evicted");
        assert_eq!(cache.get(&b), Some(verdict(Behavior::Request)));
        assert_eq!(cache.stats().evictions, 1);
        // Re-inserting an existing key at budget must not evict it.
        cache.insert(b, verdict(Behavior::Request));
        assert_eq!(cache.stats().evictions, 1);
    }

    #[test]
    fn clones_share_until_detached() {
        let cache = VerdictCache::with_capacity(64);
        let mut fork = cache.clone();
        cache.insert(key(1, 1, 1), verdict(Behavior::Block));
        assert_eq!(
            fork.get(&key(1, 1, 1)),
            Some(verdict(Behavior::Block)),
            "clones share warm entries"
        );
        fork.detach_for_update();
        fork.invalidate_policy(1);
        assert_eq!(fork.get(&key(1, 1, 1)), None, "fork dropped its copy");
        assert_eq!(
            cache.get(&key(1, 1, 1)),
            Some(verdict(Behavior::Block)),
            "parent keeps its entry after the fork's invalidation"
        );
        // Inserts after the detach stay private in both directions.
        fork.insert(key(9, 9, 1), verdict(Behavior::Request));
        assert_eq!(cache.get(&key(9, 9, 1)), None);
    }

    #[test]
    fn detach_is_a_no_op_for_a_sole_owner() {
        let mut cache = VerdictCache::with_capacity(64);
        cache.insert(key(1, 1, 1), verdict(Behavior::Block));
        let before = Arc::as_ptr(&cache.inner);
        cache.detach_for_update();
        assert_eq!(before, Arc::as_ptr(&cache.inner), "no copy when unshared");
        assert_eq!(cache.get(&key(1, 1, 1)), Some(verdict(Behavior::Block)));
    }

    #[test]
    fn disabling_clears_eagerly() {
        let cache = VerdictCache::with_capacity(64);
        cache.insert(key(1, 1, 1), verdict(Behavior::Block));
        cache.set_capacity(0);
        assert!(cache.is_empty());
        assert_eq!(cache.get(&key(1, 1, 1)), None);
    }
}
