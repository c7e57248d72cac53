//! Memoized verdict cache for live-update traffic.
//!
//! The paper's motivation for database technology (§4.2) is that
//! "policies of a website will not stay static forever" — yet between
//! two updates, the same preference matched against the same policy
//! always produces the same verdict. This module memoizes that fact:
//! an LRU-bounded map from
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
//! minidb at all. The store is one [`p3p_minidb::lru::Lru`] behind one
//! lock, the LRU behind the plan and translation caches too.
//!
//! Invalidation is precise: removing or re-shredding policy P evicts
//! only P's entries ([`VerdictCache::invalidate_policy`]). Capacity 0
//! disables the cache entirely (the default for a fresh server —
//! deployments and the churn workload opt in), and a disabled cache is
//! checked without taking the lock.
//!
//! ## Sharing and copy-on-write forks
//!
//! Cloning a cache (as [`crate::PolicyServer::clone_state`] does)
//! shares the underlying map, so a [`MatchPool`] snapshot and the
//! server it came from warm each other — safe while their catalogs are
//! identical, because every key pins a policy id and version. The
//! moment a server *mutates its catalog* it must call
//! [`VerdictCache::detach_for_update`] first: if the map is shared,
//! the server takes a private warm copy, so a fork's installs,
//! removals, and invalidations are never visible to its parent (and
//! two forks can never poison each other through reused policy ids).
//!
//! [`MatchPool`]: crate::concurrent::MatchPool

use crate::server::EngineKind;
use p3p_appel::engine::Verdict;
use p3p_minidb::lru::{CacheStats, SharedLru};
use p3p_minidb::ExecOptions;
use p3p_telemetry::metrics::{self, Gauge};
use std::sync::{Arc, OnceLock};

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

/// The `p3p_catalog_epoch` gauge: the most recent catalog epoch any
/// server in the process reached.
pub(crate) fn epoch_gauge() -> &'static Arc<Gauge> {
    static GAUGE: OnceLock<Arc<Gauge>> = OnceLock::new();
    GAUGE.get_or_init(|| metrics::gauge("p3p_catalog_epoch"))
}

/// LRU map from [`VerdictKey`] to [`Verdict`]. Cloning shares the map
/// (see the module docs for the copy-on-write contract).
#[derive(Debug, Clone)]
pub struct VerdictCache {
    lru: SharedLru<VerdictKey, Verdict>,
    /// The map's capacity, kept outside it so that a disabled cache is
    /// checked without taking the lock. Every holder of one map agrees
    /// on it, because [`VerdictCache::set_capacity`] detaches first.
    capacity: usize,
}

impl Default for VerdictCache {
    /// Disabled (capacity 0) — callers opt in with
    /// [`VerdictCache::set_capacity`].
    fn default() -> Self {
        VerdictCache::with_capacity(0)
    }
}

impl VerdictCache {
    /// A cache bounded to `capacity` entries.
    pub fn with_capacity(capacity: usize) -> VerdictCache {
        VerdictCache {
            lru: SharedLru::new("verdict", capacity),
            capacity,
        }
    }

    /// True when lookups can ever hit (capacity > 0).
    pub fn is_enabled(&self) -> bool {
        self.capacity > 0
    }

    /// Resize this holder's cache, evicting least recently used entries
    /// down to the new bound at once; 0 disables lookups and inserts.
    /// Detaches first, so resizing a fork never resizes its parent.
    pub fn set_capacity(&mut self, capacity: usize) {
        self.detach_for_update();
        self.lru.lock().set_capacity(capacity);
        self.capacity = capacity;
    }

    /// Take a private warm copy of the map if any other holder shares
    /// it. Servers call this before every catalog mutation, which is
    /// what keeps forks and parents from seeing each other's cache
    /// mutations (and from aliasing independently assigned policy ids).
    pub fn detach_for_update(&mut self) {
        self.lru.detach();
    }

    /// Look up a memoized verdict. Counts a hit or a miss; a disabled
    /// cache returns `None` without counting or locking.
    pub fn get(&self, key: &VerdictKey) -> Option<Verdict> {
        if !self.is_enabled() {
            return None;
        }
        let mut lru = self.lru.lock();
        let verdict = lru.get(key).cloned();
        if verdict.is_none() {
            lru.miss();
        }
        verdict
    }

    /// Memoize a verdict, evicting the least recently used entry when
    /// the cache is full. No-op when disabled.
    pub fn insert(&self, key: VerdictKey, verdict: Verdict) {
        if self.is_enabled() {
            self.lru.lock().insert(key, verdict);
        }
    }

    /// Evict every entry of one policy (precise invalidation on
    /// re-shred/remove). Returns how many entries were dropped.
    pub fn invalidate_policy(&self, policy_id: i64) -> usize {
        self.lru
            .lock()
            .remove_where(|key| key.policy_id == policy_id)
    }

    /// Number of memoized verdicts.
    pub fn len(&self) -> usize {
        self.lru.lock().len()
    }

    /// True when nothing is memoized.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Counter snapshot for this cache lineage (the process-wide
    /// `p3p_verdict_cache_*_total` counters sum every lineage).
    pub fn stats(&self) -> CacheStats {
        self.lru.lock().stats()
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
        assert_eq!(cache.stats(), CacheStats::default());
    }

    #[test]
    fn second_lookup_hits_and_counts() {
        let cache = VerdictCache::with_capacity(64);
        assert_eq!(cache.get(&key(1, 1, 1)), None);
        cache.insert(key(1, 1, 1), verdict(Behavior::Request));
        assert_eq!(cache.get(&key(1, 1, 1)), Some(verdict(Behavior::Request)));
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses, cache.len()), (1, 1, 1));
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
    fn capacity_bounds_the_whole_cache() {
        let cache = VerdictCache::with_capacity(4);
        for policy_id in 0..1000 {
            cache.insert(key(1, policy_id, 1), verdict(Behavior::Block));
        }
        assert_eq!(cache.len(), 4, "capacity 4 holds at most 4 verdicts");
        assert_eq!(cache.stats().evictions, 996);
        // Re-inserting a present key at capacity must not evict.
        cache.insert(key(1, 999, 1), verdict(Behavior::Request));
        assert_eq!(cache.stats().evictions, 996);
        assert_eq!(cache.get(&key(1, 999, 1)), Some(verdict(Behavior::Request)));
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
    fn disabling_clears_eagerly() {
        let mut cache = VerdictCache::with_capacity(64);
        cache.insert(key(1, 1, 1), verdict(Behavior::Block));
        cache.set_capacity(0);
        assert!(cache.is_empty());
        assert_eq!(cache.get(&key(1, 1, 1)), None);
    }
}
