//! Per-ruleset translation cache.
//!
//! Translating an APPEL ruleset to SQL (or XQuery compiled down to SQL)
//! is pure: the output depends only on the ruleset and the target
//! dialect, never on which policy is being matched. The server
//! therefore fingerprints each ruleset and caches the translated,
//! *prepared* plans, so a preference that is matched against the whole
//! policy corpus pays the translate + parse + validate cost exactly
//! once. Policy identity enters the queries as a bound parameter (see
//! [`crate::appel2sql::translate_rule_optimized_bound`]), which is what
//! makes the plans reusable across policies in the first place.
//!
//! The cache is keyed by `(fingerprint, variant)` where the fingerprint
//! is a 64-bit hash of the ruleset structure and the variant selects
//! the translation dialect. Values are shared slices of prepared plans
//! (`None` marks an unconditional rule in the XTable dialect, which
//! produces no query at all). The store is a 128-entry
//! [`p3p_minidb::lru::Lru`], the LRU behind the plan and verdict caches
//! too, reporting to the `p3p_translation_cache_*_total` counters.

use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};
use std::sync::Arc;

use p3p_appel::Ruleset;
use p3p_minidb::lru::{CacheStats, SharedLru};
use p3p_minidb::Prepared;

/// Which translation dialect a cache entry holds.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TranslationVariant {
    /// Optimized relational schema (paper Fig. 14).
    Optimized,
    /// Generic edge/attribute schema (paper Fig. 8).
    Generic,
    /// XQuery translated and compiled against the XTable encoding.
    XTable,
    /// Set-at-a-time corpus queries against the optimized schema:
    /// each rule returns every matching `policy_id` in one execution.
    OptimizedCorpus,
    /// Set-at-a-time corpus queries against the generic schema.
    GenericCorpus,
}

/// A cached translation: one slot per rule, in ruleset order. `None`
/// marks a rule that needs no query (unconditional XTable rule).
pub type TranslatedPlans = Arc<[Option<Prepared>]>;

const TRANSLATION_CACHE_CAPACITY: usize = 128;

/// Bounded LRU cache from ruleset fingerprints to prepared plans.
///
/// Cloning shares the underlying cache: every snapshot of a
/// [`crate::PolicyServer`] keeps warming the same cache, so concurrent
/// matchers benefit from each other's translations.
#[derive(Debug, Clone)]
pub struct TranslationCache {
    lru: SharedLru<(u64, TranslationVariant), TranslatedPlans>,
}

impl Default for TranslationCache {
    fn default() -> Self {
        TranslationCache {
            lru: SharedLru::new("translation", TRANSLATION_CACHE_CAPACITY),
        }
    }
}

impl TranslationCache {
    /// Structural fingerprint of a ruleset. Two rulesets with the same
    /// rules in the same order collide on purpose; unrelated rulesets
    /// colliding requires a 64-bit hash collision.
    pub fn fingerprint(ruleset: &Ruleset) -> u64 {
        let mut hasher = DefaultHasher::new();
        ruleset.hash(&mut hasher);
        hasher.finish()
    }

    /// Look up the translation for `ruleset` in `variant`, building it
    /// with `build` on a miss. Returns the plans plus whether they came
    /// from the cache. Failed translations are not cached.
    pub fn get_or_try_insert<E>(
        &self,
        ruleset: &Ruleset,
        variant: TranslationVariant,
        build: impl FnOnce() -> Result<Vec<Option<Prepared>>, E>,
    ) -> Result<(TranslatedPlans, bool), E> {
        let key = (Self::fingerprint(ruleset), variant);
        {
            let mut lru = self.lru.lock();
            if let Some(plans) = lru.get(&key) {
                return Ok((Arc::clone(plans), true));
            }
            lru.miss();
        }
        // Translate outside the lock: it is the expensive part, and a
        // rare duplicate build under contention is harmless.
        let plans: TranslatedPlans = build()?.into();
        self.lru.lock().insert(key, Arc::clone(&plans));
        Ok((plans, false))
    }

    /// Snapshot of the hit/miss/eviction counters.
    pub fn stats(&self) -> CacheStats {
        self.lru.lock().stats()
    }

    /// Number of cached translations.
    pub fn len(&self) -> usize {
        self.lru.lock().len()
    }

    /// True when nothing is cached yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use p3p_appel::{Behavior, Expr, Rule};

    fn ruleset(behavior: Behavior) -> Ruleset {
        Ruleset::new(vec![Rule::with_pattern(
            behavior,
            Expr::named("p3p:POLICY"),
        )])
    }

    fn plans() -> Vec<Option<Prepared>> {
        vec![None]
    }

    #[test]
    fn identical_rulesets_share_fingerprints() {
        let a = ruleset(Behavior::Request);
        let b = ruleset(Behavior::Request);
        assert_eq!(
            TranslationCache::fingerprint(&a),
            TranslationCache::fingerprint(&b)
        );
        assert_ne!(
            TranslationCache::fingerprint(&a),
            TranslationCache::fingerprint(&ruleset(Behavior::Block))
        );
    }

    #[test]
    fn second_lookup_hits() {
        let cache = TranslationCache::default();
        let rs = ruleset(Behavior::Request);
        let (_, cached) = cache
            .get_or_try_insert::<()>(&rs, TranslationVariant::Optimized, || Ok(plans()))
            .unwrap();
        assert!(!cached);
        let (_, cached) = cache
            .get_or_try_insert::<()>(&rs, TranslationVariant::Optimized, || {
                panic!("must not rebuild on a hit")
            })
            .unwrap();
        assert!(cached);
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses), (1, 1));
    }

    #[test]
    fn variants_are_cached_independently() {
        let cache = TranslationCache::default();
        let rs = ruleset(Behavior::Request);
        for variant in [
            TranslationVariant::Optimized,
            TranslationVariant::Generic,
            TranslationVariant::XTable,
            TranslationVariant::OptimizedCorpus,
            TranslationVariant::GenericCorpus,
        ] {
            let (_, cached) = cache
                .get_or_try_insert::<()>(&rs, variant, || Ok(plans()))
                .unwrap();
            assert!(!cached, "{variant:?} should miss on first use");
        }
        assert_eq!(cache.len(), 5);
    }

    #[test]
    fn failed_translations_are_not_cached() {
        let cache = TranslationCache::default();
        let rs = ruleset(Behavior::Request);
        let err: Result<_, &str> =
            cache.get_or_try_insert(&rs, TranslationVariant::Optimized, || Err("boom"));
        assert_eq!(err.unwrap_err(), "boom");
        assert!(cache.is_empty());
        let (_, cached) = cache
            .get_or_try_insert::<()>(&rs, TranslationVariant::Optimized, || Ok(plans()))
            .unwrap();
        assert!(!cached);
    }

    #[test]
    fn clones_share_state() {
        let cache = TranslationCache::default();
        let clone = cache.clone();
        let rs = ruleset(Behavior::Request);
        cache
            .get_or_try_insert::<()>(&rs, TranslationVariant::Optimized, || Ok(plans()))
            .unwrap();
        let (_, cached) = clone
            .get_or_try_insert::<()>(&rs, TranslationVariant::Optimized, || Ok(plans()))
            .unwrap();
        assert!(cached, "clones must see each other's translations");
    }
}
