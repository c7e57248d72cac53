//! The policy server: the deployable façade over the whole
//! server-centric architecture (paper Figures 5–6).
//!
//! A site installs its policies (shredded once into both the optimized
//! and generic schemas, with shred-time category augmentation) and its
//! reference file; user preferences then arrive as APPEL rulesets and
//! are matched through any of the engines:
//!
//! * [`EngineKind::Sql`] — the paper's proposal: APPEL → SQL over the
//!   optimized (Figure 14) schema.
//! * [`EngineKind::SqlGeneric`] — same, over the generic (Figure 8)
//!   schema (the schema ablation of §5.4).
//! * [`EngineKind::XQueryXTable`] — APPEL → XQuery → (XTABLE) SQL over
//!   the generic schema (the paper's second variation).
//! * [`EngineKind::XQueryNative`] — APPEL → XQuery evaluated directly
//!   on the stored XML (the third variation, which the paper could not
//!   benchmark; an extension here).
//! * [`EngineKind::Native`] — the client-centric baseline: the native
//!   APPEL engine re-parsing and re-augmenting the policy per match.

use crate::appel2sql::{
    translate_rule_generic_bound, translate_rule_generic_corpus, translate_rule_optimized_bound,
    translate_rule_optimized_corpus,
};
use crate::appel2xquery::translate_rule_xquery;
use crate::error::ServerError;
use crate::generic::GenericSchema;
use crate::optimized;
use crate::refschema;
use crate::translation::{TranslatedPlans, TranslationCache, TranslationVariant};
use crate::verdict_cache::{self, VerdictCache, VerdictKey};
use crate::view;
use crate::xtable::XTable;
use p3p_appel::engine::{AppelEngine, Verdict};
use p3p_appel::model::{Rule, Ruleset};
use p3p_minidb::pmap::PMap;
use p3p_minidb::{CacheStats, Database, Value};
use p3p_policy::augment::augment_policy;
use p3p_policy::model::Policy;
use p3p_policy::reference::ReferenceFile;
use p3p_telemetry::slowlog::QueryContextGuard;
use p3p_telemetry::{metrics, span};
use std::collections::{HashMap, HashSet};
use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};

/// Which matching engine to use.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum EngineKind {
    /// Native APPEL engine on policy XML (client-centric baseline).
    Native,
    /// APPEL → SQL on the optimized schema (the paper's proposal).
    Sql,
    /// APPEL → SQL on the generic schema.
    SqlGeneric,
    /// APPEL → XQuery → SQL via the XTABLE stand-in.
    XQueryXTable,
    /// APPEL → XQuery evaluated on the native XML store.
    XQueryNative,
}

impl EngineKind {
    /// All engines, in the order the paper discusses them.
    pub const ALL: &'static [EngineKind] = &[
        EngineKind::Native,
        EngineKind::Sql,
        EngineKind::SqlGeneric,
        EngineKind::XQueryXTable,
        EngineKind::XQueryNative,
    ];

    /// Short label for reports.
    pub fn label(self) -> &'static str {
        match self {
            EngineKind::Native => "APPEL engine",
            EngineKind::Sql => "SQL",
            EngineKind::SqlGeneric => "SQL (generic schema)",
            EngineKind::XQueryXTable => "XQuery",
            EngineKind::XQueryNative => "XQuery (XML store)",
        }
    }

    /// Stable machine-oriented label used as the `engine` value in
    /// metric label sets and span attributes.
    pub fn metric_label(self) -> &'static str {
        match self {
            EngineKind::Native => "native",
            EngineKind::Sql => "sql",
            EngineKind::SqlGeneric => "sql_generic",
            EngineKind::XQueryXTable => "xquery_xtable",
            EngineKind::XQueryNative => "xquery_native",
        }
    }
}

/// What to match against.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Target<'a> {
    /// A named installed policy.
    Policy(&'a str),
    /// A request URI, routed through the reference file (§2.3).
    Uri(&'a str),
    /// A cookie in `name=value` form, routed through the reference
    /// file's COOKIE-INCLUDE/COOKIE-EXCLUDE patterns (§5.5).
    Cookie(&'a str),
}

/// The result of one preference match, with the conversion/query time
/// split the paper reports in Figure 20.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MatchOutcome {
    pub verdict: Verdict,
    /// Time translating APPEL into the engine's query language.
    pub convert: Duration,
    /// Time executing the queries (or the native match).
    pub query: Duration,
    /// True when the translation came from the per-ruleset cache, so
    /// `convert` covers only the cache lookup.
    pub cached: bool,
    /// Executor statistics for this match alone (the stats window is
    /// reset when the match starts, so nothing bleeds across engines).
    pub db_stats: p3p_minidb::exec::ExecStats,
    /// Rendered `EXPLAIN ANALYZE` tree of each rule query executed, in
    /// execution order. Populated by the SQL engines only when the
    /// server's database runs with
    /// [`ExecOptions::profile`](p3p_minidb::ExecOptions::profile) on;
    /// empty otherwise.
    pub analyzed: Vec<String>,
    /// True when the verdict itself came from the memoized verdict
    /// cache — no engine ran and no minidb query executed; `convert`
    /// covers only the cache lookup. Distinct from `cached`, which
    /// reports a translation-cache hit on a match that still executed.
    pub verdict_cached: bool,
    /// The catalog epoch this verdict was computed under. Two outcomes
    /// with the same epoch saw the identical installed-policy catalog.
    pub epoch: u64,
}

impl MatchOutcome {
    /// An outcome the engine (or the verdict cache) produced. `db_stats`
    /// and `epoch` are placeholders that
    /// [`PolicyServer::match_preference`] fills in.
    fn computed(verdict: Verdict, convert: Duration, query: Duration, cached: bool) -> Self {
        MatchOutcome {
            verdict,
            convert,
            query,
            cached,
            db_stats: Default::default(),
            analyzed: Vec::new(),
            verdict_cached: false,
            epoch: 0,
        }
    }
}

/// The verdict of rule `index` firing.
fn fired(rule: &Rule, index: usize) -> Verdict {
    Verdict {
        behavior: rule.behavior.clone(),
        fired_rule: Some(index),
    }
}

/// One installed policy's catalog record.
#[derive(Debug)]
struct InstalledPolicy {
    name: String,
    /// The original XML text — what a client would be served, fed to
    /// the native engine.
    xml: String,
    /// Explicit-form XML for the XQuery-on-XML engine.
    explicit: p3p_xmldom::Element,
}

/// The installed-policy catalog: everything keyed by policy name/id
/// outside the relational store. Each map is a persistent hash trie,
/// so snapshotting a server shares the catalog and an install copies
/// one root-to-leaf path per map, never every policy's XML.
#[derive(Debug, Clone, Default)]
struct PolicyCatalog {
    /// name → policy id.
    ids: PMap<String, i64>,
    /// id → the installed policy.
    policies: PMap<i64, Arc<InstalledPolicy>>,
    /// name → version counter, bumped on every install *and* remove of
    /// that name and kept after removal, so a name that is retired and
    /// later re-installed can never resurrect a stale cached verdict
    /// (the classic ABA hazard).
    versions: PMap<String, u64>,
    /// `(id, name)` of every installed policy in name order, sorted on
    /// first use per catalog version. Installs and removals swap in a
    /// fresh cell, so snapshots keep the roster of the version they
    /// captured and repeated sweeps do not re-sort.
    roster: Arc<OnceLock<Vec<(i64, String)>>>,
}

impl PolicyCatalog {
    fn roster(&self) -> &[(i64, String)] {
        self.roster.get_or_init(|| {
            let mut roster: Vec<(i64, String)> = self
                .ids
                .iter()
                .map(|(name, id)| (*id, name.clone()))
                .collect();
            roster.sort_unstable_by(|a, b| a.1.cmp(&b.1));
            roster
        })
    }
}

/// The server: database + document stores + catalogs.
#[derive(Debug, Clone)]
pub struct PolicyServer {
    db: Database,
    generic: GenericSchema,
    xtable: XTable,
    catalog: PolicyCatalog,
    /// Ruleset-fingerprint → prepared plans. Shared across clones so
    /// concurrent snapshots warm the cache for each other.
    translations: TranslationCache,
    /// (fingerprint × policy id × version × engine × options) → verdict.
    /// Shared across clones like the translation cache, but detached
    /// before any catalog mutation so forks never see each other's
    /// entries. Disabled (capacity 0) by default.
    verdicts: VerdictCache,
    /// Monotonic catalog epoch: bumped on every install/remove (and
    /// therefore on `versioning` upgrades/rollbacks). Two matches
    /// stamped with the same epoch saw the identical catalog.
    catalog_epoch: u64,
    next_policy_id: i64,
    next_meta_id: i64,
    native: AppelEngine,
}

impl PolicyServer {
    /// A fresh server with all schemas installed.
    pub fn new() -> PolicyServer {
        let mut db = Database::new();
        let generic = GenericSchema::default();
        optimized::install(&mut db).expect("optimized DDL");
        generic.install(&mut db).expect("generic DDL");
        refschema::install(&mut db).expect("reference DDL");
        PolicyServer {
            db,
            xtable: XTable::new(generic.clone()),
            generic,
            catalog: PolicyCatalog::default(),
            translations: TranslationCache::default(),
            verdicts: VerdictCache::default(),
            catalog_epoch: 0,
            next_policy_id: 0,
            next_meta_id: 0,
            native: AppelEngine::default(),
        }
    }

    /// A snapshot of the full server state — the primitive behind
    /// [`crate::concurrent::MatchPool`]. Cheap: table contents, the
    /// policy catalog, and both caches are shared (copy-on-write where
    /// mutation is possible), so this is a handful of `Arc` bumps
    /// rather than a deep copy.
    pub fn clone_state(&self) -> PolicyServer {
        self.clone()
    }

    /// The underlying database (for audits and tests).
    pub fn database(&self) -> &Database {
        &self.db
    }

    /// Mutable database access (index ablation benches).
    pub fn database_mut(&mut self) -> &mut Database {
        &mut self.db
    }

    /// Names of installed policies, sorted.
    pub fn policy_names(&self) -> Vec<String> {
        self.catalog
            .roster()
            .iter()
            .map(|(_, name)| name.clone())
            .collect()
    }

    /// The id of an installed policy.
    pub fn policy_id(&self, name: &str) -> Option<i64> {
        self.catalog.ids.get(name).copied()
    }

    /// Catalog entries held in trie nodes `other` does not share with
    /// this server: what installs on a fork copied of the catalog.
    #[cfg(test)]
    pub(crate) fn catalog_entries_unshared_with(&self, other: &PolicyServer) -> usize {
        let (mine, theirs) = (&self.catalog, &other.catalog);
        mine.ids.unshared_entries(&theirs.ids)
            + mine.policies.unshared_entries(&theirs.policies)
            + mine.versions.unshared_entries(&theirs.versions)
    }

    /// Hit/miss/eviction counters of the per-ruleset translation cache.
    pub fn translation_cache_stats(&self) -> CacheStats {
        self.translations.stats()
    }

    /// The current catalog epoch (see the field docs).
    pub fn catalog_epoch(&self) -> u64 {
        self.catalog_epoch
    }

    /// Version counter of a named policy: how many installs and
    /// removals that name has seen. 0 means the name was never
    /// installed; the counter survives removal.
    pub fn policy_version(&self, name: &str) -> u64 {
        self.catalog.versions.get(name).copied().unwrap_or(0)
    }

    fn policy_version_by_id(&self, policy_id: i64) -> u64 {
        self.catalog
            .policies
            .get(&policy_id)
            .map_or(0, |p| self.policy_version(&p.name))
    }

    /// Hit/miss/eviction/invalidation counters of the verdict cache.
    pub fn verdict_cache_stats(&self) -> CacheStats {
        self.verdicts.stats()
    }

    /// Number of verdicts the verdict cache holds.
    pub fn verdict_cache_len(&self) -> usize {
        self.verdicts.len()
    }

    /// Resize (and thereby enable or disable) the memoized verdict
    /// cache. The cache ships disabled (capacity 0); update-heavy
    /// deployments opt in. Detaches from any shared clones first, so
    /// resizing a fork never resizes its parent.
    pub fn set_verdict_cache_capacity(&mut self, capacity: usize) {
        self.verdicts.set_capacity(capacity);
    }

    /// Advance the catalog epoch after a mutation and mirror it to the
    /// `p3p_catalog_epoch` gauge.
    fn bump_epoch(&mut self) {
        self.catalog_epoch += 1;
        verdict_cache::epoch_gauge().set(self.catalog_epoch as i64);
    }

    /// Whether matches consult the verdict cache: it is enabled, and the
    /// database does not profile (a cache hit cannot produce the
    /// `analyzed` plans profiling promises).
    fn verdicts_apply(&self) -> bool {
        self.verdicts.is_enabled() && !self.db.options().profile
    }

    /// The verdict-cache key for one (preference, policy, engine)
    /// combination under the database's options, so an A/B comparison
    /// of options is never answered from the other arm's verdict.
    fn verdict_key(&self, fingerprint: u64, policy_id: i64, engine: EngineKind) -> VerdictKey {
        VerdictKey {
            fingerprint,
            policy_id,
            policy_version: self.policy_version_by_id(policy_id),
            engine,
            options: self.db.options(),
        }
    }

    /// Install a policy from its model. Returns the assigned id.
    /// Shreds into both schemas and stores both XML forms.
    pub fn install_policy(&mut self, policy: &Policy) -> Result<i64, ServerError> {
        let xml = policy.to_xml();
        self.install_with_xml(policy, xml)
    }

    /// Install a policy from XML text (the text is kept verbatim as
    /// what clients — and the native engine — receive).
    pub fn install_policy_xml(&mut self, xml: &str) -> Result<i64, ServerError> {
        let policy = Policy::parse(xml)?;
        self.install_with_xml(&policy, xml.to_string())
    }

    /// Install a policy that references site-defined data schemas
    /// (P3P §5 DATASCHEMA). The schemas are applied first — custom
    /// references gain their categories and set expansions — so every
    /// engine, including the native one, matches the normalized form.
    pub fn install_policy_with_schemas(
        &mut self,
        policy: &Policy,
        schemas: &[p3p_policy::DataSchema],
    ) -> Result<i64, ServerError> {
        let mut normalized = policy.clone();
        for schema in schemas {
            normalized = schema.apply_to_policy(&normalized);
        }
        self.install_policy(&normalized)
    }

    fn install_with_xml(&mut self, policy: &Policy, xml: String) -> Result<i64, ServerError> {
        if self.catalog.ids.contains_key(&policy.name) {
            return Err(ServerError::Install(format!(
                "policy `{}` is already installed",
                policy.name
            )));
        }
        let _span = span!("install_policy", policy = policy.name);
        let start = Instant::now();
        // Catalog mutation: split off a private verdict cache first so
        // clones sharing ours never observe this lineage's ids.
        self.verdicts.detach_for_update();
        self.next_policy_id += 1;
        let id = self.next_policy_id;
        let shred_us = |schema| metrics::histogram_with("p3p_shred_us", &[("schema", schema)]);
        let t0 = Instant::now();
        {
            let _span = span!("shred", schema = "optimized");
            optimized::shred(&mut self.db, id, policy)?;
        }
        shred_us("optimized").observe_duration(t0.elapsed());
        let augmented = augment_policy(policy);
        let explicit = view::policy_xml_explicit(&augmented);
        let t1 = Instant::now();
        {
            let _span = span!("shred", schema = "generic");
            self.generic.shred(&mut self.db, id, &explicit)?;
        }
        shred_us("generic").observe_duration(t1.elapsed());
        let catalog = &mut self.catalog;
        catalog.roster = Arc::default();
        catalog.ids.insert(policy.name.clone(), id);
        let installed = InstalledPolicy {
            name: policy.name.clone(),
            xml,
            explicit,
        };
        catalog.policies.insert(id, Arc::new(installed));
        *catalog
            .versions
            .get_or_insert_with(policy.name.clone(), || 0) += 1;
        self.bump_epoch();
        metrics::histogram("p3p_install_policy_us").observe_duration(start.elapsed());
        metrics::counter("p3p_policies_installed_total").inc();
        Ok(id)
    }

    /// Remove a policy everywhere. Bumps the name's version, evicts
    /// the policy's verdict-cache entries (and only those), and
    /// advances the catalog epoch.
    pub fn remove_policy(&mut self, name: &str) -> Result<(), ServerError> {
        let Some(id) = self.catalog.ids.remove(name) else {
            return Err(ServerError::UnknownPolicy(name.to_string()));
        };
        self.verdicts.detach_for_update();
        let catalog = &mut self.catalog;
        catalog.roster = Arc::default();
        catalog.policies.remove(&id);
        *catalog.versions.get_or_insert_with(name.to_string(), || 0) += 1;
        self.verdicts.invalidate_policy(id);
        optimized::unshred(&mut self.db, id)?;
        // Generic tables: sweep by policy_id.
        let tables: Vec<String> = self
            .db
            .table_names()
            .into_iter()
            .filter(|t| t.starts_with("g_"))
            .collect();
        for t in tables {
            let plan = self
                .db
                .prepare(&format!("DELETE FROM {t} WHERE policy_id = ?"))?;
            self.db.execute_prepared(&plan, &[Value::Int(id)])?;
        }
        self.bump_epoch();
        Ok(())
    }

    /// Install a reference file, resolving POLICY-REF names against the
    /// installed policies.
    pub fn install_reference(&mut self, file: &ReferenceFile) -> Result<(), ServerError> {
        self.next_meta_id += 1;
        let ids = self.catalog.ids.clone();
        refschema::shred_reference(&mut self.db, self.next_meta_id, file, |name| {
            ids.get(name).copied()
        })
    }

    /// Install a reference file from XML text.
    pub fn install_reference_xml(&mut self, xml: &str) -> Result<(), ServerError> {
        let file = ReferenceFile::parse(xml)?;
        self.install_reference(&file)
    }

    /// Resolve a target to the applicable policy id (paper §5.3:
    /// `applicablePolicy()`).
    pub fn resolve(&self, target: Target<'_>) -> Result<i64, ServerError> {
        match target {
            Target::Policy(name) => self
                .policy_id(name)
                .ok_or_else(|| ServerError::UnknownPolicy(name.to_string())),
            Target::Uri(uri) => refschema::applicable_policy(&self.db, uri)?
                .ok_or_else(|| ServerError::NoApplicablePolicy(uri.to_string())),
            Target::Cookie(cookie) => refschema::applicable_cookie_policy(&self.db, cookie)?
                .ok_or_else(|| ServerError::NoApplicablePolicy(format!("cookie {cookie}"))),
        }
    }

    /// Match a preference against a target with the chosen engine.
    ///
    /// Every match runs inside a `match` span (with `translate` /
    /// `execute` children on the SQL paths), observes the
    /// `p3p_match_latency_us` and `p3p_match_phase_us` histograms, and
    /// starts from a zeroed executor-stats window so one engine's scans
    /// and probes never bleed into the next engine's accounting.
    ///
    /// Matching never mutates server state. The SQL engines run bound
    /// prepared plans with the policy id as a parameter; the XTable
    /// engine stages into a copy-on-write fork of the database. This is
    /// what lets [`crate::concurrent::MatchPool`] match straight off a
    /// shared snapshot with no per-match deep copy.
    pub fn match_preference(
        &self,
        ruleset: &Ruleset,
        target: Target<'_>,
        engine: EngineKind,
    ) -> Result<MatchOutcome, ServerError> {
        p3p_minidb::exec::reset_stats();
        let label = engine.metric_label();
        let _span = span!("match", engine = label);
        let start = Instant::now();
        let mut result = (|| {
            let policy_id = self.resolve(target)?;
            // Memoized-verdict fast path: a hit answers without
            // translating or touching minidb at all.
            let key = self.verdicts_apply().then(|| {
                let fingerprint = TranslationCache::fingerprint(ruleset);
                self.verdict_key(fingerprint, policy_id, engine)
            });
            if let Some(key) = &key {
                let t0 = Instant::now();
                if let Some(verdict) = self.verdicts.get(key) {
                    return Ok(MatchOutcome {
                        verdict_cached: true,
                        ..MatchOutcome::computed(verdict, t0.elapsed(), Duration::ZERO, false)
                    });
                }
            }
            let outcome = match engine {
                EngineKind::Native => self.match_native(ruleset, policy_id),
                EngineKind::Sql => self.match_sql(ruleset, policy_id, false),
                EngineKind::SqlGeneric => self.match_sql(ruleset, policy_id, true),
                EngineKind::XQueryXTable => self.match_xtable(ruleset, policy_id),
                EngineKind::XQueryNative => self.match_xquery_native(ruleset, policy_id),
            }?;
            if let Some(key) = key {
                self.verdicts.insert(key, outcome.verdict.clone());
            }
            Ok(outcome)
        })();
        let wall = start.elapsed();
        let by_engine = [("engine", label)];
        metrics::histogram_with("p3p_match_latency_us", &by_engine).observe_duration(wall);
        match &mut result {
            Ok(outcome) => {
                outcome.epoch = self.catalog_epoch;
                outcome.db_stats = p3p_minidb::exec::stats_snapshot();
                metrics::counter_with("p3p_matches_total", &by_engine).inc();
                let phase = |name| {
                    metrics::histogram_with(
                        "p3p_match_phase_us",
                        &[("engine", label), ("phase", name)],
                    )
                };
                // A cache hit spends the convert window on a fingerprint
                // lookup, not translation — label it separately so warm
                // and cold distributions don't mix. A verdict-cache hit
                // didn't translate at all.
                phase(if outcome.verdict_cached {
                    "verdict_cache"
                } else if outcome.cached {
                    "cached"
                } else {
                    "translate"
                })
                .observe_duration(outcome.convert);
                phase("execute").observe_duration(outcome.query);
                // Everything outside translate/execute: target
                // resolution, staging, and verdict assembly.
                phase("verdict")
                    .observe_duration(wall.saturating_sub(outcome.convert + outcome.query));
            }
            Err(_) => {
                metrics::counter_with("p3p_match_errors_total", &by_engine).inc();
            }
        }
        result
    }

    fn raw_xml_of(&self, policy_id: i64) -> Result<&str, ServerError> {
        self.catalog
            .policies
            .get(&policy_id)
            .map(|p| p.xml.as_str())
            .ok_or_else(|| ServerError::UnknownPolicy(format!("id {policy_id}")))
    }

    fn match_native(&self, ruleset: &Ruleset, policy_id: i64) -> Result<MatchOutcome, ServerError> {
        let xml = self.raw_xml_of(policy_id)?;
        let start = Instant::now();
        let verdict = {
            let _span = span!("execute");
            self.native.evaluate_policy_xml(ruleset, xml)?
        };
        Ok(MatchOutcome::computed(
            verdict,
            Duration::ZERO,
            start.elapsed(),
            false,
        ))
    }

    fn match_sql(
        &self,
        ruleset: &Ruleset,
        policy_id: i64,
        generic: bool,
    ) -> Result<MatchOutcome, ServerError> {
        // Convert phase: "We translate each rule into a SQL query ...
        // and submit the queries to the database in order" (§5.3) — the
        // whole preference is translated before the first query runs,
        // and the prepared plans are cached per ruleset. The policy id
        // is a bound parameter, so the same plans serve every policy
        // with no staging round-trip.
        let variant = if generic {
            TranslationVariant::Generic
        } else {
            TranslationVariant::Optimized
        };
        let translate_span = span!("translate");
        let t0 = Instant::now();
        let (plans, cached) = self.translations.get_or_try_insert(ruleset, variant, || {
            let mut plans = Vec::with_capacity(ruleset.rules.len());
            for rule in &ruleset.rules {
                let sql = if generic {
                    translate_rule_generic_bound(rule, &self.generic)?
                } else {
                    translate_rule_optimized_bound(rule)?
                };
                plans.push(Some(self.db.prepare(&sql)?));
            }
            Ok::<_, ServerError>(plans)
        })?;
        let convert = t0.elapsed();
        drop(translate_span);
        // Query phase: run in order; the first non-empty result fires.
        // Each statement is tagged with the rule it was translated
        // from, so the slow-query log can attribute it.
        let _execute_span = span!("execute");
        let t1 = Instant::now();
        let params = [Value::Int(policy_id)];
        // With profiling on, per-statement reporting peeks at the
        // profile and leaves it behind, so each rule query's analyzed
        // plan can be retained on the outcome here.
        let mut analyzed: Vec<String> = Vec::new();
        let mut verdict = Verdict::default_block();
        for (index, (rule, plan)) in ruleset.rules.iter().zip(plans.iter()).enumerate() {
            let _ctx = QueryContextGuard::rule(index as u64);
            let plan = plan
                .as_ref()
                .expect("SQL translation yields a plan per rule");
            let result = self.db.query_prepared(plan, &params)?;
            if self.db.options().profile {
                if let Some(profile) = p3p_minidb::exec::take_last_profile() {
                    analyzed.push(profile.render());
                }
            }
            if !result.is_empty() {
                verdict = fired(rule, index);
                break;
            }
        }
        Ok(MatchOutcome {
            analyzed,
            ..MatchOutcome::computed(verdict, convert, t1.elapsed(), cached)
        })
    }

    /// Convert phase of the XTABLE engine: APPEL → XQuery text →
    /// (reparse) → XTABLE → SQL for the whole preference, cached per
    /// ruleset. A rule beyond the compiler's capability fails the
    /// preference, as it did for the Medium level in the paper
    /// (§6.3.2) — that size limit maps to a typed `Unsupported` so
    /// callers can classify it rather than treat it as an engine
    /// failure. Unconditional (OTHERWISE) rules carry no query.
    fn xtable_plans(&self, ruleset: &Ruleset) -> Result<(TranslatedPlans, bool), ServerError> {
        let built =
            self.translations
                .get_or_try_insert(ruleset, TranslationVariant::XTable, || {
                    let mut plans = Vec::with_capacity(ruleset.rules.len());
                    for rule in &ruleset.rules {
                        if rule.pattern.is_empty() {
                            plans.push(None);
                            continue;
                        }
                        let xq = translate_rule_xquery(rule, "applicable-policy")?;
                        let text = xq.to_string();
                        let reparsed = p3p_xquery::parse_xquery(&text)?;
                        let sql = self.xtable.compile(&reparsed)?;
                        plans.push(Some(self.db.prepare(&sql)?));
                    }
                    Ok::<_, ServerError>(plans)
                });
        match built {
            Err(ServerError::XQuery(p3p_xquery::XQueryError::TooComplex { size, limit })) => {
                Err(ServerError::Unsupported(format!(
                    "XTABLE cannot compile this preference: query size {size} exceeds limit {limit}"
                )))
            }
            other => other,
        }
    }

    fn match_xtable(&self, ruleset: &Ruleset, policy_id: i64) -> Result<MatchOutcome, ServerError> {
        // The XTABLE compiler has no bound form — its queries read the
        // staged `applicable_policy` row. Stage into a copy-on-write
        // fork: cloning the database is a few `Arc` bumps, and the two
        // staging statements rewrite only the one-row staging table.
        let mut db = self.db.clone();
        refschema::stage_applicable(&mut db, policy_id)?;
        let translate_span = span!("translate");
        let t0 = Instant::now();
        let (plans, cached) = self.xtable_plans(ruleset)?;
        let convert = t0.elapsed();
        drop(translate_span);
        let _execute_span = span!("execute");
        let t1 = Instant::now();
        let verdict = staged_verdict(&db, ruleset, &plans)?;
        Ok(MatchOutcome::computed(
            verdict,
            convert,
            t1.elapsed(),
            cached,
        ))
    }

    fn match_xquery_native(
        &self,
        ruleset: &Ruleset,
        policy_id: i64,
    ) -> Result<MatchOutcome, ServerError> {
        let doc = &self
            .catalog
            .policies
            .get(&policy_id)
            .ok_or_else(|| ServerError::UnknownPolicy(format!("id {policy_id}")))?
            .explicit;
        let mut convert = Duration::ZERO;
        let mut query = Duration::ZERO;
        let mut verdict = Verdict::default_block();
        for (index, rule) in ruleset.rules.iter().enumerate() {
            // An unconditional (OTHERWISE) rule fires without a query.
            if !rule.pattern.is_empty() {
                let t0 = Instant::now();
                let xq = {
                    let _span = span!("translate", rule = index);
                    translate_rule_xquery(rule, "applicable-policy")?
                };
                convert += t0.elapsed();
                let t1 = Instant::now();
                let hit = {
                    let _span = span!("execute", rule = index);
                    p3p_xquery::eval_xquery(&xq, doc).is_some()
                };
                query += t1.elapsed();
                if !hit {
                    continue;
                }
            }
            verdict = fired(rule, index);
            break;
        }
        Ok(MatchOutcome::computed(verdict, convert, query, false))
    }

    /// Match a preference against **every** installed policy
    /// set-at-a-time (paper §3's core argument): the SQL engines run
    /// one corpus query per rule — O(rules) query executions instead of
    /// O(policies × rules) — and fold first-matching-rule semantics
    /// client-side over the returned policy-id sets. The native APPEL
    /// and XQuery engines answer the same API through a per-policy
    /// loop, so every engine is comparable.
    ///
    /// Results are `(policy name, verdict)` pairs in name order;
    /// policies no rule matches get the APPEL default-block verdict,
    /// exactly as the per-policy loop would produce.
    pub fn match_corpus(
        &self,
        ruleset: &Ruleset,
        engine: EngineKind,
    ) -> Result<Vec<(String, Verdict)>, ServerError> {
        self.match_corpus_subset(ruleset, engine, None)
    }

    /// [`Self::match_corpus`] restricted to a subset of policy names —
    /// the shard primitive behind
    /// [`crate::concurrent::MatchPool::match_corpus`]. `None` means the
    /// whole corpus.
    pub fn match_corpus_subset(
        &self,
        ruleset: &Ruleset,
        engine: EngineKind,
        subset: Option<&[String]>,
    ) -> Result<Vec<(String, Verdict)>, ServerError> {
        p3p_minidb::exec::reset_stats();
        let label = engine.metric_label();
        let _span = span!("bulk_match", engine = label);
        let start = Instant::now();
        let result = self.bulk_cached(ruleset, engine, subset);
        let by_engine = [("engine", label)];
        metrics::histogram_with("p3p_bulk_match_latency_us", &by_engine)
            .observe_duration(start.elapsed());
        match &result {
            Ok(verdicts) => {
                metrics::counter_with("p3p_bulk_matches_total", &by_engine)
                    .add(verdicts.len() as u64);
            }
            Err(_) => {
                metrics::counter_with("p3p_bulk_match_errors_total", &by_engine).inc();
            }
        }
        result
    }

    /// Corpus dispatch behind the verdict cache: roster entries whose
    /// keys hit are answered straight from memoized verdicts; only the
    /// missed remainder reaches the engine (as a subset sweep), and its
    /// verdicts are memoized on the way out. Results merge back in
    /// roster order, so callers can't tell the difference.
    fn bulk_cached(
        &self,
        ruleset: &Ruleset,
        engine: EngineKind,
        subset: Option<&[String]>,
    ) -> Result<Vec<(String, Verdict)>, ServerError> {
        if !self.verdicts_apply() {
            return self.bulk_dispatch(ruleset, engine, subset);
        }
        let roster = self.roster(subset)?;
        let fingerprint = TranslationCache::fingerprint(ruleset);
        let key_of = |id: i64| self.verdict_key(fingerprint, id, engine);
        let mut decided: HashMap<String, Verdict> = HashMap::new();
        let mut missed: Vec<String> = Vec::new();
        for (id, name) in &roster {
            match self.verdicts.get(&key_of(*id)) {
                Some(verdict) => {
                    decided.insert(name.clone(), verdict);
                }
                None => missed.push(name.clone()),
            }
        }
        if !missed.is_empty() {
            for (name, verdict) in self.bulk_dispatch(ruleset, engine, Some(&missed))? {
                if let Some(id) = self.policy_id(&name) {
                    self.verdicts.insert(key_of(id), verdict.clone());
                }
                decided.insert(name, verdict);
            }
        }
        Ok(roster
            .into_iter()
            .map(|(_, name)| {
                let verdict = decided
                    .remove(&name)
                    .expect("every roster entry is either a hit or was computed");
                (name, verdict)
            })
            .collect())
    }

    /// Raw per-engine corpus dispatch (no verdict-cache involvement).
    fn bulk_dispatch(
        &self,
        ruleset: &Ruleset,
        engine: EngineKind,
        subset: Option<&[String]>,
    ) -> Result<Vec<(String, Verdict)>, ServerError> {
        match engine {
            EngineKind::Sql => self.bulk_sql(ruleset, subset, false),
            EngineKind::SqlGeneric => self.bulk_sql(ruleset, subset, true),
            EngineKind::XQueryXTable => self.bulk_xtable(ruleset, subset),
            _ => self.bulk_fallback(ruleset, engine, subset),
        }
    }

    /// The `(id, name)` pairs to decide, in name order. A subset keeps
    /// the caller's order (shards of a sorted roster concatenate back
    /// into name order).
    fn roster(&self, subset: Option<&[String]>) -> Result<Vec<(i64, String)>, ServerError> {
        match subset {
            None => Ok(self.catalog.roster().to_vec()),
            Some(names) => names
                .iter()
                .map(|name| {
                    self.policy_id(name)
                        .map(|id| (id, name.clone()))
                        .ok_or_else(|| ServerError::UnknownPolicy(name.clone()))
                })
                .collect(),
        }
    }

    /// Set-at-a-time SQL path: one corpus query per rule. Later rules
    /// only need to decide policies no earlier rule matched, so once
    /// the undecided set shrinks below the full corpus the cached plan
    /// is narrowed with a `policy_id IN (…)` conjunct, which the
    /// executor answers with per-value index probes instead of a scan.
    fn bulk_sql(
        &self,
        ruleset: &Ruleset,
        subset: Option<&[String]>,
        generic: bool,
    ) -> Result<Vec<(String, Verdict)>, ServerError> {
        let roster = self.roster(subset)?;
        let total_installed = self.catalog.ids.len();
        let variant = if generic {
            TranslationVariant::GenericCorpus
        } else {
            TranslationVariant::OptimizedCorpus
        };
        let translate_span = span!("translate");
        let (plans, _cached) = self.translations.get_or_try_insert(ruleset, variant, || {
            let mut plans = Vec::with_capacity(ruleset.rules.len());
            for rule in &ruleset.rules {
                let sql = if generic {
                    translate_rule_generic_corpus(rule, &self.generic)?
                } else {
                    translate_rule_optimized_corpus(rule)?
                };
                plans.push(Some(self.db.prepare(&sql)?));
            }
            Ok::<_, ServerError>(plans)
        })?;
        drop(translate_span);
        let _execute_span = span!("execute");
        let queries = metrics::counter_with(
            "p3p_bulk_queries_total",
            &[("engine", if generic { "sql_generic" } else { "sql" })],
        );
        let mut undecided: Vec<i64> = roster.iter().map(|(id, _)| *id).collect();
        let mut verdicts: HashMap<i64, Verdict> = HashMap::new();
        for (index, (rule, plan)) in ruleset.rules.iter().zip(plans.iter()).enumerate() {
            if undecided.is_empty() {
                break;
            }
            let _ctx = QueryContextGuard::rule(index as u64);
            let plan = plan
                .as_ref()
                .expect("corpus translation yields a plan per rule");
            queries.inc();
            let result = if undecided.len() == total_installed {
                self.db.query_prepared(plan, &[])?
            } else {
                // Narrowed one-shot statement: its id list is unique to
                // this undecided set, so it bypasses the plan cache.
                let sql = restrict_to_ids(plan.sql(), &undecided);
                let restricted = self.db.prepare_uncached(&sql)?;
                self.db.query_prepared(&restricted, &[])?
            };
            let matched: HashSet<i64> = result
                .rows
                .iter()
                .filter_map(|row| row.first().and_then(Value::as_int))
                .collect();
            undecided.retain(|id| {
                if matched.contains(id) {
                    verdicts.insert(*id, fired(rule, index));
                    false
                } else {
                    true
                }
            });
        }
        Ok(roster
            .into_iter()
            .map(|(id, name)| {
                let verdict = verdicts.remove(&id).unwrap_or_else(Verdict::default_block);
                (name, verdict)
            })
            .collect())
    }

    /// Corpus sweep for the XTABLE engine. Each policy does the same
    /// work as [`Self::match_xtable`], but the sweep-invariant costs are
    /// hoisted out of the loop: the preference is translated and
    /// prepared once (one translation-cache lookup instead of one per
    /// policy) and a single copy-on-write fork holds the staging row,
    /// restaged per policy instead of re-cloning the database each
    /// time. That hoisting is what keeps the bulk path at least as fast
    /// as the per-policy loop for this engine.
    fn bulk_xtable(
        &self,
        ruleset: &Ruleset,
        subset: Option<&[String]>,
    ) -> Result<Vec<(String, Verdict)>, ServerError> {
        let roster = self.roster(subset)?;
        if roster.is_empty() {
            return Ok(Vec::new());
        }
        let translate_span = span!("translate");
        let (plans, _cached) = self.xtable_plans(ruleset)?;
        drop(translate_span);
        let _execute_span = span!("execute");
        let mut db = self.db.clone();
        let mut out = Vec::with_capacity(roster.len());
        for (id, name) in roster {
            refschema::stage_applicable(&mut db, id)?;
            out.push((name, staged_verdict(&db, ruleset, &plans)?));
        }
        Ok(out)
    }

    /// Engines without a set-at-a-time form answer the corpus API with
    /// a per-policy loop, so benches and callers can compare them
    /// against the bulk SQL path on equal terms.
    fn bulk_fallback(
        &self,
        ruleset: &Ruleset,
        engine: EngineKind,
        subset: Option<&[String]>,
    ) -> Result<Vec<(String, Verdict)>, ServerError> {
        let roster = self.roster(subset)?;
        let mut out = Vec::with_capacity(roster.len());
        for (id, name) in roster {
            let outcome = match engine {
                EngineKind::Native => self.match_native(ruleset, id)?,
                EngineKind::XQueryNative => self.match_xquery_native(ruleset, id)?,
                EngineKind::Sql | EngineKind::SqlGeneric | EngineKind::XQueryXTable => {
                    unreachable!("these engines use dedicated set-at-a-time paths")
                }
            };
            out.push((name, outcome.verdict));
        }
        Ok(out)
    }
}

/// The XTABLE engine's verdict for the policy staged in `db`'s
/// `applicable_policy` row: the first rule whose query returns a row
/// fires, and an unconditional (OTHERWISE) rule fires without one.
fn staged_verdict(
    db: &Database,
    ruleset: &Ruleset,
    plans: &TranslatedPlans,
) -> Result<Verdict, ServerError> {
    for (index, (rule, plan)) in ruleset.rules.iter().zip(plans.iter()).enumerate() {
        let _ctx = QueryContextGuard::rule(index as u64);
        let hit = match plan {
            Some(plan) => !db.query_prepared(plan, &[])?.is_empty(),
            None => true,
        };
        if hit {
            return Ok(fired(rule, index));
        }
    }
    Ok(Verdict::default_block())
}

/// Append `applicable_policy.policy_id IN (…)` to a corpus query so it
/// only decides the still-undecided ids. The corpus translators always
/// parenthesize their WHERE condition, so a plain `AND` is safe.
fn restrict_to_ids(sql: &str, ids: &[i64]) -> String {
    let list = ids
        .iter()
        .map(|id| id.to_string())
        .collect::<Vec<_>>()
        .join(", ");
    if sql.contains(" WHERE ") {
        format!("{sql} AND applicable_policy.policy_id IN ({list})")
    } else {
        format!("{sql} WHERE applicable_policy.policy_id IN ({list})")
    }
}

impl Default for PolicyServer {
    fn default() -> Self {
        PolicyServer::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use p3p_appel::model::{jane_preference, Behavior};
    use p3p_minidb::ExecOptions;
    use p3p_policy::model::volga_policy;

    fn server_with_volga() -> PolicyServer {
        let mut s = PolicyServer::new();
        s.install_policy(&volga_policy()).unwrap();
        s
    }

    #[test]
    fn all_engines_agree_on_the_papers_walkthrough() {
        let s = server_with_volga();
        let jane = jane_preference();
        for engine in EngineKind::ALL {
            let out = s
                .match_preference(&jane, Target::Policy("volga"), *engine)
                .unwrap();
            assert_eq!(
                out.verdict.behavior,
                Behavior::Request,
                "engine {engine:?} disagreed"
            );
            assert_eq!(out.verdict.fired_rule, Some(2), "engine {engine:?}");
        }
    }

    #[test]
    fn all_engines_block_the_always_variant() {
        // Flip individual-decision to `always`: Jane's first rule fires
        // (paper §2.2's counterfactual).
        let mut policy = volga_policy();
        policy.statements[1].purposes[0].required = p3p_policy::Required::Always;
        policy.name = "volga2".to_string();
        let mut s = PolicyServer::new();
        s.install_policy(&policy).unwrap();
        let jane = jane_preference();
        for engine in EngineKind::ALL {
            let out = s
                .match_preference(&jane, Target::Policy("volga2"), *engine)
                .unwrap();
            assert_eq!(out.verdict.behavior, Behavior::Block, "engine {engine:?}");
            assert_eq!(out.verdict.fired_rule, Some(0), "engine {engine:?}");
        }
    }

    #[test]
    fn uri_routing_through_reference_file() {
        let mut s = server_with_volga();
        let mut second = volga_policy();
        second.name = "marketing".to_string();
        second.statements[1].purposes[0].required = p3p_policy::Required::Always;
        s.install_policy(&second).unwrap();
        s.install_reference_xml(
            r#"<META><POLICY-REFERENCES>
                 <POLICY-REF about="/p3p/policies.xml#marketing">
                   <INCLUDE>/promo/*</INCLUDE>
                 </POLICY-REF>
                 <POLICY-REF about="/p3p/policies.xml#volga">
                   <INCLUDE>/*</INCLUDE>
                 </POLICY-REF>
               </POLICY-REFERENCES></META>"#,
        )
        .unwrap();
        let jane = jane_preference();
        let shop = s
            .match_preference(&jane, Target::Uri("/books/catalog"), EngineKind::Sql)
            .unwrap();
        assert_eq!(shop.verdict.behavior, Behavior::Request);
        let promo = s
            .match_preference(&jane, Target::Uri("/promo/spring"), EngineKind::Sql)
            .unwrap();
        assert_eq!(promo.verdict.behavior, Behavior::Block);
    }

    #[test]
    fn cookie_routing_through_reference_file() {
        let mut s = server_with_volga();
        s.install_reference_xml(
            r#"<META><POLICY-REFERENCES>
                 <POLICY-REF about="/p3p/policies.xml#volga">
                   <INCLUDE>/*</INCLUDE>
                   <COOKIE-INCLUDE>session=*</COOKIE-INCLUDE>
                   <COOKIE-EXCLUDE>session=opaque*</COOKIE-EXCLUDE>
                 </POLICY-REF>
               </POLICY-REFERENCES></META>"#,
        )
        .unwrap();
        let jane = jane_preference();
        let ok = s
            .match_preference(&jane, Target::Cookie("session=abc"), EngineKind::Sql)
            .unwrap();
        assert_eq!(ok.verdict.behavior, Behavior::Request);
        assert!(matches!(
            s.match_preference(&jane, Target::Cookie("session=opaque42"), EngineKind::Sql),
            Err(ServerError::NoApplicablePolicy(_))
        ));
        assert!(matches!(
            s.match_preference(&jane, Target::Cookie("tracker=1"), EngineKind::Sql),
            Err(ServerError::NoApplicablePolicy(_))
        ));
    }

    #[test]
    fn unknown_targets_error() {
        let s = server_with_volga();
        let jane = jane_preference();
        assert!(matches!(
            s.match_preference(&jane, Target::Policy("nope"), EngineKind::Sql),
            Err(ServerError::UnknownPolicy(_))
        ));
        assert!(matches!(
            s.match_preference(&jane, Target::Uri("/x"), EngineKind::Sql),
            Err(ServerError::NoApplicablePolicy(_))
        ));
    }

    #[test]
    fn duplicate_install_rejected() {
        let mut s = server_with_volga();
        assert!(matches!(
            s.install_policy(&volga_policy()),
            Err(ServerError::Install(_))
        ));
    }

    #[test]
    fn remove_policy_clears_all_tables() {
        let mut s = server_with_volga();
        s.remove_policy("volga").unwrap();
        assert!(s.policy_names().is_empty());
        assert_eq!(s.database().table("policy").unwrap().len(), 0);
        assert_eq!(s.database().table("g_policy").unwrap().len(), 0);
        // Reinstall works.
        s.install_policy(&volga_policy()).unwrap();
    }

    #[test]
    fn xtable_rejects_exact_preference_like_the_paper() {
        // A preference with an or-exact rule: the SQL path handles it,
        // the XTABLE path reports it as too complex (the Medium hole in
        // Figure 21).
        let s = server_with_volga();
        let pref = p3p_appel::parse::parse_ruleset_str(
            r#"<appel:RULESET>
                 <appel:RULE behavior="block">
                   <POLICY><STATEMENT>
                     <PURPOSE appel:connective="or-exact"><current/><admin/></PURPOSE>
                   </STATEMENT></POLICY>
                 </appel:RULE>
                 <appel:OTHERWISE><appel:RULE behavior="request"/></appel:OTHERWISE>
               </appel:RULESET>"#,
        )
        .unwrap();
        let sql = s
            .match_preference(&pref, Target::Policy("volga"), EngineKind::Sql)
            .unwrap();
        // Volga's first statement has exactly {current} ⊆ {current,admin}
        // so the exact rule fires.
        assert_eq!(sql.verdict.behavior, Behavior::Block);
        // The capability hole surfaces as a typed Unsupported error
        // (not an opaque engine failure), naming the size limit.
        let err = s
            .match_preference(&pref, Target::Policy("volga"), EngineKind::XQueryXTable)
            .unwrap_err();
        match err {
            ServerError::Unsupported(msg) => {
                assert!(msg.contains("XTABLE"), "{msg}");
                assert!(msg.contains("exceeds limit"), "{msg}");
            }
            other => panic!("expected Unsupported, got {other:?}"),
        }
        // The native engine and the XML-store engine both handle it.
        let native = s
            .match_preference(&pref, Target::Policy("volga"), EngineKind::Native)
            .unwrap();
        assert_eq!(native.verdict.behavior, Behavior::Block);
        let xmlstore = s
            .match_preference(&pref, Target::Policy("volga"), EngineKind::XQueryNative)
            .unwrap();
        assert_eq!(xmlstore.verdict.behavior, Behavior::Block);
    }

    #[test]
    fn custom_data_schemas_normalize_before_install() {
        use p3p_policy::model::{DataRef, Statement};
        use p3p_policy::vocab::{Purpose, Recipient, Retention};
        let schema = p3p_policy::DataSchema::parse(
            "<DATASCHEMA><DATA-DEF ref=\"#loyalty.card\"><CATEGORIES><uniqueid/></CATEGORIES></DATA-DEF></DATASCHEMA>",
        )
        .unwrap();
        let mut policy = p3p_policy::model::Policy::new("store");
        policy.statements.push(Statement::simple(
            [Purpose::Current],
            [Recipient::Ours],
            Retention::StatedPurpose,
            [DataRef::new("loyalty.card")],
        ));
        let mut s = PolicyServer::new();
        s.install_policy_with_schemas(&policy, &[schema]).unwrap();
        // The custom category landed in the category table...
        let r = s
            .database()
            .query("SELECT COUNT(*) FROM category WHERE category = 'uniqueid'")
            .unwrap();
        assert_eq!(r.scalar().unwrap().as_int(), Some(1));
        // ...and a preference blocking uniqueid data fires on every
        // engine, custom schema or not.
        let pref = p3p_appel::parse::parse_ruleset_str(
            "<appel:RULESET><appel:RULE behavior=\"block\"><POLICY><STATEMENT><DATA-GROUP><DATA><CATEGORIES appel:connective=\"or\"><uniqueid/></CATEGORIES></DATA></DATA-GROUP></STATEMENT></POLICY></appel:RULE></appel:RULESET>",
        )
        .unwrap();
        for engine in EngineKind::ALL {
            if *engine == EngineKind::XQueryXTable {
                continue; // attribute-free DATA steps compile, but keep this focused
            }
            let out = s
                .match_preference(&pref, Target::Policy("store"), *engine)
                .unwrap();
            assert_eq!(out.verdict.behavior, Behavior::Block, "{engine:?}");
        }
    }

    #[test]
    fn install_from_xml_preserves_text_for_native_engine() {
        let mut s = PolicyServer::new();
        let xml = volga_policy().to_xml();
        s.install_policy_xml(&xml).unwrap();
        assert_eq!(s.raw_xml_of(1).unwrap(), xml);
    }

    #[test]
    fn match_corpus_agrees_with_per_policy_loop() {
        let mut s = PolicyServer::new();
        // Three policies with different outcomes under Jane: volga
        // (request, rule 2), the always-variant (block, rule 0), and a
        // stripped policy nothing matches (default block).
        s.install_policy(&volga_policy()).unwrap();
        let mut always = volga_policy();
        always.name = "always".to_string();
        always.statements[1].purposes[0].required = p3p_policy::Required::Always;
        s.install_policy(&always).unwrap();
        let mut bare = p3p_policy::model::Policy::new("bare");
        bare.access = None;
        s.install_policy(&bare).unwrap();
        let jane = jane_preference();
        for engine in EngineKind::ALL {
            let bulk = s.match_corpus(&jane, *engine).unwrap();
            assert_eq!(bulk.len(), 3, "{engine:?}");
            for (name, verdict) in &bulk {
                let loop_verdict = s
                    .match_preference(&jane, Target::Policy(name), *engine)
                    .unwrap()
                    .verdict;
                assert_eq!(*verdict, loop_verdict, "{engine:?} / {name}");
            }
        }
    }

    #[test]
    fn match_corpus_subset_decides_only_the_shard() {
        let mut s = server_with_volga();
        let mut second = volga_policy();
        second.name = "always".to_string();
        second.statements[1].purposes[0].required = p3p_policy::Required::Always;
        s.install_policy(&second).unwrap();
        let jane = jane_preference();
        let shard = ["always".to_string()];
        let out = s
            .match_corpus_subset(&jane, EngineKind::Sql, Some(&shard))
            .unwrap();
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].0, "always");
        assert_eq!(out[0].1.behavior, Behavior::Block);
        let unknown = ["nope".to_string()];
        assert!(matches!(
            s.match_corpus_subset(&jane, EngineKind::Sql, Some(&unknown)),
            Err(ServerError::UnknownPolicy(_))
        ));
    }

    #[test]
    fn match_corpus_on_empty_corpus_is_empty() {
        let s = PolicyServer::new();
        let jane = jane_preference();
        for engine in EngineKind::ALL {
            assert!(s.match_corpus(&jane, *engine).unwrap().is_empty());
        }
    }

    #[test]
    fn restrict_to_ids_appends_conjunct() {
        assert_eq!(
            restrict_to_ids(
                "SELECT DISTINCT applicable_policy.policy_id FROM policy applicable_policy",
                &[1, 3]
            ),
            "SELECT DISTINCT applicable_policy.policy_id FROM policy applicable_policy \
             WHERE applicable_policy.policy_id IN (1, 3)"
        );
        assert_eq!(
            restrict_to_ids(
                "SELECT DISTINCT applicable_policy.policy_id FROM policy applicable_policy \
                 WHERE (1 = 0)",
                &[2]
            ),
            "SELECT DISTINCT applicable_policy.policy_id FROM policy applicable_policy \
             WHERE (1 = 0) AND applicable_policy.policy_id IN (2)"
        );
    }

    #[test]
    fn engine_labels_are_distinct() {
        let labels: std::collections::BTreeSet<&str> =
            EngineKind::ALL.iter().map(|e| e.label()).collect();
        assert_eq!(labels.len(), EngineKind::ALL.len());
    }

    #[test]
    fn verdict_cache_hit_answers_without_the_database() {
        let mut s = server_with_volga();
        s.set_verdict_cache_capacity(256);
        let jane = jane_preference();
        let cold = s
            .match_preference(&jane, Target::Policy("volga"), EngineKind::Sql)
            .unwrap();
        assert!(!cold.verdict_cached);
        let warm = s
            .match_preference(&jane, Target::Policy("volga"), EngineKind::Sql)
            .unwrap();
        assert!(warm.verdict_cached, "second identical match must hit");
        assert_eq!(warm.verdict, cold.verdict);
        assert_eq!(warm.query, Duration::ZERO, "no execution on a hit");
        assert_eq!(warm.db_stats, Default::default(), "no minidb work on a hit");
        let stats = s.verdict_cache_stats();
        assert_eq!((stats.hits, stats.misses, s.verdict_cache_len()), (1, 1, 1));
    }

    #[test]
    fn verdict_cache_disabled_by_default() {
        let s = server_with_volga();
        let jane = jane_preference();
        for _ in 0..2 {
            let out = s
                .match_preference(&jane, Target::Policy("volga"), EngineKind::Sql)
                .unwrap();
            assert!(!out.verdict_cached);
        }
        assert_eq!(s.verdict_cache_stats(), Default::default());
    }

    #[test]
    fn install_and_remove_advance_epoch_and_version() {
        let mut s = PolicyServer::new();
        assert_eq!(s.catalog_epoch(), 0);
        assert_eq!(s.policy_version("volga"), 0);
        s.install_policy(&volga_policy()).unwrap();
        assert_eq!(s.catalog_epoch(), 1);
        assert_eq!(s.policy_version("volga"), 1);
        s.remove_policy("volga").unwrap();
        assert_eq!(s.catalog_epoch(), 2);
        assert_eq!(s.policy_version("volga"), 2, "version survives removal");
        s.install_policy(&volga_policy()).unwrap();
        assert_eq!(s.catalog_epoch(), 3);
        assert_eq!(s.policy_version("volga"), 3, "no ABA on re-install");
        // Outcomes are stamped with the epoch they ran under.
        let out = s
            .match_preference(&jane_preference(), Target::Policy("volga"), EngineKind::Sql)
            .unwrap();
        assert_eq!(out.epoch, 3);
    }

    #[test]
    fn reshredding_a_policy_never_serves_its_stale_verdict() {
        let mut s = server_with_volga();
        s.set_verdict_cache_capacity(256);
        let jane = jane_preference();
        let before = s
            .match_preference(&jane, Target::Policy("volga"), EngineKind::Sql)
            .unwrap();
        assert_eq!(before.verdict.behavior, Behavior::Request);
        // Replace volga with the always-variant under the same name:
        // Jane's block rule now fires.
        s.remove_policy("volga").unwrap();
        let mut always = volga_policy();
        always.statements[1].purposes[0].required = p3p_policy::Required::Always;
        s.install_policy(&always).unwrap();
        let after = s
            .match_preference(&jane, Target::Policy("volga"), EngineKind::Sql)
            .unwrap();
        assert!(!after.verdict_cached, "stale verdict must not be served");
        assert_eq!(after.verdict.behavior, Behavior::Block);
    }

    #[test]
    fn invalidation_on_remove_is_per_policy() {
        let mut s = server_with_volga();
        let mut second = volga_policy();
        second.name = "second".to_string();
        s.install_policy(&second).unwrap();
        s.set_verdict_cache_capacity(256);
        let jane = jane_preference();
        for name in ["volga", "second"] {
            s.match_preference(&jane, Target::Policy(name), EngineKind::Sql)
                .unwrap();
        }
        s.remove_policy("volga").unwrap();
        assert_eq!(
            s.verdict_cache_stats().invalidations,
            1,
            "only volga's entry is evicted"
        );
        let out = s
            .match_preference(&jane, Target::Policy("second"), EngineKind::Sql)
            .unwrap();
        assert!(out.verdict_cached, "the untouched policy still hits");
    }

    #[test]
    fn cow_fork_does_not_share_cache_mutations_with_parent() {
        let mut parent = server_with_volga();
        parent.set_verdict_cache_capacity(256);
        let jane = jane_preference();
        parent
            .match_preference(&jane, Target::Policy("volga"), EngineKind::Sql)
            .unwrap();
        let mut fork = parent.clone_state();
        // The fork's removal detaches its cache before invalidating, so
        // the parent's warm entry survives.
        fork.remove_policy("volga").unwrap();
        let warm = parent
            .match_preference(&jane, Target::Policy("volga"), EngineKind::Sql)
            .unwrap();
        assert!(warm.verdict_cached, "parent cache untouched by the fork");
        // And the fork really dropped its copy.
        assert_eq!(fork.verdict_cache_len(), 0);
    }

    #[test]
    fn bulk_sweep_fills_and_uses_the_verdict_cache() {
        let mut s = server_with_volga();
        let mut second = volga_policy();
        second.name = "second".to_string();
        second.statements[1].purposes[0].required = p3p_policy::Required::Always;
        s.install_policy(&second).unwrap();
        s.set_verdict_cache_capacity(256);
        let jane = jane_preference();
        let cold = s.match_corpus(&jane, EngineKind::Sql).unwrap();
        assert_eq!(
            s.verdict_cache_len(),
            2,
            "sweep memoizes every decided policy"
        );
        let warm = s.match_corpus(&jane, EngineKind::Sql).unwrap();
        assert_eq!(warm, cold);
        let stats = s.verdict_cache_stats();
        assert_eq!(stats.hits, 2, "second sweep is pure lookups");
        // Single-policy matches share the same key space.
        let single = s
            .match_preference(&jane, Target::Policy("volga"), EngineKind::Sql)
            .unwrap();
        assert!(single.verdict_cached);
        assert_eq!(single.verdict, cold[1].1, "cold[1] is volga in name order");
    }

    #[test]
    fn partial_bulk_hits_merge_with_computed_remainder() {
        let mut s = server_with_volga();
        let mut second = volga_policy();
        second.name = "second".to_string();
        second.statements[1].purposes[0].required = p3p_policy::Required::Always;
        s.install_policy(&second).unwrap();
        s.set_verdict_cache_capacity(256);
        let jane = jane_preference();
        // Warm only one of the two policies, then sweep: one hit, one
        // engine-computed, merged back in name order.
        s.match_preference(&jane, Target::Policy("second"), EngineKind::Sql)
            .unwrap();
        let sweep = s.match_corpus(&jane, EngineKind::Sql).unwrap();
        assert_eq!(sweep[0].0, "second");
        assert_eq!(sweep[0].1.behavior, Behavior::Block);
        assert_eq!(sweep[1].0, "volga");
        assert_eq!(sweep[1].1.behavior, Behavior::Request);
        assert_eq!(s.verdict_cache_stats().hits, 1);
        assert_eq!(s.verdict_cache_len(), 2);
    }

    #[test]
    fn knob_changes_miss_instead_of_aliasing() {
        let mut s = server_with_volga();
        s.set_verdict_cache_capacity(256);
        let jane = jane_preference();
        s.match_preference(&jane, Target::Policy("volga"), EngineKind::Sql)
            .unwrap();
        // Clones share the verdict cache, so a key that ignored one of
        // these options would answer from the default options' verdict.
        let defaults = ExecOptions::default();
        for options in [
            ExecOptions {
                columnar: false,
                ..defaults
            },
            ExecOptions {
                indexes: false,
                ..defaults
            },
            ExecOptions {
                planner: false,
                ..defaults
            },
        ] {
            let mut clone = s.clone_state();
            clone.database_mut().set_options(options);
            let out = clone
                .match_preference(&jane, Target::Policy("volga"), EngineKind::Sql)
                .unwrap();
            assert!(
                !out.verdict_cached,
                "{options:?} reused the default verdict"
            );
        }
        assert_eq!(s.verdict_cache_len(), 4);
    }

    #[test]
    fn forced_decorrelation_count_never_shares_the_default_rules_verdicts() {
        // `Some(8)` forces the count rule with the same number the
        // columnar pre-flight uses by default; the two arms still run
        // different EXISTS strategies and must key apart.
        let mut s = server_with_volga();
        s.set_verdict_cache_capacity(256);
        let jane = jane_preference();
        let arms = [None, Some(8), Some(0), Some(u32::MAX)].map(|decorrelate_after| ExecOptions {
            decorrelate_after,
            ..ExecOptions::default()
        });
        for options in arms {
            s.database_mut().set_options(options);
            let out = s
                .match_preference(&jane, Target::Policy("volga"), EngineKind::Sql)
                .unwrap();
            assert!(
                !out.verdict_cached,
                "{options:?} reused another arm's verdict"
            );
        }
        assert_eq!(s.verdict_cache_len(), 4);
        // Back on the default rule, the first verdict is served again.
        s.database_mut().set_options(ExecOptions::default());
        let again = s
            .match_preference(&jane, Target::Policy("volga"), EngineKind::Sql)
            .unwrap();
        assert!(again.verdict_cached);
    }
}
