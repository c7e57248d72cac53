//! # p3p-bench — the evaluation harness
//!
//! Regenerates every table and figure of the paper's §6 against the
//! synthetic workload:
//!
//! * [`figure19`] — the preference-suite statistics table;
//! * [`shredding_table`] — §6.3.1 (avg/max/min shredding time);
//! * [`figure20`] — matching time per engine (avg/max/min, with the
//!   SQL convert/query split);
//! * [`figure21`] — the per-preference-level breakdown, with the
//!   XQuery column empty for Medium (XTABLE failure);
//! * [`warm_cold_table`] — the §6.3.2 warm-vs-cold discussion;
//! * [`caching_table`] — cold vs warm translation with the prepared-plan
//!   and translation caches (plus per-cache hit rates);
//! * [`ablation_table`] — the §6.3.2 profiling claim: category
//!   augmentation dominates the native engine's cost.
//!
//! Absolute times are 2026-hardware Rust times, orders of magnitude
//! below the paper's 2002 numbers; EXPERIMENTS.md compares *shapes*
//! (who wins, by what factor, where the failure is).

use p3p_appel::engine::{AppelEngine, EngineOptions};
use p3p_appel::model::Ruleset;
use p3p_minidb::ExecOptions;
use p3p_policy::model::Policy;
use p3p_policy::reference::{PolicyRef, ReferenceFile};
use p3p_server::concurrent::{MatchPool, SharedServer};
use p3p_server::{EngineKind, PolicyServer, ServerError, Target};
use p3p_workload::{corpus, corpus_n, preference_stats, Sensitivity};
use std::time::{Duration, Instant};

pub mod serve;
pub use serve::{bench_serve_json, serve_report, serve_table, ServeReport};

/// The default workload seed; every report names it.
pub const DEFAULT_SEED: u64 = 42;

/// Simple aggregate of a sample of durations.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Sample {
    pub total: Duration,
    pub max: Duration,
    pub min: Duration,
    pub count: u32,
}

impl Sample {
    /// Fold one observation in.
    pub fn push(&mut self, d: Duration) {
        self.total += d;
        if self.count == 0 || d > self.max {
            self.max = d;
        }
        if self.count == 0 || d < self.min {
            self.min = d;
        }
        self.count += 1;
    }

    /// Mean duration (zero when empty).
    pub fn avg(&self) -> Duration {
        if self.count == 0 {
            Duration::ZERO
        } else {
            self.total / self.count
        }
    }

    /// Combine two samples.
    pub fn merge(&self, other: &Sample) -> Sample {
        match (self.count, other.count) {
            (0, _) => *other,
            (_, 0) => *self,
            _ => Sample {
                total: self.total + other.total,
                max: self.max.max(other.max),
                min: self.min.min(other.min),
                count: self.count + other.count,
            },
        }
    }
}

/// Format a duration in adaptive units for the report tables.
pub fn fmt_duration(d: Duration) -> String {
    let nanos = d.as_nanos();
    if nanos >= 1_000_000_000 {
        format!("{:.2} s", d.as_secs_f64())
    } else if nanos >= 1_000_000 {
        format!("{:.2} ms", nanos as f64 / 1e6)
    } else {
        format!("{:.1} µs", nanos as f64 / 1e3)
    }
}

/// Build a server with the full corpus installed, plus a reference file
/// that maps `/site/<name>/*` to each policy.
pub fn setup_server(seed: u64) -> PolicyServer {
    let mut server = PolicyServer::new();
    let policies = corpus(seed);
    for p in &policies {
        server.install_policy(p).expect("corpus policy installs");
    }
    let mut file = ReferenceFile::default();
    for p in &policies {
        let mut r = PolicyRef::new(format!("/p3p/policies.xml#{}", p.name));
        r.includes.push(format!("/site/{}/*", p.name));
        file.policy_refs.push(r);
    }
    server.install_reference(&file).expect("reference installs");
    server
}

/// The five preferences with their labels.
pub fn preference_suite() -> Vec<(Sensitivity, Ruleset)> {
    Sensitivity::ALL.iter().map(|&s| (s, s.ruleset())).collect()
}

// ----------------------------------------------------------------------
// Figure 19 — preference statistics
// ----------------------------------------------------------------------

/// Regenerate Figure 19 (preference sizes and rule counts).
pub fn figure19() -> String {
    let mut out = String::new();
    out.push_str("Figure 19: JRC-style APPEL preferences (generated vs published)\n");
    out.push_str(&format!(
        "{:<12} {:>7} {:>10} {:>12} {:>15}\n",
        "Preference", "#Rules", "Size (KB)", "Paper #Rules", "Paper Size (KB)"
    ));
    let rows = preference_stats();
    let mut total_rules = 0usize;
    let mut total_kb = 0.0f64;
    for r in &rows {
        total_rules += r.rules;
        total_kb += r.size_kb;
        out.push_str(&format!(
            "{:<12} {:>7} {:>10.1} {:>12} {:>15.1}\n",
            r.level.label(),
            r.rules,
            r.size_kb,
            r.published_rules,
            r.published_size_kb
        ));
    }
    out.push_str(&format!(
        "{:<12} {:>7.1} {:>10.1} {:>12.1} {:>15.1}\n",
        "Average",
        total_rules as f64 / rows.len() as f64,
        total_kb / rows.len() as f64,
        4.8,
        1.9
    ));
    out
}

// ----------------------------------------------------------------------
// §6.3.1 — shredding
// ----------------------------------------------------------------------

/// Per-policy shredding times: installing each policy into a fresh
/// server (both schemas + stores), as §6.3.1 measured per-policy
/// shredding into DB2.
pub fn shredding_times(seed: u64) -> Sample {
    let policies = corpus(seed);
    let mut sample = Sample::default();
    for p in &policies {
        let mut server = PolicyServer::new();
        let start = Instant::now();
        server.install_policy(p).expect("installs");
        sample.push(start.elapsed());
    }
    sample
}

/// Regenerate the §6.3.1 shredding table.
pub fn shredding_table(seed: u64) -> String {
    let s = shredding_times(seed);
    let mut out = String::new();
    out.push_str("Section 6.3.1: Shredding time per policy\n");
    out.push_str(&format!(
        "{:<10} {:>12} {:>12} {:>12}\n",
        "", "Average", "Max", "Min"
    ));
    out.push_str(&format!(
        "{:<10} {:>12} {:>12} {:>12}\n",
        "Shredding",
        fmt_duration(s.avg()),
        fmt_duration(s.max),
        fmt_duration(s.min)
    ));
    out.push_str("(paper: 3.19 s avg, 11.94 s max, 1.17 s min on DB2 7.2, 2002 hardware)\n");
    out
}

// ----------------------------------------------------------------------
// Figures 20 & 21 — matching
// ----------------------------------------------------------------------

/// Timed verdict of one preference × one policy with one engine.
#[derive(Debug, Clone)]
pub struct MatchTiming {
    pub level: Sensitivity,
    pub policy: String,
    pub engine: EngineKind,
    pub convert: Duration,
    pub query: Duration,
    /// `None` when the engine failed (XTABLE on Medium).
    pub failed: Option<String>,
}

impl MatchTiming {
    pub fn total(&self) -> Duration {
        self.convert + self.query
    }
}

/// Run the full cross product preference × policy for the given
/// engines, warm (one discarded warm-up pass per engine, as §6.3.2
/// warms the JVM/DB2).
pub fn run_matrix(server: &mut PolicyServer, engines: &[EngineKind]) -> Vec<MatchTiming> {
    let suite = preference_suite();
    let names = server.policy_names();
    let mut out = Vec::new();
    for &engine in engines {
        // Warm-up: one untimed match.
        if let Some(first) = names.first() {
            let _ = server.match_preference(&suite[0].1, Target::Policy(first), engine);
        }
        for (level, ruleset) in &suite {
            for name in &names {
                let result = server.match_preference(ruleset, Target::Policy(name), engine);
                match result {
                    Ok(outcome) => out.push(MatchTiming {
                        level: *level,
                        policy: name.clone(),
                        engine,
                        convert: outcome.convert,
                        query: outcome.query,
                        failed: None,
                    }),
                    Err(e) => out.push(MatchTiming {
                        level: *level,
                        policy: name.clone(),
                        engine,
                        convert: Duration::ZERO,
                        query: Duration::ZERO,
                        failed: Some(e.to_string()),
                    }),
                }
            }
        }
    }
    out
}

fn aggregate<'a>(
    timings: impl Iterator<Item = &'a MatchTiming>,
) -> (Sample, Sample, Sample, usize) {
    let (mut convert, mut query, mut total) =
        (Sample::default(), Sample::default(), Sample::default());
    let mut failures = 0usize;
    for t in timings {
        if t.failed.is_some() {
            failures += 1;
            continue;
        }
        convert.push(t.convert);
        query.push(t.query);
        total.push(t.total());
    }
    (convert, query, total, failures)
}

/// Regenerate Figure 20: execution time for matching a preference
/// against a policy, per engine.
pub fn figure20(seed: u64) -> String {
    let mut server = setup_server(seed);
    let engines = [
        EngineKind::Native,
        EngineKind::Sql,
        EngineKind::XQueryXTable,
    ];
    let timings = run_matrix(&mut server, &engines);
    let mut out = String::new();
    out.push_str("Figure 20: execution time for matching a preference against a policy\n");
    out.push_str(&format!(
        "{:<10} {:>14} {:>14} {:>14} {:>14} {:>14}\n",
        "", "APPEL engine", "SQL convert", "SQL query", "SQL total", "XQuery"
    ));
    let native = aggregate(timings.iter().filter(|t| t.engine == EngineKind::Native));
    let sql = aggregate(timings.iter().filter(|t| t.engine == EngineKind::Sql));
    let xq = aggregate(
        timings
            .iter()
            .filter(|t| t.engine == EngineKind::XQueryXTable),
    );
    for (label, pick) in [("Average", 0usize), ("Max", 1), ("Min", 2)] {
        let sel = |s: &(Sample, Sample, Sample, usize), which: usize, part: usize| {
            let sample = match part {
                0 => &s.0,
                1 => &s.1,
                _ => &s.2,
            };
            match which {
                0 => sample.avg(),
                1 => sample.max,
                _ => sample.min,
            }
        };
        out.push_str(&format!(
            "{:<10} {:>14} {:>14} {:>14} {:>14} {:>14}\n",
            label,
            fmt_duration(sel(&native, pick, 2)),
            fmt_duration(sel(&sql, pick, 0)),
            fmt_duration(sel(&sql, pick, 1)),
            fmt_duration(sel(&sql, pick, 2)),
            fmt_duration(sel(&xq, pick, 2)),
        ));
    }
    let speedup_total = ratio(native.2.avg(), sql.2.avg());
    let speedup_query = ratio(native.2.avg(), sql.1.avg());
    out.push_str(&format!(
        "SQL speedup over APPEL engine: {speedup_total:.1}x total, {speedup_query:.1}x query-only \
         (paper: >15x total, ~30x query-only)\n"
    ));
    if xq.3 > 0 {
        out.push_str(&format!(
            "XQuery path failed on {} matches (XTABLE translation too complex) — excluded from averages\n",
            xq.3
        ));
    }
    out
}

fn ratio(a: Duration, b: Duration) -> f64 {
    if b.is_zero() {
        f64::INFINITY
    } else {
        a.as_secs_f64() / b.as_secs_f64()
    }
}

/// Regenerate Figure 21: per-preference-level execution times.
pub fn figure21(seed: u64) -> String {
    let mut server = setup_server(seed);
    let engines = [
        EngineKind::Native,
        EngineKind::Sql,
        EngineKind::XQueryXTable,
    ];
    let timings = run_matrix(&mut server, &engines);
    let mut out = String::new();
    out.push_str("Figure 21: per-preference-type execution times (averages)\n");
    out.push_str(&format!(
        "{:<12} {:>14} {:>14} {:>14} {:>14} {:>14}\n",
        "Preference", "APPEL engine", "SQL convert", "SQL query", "SQL total", "XQuery"
    ));
    for level in Sensitivity::ALL {
        let of = |engine: EngineKind| {
            aggregate(
                timings
                    .iter()
                    .filter(|t| t.engine == engine && t.level == level),
            )
        };
        let native = of(EngineKind::Native);
        let sql = of(EngineKind::Sql);
        let xq = of(EngineKind::XQueryXTable);
        let xq_cell = if xq.3 > 0 {
            // The paper's Figure 21 leaves the Medium XQuery cell empty.
            "-".to_string()
        } else {
            fmt_duration(xq.2.avg())
        };
        out.push_str(&format!(
            "{:<12} {:>14} {:>14} {:>14} {:>14} {:>14}\n",
            level.label(),
            fmt_duration(native.2.avg()),
            fmt_duration(sql.0.avg()),
            fmt_duration(sql.1.avg()),
            fmt_duration(sql.2.avg()),
            xq_cell,
        ));
    }
    out.push_str("(\"-\": XTABLE translation too complex to execute, as in the paper)\n");
    out
}

// ----------------------------------------------------------------------
// Warm vs cold (§6.3.2 text)
// ----------------------------------------------------------------------

/// Cold (first match on a fresh server, including shredding and first
/// touch of every structure) vs warm (steady-state) per engine.
pub fn warm_cold_table(seed: u64) -> String {
    let policies = corpus(seed);
    let suite = preference_suite();
    let (_, ruleset) = &suite[1]; // High: representative, works everywhere
    let mut out = String::new();
    out.push_str("Warm vs cold matching (policy 0, High preference)\n");
    out.push_str(&format!("{:<22} {:>14} {:>14}\n", "Engine", "Cold", "Warm"));
    for engine in [
        EngineKind::Native,
        EngineKind::Sql,
        EngineKind::XQueryXTable,
    ] {
        let mut server = PolicyServer::new();
        server.install_policy(&policies[0]).unwrap();
        let target = Target::Policy(&policies[0].name);
        let t0 = Instant::now();
        let _ = server.match_preference(ruleset, target, engine);
        let cold = t0.elapsed();
        let mut warm = Sample::default();
        for _ in 0..20 {
            let t = Instant::now();
            let _ = server.match_preference(ruleset, target, engine);
            warm.push(t.elapsed());
        }
        out.push_str(&format!(
            "{:<22} {:>14} {:>14}\n",
            engine.label(),
            fmt_duration(cold),
            fmt_duration(warm.avg())
        ));
    }
    out.push_str("(paper: cold-warm gap ~1.4 s APPEL / ~1 s SQL / ~3 s XQuery, dominated by JVM class loading)\n");
    out
}

// ----------------------------------------------------------------------
// Caching (cold vs warm translation, plan & translation cache rates)
// ----------------------------------------------------------------------

/// Cold/warm split for one engine across the full preference × policy
/// sweep. A match is *cold* when its translation missed the per-ruleset
/// cache (the first match per preference) and *warm* when the prepared
/// plans came straight from the cache. Engines without a translation
/// cache (native, XQuery-on-XML) report every match as cold.
#[derive(Debug, Clone)]
pub struct EngineCaching {
    pub engine: EngineKind,
    pub cold_convert: Sample,
    pub warm_convert: Sample,
    pub cold_total: Sample,
    pub warm_total: Sample,
    /// Matches the engine declined as beyond its query language
    /// ([`ServerError::Unsupported`] — XTABLE on the Medium
    /// preference's exact connectives). A capability gap, not a bug.
    pub unsupported: usize,
    /// Matches that failed for any other reason. Zero in a healthy run.
    pub failures: usize,
}

impl EngineCaching {
    /// All successful matches, cold and warm together.
    pub fn all_total(&self) -> Sample {
        self.cold_total.merge(&self.warm_total)
    }

    /// Cold-over-warm convert-time ratio (`None` when nothing was
    /// cached, e.g. for the native engine).
    pub fn convert_speedup(&self) -> Option<f64> {
        if self.warm_convert.count == 0 || self.cold_convert.count == 0 {
            return None;
        }
        Some(ratio(self.cold_convert.avg(), self.warm_convert.avg()))
    }
}

/// The full caching sweep plus end-of-run cache counters.
#[derive(Debug, Clone)]
pub struct CachingReport {
    pub rows: Vec<EngineCaching>,
    pub translation: p3p_minidb::CacheStats,
    pub plans: p3p_minidb::CacheStats,
}

impl CachingReport {
    /// The acceptance metric: how much faster the optimized-SQL convert
    /// phase is once the translation cache is warm.
    pub fn optimized_sql_convert_speedup(&self) -> f64 {
        self.rows
            .iter()
            .find(|r| r.engine == EngineKind::Sql)
            .and_then(EngineCaching::convert_speedup)
            .unwrap_or(0.0)
    }
}

/// Run the full preference × policy sweep for every engine on one
/// server, splitting cold (translation-cache miss) from warm matches.
pub fn caching_report(seed: u64) -> CachingReport {
    let server = setup_server(seed);
    let suite = preference_suite();
    let names = server.policy_names();
    let mut rows = Vec::new();
    for &engine in EngineKind::ALL {
        let mut row = EngineCaching {
            engine,
            cold_convert: Sample::default(),
            warm_convert: Sample::default(),
            cold_total: Sample::default(),
            warm_total: Sample::default(),
            unsupported: 0,
            failures: 0,
        };
        for (_, ruleset) in &suite {
            for name in &names {
                match server.match_preference(ruleset, Target::Policy(name), engine) {
                    Ok(o) => {
                        let total = o.convert + o.query;
                        if o.cached {
                            row.warm_convert.push(o.convert);
                            row.warm_total.push(total);
                        } else {
                            row.cold_convert.push(o.convert);
                            row.cold_total.push(total);
                        }
                    }
                    Err(ServerError::Unsupported(_)) => row.unsupported += 1,
                    Err(_) => row.failures += 1,
                }
            }
        }
        rows.push(row);
    }
    CachingReport {
        rows,
        translation: server.translation_cache_stats(),
        plans: server.database().plan_cache_stats(),
    }
}

fn opt_fmt(s: &Sample) -> String {
    if s.count == 0 {
        "-".to_string()
    } else {
        fmt_duration(s.avg())
    }
}

/// Render the cold-vs-warm caching table.
pub fn caching_table(report: &CachingReport) -> String {
    let mut out = String::new();
    out.push_str("Caching: cold vs warm matching (full suite x corpus)\n");
    out.push_str(&format!(
        "{:<22} {:>12} {:>12} {:>9} {:>12} {:>12}\n",
        "Engine", "Cold conv", "Warm conv", "Speedup", "Cold total", "Warm total"
    ));
    for row in &report.rows {
        let speedup = match row.convert_speedup() {
            Some(s) => format!("{s:.1}x"),
            None => "-".to_string(),
        };
        out.push_str(&format!(
            "{:<22} {:>12} {:>12} {:>9} {:>12} {:>12}\n",
            row.engine.label(),
            opt_fmt(&row.cold_convert),
            opt_fmt(&row.warm_convert),
            speedup,
            opt_fmt(&row.cold_total),
            opt_fmt(&row.warm_total),
        ));
    }
    for row in &report.rows {
        if row.unsupported > 0 {
            out.push_str(&format!(
                "{}: {} matches unsupported (beyond the engine's query language)\n",
                row.engine.label(),
                row.unsupported
            ));
        }
    }
    let t = &report.translation;
    let p = &report.plans;
    out.push_str(&format!(
        "translation cache: {} hits / {} misses / {} evictions ({:.0}% hit rate)\n",
        t.hits,
        t.misses,
        t.evictions,
        t.hit_rate() * 100.0
    ));
    out.push_str(&format!(
        "plan cache: {} hits / {} misses / {} evictions / {} invalidations ({:.0}% hit rate)\n",
        p.hits,
        p.misses,
        p.evictions,
        p.invalidations,
        p.hit_rate() * 100.0
    ));
    out.push_str(
        "(cold = first match of a preference: translate + prepare; warm = cached plans)\n",
    );
    out
}

fn us(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

/// Machine-readable summary of the caching sweep: per-engine avg/max/min
/// microseconds plus cache hit rates (`BENCH_matching.json`).
pub fn bench_matching_json(seed: u64, report: &CachingReport) -> String {
    let mut out = String::new();
    out.push_str("{\n");
    out.push_str(&format!("  \"seed\": {seed},\n"));
    out.push_str(&provenance_json());
    out.push_str("  \"engines\": [\n");
    for (i, row) in report.rows.iter().enumerate() {
        let all = row.all_total();
        let speedup = match row.convert_speedup() {
            Some(s) => format!("{s:.2}"),
            None => "null".to_string(),
        };
        out.push_str(&format!(
            "    {{\"engine\": \"{}\", \"matches\": {}, \"unsupported\": {}, \"failures\": {}, \
             \"avg_us\": {:.2}, \"max_us\": {:.2}, \"min_us\": {:.2}, \
             \"cold_convert_avg_us\": {:.2}, \"warm_convert_avg_us\": {:.2}, \
             \"convert_speedup\": {}}}{}\n",
            row.engine.metric_label(),
            all.count,
            row.unsupported,
            row.failures,
            us(all.avg()),
            us(all.max),
            us(all.min),
            us(row.cold_convert.avg()),
            us(row.warm_convert.avg()),
            speedup,
            if i + 1 < report.rows.len() { "," } else { "" },
        ));
    }
    out.push_str("  ],\n");
    let t = &report.translation;
    out.push_str(&format!(
        "  \"translation_cache\": {{\"hits\": {}, \"misses\": {}, \"evictions\": {}, \"hit_rate\": {:.4}}},\n",
        t.hits, t.misses, t.evictions, t.hit_rate()
    ));
    let p = &report.plans;
    out.push_str(&format!(
        "  \"plan_cache\": {{\"hits\": {}, \"misses\": {}, \"evictions\": {}, \"invalidations\": {}, \"hit_rate\": {:.4}}}\n",
        p.hits, p.misses, p.evictions, p.invalidations, p.hit_rate()
    ));
    out.push_str("}\n");
    out
}

// ----------------------------------------------------------------------
// Bulk (set-at-a-time) corpus matching
// ----------------------------------------------------------------------

/// One engine's timings for deciding a preference against a whole
/// corpus three ways: the per-policy loop, single-threaded
/// [`PolicyServer::match_corpus`], and [`MatchPool::match_corpus`]
/// sharded across threads. Each figure is the best of `runs` passes.
#[derive(Debug, Clone)]
pub struct BulkRow {
    pub engine: EngineKind,
    pub loop_time: Duration,
    pub bulk_time: Duration,
    pub sharded_time: Duration,
    /// The single-threaded bulk sweep re-timed with the columnar batch
    /// executor forced off, for engines whose matching runs minidb SQL
    /// (`None` for the tree-walking engines, where the knob is inert).
    pub row_exec_bulk_time: Option<Duration>,
    /// The columnar-on sweep timed in the same interleaved pass as
    /// [`Self::row_exec_bulk_time`], so the two sides of the
    /// columnar-over-row ratio see the same machine conditions instead
    /// of measurements taken far apart in the run.
    pub columnar_bulk_time: Option<Duration>,
    /// Set when the engine cannot decide the corpus at all (timings are
    /// zero in that case).
    pub error: Option<String>,
}

impl BulkRow {
    /// How much faster one set-at-a-time pass is than the loop.
    pub fn bulk_speedup(&self) -> f64 {
        ratio(self.loop_time, self.bulk_time)
    }

    /// Loop-over-sharded speedup.
    pub fn sharded_speedup(&self) -> f64 {
        ratio(self.loop_time, self.sharded_time)
    }

    /// How much faster the columnar batch executor runs the bulk sweep
    /// than the row-at-a-time interpreter (both sides from the same
    /// interleaved measurement pass).
    pub fn columnar_speedup(&self) -> Option<f64> {
        match (self.row_exec_bulk_time, self.columnar_bulk_time) {
            (Some(row), Some(col)) => Some(ratio(row, col)),
            _ => None,
        }
    }
}

/// The bulk-matching sweep (`BENCH_bulk.json`).
#[derive(Debug, Clone)]
pub struct BulkReport {
    pub seed: u64,
    pub policies: usize,
    pub shards: usize,
    pub rows: Vec<BulkRow>,
}

fn best_of(runs: u32, mut f: impl FnMut() -> Result<()>) -> Result<Duration> {
    let mut best = Duration::MAX;
    for _ in 0..runs.max(1) {
        let t = Instant::now();
        f()?;
        best = best.min(t.elapsed());
    }
    Ok(best)
}

/// Time loop vs bulk vs sharded-bulk corpus matching for every engine
/// over an `n`-policy corpus with the High preference (the one level
/// every engine can decide). The shard count follows the machine's
/// available parallelism, so on a single-core box the sharded pass
/// degenerates to the single-threaded bulk path by design. The SQL
/// engines never shard, so their sharded pass is the pool's one-thread
/// sweep.
pub fn bulk_report(seed: u64, n: usize, runs: u32) -> BulkReport {
    let policies = corpus_n(seed, n);
    let mut server = PolicyServer::new();
    for p in &policies {
        server.install_policy(p).expect("corpus policy installs");
    }
    let shared = SharedServer::new(server);
    let pool = MatchPool::new(&shared);
    let snapshot = shared.snapshot();
    let mut row_engine = snapshot.clone_state();
    row_engine.database_mut().set_options(ExecOptions {
        columnar: false,
        ..ExecOptions::default()
    });
    let names = snapshot.policy_names();
    let ruleset = Sensitivity::High.ruleset();
    let shards = std::thread::available_parallelism()
        .map(|p| p.get())
        .unwrap_or(1);
    let mut rows = Vec::new();
    // The columnar option only changes behavior where matching executes
    // minidb SQL; the tree-walking engines would time the same code
    // twice.
    let sql_backed = |engine: EngineKind| {
        matches!(
            engine,
            EngineKind::Sql | EngineKind::SqlGeneric | EngineKind::XQueryXTable
        )
    };
    for &engine in EngineKind::ALL {
        type BulkTimings = (
            Duration,
            Duration,
            Duration,
            Option<Duration>,
            Option<Duration>,
        );
        let timed = (|| -> Result<BulkTimings> {
            // Warm-up: populate translation and plan caches so every
            // timed pass measures steady state.
            snapshot.match_corpus(&ruleset, engine)?;
            let loop_time = best_of(runs, || {
                for name in &names {
                    snapshot.match_preference(&ruleset, Target::Policy(name), engine)?;
                }
                Ok(())
            })?;
            let bulk_time = best_of(runs, || snapshot.match_corpus(&ruleset, engine).map(|_| ()))?;
            let sharded_time = best_of(runs, || {
                pool.match_corpus(&ruleset, engine, shards).map(|_| ())
            })?;
            let (columnar_bulk_time, row_exec_bulk_time) = if sql_backed(engine) {
                // Interleave the two executors run-for-run (each side
                // keeps its own best-of) so drift on a noisy box can't
                // masquerade as a columnar speedup or regression.
                let mut best_col = Duration::MAX;
                let mut best_row = Duration::MAX;
                for _ in 0..runs.max(1) {
                    let t = Instant::now();
                    snapshot.match_corpus(&ruleset, engine)?;
                    best_col = best_col.min(t.elapsed());
                    let t = Instant::now();
                    row_engine.match_corpus(&ruleset, engine)?;
                    best_row = best_row.min(t.elapsed());
                }
                (Some(best_col), Some(best_row))
            } else {
                (None, None)
            };
            Ok((
                loop_time,
                bulk_time,
                sharded_time,
                columnar_bulk_time,
                row_exec_bulk_time,
            ))
        })();
        rows.push(match timed {
            Ok((loop_time, bulk_time, sharded_time, columnar_bulk_time, row_exec_bulk_time)) => {
                BulkRow {
                    engine,
                    loop_time,
                    bulk_time,
                    sharded_time,
                    row_exec_bulk_time,
                    columnar_bulk_time,
                    error: None,
                }
            }
            Err(e) => BulkRow {
                engine,
                loop_time: Duration::ZERO,
                bulk_time: Duration::ZERO,
                sharded_time: Duration::ZERO,
                row_exec_bulk_time: None,
                columnar_bulk_time: None,
                error: Some(e.to_string()),
            },
        });
    }
    BulkReport {
        seed,
        policies: names.len(),
        shards,
        rows,
    }
}

/// Render the bulk-matching table.
pub fn bulk_table(report: &BulkReport) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "Set-at-a-time bulk matching ({} policies, High preference, {} shard{})\n",
        report.policies,
        report.shards,
        if report.shards == 1 { "" } else { "s" }
    ));
    out.push_str(&format!(
        "{:<22} {:>12} {:>12} {:>12} {:>9} {:>9} {:>9}\n",
        "Engine", "Loop", "Bulk", "Sharded", "Bulk x", "Shard x", "Col x"
    ));
    for row in &report.rows {
        if let Some(e) = &row.error {
            out.push_str(&format!("{:<22} error: {e}\n", row.engine.label()));
            continue;
        }
        let columnar = match row.columnar_speedup() {
            Some(x) => format!("{x:>8.1}x"),
            None => format!("{:>9}", "-"),
        };
        out.push_str(&format!(
            "{:<22} {:>12} {:>12} {:>12} {:>8.1}x {:>8.1}x {columnar}\n",
            row.engine.label(),
            fmt_duration(row.loop_time),
            fmt_duration(row.bulk_time),
            fmt_duration(row.sharded_time),
            row.bulk_speedup(),
            row.sharded_speedup(),
        ));
    }
    out.push_str(
        "(loop = one match_preference per policy; bulk = O(rules) corpus queries; \
         sharded = bulk split across threads, SQL on one thread; Col x = bulk with \
         the columnar batch executor over bulk with the row-at-a-time interpreter)\n",
    );
    out
}

/// Machine-readable bulk summary (`BENCH_bulk.json`).
pub fn bench_bulk_json(report: &BulkReport) -> String {
    let mut out = String::new();
    out.push_str("{\n");
    out.push_str(&format!("  \"seed\": {},\n", report.seed));
    out.push_str(&provenance_json());
    out.push_str(&format!("  \"policies\": {},\n", report.policies));
    out.push_str(&format!("  \"shards\": {},\n", report.shards));
    out.push_str("  \"ruleset\": \"high\",\n");
    out.push_str("  \"engines\": [\n");
    for (i, row) in report.rows.iter().enumerate() {
        let body = if let Some(e) = &row.error {
            format!("\"error\": {:?}", e)
        } else {
            let mut body = format!(
                "\"loop_us\": {:.2}, \"bulk_us\": {:.2}, \"sharded_us\": {:.2}, \
                 \"bulk_speedup\": {:.2}, \"sharded_speedup\": {:.2}",
                us(row.loop_time),
                us(row.bulk_time),
                us(row.sharded_time),
                row.bulk_speedup(),
                row.sharded_speedup(),
            );
            if let (Some(row_us), Some(col_us), Some(speedup)) = (
                row.row_exec_bulk_time,
                row.columnar_bulk_time,
                row.columnar_speedup(),
            ) {
                body.push_str(&format!(
                    ", \"row_exec_bulk_us\": {:.2}, \"columnar_bulk_us\": {:.2}, \
                     \"columnar_speedup\": {:.2}",
                    us(row_us),
                    us(col_us),
                    speedup,
                ));
            }
            body
        };
        out.push_str(&format!(
            "    {{\"engine\": \"{}\", {body}}}{}\n",
            row.engine.metric_label(),
            if i + 1 < report.rows.len() { "," } else { "" },
        ));
    }
    out.push_str("  ]\n");
    out.push_str("}\n");
    out
}

// ----------------------------------------------------------------------
// Cost-based join planning (planned vs FROM-order execution)
// ----------------------------------------------------------------------

/// One query's timings under the cost-based join planner vs literal
/// FROM-order nested loops.
#[derive(Debug, Clone)]
pub struct JoinRow {
    pub label: String,
    pub sql: String,
    /// The planner's `Join order:` line from EXPLAIN.
    pub join_order: String,
    /// The (identical) scalar both executions returned.
    pub result: i64,
    pub planned: Duration,
    pub from_order: Duration,
}

impl JoinRow {
    /// FROM-order over planned time for this query.
    pub fn speedup(&self) -> f64 {
        ratio(self.from_order, self.planned)
    }
}

/// The join-planning sweep (`BENCH_join.json`).
#[derive(Debug, Clone)]
pub struct JoinReport {
    pub seed: u64,
    pub policies: usize,
    pub rows: Vec<JoinRow>,
}

impl JoinReport {
    /// The acceptance metric: total FROM-order time over total planned
    /// time across the query set.
    pub fn overall_speedup(&self) -> f64 {
        let planned: Duration = self.rows.iter().map(|r| r.planned).sum();
        let from_order: Duration = self.rows.iter().map(|r| r.from_order).sum();
        ratio(from_order, planned)
    }
}

/// Time representative multi-table queries over the generic-schema
/// corpus shred with the cost-based planner on and off (literal
/// FROM-order nested loops). The FROM clauses are written in
/// deliberately bad order — biggest table first, exactly what a
/// mechanical translator may emit — so the reorder and the hash-join
/// operator carry the win. Each figure is the best of `runs` passes
/// over warm plan caches.
pub fn join_report(seed: u64, n: usize, runs: u32) -> JoinReport {
    let policies = corpus_n(seed, n);
    let mut server = PolicyServer::new();
    for p in &policies {
        server.install_policy(p).expect("corpus policy installs");
    }
    let planned_db = server.database().clone();
    let mut from_order_db = planned_db.clone();
    from_order_db.set_options(ExecOptions {
        planner: false,
        ..planned_db.options()
    });

    let cases: [(&str, String); 3] = [
        (
            "three-way join, worst FROM order",
            "SELECT COUNT(*) FROM g_data d, g_statement s, g_policy p \
             WHERE d.policy_id = s.policy_id AND d.statement_id = s.statement_id \
             AND s.policy_id = p.policy_id AND p.policy_id = 3"
                .to_string(),
        ),
        (
            "self-join on unindexed ref",
            "SELECT COUNT(*) FROM g_data a, g_data b \
             WHERE b.ref = a.ref AND a.policy_id = 1 AND b.policy_id = 2"
                .to_string(),
        ),
        (
            "category chain, filter last in FROM",
            "SELECT COUNT(*) FROM g_categories c, g_data d \
             WHERE c.policy_id = d.policy_id AND c.statement_id = d.statement_id \
             AND c.data_group_id = d.data_group_id AND c.data_id = d.data_id \
             AND d.ref = '#user.bdate'"
                .to_string(),
        ),
    ];

    let time = |db: &p3p_minidb::Database, sql: &str| -> Duration {
        let mut best = Duration::MAX;
        for _ in 0..runs.max(1) {
            let t = Instant::now();
            db.query(sql).expect("bench query");
            best = best.min(t.elapsed());
        }
        best
    };
    let scalar = |db: &p3p_minidb::Database, sql: &str| -> i64 {
        db.query(sql)
            .expect("bench query")
            .scalar()
            .and_then(p3p_minidb::Value::as_int)
            .expect("COUNT(*) scalar")
    };

    let mut rows = Vec::new();
    for (label, sql) in cases {
        // Warm-up doubles as the correctness check: both executions
        // must produce the same count.
        let result = scalar(&planned_db, &sql);
        assert_eq!(
            result,
            scalar(&from_order_db, &sql),
            "planner changed the result of: {sql}"
        );
        let join_order = p3p_minidb::explain(&planned_db, &sql)
            .ok()
            .and_then(|plan| {
                plan.lines()
                    .find(|l| l.trim_start().starts_with("Join order:"))
                    .map(|l| l.trim().to_string())
            })
            .unwrap_or_default();
        rows.push(JoinRow {
            label: label.to_string(),
            planned: time(&planned_db, &sql),
            from_order: time(&from_order_db, &sql),
            join_order,
            result,
            sql,
        });
    }
    JoinReport {
        seed,
        policies: policies.len(),
        rows,
    }
}

/// Render the join-planning table.
pub fn join_table(report: &JoinReport) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "Cost-based join planning: planned vs FROM-order execution \
         ({} policies, generic schema)\n",
        report.policies
    ));
    out.push_str(&format!(
        "{:<36} {:>12} {:>12} {:>9}\n",
        "Query", "Planned", "FROM order", "Speedup"
    ));
    for row in &report.rows {
        out.push_str(&format!(
            "{:<36} {:>12} {:>12} {:>8.1}x\n",
            row.label,
            fmt_duration(row.planned),
            fmt_duration(row.from_order),
            row.speedup(),
        ));
        if !row.join_order.is_empty() {
            out.push_str(&format!("  {}\n", row.join_order));
        }
    }
    out.push_str(&format!(
        "overall speedup: {:.1}x (planner reorders most-selective-first and \
         hash-joins unindexed equi-join columns)\n",
        report.overall_speedup()
    ));
    out
}

/// Machine-readable join-planning summary (`BENCH_join.json`).
pub fn bench_join_json(report: &JoinReport) -> String {
    let mut out = String::new();
    out.push_str("{\n");
    out.push_str(&format!("  \"seed\": {},\n", report.seed));
    out.push_str(&format!("  \"policies\": {},\n", report.policies));
    out.push_str(&provenance_json());
    out.push_str("  \"queries\": [\n");
    for (i, row) in report.rows.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"label\": {:?}, \"result\": {}, \"planned_us\": {:.2}, \
             \"from_order_us\": {:.2}, \"speedup\": {:.2}, \"join_order\": {:?}}}{}\n",
            row.label,
            row.result,
            us(row.planned),
            us(row.from_order),
            row.speedup(),
            row.join_order,
            if i + 1 < report.rows.len() { "," } else { "" },
        ));
    }
    out.push_str("  ],\n");
    out.push_str(&format!(
        "  \"overall_speedup\": {:.2}\n",
        report.overall_speedup()
    ));
    out.push_str("}\n");
    out
}

// ----------------------------------------------------------------------
// Ablation (§6.3.2 profiling claim)
// ----------------------------------------------------------------------

/// Time the native engine with and without its per-match costs.
pub fn native_ablation(seed: u64, iterations: u32) -> Vec<(String, Duration)> {
    let policies = corpus(seed);
    let suite = preference_suite();
    let configs: [(&str, EngineOptions); 3] = [
        (
            "full (augment + rebuild schema)",
            EngineOptions {
                augment_categories: true,
                rebuild_schema_per_match: true,
            },
        ),
        (
            "augment, cached schema",
            EngineOptions {
                augment_categories: true,
                rebuild_schema_per_match: false,
            },
        ),
        (
            "no augmentation",
            EngineOptions {
                augment_categories: false,
                rebuild_schema_per_match: false,
            },
        ),
    ];
    let xml: Vec<String> = policies.iter().map(Policy::to_xml).collect();
    let mut out = Vec::new();
    for (label, options) in configs {
        let engine = AppelEngine::with_options(options);
        let mut total = Duration::ZERO;
        for _ in 0..iterations {
            for (_, ruleset) in &suite {
                for x in &xml {
                    let t = Instant::now();
                    let _ = engine.evaluate_policy_xml(ruleset, x);
                    total += t.elapsed();
                }
            }
        }
        out.push((label.to_string(), total / iterations.max(1)));
    }
    out
}

/// Regenerate the §6.3.2 profiling table.
pub fn ablation_table(seed: u64) -> String {
    let rows = native_ablation(seed, 3);
    let mut out = String::new();
    out.push_str("Native-engine ablation: where the matching time goes (full suite x corpus)\n");
    for (label, d) in &rows {
        out.push_str(&format!("{:<34} {:>12}\n", label, fmt_duration(*d)));
    }
    if let (Some(full), Some(bare)) = (rows.first(), rows.last()) {
        let share = 1.0 - ratio(bare.1, full.1);
        out.push_str(&format!(
            "augmentation + schema handling account for {:.0}% of native matching cost \
             (paper: \"most of the difference in performance\")\n",
            share * 100.0
        ));
    }
    out
}

// ----------------------------------------------------------------------
// Scaling (extension beyond the paper: latency vs corpus size)
// ----------------------------------------------------------------------

/// One corpus size of the scaling table: mean latencies over the
/// sampled policies plus the SQL engine's executor work per match.
#[derive(Debug, Clone)]
pub struct ScalingRow {
    pub policies: usize,
    pub sql: Duration,
    pub native: Duration,
    pub routing: Duration,
    /// Sampled SQL matches.
    pub sql_matches: u64,
    /// Rows the executor visited across the sampled SQL matches.
    pub sql_rows_scanned: u64,
    /// EXISTS hash-set builds across the sampled SQL matches.
    pub sql_exists_builds: u64,
    /// The same SQL matches under the forced count rule at 8
    /// (decorrelate an EXISTS on its 9th evaluation): mean latency,
    /// rows visited, and builds.
    pub count_rule_sql: Duration,
    pub count_rule_rows_scanned: u64,
    pub count_rule_exists_builds: u64,
}

impl ScalingRow {
    fn per_match(&self, total: u64) -> f64 {
        total as f64 / self.sql_matches.max(1) as f64
    }

    /// Executor rows visited per SQL match (exact for a fixed seed).
    pub fn sql_rows_per_match(&self) -> f64 {
        self.per_match(self.sql_rows_scanned)
    }

    /// EXISTS hash-set builds per SQL match.
    pub fn sql_builds_per_match(&self) -> f64 {
        self.per_match(self.sql_exists_builds)
    }

    /// Rows visited per SQL match under the count rule at 8.
    pub fn count_rule_rows_per_match(&self) -> f64 {
        self.per_match(self.count_rule_rows_scanned)
    }

    /// EXISTS hash-set builds per SQL match under the count rule at 8.
    pub fn count_rule_builds_per_match(&self) -> f64 {
        self.per_match(self.count_rule_exists_builds)
    }
}

/// Corpus sizes of the scaling table: the paper's 29 policies up to the
/// 2,000 the daemon benchmark serves.
pub const SCALING_SIZES: [usize; 4] = [29, 100, 250, 2000];

/// The scaling gate: SQL rows per match at the largest corpus may be at
/// most this multiple of the figure at the smallest.
pub const SCALING_MAX_ROWS_GROWTH: f64 = 2.0;

/// Measure how matching and URI routing scale with the number of
/// installed policies — the growth curve behind the paper's claim that
/// database technology carries P3P to real deployments. A SQL match
/// should touch only the matched policy's rows: `applicablePolicy()`
/// narrows the outer query to one policy and every nested EXISTS is an
/// index probe keyed by its parent's id, so rows per match must not grow
/// with the corpus. Every SQL match also runs under the forced count
/// rule at 8, the executor's earlier default, for comparison. The native
/// engine is per-policy to begin with; the routing query scans every
/// POLICY-REF, so it grows with the corpus.
pub fn scaling_rows(seed: u64, sizes: &[usize]) -> Vec<ScalingRow> {
    let ruleset = Sensitivity::High.ruleset();
    let mut out = Vec::new();
    for &n in sizes {
        let policies = corpus_n(seed, n);
        let mut server = PolicyServer::new();
        for p in &policies {
            server.install_policy(p).expect("installs");
        }
        let mut file = p3p_policy::reference::ReferenceFile::default();
        for p in &policies {
            let mut r = p3p_policy::reference::PolicyRef::new(format!("#{}", p.name));
            r.includes.push(format!("/site/{}/*", p.name));
            file.policy_refs.push(r);
        }
        server.install_reference(&file).expect("reference installs");
        // The same corpus under the forced count rule at 8.
        let mut count_rule_server = server.clone_state();
        count_rule_server.database_mut().set_options(ExecOptions {
            decorrelate_after: Some(8),
            ..ExecOptions::default()
        });
        // Sample ten policies spread across the corpus.
        let names = server.policy_names();
        let sample: Vec<&String> = names.iter().step_by((names.len() / 10).max(1)).collect();
        let mut sql = Sample::default();
        let mut native = Sample::default();
        let mut routing = Sample::default();
        let mut count_rule = Sample::default();
        let (mut rows_scanned, mut exists_builds) = (0, 0);
        let (mut count_rule_rows, mut count_rule_builds) = (0, 0);
        for name in &sample {
            let t = Instant::now();
            let outcome = server
                .match_preference(&ruleset, Target::Policy(name), EngineKind::Sql)
                .expect("sql match");
            sql.push(t.elapsed());
            rows_scanned += outcome.db_stats.rows_scanned;
            exists_builds += outcome.db_stats.exists_builds;
            let t = Instant::now();
            let outcome = count_rule_server
                .match_preference(&ruleset, Target::Policy(name), EngineKind::Sql)
                .expect("sql match under the count rule");
            count_rule.push(t.elapsed());
            count_rule_rows += outcome.db_stats.rows_scanned;
            count_rule_builds += outcome.db_stats.exists_builds;
            let t = Instant::now();
            server
                .match_preference(&ruleset, Target::Policy(name), EngineKind::Native)
                .expect("native match");
            native.push(t.elapsed());
            let uri = format!("/site/{name}/index.html");
            let t = Instant::now();
            server.resolve(Target::Uri(&uri)).expect("routes");
            routing.push(t.elapsed());
        }
        out.push(ScalingRow {
            policies: n,
            sql: sql.avg(),
            native: native.avg(),
            routing: routing.avg(),
            sql_matches: u64::from(sql.count),
            sql_rows_scanned: rows_scanned,
            sql_exists_builds: exists_builds,
            count_rule_sql: count_rule.avg(),
            count_rule_rows_scanned: count_rule_rows,
            count_rule_exists_builds: count_rule_builds,
        });
    }
    out
}

/// SQL rows per match at the largest corpus over the smallest — the
/// quantity the scaling gate bounds by [`SCALING_MAX_ROWS_GROWTH`].
pub fn scaling_rows_growth(rows: &[ScalingRow]) -> f64 {
    match (rows.first(), rows.last()) {
        (Some(first), Some(last)) => {
            last.sql_rows_per_match() / first.sql_rows_per_match().max(1.0)
        }
        _ => 1.0,
    }
}

/// Render the scaling table.
pub fn scaling_table(rows: &[ScalingRow]) -> String {
    let mut out = String::new();
    out.push_str("Scaling (extension): matching latency vs installed policies\n");
    out.push_str(&format!(
        "{:>8} {:>11} {:>10} {:>8} {:>11} {:>10} {:>10} {:>10} {:>8}\n",
        "policies",
        "SQL match",
        "rows/match",
        "builds",
        "count rule",
        "rows/match",
        "builds",
        "native",
        "routing"
    ));
    for row in rows {
        out.push_str(&format!(
            "{:>8} {:>11} {:>10.1} {:>8.2} {:>11} {:>10.1} {:>10.2} {:>10} {:>8}\n",
            row.policies,
            fmt_duration(row.sql),
            row.sql_rows_per_match(),
            row.sql_builds_per_match(),
            fmt_duration(row.count_rule_sql),
            row.count_rule_rows_per_match(),
            row.count_rule_builds_per_match(),
            fmt_duration(row.native),
            fmt_duration(row.routing),
        ));
    }
    out.push_str(&format!(
        "(SQL columns: break-even rule; count rule: decorrelate on the 9th EXISTS evaluation. \
         SQL rows per match grow {:.2}x from the smallest to the largest corpus; gate {:.1}x)\n",
        scaling_rows_growth(rows),
        SCALING_MAX_ROWS_GROWTH
    ));
    out
}

/// One corpus size of the served-install gate: what `POST /install`
/// costs the daemon, an install plus [`MatchPool::refresh`] while the
/// pool's snapshot is alive.
#[derive(Debug, Clone)]
pub struct ServedInstallRow {
    pub policies: usize,
    pub installs: usize,
    /// Mean of install plus refresh over the fresh policies.
    pub mean: Duration,
}

/// Corpus sizes of the served-install gate.
pub const SERVED_INSTALL_SIZES: [usize; 2] = [2000, 20000];

/// Fresh policies installed per size.
pub const SERVED_INSTALLS: usize = 10;

/// The served-install gate: the mean at the largest corpus may be at
/// most this multiple of the mean at the smallest.
pub const SERVED_INSTALL_MAX_GROWTH: f64 = 2.0;

/// Measure served installs: build each corpus, pin a [`MatchPool`]
/// snapshot, then install `installs` fresh `gen_policy` policies from
/// their XML, refreshing the pool after each, as the daemon does.
/// Copy-on-write at chunk and trie-node grain keeps the cost flat in
/// the corpus size.
pub fn served_install_rows(seed: u64, sizes: &[usize], installs: usize) -> Vec<ServedInstallRow> {
    use p3p_workload::gen::{gen_policy, GenConfig};
    let mut out = Vec::new();
    for &n in sizes {
        let mut server = PolicyServer::new();
        for p in corpus_n(seed, n) {
            server.install_policy(&p).expect("installs");
        }
        let shared = SharedServer::new(server);
        let pool = MatchPool::new(&shared);
        let mut rng = p3p_workload::rng::SmallRng::seed_from_u64(seed ^ n as u64);
        let mut total = Duration::ZERO;
        for i in 0..installs {
            let name = format!("served-install-{n}-{i}");
            let xml = gen_policy(&mut rng, &name, &GenConfig::default()).to_xml();
            let t = Instant::now();
            shared
                .with(|s| s.install_policy_xml(&xml))
                .expect("fresh policy installs");
            pool.refresh(&shared);
            total += t.elapsed();
        }
        out.push(ServedInstallRow {
            policies: n,
            installs,
            mean: total / installs.max(1) as u32,
        });
    }
    out
}

/// Served-install mean at the largest corpus over the smallest — the
/// quantity the gate bounds by [`SERVED_INSTALL_MAX_GROWTH`].
pub fn served_install_growth(rows: &[ServedInstallRow]) -> f64 {
    match (rows.first(), rows.last()) {
        (Some(first), Some(last)) => last.mean.as_secs_f64() / first.mean.as_secs_f64().max(1e-9),
        _ => 1.0,
    }
}

/// Render the served-install rows.
pub fn served_install_table(rows: &[ServedInstallRow]) -> String {
    let mut out = String::new();
    out.push_str("Served install: install + MatchPool::refresh with the pool's snapshot alive\n");
    out.push_str(&format!(
        "{:>8} {:>9} {:>12}\n",
        "policies", "installs", "mean"
    ));
    for row in rows {
        out.push_str(&format!(
            "{:>8} {:>9} {:>12}\n",
            row.policies,
            row.installs,
            fmt_duration(row.mean)
        ));
    }
    out.push_str(&format!(
        "(the mean grows {:.2}x from the smallest to the largest corpus; gate {:.1}x)\n",
        served_install_growth(rows),
        SERVED_INSTALL_MAX_GROWTH
    ));
    out
}

/// The revision of the checkout this binary was built from, suffixed
/// `-dirty` when it has uncommitted changes, or `"unknown"` when that
/// checkout is not a git work tree (git is kept from searching the
/// directories above it).
pub fn git_rev() -> String {
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let root = root.canonicalize().unwrap_or(root);
    let mut git = std::process::Command::new("git");
    git.arg("-C")
        .arg(&root)
        .args(["describe", "--always", "--dirty", "--abbrev=12"]);
    if let Some(parent) = root.parent() {
        git.env("GIT_CEILING_DIRECTORIES", parent);
    }
    git.output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

/// The `git_rev` and `parallelism` lines every regenerated BENCH file
/// opens with, so a committed figure names the build and the machine
/// width it came from.
fn provenance_json() -> String {
    format!(
        "  \"git_rev\": \"{}\",\n  \"parallelism\": {},\n",
        git_rev(),
        std::thread::available_parallelism().map_or(1, |p| p.get())
    )
}

/// `BENCH_scaling.json`: per-size latencies and SQL executor work per
/// match, the served-install means, with provenance and both gates'
/// verdicts.
pub fn bench_scaling_json(seed: u64, rows: &[ScalingRow], served: &[ServedInstallRow]) -> String {
    let growth = scaling_rows_growth(rows);
    let mut out = String::new();
    out.push_str("{\n");
    out.push_str(&format!("  \"seed\": {seed},\n"));
    out.push_str("  \"ruleset\": \"high\",\n");
    out.push_str(&provenance_json());
    out.push_str("  \"sizes\": [\n");
    for (i, row) in rows.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"policies\": {}, \"sql_match_us\": {:.2}, \"native_match_us\": {:.2}, \
             \"routing_us\": {:.2}, \"sql_matches\": {}, \"sql_rows_per_match\": {:.1}, \
             \"sql_exists_builds_per_match\": {:.2}, \"count_rule_sql_match_us\": {:.2}, \
             \"count_rule_rows_per_match\": {:.1}, \"count_rule_exists_builds_per_match\": \
             {:.2}}}{}\n",
            row.policies,
            us(row.sql),
            us(row.native),
            us(row.routing),
            row.sql_matches,
            row.sql_rows_per_match(),
            row.sql_builds_per_match(),
            us(row.count_rule_sql),
            row.count_rule_rows_per_match(),
            row.count_rule_builds_per_match(),
            if i + 1 < rows.len() { "," } else { "" },
        ));
    }
    out.push_str("  ],\n");
    out.push_str(&format!("  \"sql_rows_growth\": {growth:.3},\n"));
    out.push_str(&format!(
        "  \"sql_rows_growth_max\": {SCALING_MAX_ROWS_GROWTH:.1},\n"
    ));
    out.push_str(&format!(
        "  \"rows_gate_passed\": {},\n",
        growth <= SCALING_MAX_ROWS_GROWTH
    ));
    out.push_str("  \"served_install\": [\n");
    for (i, row) in served.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"policies\": {}, \"installs\": {}, \"mean_us\": {:.1}}}{}\n",
            row.policies,
            row.installs,
            us(row.mean),
            if i + 1 < served.len() { "," } else { "" },
        ));
    }
    let served_growth = served_install_growth(served);
    out.push_str("  ],\n");
    out.push_str(&format!(
        "  \"served_install_growth\": {served_growth:.3},\n"
    ));
    out.push_str(&format!(
        "  \"served_install_growth_max\": {SERVED_INSTALL_MAX_GROWTH:.1},\n"
    ));
    out.push_str(&format!(
        "  \"served_install_gate_passed\": {}\n",
        served_growth <= SERVED_INSTALL_MAX_GROWTH
    ));
    out.push_str("}\n");
    out
}

/// Match a handful of policies with *every* engine — including the two
/// the paper's figures skip (generic-schema SQL and XQuery on the XML
/// store) — so the telemetry snapshot carries a populated
/// `p3p_match_latency_us` histogram per [`EngineKind`], then render the
/// per-engine quantiles from the registry. XTABLE failures on exact
/// connectives are expected and tolerated.
pub fn telemetry_table(seed: u64) -> String {
    let server = setup_server(seed);
    let names = server.policy_names();
    let ruleset = Sensitivity::High.ruleset();
    let mut out = String::new();
    out.push_str("Telemetry: per-engine match latency (5 policies, High preference)\n");
    out.push_str(&format!(
        "{:<16} {:>8} {:>10} {:>10} {:>10}\n",
        "engine", "matches", "p50 µs", "p90 µs", "p99 µs"
    ));
    for engine in EngineKind::ALL {
        for name in names.iter().take(5) {
            let _ = server.match_preference(&ruleset, Target::Policy(name), *engine);
        }
        let h = p3p_telemetry::metrics::histogram_with(
            "p3p_match_latency_us",
            &[("engine", engine.metric_label())],
        );
        out.push_str(&format!(
            "{:<16} {:>8} {:>10} {:>10} {:>10}\n",
            engine.metric_label(),
            h.count(),
            h.p50(),
            h.p90(),
            h.p99()
        ));
    }
    out
}

/// Render the §7 minimal-subset analysis over the JRC suite.
pub fn subset_table() -> String {
    let prefs: Vec<Ruleset> = Sensitivity::ALL.iter().map(|s| s.ruleset()).collect();
    let mut out = String::new();
    out.push_str("Minimal query-language subsets (paper section 7 future work)\n");
    match p3p_server::subset::sql_subset(&prefs, false) {
        Ok(f) => out.push_str(&format!("SQL (optimized schema): {}\n", f.summary())),
        Err(e) => out.push_str(&format!("SQL analysis failed: {e}\n")),
    }
    match p3p_server::subset::sql_subset(&prefs, true) {
        Ok(f) => out.push_str(&format!("SQL (generic schema):   {}\n", f.summary())),
        Err(e) => out.push_str(&format!("SQL analysis failed: {e}\n")),
    }
    match p3p_server::subset::xquery_subset(&prefs) {
        Ok(f) => out.push_str(&format!(
            "XQuery: {} queries; {} steps, {} attribute tests, and {}, or {}, not {}, exactness {}, max depth {}\n",
            f.queries, f.steps, f.attr_tests, f.and, f.or, f.not, f.exactness, f.max_depth
        )),
        Err(e) => out.push_str(&format!("XQuery analysis failed: {e}\n")),
    }
    out
}

// ----------------------------------------------------------------------
// Differential fuzzing (the correctness gate behind the numbers)
// ----------------------------------------------------------------------

/// One differential-fuzz sweep: every generated case matched on every
/// evaluable engine path and compared against the native reference.
#[derive(Debug, Clone)]
pub struct FuzzReport {
    pub seed: u64,
    /// Engines in the comparison matrix.
    pub engines: usize,
    pub stats: p3p_fuzz::RunStats,
}

/// Run the differential fuzzer for `cases` seeded cases, with the
/// minidb metamorphic checks on every fifth case.
pub fn fuzz_report(seed: u64, cases: usize) -> FuzzReport {
    let (stats, _failure) = p3p_fuzz::run(seed, cases, 5);
    FuzzReport {
        seed,
        engines: EngineKind::ALL.len(),
        stats,
    }
}

/// Render the differential-fuzzing table.
pub fn fuzz_table(report: &FuzzReport) -> String {
    let s = &report.stats;
    let mut out = String::new();
    out.push_str(&format!(
        "Differential fuzzing (seed {}, {} engines, native loop as reference)\n",
        report.seed, report.engines
    ));
    out.push_str(&format!(
        "{:<26} {:>10}\n{:<26} {:>10}\n{:<26} {:>10}\n{:<26} {:>10}\n{:<26} {:>10}\n{:<26} {:>10}\n",
        "Cases",
        s.cases,
        "Verdict paths compared",
        s.paths_compared,
        "Unsupported (skipped)",
        s.paths_unsupported,
        "Verdict divergences",
        s.divergences,
        "Metamorphic queries",
        s.metamorphic_queries,
        "Row mismatches",
        s.metamorphic_mismatches,
    ));
    out.push_str(&format!(
        "{:<26} {:>10}\n{:<26} {:>10}\n{:<26} {:>10}\n",
        "Churn checks",
        s.churn_checks,
        "Churn matches",
        s.churn_matches,
        "Churn divergences",
        s.churn_divergences,
    ));
    out.push_str(
        "(paths = per-policy verdicts from engine loops, bulk folds, shards, \
         and execution-knob variants; churn = update-interleaved snapshot-isolation \
         checks; divergences and mismatches must be 0)\n",
    );
    out
}

/// Machine-readable fuzz summary (`BENCH_fuzz.json`).
pub fn bench_fuzz_json(report: &FuzzReport) -> String {
    let s = &report.stats;
    format!(
        "{{\n  \"seed\": {},\n{}  \"cases\": {},\n  \"engines\": {},\n  \
         \"paths_compared\": {},\n  \"paths_unsupported\": {},\n  \
         \"divergences\": {},\n  \"metamorphic_queries\": {},\n  \
         \"metamorphic_mismatches\": {},\n  \"churn_checks\": {},\n  \
         \"churn_matches\": {},\n  \"churn_divergences\": {}\n}}\n",
        report.seed,
        provenance_json(),
        s.cases,
        report.engines,
        s.paths_compared,
        s.paths_unsupported,
        s.divergences,
        s.metamorphic_queries,
        s.metamorphic_mismatches,
        s.churn_checks,
        s.churn_matches,
        s.churn_divergences,
    )
}

// ----------------------------------------------------------------------
// Live policy churn — the memoized verdict cache under update traffic
// ----------------------------------------------------------------------

/// The churn sweep (`BENCH_churn.json`): a seeded install/replace/
/// retract stream interleaved with matching, driven against the
/// optimized-SQL engine with the memoized verdict cache enabled. The
/// report splits match latency into cache hits and engine-computed
/// misses — the paper's "policies will not stay static forever" (§4.2)
/// traffic shape, where between two updates every repeated
/// (preference, policy) pair is pure lookup.
#[derive(Debug, Clone)]
pub struct ChurnReport {
    pub seed: u64,
    pub initial_policies: usize,
    pub ops: usize,
    pub churn_rate: f64,
    /// Catalog updates applied (installs + replaces + retracts).
    pub updates: usize,
    /// Match operations evaluated.
    pub matches: usize,
    /// Matches answered straight from the verdict cache.
    pub hits: usize,
    /// Matches that reached the engine.
    pub misses: usize,
    /// Median convert+query latency of a cache hit.
    pub cached_p50: Duration,
    /// Median convert+query latency of an engine-computed match.
    pub uncached_p50: Duration,
    /// Catalog epoch after the stream (== installs + removals).
    pub final_epoch: u64,
    /// Cache counters at the end of the stream.
    pub cache: p3p_minidb::CacheStats,
    /// Verdicts the cache holds at the end of the stream.
    pub cache_entries: usize,
}

impl ChurnReport {
    /// Hits over all match operations.
    pub fn hit_rate(&self) -> f64 {
        if self.matches == 0 {
            0.0
        } else {
            self.hits as f64 / self.matches as f64
        }
    }

    /// How many times faster the median cache hit answers than the
    /// median engine-computed match.
    pub fn speedup(&self) -> f64 {
        let cached = self.cached_p50.as_secs_f64();
        if cached == 0.0 {
            f64::INFINITY
        } else {
            self.uncached_p50.as_secs_f64() / cached
        }
    }
}

fn p50(samples: &mut [Duration]) -> Duration {
    if samples.is_empty() {
        return Duration::ZERO;
    }
    samples.sort_unstable();
    samples[samples.len() / 2]
}

/// Run the churn sweep: `ops` operations at `churn_rate` update
/// probability over a 40-policy corpus and five preference rulesets,
/// with an 8192-entry verdict cache.
pub fn churn_report(seed: u64, ops: usize, churn_rate: f64) -> ChurnReport {
    use p3p_workload::gen::{gen_churn_stream, ChurnConfig, ChurnOp, GenConfig};
    use p3p_workload::rng::SmallRng;
    let cfg = ChurnConfig {
        initial_policies: 40,
        ops,
        churn_rate,
        rulesets: 5,
        gen: GenConfig {
            // Keep every generated preference translatable on the SQL
            // engine: structural/vocab exactness would make matches
            // decline with `Unsupported` instead of measuring latency.
            exact_prob: 0.0,
            structural_exact_prob: 0.0,
            ..GenConfig::default()
        },
    };
    let mut rng = SmallRng::seed_from_u64(seed);
    let stream = gen_churn_stream(&mut rng, &cfg);
    let mut server = PolicyServer::new();
    server.set_verdict_cache_capacity(8192);
    for p in &stream.initial {
        server.install_policy(p).expect("churn corpus installs");
    }
    let mut cached: Vec<Duration> = Vec::new();
    let mut uncached: Vec<Duration> = Vec::new();
    let mut updates = 0usize;
    for op in &stream.ops {
        match op {
            ChurnOp::Install(p) => {
                server.install_policy(p).expect("churn install");
                updates += 1;
            }
            ChurnOp::Replace(p) => {
                server.remove_policy(&p.name).expect("churn replace-remove");
                server.install_policy(p).expect("churn replace-install");
                updates += 1;
            }
            ChurnOp::Retract(name) => {
                server.remove_policy(name).expect("churn retract");
                updates += 1;
            }
            ChurnOp::Match { policy, ruleset } => {
                let o = server
                    .match_preference(
                        &stream.rulesets[*ruleset],
                        Target::Policy(policy),
                        EngineKind::Sql,
                    )
                    .expect("churn preferences translate on the SQL engine");
                // Phase times, not wall clock: convert+query is the
                // engine-visible cost, excluding metrics bookkeeping —
                // the same accounting the caching table uses.
                let latency = o.convert + o.query;
                if o.verdict_cached {
                    cached.push(latency);
                } else {
                    uncached.push(latency);
                }
            }
        }
    }
    ChurnReport {
        seed,
        initial_policies: stream.initial.len(),
        ops: stream.ops.len(),
        churn_rate,
        updates,
        matches: cached.len() + uncached.len(),
        hits: cached.len(),
        misses: uncached.len(),
        cached_p50: p50(&mut cached),
        uncached_p50: p50(&mut uncached),
        final_epoch: server.catalog_epoch(),
        cache: server.verdict_cache_stats(),
        cache_entries: server.verdict_cache_len(),
    }
}

/// Render the churn table.
pub fn churn_table(report: &ChurnReport) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "Live policy churn (seed {}, {} initial policies, {} ops at {:.1}% churn, SQL engine)\n",
        report.seed,
        report.initial_policies,
        report.ops,
        report.churn_rate * 100.0
    ));
    out.push_str(&format!(
        "{:<28} {:>12}\n{:<28} {:>12}\n{:<28} {:>12}\n{:<28} {:>12}\n{:<28} {:>12.4}\n",
        "Catalog updates",
        report.updates,
        "Matches",
        report.matches,
        "Verdict-cache hits",
        report.hits,
        "Engine-computed",
        report.misses,
        "Hit rate",
        report.hit_rate(),
    ));
    out.push_str(&format!(
        "{:<28} {:>12}\n{:<28} {:>12}\n{:<28} {:>11.1}x\n",
        "Cached p50",
        fmt_duration(report.cached_p50),
        "Uncached p50",
        fmt_duration(report.uncached_p50),
        "Cached-hit speedup",
        report.speedup(),
    ));
    out.push_str(&format!(
        "{:<28} {:>12}\n{:<28} {:>12}\n{:<28} {:>12}\n",
        "Final catalog epoch",
        report.final_epoch,
        "Cache entries",
        report.cache_entries,
        "Precise invalidations",
        report.cache.invalidations,
    ));
    out.push_str(
        "(hits answer without touching minidb; re-shredding a policy evicts only \
         that policy's entries, so the hit rate survives live updates)\n",
    );
    out
}

/// Machine-readable churn summary (`BENCH_churn.json`).
pub fn bench_churn_json(report: &ChurnReport) -> String {
    format!(
        "{{\n  \"seed\": {},\n{}  \"initial_policies\": {},\n  \"ops\": {},\n  \
         \"churn_rate\": {},\n  \"updates\": {},\n  \"matches\": {},\n  \
         \"hits\": {},\n  \"misses\": {},\n  \"hit_rate\": {:.4},\n  \
         \"cached_p50_us\": {:.3},\n  \"uncached_p50_us\": {:.3},\n  \
         \"speedup\": {:.2},\n  \"final_epoch\": {},\n  \"cache_entries\": {},\n  \
         \"cache_evictions\": {},\n  \"cache_invalidations\": {}\n}}\n",
        report.seed,
        provenance_json(),
        report.initial_policies,
        report.ops,
        report.churn_rate,
        report.updates,
        report.matches,
        report.hits,
        report.misses,
        report.hit_rate(),
        report.cached_p50.as_nanos() as f64 / 1e3,
        report.uncached_p50.as_nanos() as f64 / 1e3,
        report.speedup(),
        report.final_epoch,
        report.cache_entries,
        report.cache.evictions,
        report.cache.invalidations,
    )
}

// ----------------------------------------------------------------------
// Execution profiling (EXPLAIN ANALYZE) — breakdown and overhead
// ----------------------------------------------------------------------

/// Per-operator totals accumulated by the profiled sweep, read off the
/// `p3p_op_*` histograms as deltas (so earlier experiments in the same
/// process do not leak into the breakdown).
#[derive(Debug, Clone)]
pub struct ProfileOpRow {
    pub op: &'static str,
    /// Operator invocations observed (one histogram sample per plan
    /// node per profiled execution).
    pub calls: u64,
    /// Cumulative self time across those invocations.
    pub total_us: u64,
    /// Rows produced across those invocations.
    pub rows: u64,
}

impl ProfileOpRow {
    /// Mean self time per observed plan node.
    pub fn avg_us(&self) -> f64 {
        if self.calls == 0 {
            0.0
        } else {
            self.total_us as f64 / self.calls as f64
        }
    }
}

/// The profiling sweep (`BENCH_profile.json`): a per-operator self-time
/// breakdown of a profiled corpus match plus the measured cost of the
/// profiler itself — both the profiler-off A/A control (the CI gate)
/// and the informational profiler-on slowdown.
#[derive(Debug, Clone)]
pub struct ProfileReport {
    pub seed: u64,
    pub policies: usize,
    /// Analyzed plans attached to sampled match outcomes while
    /// profiling was on.
    pub analyzed_plans: usize,
    pub ops: Vec<ProfileOpRow>,
    /// Best-of-runs corpus sweep with profiling off (the baseline).
    pub baseline: Duration,
    /// A second profiler-off pass: the profiler is compiled in but
    /// disabled, so this must sit within noise of the baseline.
    pub off_recheck: Duration,
    /// Best-of-runs with per-operator profiling enabled.
    pub profiled: Duration,
}

impl ProfileReport {
    /// Profiler-off A/A ratio — the overhead the 1.1x CI gate checks.
    pub fn off_overhead(&self) -> f64 {
        ratio(self.off_recheck, self.baseline)
    }

    /// Profiler-on slowdown over the baseline (informational: the
    /// price of actually collecting a profile).
    pub fn on_overhead(&self) -> f64 {
        ratio(self.profiled, self.baseline)
    }
}

/// Run the profiling sweep: time the optimized-SQL corpus match with
/// profiling off (twice — baseline and A/A control), then with
/// profiling on, and read the per-operator breakdown the profiled
/// passes fed into the `p3p_op_*` histograms.
pub fn profile_report(seed: u64, runs: u32) -> ProfileReport {
    let mut server = setup_server(seed);
    let names = server.policy_names();
    let ruleset = Sensitivity::High.ruleset();
    // Warm the translation and plan caches so every timed pass is
    // steady state.
    server
        .match_corpus(&ruleset, EngineKind::Sql)
        .expect("warm-up corpus sweep");

    let sweep = |s: &PolicyServer| s.match_corpus(&ruleset, EngineKind::Sql).map(|_| ());
    let baseline = best_of(runs, || sweep(&server)).expect("baseline sweep");
    let off_recheck = best_of(runs, || sweep(&server)).expect("profiler-off recheck");

    // Snapshot the histograms, then run profiled: the breakdown is the
    // delta, untouched by whatever ran earlier in this process.
    let before: Vec<(u64, u64, u64)> = p3p_minidb::OP_KINDS
        .iter()
        .map(|&op| {
            let time = p3p_telemetry::metrics::histogram_with("p3p_op_time_us", &[("op", op)]);
            let rows = p3p_telemetry::metrics::histogram_with("p3p_op_rows", &[("op", op)]);
            (time.count(), time.sum(), rows.sum())
        })
        .collect();

    server.database_mut().set_options(ExecOptions {
        profile: true,
        ..ExecOptions::default()
    });
    let profiled = best_of(runs, || sweep(&server)).expect("profiled sweep");
    // Sample a few per-policy matches so the analyzed plans attached to
    // match outcomes are exercised too.
    let mut analyzed_plans = 0;
    for name in names.iter().take(5) {
        if let Ok(outcome) =
            server.match_preference(&ruleset, Target::Policy(name), EngineKind::Sql)
        {
            analyzed_plans += outcome.analyzed.len();
        }
    }

    let ops = p3p_minidb::OP_KINDS
        .iter()
        .zip(&before)
        .filter_map(|(&op, &(count0, sum0, rows0))| {
            let time = p3p_telemetry::metrics::histogram_with("p3p_op_time_us", &[("op", op)]);
            let rows = p3p_telemetry::metrics::histogram_with("p3p_op_rows", &[("op", op)]);
            let calls = time.count().saturating_sub(count0);
            (calls > 0).then(|| ProfileOpRow {
                op,
                calls,
                total_us: time.sum().saturating_sub(sum0),
                rows: rows.sum().saturating_sub(rows0),
            })
        })
        .collect();

    ProfileReport {
        seed,
        policies: names.len(),
        analyzed_plans,
        ops,
        baseline,
        off_recheck,
        profiled,
    }
}

/// Render the profiling table.
pub fn profile_table(report: &ProfileReport) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "Execution profiling (seed {}, {} policies, High preference, optimized SQL)\n",
        report.seed, report.policies
    ));
    out.push_str(&format!(
        "{:<16} {:>10} {:>12} {:>10} {:>12}\n",
        "operator", "calls", "total µs", "avg µs", "rows"
    ));
    for row in &report.ops {
        out.push_str(&format!(
            "{:<16} {:>10} {:>12} {:>10.2} {:>12}\n",
            row.op,
            row.calls,
            row.total_us,
            row.avg_us(),
            row.rows
        ));
    }
    out.push_str(&format!(
        "corpus sweep: off {} | off recheck {} ({:.2}x, gate 1.10x) | on {} ({:.2}x)\n",
        fmt_duration(report.baseline),
        fmt_duration(report.off_recheck),
        report.off_overhead(),
        fmt_duration(report.profiled),
        report.on_overhead(),
    ));
    out.push_str(&format!(
        "({} analyzed plans attached to sampled match outcomes; profiling is off by default)\n",
        report.analyzed_plans
    ));
    out
}

/// Machine-readable profiling summary (`BENCH_profile.json`).
pub fn bench_profile_json(report: &ProfileReport) -> String {
    let mut out = String::new();
    out.push_str("{\n");
    out.push_str(&format!("  \"seed\": {},\n", report.seed));
    out.push_str(&format!("  \"policies\": {},\n", report.policies));
    out.push_str(&format!(
        "  \"analyzed_plans\": {},\n",
        report.analyzed_plans
    ));
    out.push_str(&provenance_json());
    out.push_str("  \"ops\": [\n");
    for (i, row) in report.ops.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"op\": \"{}\", \"calls\": {}, \"total_us\": {}, \"avg_us\": {:.2}, \
             \"rows\": {}}}{}\n",
            row.op,
            row.calls,
            row.total_us,
            row.avg_us(),
            row.rows,
            if i + 1 < report.ops.len() { "," } else { "" },
        ));
    }
    out.push_str("  ],\n");
    out.push_str(&format!(
        "  \"baseline_us\": {:.2},\n  \"off_recheck_us\": {:.2},\n  \"profiled_us\": {:.2},\n",
        us(report.baseline),
        us(report.off_recheck),
        us(report.profiled),
    ));
    out.push_str(&format!(
        "  \"off_overhead\": {:.4},\n  \"profiled_overhead\": {:.4}\n",
        report.off_overhead(),
        report.on_overhead(),
    ));
    out.push_str("}\n");
    out
}

/// Record a full sharded `match_corpus` sweep as spans and render the
/// trace buffer as Chrome trace-event JSON — the payload
/// `repro --trace-out` writes, loadable in `chrome://tracing` or
/// Perfetto. The sweep runs the XQuery/XTABLE engine: it still shards
/// (its sweep is a per-policy loop) and runs minidb per policy, so the
/// trace shows shard lanes down to the executor.
pub fn export_trace(seed: u64) -> String {
    p3p_telemetry::span::set_capacity(65_536);
    p3p_telemetry::span::clear();
    let shared = SharedServer::new(setup_server(seed));
    let pool = MatchPool::new(&shared);
    let ruleset = Sensitivity::High.ruleset();
    // At least two shards so the export always shows the per-shard
    // lanes, even on a single-core box.
    let shards = std::thread::available_parallelism()
        .map(|p| p.get())
        .unwrap_or(1)
        .max(2);
    pool.match_corpus(&ruleset, EngineKind::XQueryXTable, shards)
        .expect("trace sweep");
    p3p_telemetry::chrome_trace_json(&p3p_telemetry::span::recent())
}

/// Error type re-exported for bin users.
pub type Result<T> = std::result::Result<T, ServerError>;

#[cfg(test)]
mod tests {
    use super::*;
    use p3p_appel::model::Behavior;

    #[test]
    fn setup_installs_whole_corpus_with_reference() {
        let server = setup_server(DEFAULT_SEED);
        assert_eq!(server.policy_names().len(), 29);
        assert!(server
            .resolve(Target::Uri("/site/acme-books/checkout"))
            .is_ok());
    }

    #[test]
    fn sample_statistics() {
        let mut s = Sample::default();
        s.push(Duration::from_micros(10));
        s.push(Duration::from_micros(30));
        assert_eq!(s.avg(), Duration::from_micros(20));
        assert_eq!(s.max, Duration::from_micros(30));
        assert_eq!(s.min, Duration::from_micros(10));
    }

    #[test]
    fn fmt_duration_units() {
        assert_eq!(fmt_duration(Duration::from_nanos(1_500)), "1.5 µs");
        assert_eq!(fmt_duration(Duration::from_micros(2_500)), "2.50 ms");
        assert_eq!(fmt_duration(Duration::from_millis(1_500)), "1.50 s");
    }

    #[test]
    fn matrix_engines_agree_where_all_succeed() {
        let server = setup_server(DEFAULT_SEED);
        let suite = preference_suite();
        let names = server.policy_names();
        // Sample a few policies across the whole suite.
        for name in names.iter().take(5) {
            for (level, ruleset) in &suite {
                let reference = server
                    .match_preference(ruleset, Target::Policy(name), EngineKind::Native)
                    .unwrap();
                for engine in [
                    EngineKind::Sql,
                    EngineKind::SqlGeneric,
                    EngineKind::XQueryNative,
                ] {
                    let got = server
                        .match_preference(ruleset, Target::Policy(name), engine)
                        .unwrap();
                    assert_eq!(
                        got.verdict, reference.verdict,
                        "{engine:?} vs native on {name} at {level:?}"
                    );
                }
                match server.match_preference(
                    ruleset,
                    Target::Policy(name),
                    EngineKind::XQueryXTable,
                ) {
                    Ok(got) => assert_eq!(got.verdict, reference.verdict, "xtable on {name}"),
                    Err(e) => assert!(
                        *level == Sensitivity::Medium,
                        "unexpected XTABLE failure at {level:?}: {e}"
                    ),
                }
            }
        }
    }

    #[test]
    fn xtable_fails_exactly_on_medium() {
        let mut server = setup_server(DEFAULT_SEED);
        let timings = run_matrix(&mut server, &[EngineKind::XQueryXTable]);
        for t in &timings {
            assert_eq!(
                t.failed.is_some(),
                t.level == Sensitivity::Medium,
                "policy {} level {:?}: {:?}",
                t.policy,
                t.level,
                t.failed
            );
        }
    }

    #[test]
    fn figure_reports_render() {
        assert!(figure19().contains("Very High"));
        let f20 = figure20(DEFAULT_SEED);
        assert!(f20.contains("SQL speedup"), "{f20}");
        let f21 = figure21(DEFAULT_SEED);
        assert!(f21.contains("Medium"), "{f21}");
        assert!(
            f21.lines()
                .any(|l| l.starts_with("Medium") && l.trim_end().ends_with('-')),
            "{f21}"
        );
    }

    #[test]
    fn shredding_sample_covers_corpus() {
        let s = shredding_times(DEFAULT_SEED);
        assert_eq!(s.count, 29);
        assert!(s.max >= s.min);
    }

    #[test]
    fn ablation_shows_augmentation_dominates() {
        let rows = native_ablation(DEFAULT_SEED, 1);
        assert_eq!(rows.len(), 3);
        let full = rows[0].1;
        let bare = rows[2].1;
        assert!(
            full > bare,
            "augmentation must cost something: full {full:?} vs bare {bare:?}"
        );
    }

    #[test]
    fn scaling_rows_cover_requested_sizes() {
        let rows = scaling_rows(DEFAULT_SEED, &[29, 60]);
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0].policies, 29);
        assert_eq!(rows[1].policies, 60);
        for row in &rows {
            assert!(row.sql_matches >= 10, "{row:?}");
            assert!(row.sql_rows_scanned > 0, "{row:?}");
        }
        let served = served_install_rows(DEFAULT_SEED, &[29], 1);
        assert_eq!((served[0].policies, served[0].installs), (29, 1));
        let json = bench_scaling_json(DEFAULT_SEED, &rows, &served);
        for key in [
            "\"git_rev\"",
            "\"parallelism\"",
            "\"sql_rows_per_match\"",
            "\"rows_gate_passed\"",
            "\"served_install_gate_passed\"",
        ] {
            assert!(json.contains(key), "{key} missing:\n{json}");
        }
        assert!(scaling_table(&rows).contains("count rule"));
    }

    #[test]
    fn caching_report_shows_warm_hits_for_translated_engines() {
        let report = caching_report(DEFAULT_SEED);
        assert_eq!(report.rows.len(), EngineKind::ALL.len());
        for row in &report.rows {
            match row.engine {
                EngineKind::Sql | EngineKind::SqlGeneric => {
                    // 5 preferences × 29 policies: one cold match per
                    // preference, the rest warm.
                    assert_eq!(row.cold_convert.count, 5, "{:?}", row.engine);
                    assert_eq!(row.warm_convert.count, 5 * 29 - 5, "{:?}", row.engine);
                }
                EngineKind::XQueryXTable => {
                    // Medium is beyond XTABLE's query language (typed
                    // as `Unsupported`, not a failure); the other four
                    // levels split cold/warm as above.
                    assert_eq!(row.cold_convert.count, 4, "{:?}", row.engine);
                    assert_eq!(row.warm_convert.count, 4 * 29 - 4, "{:?}", row.engine);
                    assert_eq!(row.unsupported, 29, "{:?}", row.engine);
                }
                EngineKind::Native | EngineKind::XQueryNative => {
                    assert_eq!(row.warm_convert.count, 0, "{:?}", row.engine);
                }
            }
            assert_eq!(row.failures, 0, "{:?} had real failures", row.engine);
        }
        assert!(report.translation.hits > 0);
        let json = bench_matching_json(DEFAULT_SEED, &report);
        assert!(json.contains("\"translation_cache\""), "{json}");
        assert!(json.contains("\"engine\": \"sql\""), "{json}");
        let table = caching_table(&report);
        assert!(table.contains("plan cache:"), "{table}");
    }

    #[test]
    fn warm_convert_is_at_least_5x_faster_for_optimized_sql() {
        let report = caching_report(DEFAULT_SEED);
        let speedup = report.optimized_sql_convert_speedup();
        assert!(
            speedup >= 5.0,
            "optimized-SQL warm convert must be ≥5x faster than cold, got {speedup:.1}x"
        );
    }

    #[test]
    fn bulk_matching_agrees_with_per_policy_loop_everywhere() {
        // Satellite of the set-at-a-time work: for every engine and
        // every preference level, match_corpus must reproduce the
        // per-policy loop exactly — same verdicts in the same order,
        // and the same capability errors where the loop errors.
        let server = setup_server(DEFAULT_SEED);
        let names = server.policy_names();
        for (level, ruleset) in preference_suite() {
            for &engine in EngineKind::ALL {
                let bulk = server.match_corpus(&ruleset, engine);
                let looped: std::result::Result<Vec<_>, ServerError> = names
                    .iter()
                    .map(|n| {
                        server
                            .match_preference(&ruleset, Target::Policy(n), engine)
                            .map(|o| (n.clone(), o.verdict))
                    })
                    .collect();
                match (bulk, looped) {
                    (Ok(b), Ok(l)) => assert_eq!(b, l, "{engine:?} at {level:?}"),
                    (Err(_), Err(_)) => assert_eq!(
                        level,
                        Sensitivity::Medium,
                        "only Medium may be undecidable ({engine:?})"
                    ),
                    (b, l) => panic!(
                        "bulk and loop disagree on decidability for {engine:?} at {level:?}: \
                         bulk {:?}, loop {:?}",
                        b.is_ok(),
                        l.is_ok()
                    ),
                }
            }
        }
    }

    #[test]
    fn bulk_report_covers_every_engine_without_errors() {
        let report = bulk_report(DEFAULT_SEED, 29, 1);
        assert_eq!(report.policies, 29);
        assert_eq!(report.rows.len(), EngineKind::ALL.len());
        for row in &report.rows {
            assert!(row.error.is_none(), "{:?}: {:?}", row.engine, row.error);
            assert!(row.bulk_time > Duration::ZERO, "{:?}", row.engine);
        }
        let json = bench_bulk_json(&report);
        for key in [
            "\"git_rev\"",
            "\"parallelism\"",
            "\"engine\": \"sql\"",
            "\"bulk_speedup\"",
        ] {
            assert!(json.contains(key), "{key} missing:\n{json}");
        }
        let table = bulk_table(&report);
        assert!(table.contains("Set-at-a-time"), "{table}");
    }

    #[test]
    fn join_report_times_planned_and_from_order_paths() {
        let report = join_report(DEFAULT_SEED, 29, 1);
        assert_eq!(report.policies, 29);
        assert_eq!(report.rows.len(), 3);
        for row in &report.rows {
            assert!(row.planned > Duration::ZERO, "{}", row.label);
            assert!(row.from_order > Duration::ZERO, "{}", row.label);
            assert!(
                row.join_order.starts_with("Join order:"),
                "{}: {:?}",
                row.label,
                row.join_order
            );
        }
        // The self-join's ref filter must actually select rows, or the
        // hash-join claim is vacuous.
        assert!(
            report.rows.iter().any(|r| r.result > 0),
            "every bench query returned an empty count"
        );
        let json = bench_join_json(&report);
        assert!(json.contains("\"overall_speedup\""), "{json}");
        assert!(json.contains("\"join_order\""), "{json}");
        let table = join_table(&report);
        assert!(table.contains("Cost-based join planning"), "{table}");
    }

    #[test]
    fn profile_report_measures_overhead_and_breakdown() {
        let report = profile_report(DEFAULT_SEED, 1);
        assert!(
            !report.ops.is_empty(),
            "profiled sweep must observe operators"
        );
        assert!(report.ops.iter().any(|r| r.op == "select"), "{report:?}");
        assert!(report.baseline > Duration::ZERO);
        assert!(report.profiled > Duration::ZERO);
        let json = bench_profile_json(&report);
        assert!(json.contains("\"off_overhead\""), "{json}");
        assert!(json.contains("\"op\": \"select\""), "{json}");
        let table = profile_table(&report);
        assert!(table.contains("Execution profiling"), "{table}");
        assert!(table.contains("gate 1.10x"), "{table}");
    }

    #[test]
    fn trace_export_covers_a_sharded_sweep() {
        let json = export_trace(DEFAULT_SEED);
        assert!(json.starts_with("{\"traceEvents\": ["), "{json}");
        assert!(json.contains("\"name\": \"sharded_sweep\""), "{json}");
        assert!(json.contains("\"name\": \"corpus_shard\""), "{json}");
        assert!(json.contains("\"ph\": \"X\""), "{json}");
    }

    #[test]
    fn verdicts_vary_across_corpus() {
        // The corpus must produce both blocks and requests for the
        // mid-level preferences, or the experiment is degenerate.
        let server = setup_server(DEFAULT_SEED);
        let ruleset = Sensitivity::High.ruleset();
        let mut blocks = 0;
        let mut requests = 0;
        for name in server.policy_names() {
            let v = server
                .match_preference(&ruleset, Target::Policy(&name), EngineKind::Sql)
                .unwrap();
            match v.verdict.behavior {
                Behavior::Block => blocks += 1,
                Behavior::Request => requests += 1,
                _ => {}
            }
        }
        assert!(blocks > 0, "no policy blocked by High");
        assert!(requests > 0, "no policy accepted by High");
    }
}
