//! # p3p-fuzz — cross-engine differential fuzzing
//!
//! The paper's central claim (§5–6) is that translating APPEL into SQL
//! preserves APPEL semantics. The suite checks that claim on the fixed
//! workload corpus; this crate checks it on *arbitrary* inputs: seeded
//! random policies and rulesets from [`p3p_workload::gen`] are
//! installed into a [`PolicyServer`] and matched by every engine over
//! every evaluation path — per-policy loop, set-at-a-time
//! [`PolicyServer::match_corpus`], sharded [`MatchPool`] — under the
//! default execution options and every variant in
//! [`option_variants`] (planner off, indexes off, forced and pinned
//! EXISTS decorrelation, profiling on, and the row-at-a-time
//! interpreter instead of the columnar batch executor), plus snapshot
//! clones. The native APPEL engine is the reference; any verdict
//! disagreement is a [`Divergence`].
//!
//! Engines may *decline* a case: exact connectives on structural
//! elements translate to a typed [`ServerError::Unsupported`], and the
//! XTABLE stand-in keeps the paper's complexity hole. Declining is
//! fine — answering differently is not. Any other error is reported as
//! a divergence.
//!
//! On divergence, [`shrink::shrink`] greedily deletes policies,
//! statements, rules, and pattern nodes while the divergence still
//! reproduces, and [`shrink::emit_repro`] renders the minimal case as
//! a ready-to-paste regression test (see `tests/fuzz_regressions.rs`
//! at the workspace root, which consumes [`assert_no_divergence`] —
//! the same entry point the emitted test calls).

pub mod metamorphic;
pub mod shrink;

use p3p_appel::engine::AppelEngine;
use p3p_appel::{Ruleset, Verdict};
use p3p_minidb::ExecOptions;
use p3p_policy::Policy;
use p3p_server::concurrent::{MatchPool, SharedServer};
use p3p_server::{EngineKind, PolicyServer, ServerError, Target};
use p3p_workload::gen::{self, ChurnConfig, ChurnOp, GenConfig};
use p3p_workload::rng::SmallRng;
use std::collections::HashMap;

/// One generated input: a policy corpus plus a preference ruleset.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FuzzCase {
    pub policies: Vec<Policy>,
    pub ruleset: Ruleset,
}

/// Generate the case for `seed`. The same seed always produces the
/// same case, on every platform — that is what makes a CI failure
/// replayable with `cargo run -p p3p-fuzz -- --seed <seed> --cases 1`.
pub fn gen_case(seed: u64) -> FuzzCase {
    let cfg = GenConfig::default();
    let mut rng = SmallRng::seed_from_u64(seed);
    let n = rng.gen_range_inclusive(1, 4);
    FuzzCase {
        policies: gen::gen_corpus(&mut rng, n, &cfg),
        ruleset: gen::gen_ruleset(&mut rng, &cfg),
    }
}

/// One disagreement between an evaluation path and the native
/// reference (or a non-`Unsupported` engine error).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Divergence {
    /// Which engine/path/knob produced the wrong answer, e.g.
    /// `sql/bulk` or `sql_generic/loop planner-off`.
    pub path: String,
    /// The policy whose verdict disagreed (empty for whole-path
    /// errors).
    pub policy: String,
    /// The native reference verdict.
    pub expected: String,
    /// What the path answered instead.
    pub actual: String,
}

impl std::fmt::Display for Divergence {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "[{}] policy `{}`: expected {}, got {}",
            self.path, self.policy, self.expected, self.actual
        )
    }
}

/// The outcome of running one case through the oracle.
#[derive(Debug, Clone, Default)]
pub struct CaseReport {
    /// Evaluation paths whose verdicts were compared to the reference.
    pub paths_compared: usize,
    /// Paths skipped because the engine declined with a typed
    /// `Unsupported` (exactness holes, XTABLE complexity limit).
    pub paths_unsupported: usize,
    /// All disagreements found.
    pub divergences: Vec<Divergence>,
}

impl CaseReport {
    fn verdicts_match(
        &mut self,
        path: &str,
        reference: &[(String, Verdict)],
        result: Result<Vec<(String, Verdict)>, ServerError>,
    ) {
        match result {
            Ok(actual) => {
                self.paths_compared += 1;
                if actual.len() != reference.len() {
                    self.divergences.push(Divergence {
                        path: path.to_string(),
                        policy: String::new(),
                        expected: format!("{} verdicts", reference.len()),
                        actual: format!("{} verdicts", actual.len()),
                    });
                    return;
                }
                for ((name, want), (got_name, got)) in reference.iter().zip(&actual) {
                    if name != got_name || want != got {
                        self.divergences.push(Divergence {
                            path: path.to_string(),
                            policy: name.clone(),
                            expected: format!("{want:?}"),
                            actual: format!("{got_name}: {got:?}"),
                        });
                    }
                }
            }
            Err(ServerError::Unsupported(_)) => self.paths_unsupported += 1,
            Err(e) => self.divergences.push(Divergence {
                path: path.to_string(),
                policy: String::new(),
                expected: "a verdict or a typed Unsupported".to_string(),
                actual: format!("error: {e}"),
            }),
        }
    }
}

/// Per-policy loop verdicts in name order — the shape
/// [`PolicyServer::match_corpus`] returns, so both paths compare
/// directly.
fn loop_verdicts(
    server: &PolicyServer,
    ruleset: &Ruleset,
    engine: EngineKind,
    names: &[String],
) -> Result<Vec<(String, Verdict)>, ServerError> {
    names
        .iter()
        .map(|n| {
            server
                .match_preference(ruleset, Target::Policy(n), engine)
                .map(|o| (n.clone(), o.verdict))
        })
        .collect()
}

/// The execution-option variants the oracles run besides the defaults.
/// Each changes how minidb executes a query, never which rows it
/// returns.
pub fn option_variants() -> [(&'static str, ExecOptions); 6] {
    let with = |change: fn(&mut ExecOptions)| {
        let mut options = ExecOptions::default();
        change(&mut options);
        options
    };
    [
        ("planner-off", with(|o| o.planner = false)),
        ("indexes-off", with(|o| o.indexes = false)),
        // Threshold 0 decorrelates every eligible EXISTS; MAX pins the
        // correlated nested loop.
        ("decorrelate", with(|o| o.decorrelate_after = Some(0))),
        (
            "nested-loop",
            with(|o| o.decorrelate_after = Some(u32::MAX)),
        ),
        ("profiled", with(|o| o.profile = true)),
        ("row-executor", with(|o| o.columnar = false)),
    ]
}

/// Run the full oracle on one case: install the policies once, take
/// the native per-policy loop as the reference, then compare every
/// engine over the loop, bulk, and sharded paths, the SQL engines and
/// a sharded XTABLE sweep under every [`option_variants`] entry, and
/// a snapshot clone.
pub fn check_case(case: &FuzzCase) -> CaseReport {
    let mut server = PolicyServer::new();
    for p in &case.policies {
        server
            .install_policy(p)
            .unwrap_or_else(|e| panic!("generated policy `{}` failed to install: {e}", p.name));
    }
    let names = server.policy_names();
    let reference = loop_verdicts(&server, &case.ruleset, EngineKind::Native, &names)
        .expect("the native engine evaluates every generated case");

    let mut report = CaseReport::default();
    // The native loop IS the reference; count it as a compared path so
    // totals reflect the whole matrix.
    report.paths_compared += 1;

    for &engine in EngineKind::ALL {
        let label = engine.metric_label();
        if engine != EngineKind::Native {
            report.verdicts_match(
                &format!("{label}/loop"),
                &reference,
                loop_verdicts(&server, &case.ruleset, engine, &names),
            );
        }
        report.verdicts_match(
            &format!("{label}/bulk"),
            &reference,
            server.match_corpus(&case.ruleset, engine),
        );
    }

    // Sharded corpus sweep off a shared snapshot (three shards so
    // shard-boundary reassembly is actually exercised). Only the
    // per-policy-loop engines shard; a SQL "sharded" sweep is the bulk
    // path compared above.
    let pool = MatchPool::new(&SharedServer::new(server.clone_state()));
    for &engine in &[
        EngineKind::Native,
        EngineKind::XQueryXTable,
        EngineKind::XQueryNative,
    ] {
        report.verdicts_match(
            &format!("{}/sharded", engine.metric_label()),
            &reference,
            pool.match_corpus(&case.ruleset, engine, 3),
        );
    }

    // Every option variant, applied to a snapshot clone: the SQL
    // engines over the loop and bulk paths, and a sharded XTABLE sweep
    // off a pool built from that clone, whose shards inherit them.
    for (tag, options) in option_variants() {
        let mut variant = server.clone_state();
        variant.database_mut().set_options(options);
        for engine in [EngineKind::Sql, EngineKind::SqlGeneric] {
            let label = engine.metric_label();
            report.verdicts_match(
                &format!("{label}/loop {tag}"),
                &reference,
                loop_verdicts(&variant, &case.ruleset, engine, &names),
            );
            report.verdicts_match(
                &format!("{label}/bulk {tag}"),
                &reference,
                variant.match_corpus(&case.ruleset, engine),
            );
        }
        let pool = MatchPool::new(&SharedServer::new(variant));
        report.verdicts_match(
            &format!("xquery_xtable/sharded {tag}"),
            &reference,
            pool.match_corpus(&case.ruleset, EngineKind::XQueryXTable, 3),
        );
    }

    // Knob: a COW snapshot clone must answer exactly like the server
    // it was cloned from.
    let snapshot = server.clone_state();
    for &engine in &[EngineKind::Native, EngineKind::Sql, EngineKind::SqlGeneric] {
        report.verdicts_match(
            &format!("{}/loop snapshot", engine.metric_label()),
            &reference,
            loop_verdicts(&snapshot, &case.ruleset, engine, &names),
        );
    }

    report
}

/// The outcome of one update-interleaved churn check.
#[derive(Debug, Clone, Default)]
pub struct ChurnCheck {
    /// Operations replayed (installs + replaces + retracts + matches).
    pub ops: usize,
    /// Individual match evaluations compared (per engine, per twin).
    pub matches: usize,
    /// Verdict-cache hits observed on the cache-enabled twin.
    pub cache_hits: u64,
    /// Evaluations skipped because an engine declined with a typed
    /// `Unsupported` on both twins.
    pub paths_unsupported: usize,
    /// Snapshot-isolation or agreement violations.
    pub divergences: Vec<Divergence>,
}

/// Replay a seeded install/replace/retract stream interleaved with
/// matching against two twin servers — one with the memoized verdict
/// cache enabled, one cold — and assert snapshot isolation throughout:
///
/// * every verdict is stamped with exactly the catalog epoch the
///   serialized stream had reached (no verdict is explainable by a
///   past or future catalog);
/// * the cached twin and the cold twin agree on every verdict, so a
///   cache hit can never resurrect a pre-update verdict;
/// * both agree with an independent native APPEL evaluation of the
///   tracked live policy XML (the catalog-free reference).
pub fn check_churn(seed: u64) -> ChurnCheck {
    let cfg = ChurnConfig {
        initial_policies: 6,
        ops: 60,
        churn_rate: 0.12,
        rulesets: 3,
        gen: GenConfig::default(),
    };
    let mut rng = SmallRng::seed_from_u64(seed);
    let stream = gen::gen_churn_stream(&mut rng, &cfg);

    let mut cached = PolicyServer::new();
    cached.set_verdict_cache_capacity(4096);
    let mut cold = PolicyServer::new();
    let reference = AppelEngine::default();
    // name → live policy XML, maintained outside any server: the
    // independent source of truth for what each match should see.
    let mut live: HashMap<String, String> = HashMap::new();
    let mut epoch = 0u64;

    let mut check = ChurnCheck::default();
    let install = |cached: &mut PolicyServer,
                   cold: &mut PolicyServer,
                   live: &mut HashMap<String, String>,
                   epoch: &mut u64,
                   p: &Policy| {
        cached.install_policy(p).expect("install on cached twin");
        cold.install_policy(p).expect("install on cold twin");
        live.insert(p.name.clone(), p.to_xml());
        *epoch += 1;
    };
    for p in &stream.initial {
        install(&mut cached, &mut cold, &mut live, &mut epoch, p);
    }

    for op in &stream.ops {
        check.ops += 1;
        match op {
            ChurnOp::Install(p) => {
                install(&mut cached, &mut cold, &mut live, &mut epoch, p);
            }
            ChurnOp::Replace(p) => {
                cached.remove_policy(&p.name).expect("replace-remove");
                cold.remove_policy(&p.name).expect("replace-remove");
                epoch += 1;
                install(&mut cached, &mut cold, &mut live, &mut epoch, p);
            }
            ChurnOp::Retract(name) => {
                cached.remove_policy(name).expect("retract");
                cold.remove_policy(name).expect("retract");
                live.remove(name);
                epoch += 1;
            }
            ChurnOp::Match { policy, ruleset } => {
                let ruleset = &stream.rulesets[*ruleset];
                let expected = reference
                    .evaluate_policy_xml(ruleset, &live[policy])
                    .expect("native reference evaluates every generated case");
                for &engine in &[EngineKind::Native, EngineKind::Sql, EngineKind::SqlGeneric] {
                    let warm = cached.match_preference(ruleset, Target::Policy(policy), engine);
                    let chill = cold.match_preference(ruleset, Target::Policy(policy), engine);
                    let path = format!("{}/churn", engine.metric_label());
                    match (warm, chill) {
                        (Ok(warm), Ok(chill)) => {
                            check.matches += 2;
                            if warm.verdict_cached {
                                check.cache_hits += 1;
                            }
                            for (tag, out) in [("cached", &warm), ("cold", &chill)] {
                                if out.epoch != epoch {
                                    check.divergences.push(Divergence {
                                        path: format!("{path} {tag}"),
                                        policy: policy.clone(),
                                        expected: format!("epoch {epoch}"),
                                        actual: format!("epoch {}", out.epoch),
                                    });
                                }
                            }
                            if warm.verdict != chill.verdict {
                                check.divergences.push(Divergence {
                                    path: format!("{path} cached-vs-cold"),
                                    policy: policy.clone(),
                                    expected: format!("{:?}", chill.verdict),
                                    actual: format!("{:?}", warm.verdict),
                                });
                            }
                            if warm.verdict != expected {
                                check.divergences.push(Divergence {
                                    path,
                                    policy: policy.clone(),
                                    expected: format!("{expected:?}"),
                                    actual: format!("{:?}", warm.verdict),
                                });
                            }
                        }
                        (Err(ServerError::Unsupported(_)), Err(ServerError::Unsupported(_))) => {
                            check.paths_unsupported += 1
                        }
                        (warm, chill) => {
                            check.divergences.push(Divergence {
                                path,
                                policy: policy.clone(),
                                expected: "both twins agreeing".to_string(),
                                actual: format!(
                                    "cached: {:?}, cold: {:?}",
                                    warm.map(|o| o.verdict),
                                    chill.map(|o| o.verdict)
                                ),
                            });
                        }
                    }
                }
            }
        }
        // Between ops, both catalogs sit at the serialized epoch.
        for (tag, s) in [("cached", &cached), ("cold", &cold)] {
            if s.catalog_epoch() != epoch {
                check.divergences.push(Divergence {
                    path: format!("catalog/{tag}"),
                    policy: String::new(),
                    expected: format!("epoch {epoch}"),
                    actual: format!("epoch {}", s.catalog_epoch()),
                });
            }
        }
    }
    check
}

/// Aggregate statistics over a fuzzing run.
#[derive(Debug, Clone, Default)]
pub struct RunStats {
    pub cases: usize,
    pub paths_compared: usize,
    pub paths_unsupported: usize,
    pub divergences: usize,
    pub metamorphic_queries: usize,
    pub metamorphic_mismatches: usize,
    /// Update-interleaved churn checks run (on the metamorphic cadence).
    pub churn_checks: usize,
    /// Match evaluations compared inside those churn checks.
    pub churn_matches: usize,
    /// Verdict-cache hits the cache-enabled churn twin served.
    pub churn_cache_hits: u64,
    /// Snapshot-isolation or cached-vs-cold violations (must be 0).
    pub churn_divergences: usize,
}

/// Run `cases` seeded cases starting at `seed` (case *i* uses seed
/// `seed + i`). Every `metamorphic_every`-th case additionally runs
/// the minidb row-identity checks (0 disables them). Returns the
/// aggregate stats and, when a verdict divergence was found, the first
/// offending case and its report.
pub fn run(
    seed: u64,
    cases: usize,
    metamorphic_every: usize,
) -> (RunStats, Option<(FuzzCase, CaseReport)>) {
    let mut stats = RunStats::default();
    let mut failure = None;
    for i in 0..cases {
        let case = gen_case(seed + i as u64);
        let report = check_case(&case);
        stats.cases += 1;
        stats.paths_compared += report.paths_compared;
        stats.paths_unsupported += report.paths_unsupported;
        stats.divergences += report.divergences.len();
        if !report.divergences.is_empty() && failure.is_none() {
            failure = Some((case.clone(), report));
        }
        if metamorphic_every > 0 && i % metamorphic_every == 0 {
            let meta = metamorphic::check_minidb(&case);
            stats.metamorphic_queries += meta.queries;
            stats.metamorphic_mismatches += meta.mismatches.len();
            // Same cadence for the update-interleaved knob: churn the
            // catalog between matches and require snapshot isolation.
            let churn = check_churn(seed + i as u64);
            stats.churn_checks += 1;
            stats.churn_matches += churn.matches;
            stats.churn_cache_hits += churn.cache_hits;
            stats.churn_divergences += churn.divergences.len();
            if !churn.divergences.is_empty() {
                eprintln!(
                    "churn divergences at seed {}:\n{}",
                    seed + i as u64,
                    churn
                        .divergences
                        .iter()
                        .map(|d| format!("  {d}"))
                        .collect::<Vec<_>>()
                        .join("\n")
                );
            }
        }
    }
    (stats, failure)
}

/// The entry point shrunk repros call (see `tests/fuzz_regressions.rs`
/// at the workspace root): parse the given policy and ruleset XML,
/// run the full oracle, and panic with every divergence if any path
/// disagrees with the native reference.
pub fn assert_no_divergence(policy_xmls: &[&str], ruleset_xml: &str) {
    let policies: Vec<Policy> = policy_xmls
        .iter()
        .map(|x| Policy::parse(x).expect("repro policy XML must parse"))
        .collect();
    let ruleset = Ruleset::parse(ruleset_xml).expect("repro ruleset XML must parse");
    let case = FuzzCase { policies, ruleset };
    let report = check_case(&case);
    assert!(
        report.divergences.is_empty(),
        "cross-engine divergence:\n{}",
        report
            .divergences
            .iter()
            .map(|d| format!("  {d}"))
            .collect::<Vec<_>>()
            .join("\n")
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fixed_seed_cases_have_no_divergence() {
        let (stats, failure) = run(42, 25, 5);
        assert_eq!(stats.cases, 25);
        assert!(stats.paths_compared > 25, "oracle must compare many paths");
        if let Some((case, report)) = failure {
            panic!(
                "divergences:\n{}\nrepro:\n{}",
                report
                    .divergences
                    .iter()
                    .map(|d| format!("  {d}"))
                    .collect::<Vec<_>>()
                    .join("\n"),
                shrink::emit_repro(&case, "seed unknown")
            );
        }
        assert_eq!(stats.metamorphic_mismatches, 0);
        assert!(stats.churn_checks > 0, "churn knob must run on the cadence");
        assert_eq!(stats.churn_divergences, 0);
    }

    #[test]
    fn churn_streams_preserve_snapshot_isolation() {
        for seed in [1u64, 99, 4242] {
            let check = check_churn(seed);
            assert!(check.ops > 0);
            assert!(check.matches > 0, "seed {seed} compared no matches");
            assert!(
                check.divergences.is_empty(),
                "seed {seed}:\n{}",
                check
                    .divergences
                    .iter()
                    .map(|d| format!("  {d}"))
                    .collect::<Vec<_>>()
                    .join("\n")
            );
            assert!(
                check.cache_hits > 0,
                "seed {seed}: the cached twin never hit — the knob is inert"
            );
        }
    }

    #[test]
    fn gen_case_is_deterministic() {
        assert_eq!(gen_case(7), gen_case(7));
        assert_ne!(gen_case(7), gen_case(8));
    }

    #[test]
    fn jane_volga_case_agrees_everywhere() {
        assert_no_divergence(
            &[&p3p_policy::model::volga_policy().to_xml()],
            &p3p_appel::model::jane_preference().to_xml(),
        );
    }
}
