//! Metamorphic row-identity checks on the minidb layer.
//!
//! The verdict oracle in [`crate::check_case`] sees optimization bugs
//! only when they flip a verdict. These checks look one layer down:
//! the corpus-form SQL each rule translates to (parameter-free, one
//! query per rule) is executed against the shredded database under
//! the default options and every variant, and the *row sets* — not
//! just the folded verdicts — must be identical:
//!
//! * prepared-and-cached plan vs a cold
//!   [`Database::prepare_uncached`](p3p_minidb::Database::prepare_uncached),
//! * first execution vs re-execution through the plan cache,
//! * the original database vs a copy-on-write clone,
//! * a clone under each of [`crate::option_variants`]: planner off,
//!   indexes off, EXISTS decorrelation forced on (threshold 0) and
//!   pinned to the correlated nested loop (threshold `u32::MAX`),
//!   profiling on, and the row-at-a-time interpreter instead of the
//!   columnar batch executor.

use crate::FuzzCase;
use p3p_minidb::QueryResult;
use p3p_server::appel2sql;
use p3p_server::generic::GenericSchema;
use p3p_server::PolicyServer;

/// The outcome of the metamorphic pass over one case.
#[derive(Debug, Clone, Default)]
pub struct MetamorphicReport {
    /// Corpus-form queries checked (translatable rules × 2 schemas).
    pub queries: usize,
    /// Human-readable descriptions of any row mismatches.
    pub mismatches: Vec<String>,
}

/// Run every option variant of every translatable corpus query and
/// compare row sets. Untranslatable rules (typed `Unsupported`) are
/// skipped — the verdict oracle already covers their classification.
pub fn check_minidb(case: &FuzzCase) -> MetamorphicReport {
    let mut server = PolicyServer::new();
    for p in &case.policies {
        server
            .install_policy(p)
            .unwrap_or_else(|e| panic!("policy `{}` failed to install: {e}", p.name));
    }
    let schema = GenericSchema::default();
    let mut sqls: Vec<(String, String)> = Vec::new();
    for (i, rule) in case.ruleset.rules.iter().enumerate() {
        if let Ok(sql) = appel2sql::translate_rule_optimized_corpus(rule) {
            sqls.push((format!("rule {i} (optimized)"), sql));
        }
        if let Ok(sql) = appel2sql::translate_rule_generic_corpus(rule, &schema) {
            sqls.push((format!("rule {i} (generic)"), sql));
        }
    }

    let mut report = MetamorphicReport::default();
    let db = server.database();
    for (label, sql) in &sqls {
        report.queries += 1;
        let baseline = match db.query(sql) {
            Ok(r) => r,
            Err(e) => {
                report
                    .mismatches
                    .push(format!("{label}: baseline execution failed: {e}"));
                continue;
            }
        };
        let mut expect = |tag: &str, result: Result<QueryResult, p3p_minidb::DbError>| match result
        {
            Ok(r) if r == baseline => {}
            Ok(r) => report.mismatches.push(format!(
                "{label}: {tag} returned {} rows, baseline {}",
                r.rows.len(),
                baseline.rows.len()
            )),
            Err(e) => report
                .mismatches
                .push(format!("{label}: {tag} failed: {e}")),
        };

        // Cold prepare (no plan cache) vs the cached prepare baseline
        // used, and a re-execution through the now-warm cache.
        expect(
            "prepare-uncached",
            db.prepare_uncached(sql)
                .and_then(|p| db.query_prepared(&p, &[])),
        );
        expect("cached-reexecution", db.query(sql));

        // A copy-on-write clone must answer identically.
        expect("cow-clone", db.clone().query(sql));

        // Each option variant changes the plan, never the rows.
        for (tag, options) in crate::option_variants() {
            let mut variant = db.clone();
            variant.set_options(options);
            expect(tag, variant.query(sql));
        }
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen_case;

    #[test]
    fn fixed_seed_cases_are_row_identical_under_all_knobs() {
        let mut queries = 0;
        for seed in 100..120 {
            let report = check_minidb(&gen_case(seed));
            assert!(
                report.mismatches.is_empty(),
                "seed {seed}: {:?}",
                report.mismatches
            );
            queries += report.queries;
        }
        assert!(queries > 0, "at least some rules must be translatable");
    }

    #[test]
    fn paper_workload_is_row_identical_under_all_knobs() {
        use p3p_workload::{corpus, Sensitivity};
        let case = FuzzCase {
            policies: corpus(42).into_iter().take(8).collect(),
            ruleset: Sensitivity::High.ruleset(),
        };
        let report = check_minidb(&case);
        assert!(report.queries > 0);
        assert!(report.mismatches.is_empty(), "{:?}", report.mismatches);
    }
}
