//! Bench for the memoized verdict cache under live policy churn: a
//! seeded install/replace/retract stream interleaved with matching.
//!
//! Like the other benches this is a plain timing harness
//! (`harness = false`); pass `--test` for a single-iteration smoke
//! pass. The authoritative numbers (and the hit-rate / speedup gates)
//! come from `repro --table churn`, which writes `BENCH_churn.json`.

use p3p_bench::{bench_churn_json, churn_report, churn_table, DEFAULT_SEED};

fn main() {
    let smoke = std::env::args().any(|a| a == "--test");
    let ops = if smoke { 400 } else { 5000 };
    let report = churn_report(DEFAULT_SEED, ops, 0.01);
    print!("{}", churn_table(&report));
    assert!(report.matches > 0, "the churn stream evaluated no matches");
    assert!(
        report.cache.hits > 0,
        "the verdict cache served no hits across {} matches",
        report.matches
    );
    if !smoke {
        print!("{}", bench_churn_json(&report));
    }
}
