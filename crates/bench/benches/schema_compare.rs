//! Bench for the §5.4 design choice: the optimized (Figure 14) schema's
//! fewer tables mean fewer joins per translated query than the generic
//! (Figure 8) schema — and shred-time augmentation beats match-time
//! augmentation.
//!
//! The container has no crates.io access, so this is a plain timing
//! harness (`harness = false`) instead of a criterion bench.

use p3p_bench::{fmt_duration, setup_server, Sample};
use p3p_server::appel2sql::{translate_rule_generic, translate_rule_optimized, QueryForm};
use p3p_server::generic::GenericSchema;
use p3p_server::{EngineKind, Target};
use p3p_workload::Sensitivity;
use std::time::Instant;

fn bench(label: &str, iters: u32, mut f: impl FnMut()) {
    f(); // warm-up
    let mut sample = Sample::default();
    for _ in 0..iters {
        let t = Instant::now();
        f();
        sample.push(t.elapsed());
    }
    println!(
        "{label:<30} avg {:>12} min {:>12} max {:>12} ({iters} iters)",
        fmt_duration(sample.avg()),
        fmt_duration(sample.min),
        fmt_duration(sample.max)
    );
}

fn main() {
    let server = setup_server(p3p_bench::DEFAULT_SEED);
    let names = server.policy_names();
    let ruleset = Sensitivity::High.ruleset();

    // End-to-end: optimized vs generic schema matching.
    println!("schema_compare_match");
    for engine in [EngineKind::Sql, EngineKind::SqlGeneric] {
        bench(engine.label(), 20, || {
            for name in names.iter().take(5) {
                server
                    .match_preference(&ruleset, Target::Policy(name), engine)
                    .unwrap();
            }
        });
    }

    // Translation alone: the convert column of Figure 20.
    let schema = GenericSchema::default();
    println!("schema_compare_translate");
    bench("optimized", 50, || {
        for rule in &ruleset.rules {
            translate_rule_optimized(rule, QueryForm::Staged).unwrap();
        }
    });
    bench("generic", 50, || {
        for rule in &ruleset.rules {
            translate_rule_generic(rule, &schema, QueryForm::Staged).unwrap();
        }
    });
}
