//! Bench for the §6.3.2 profiling claim: the native APPEL engine's cost
//! is dominated by per-match category augmentation, and the server-side
//! index structures matter for the SQL path.
//!
//! The container has no crates.io access, so this is a plain timing
//! harness (`harness = false`) instead of a criterion bench.

use p3p_appel::engine::{AppelEngine, EngineOptions};
use p3p_bench::{fmt_duration, setup_server, Sample};
use p3p_minidb::ExecOptions;
use p3p_server::{EngineKind, Target};
use p3p_workload::{corpus, Sensitivity};
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
        "{label:<35} avg {:>12} min {:>12} max {:>12} ({iters} iters)",
        fmt_duration(sample.avg()),
        fmt_duration(sample.min),
        fmt_duration(sample.max)
    );
}

fn main() {
    let policies = corpus(p3p_bench::DEFAULT_SEED);
    let xml = policies[0].to_xml();
    let ruleset = Sensitivity::High.ruleset();

    println!("native_engine_ablation");
    let configs = [
        (
            "full_augment_and_schema_parse",
            EngineOptions {
                augment_categories: true,
                rebuild_schema_per_match: true,
            },
        ),
        (
            "augment_cached_schema",
            EngineOptions {
                augment_categories: true,
                rebuild_schema_per_match: false,
            },
        ),
        (
            "no_augmentation",
            EngineOptions {
                augment_categories: false,
                rebuild_schema_per_match: false,
            },
        ),
    ];
    for (label, options) in configs {
        let engine = AppelEngine::with_options(options);
        bench(label, 30, || {
            engine.evaluate_policy_xml(&ruleset, &xml).unwrap();
        });
    }

    println!("sql_index_ablation");
    let with_indexes = setup_server(p3p_bench::DEFAULT_SEED);
    let names = with_indexes.policy_names();
    bench("hash_indexes_on", 20, || {
        for name in names.iter().take(5) {
            with_indexes
                .match_preference(&ruleset, Target::Policy(name), EngineKind::Sql)
                .unwrap();
        }
    });

    let mut without_indexes = setup_server(p3p_bench::DEFAULT_SEED);
    without_indexes.database_mut().set_options(ExecOptions {
        indexes: false,
        ..ExecOptions::default()
    });
    bench("pure_nested_loop", 20, || {
        for name in names.iter().take(5) {
            without_indexes
                .match_preference(&ruleset, Target::Policy(name), EngineKind::Sql)
                .unwrap();
        }
    });
}
