//! Bench for Figures 20 and 21: matching a preference against a policy
//! with the native APPEL engine, the SQL path, and the XQuery path.
//!
//! The container has no crates.io access, so this is a plain timing
//! harness (`harness = false`) instead of a criterion bench: each case
//! is warmed once, then timed over a fixed iteration count and reported
//! as avg/min/max.

use p3p_bench::{fmt_duration, setup_server, Sample};
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
        "{label:<45} avg {:>12} min {:>12} max {:>12} ({iters} iters)",
        fmt_duration(sample.avg()),
        fmt_duration(sample.min),
        fmt_duration(sample.max)
    );
}

fn main() {
    let server = setup_server(p3p_bench::DEFAULT_SEED);
    let names = server.policy_names();
    let suite: Vec<_> = Sensitivity::ALL.iter().map(|s| (*s, s.ruleset())).collect();

    // Figure 20: one representative pairing, every engine.
    println!("figure20_match_high_vs_policy0");
    for engine in EngineKind::ALL {
        bench(engine.label(), 30, || {
            server
                .match_preference(&suite[1].1, Target::Policy(&names[0]), *engine)
                .unwrap();
        });
    }

    // Figure 21: per preference level, the SQL path over the corpus.
    println!("figure21_sql_per_level");
    for (level, ruleset) in &suite {
        bench(level.label(), 10, || {
            for name in &names {
                server
                    .match_preference(ruleset, Target::Policy(name), EngineKind::Sql)
                    .unwrap();
            }
        });
    }

    // Figure 21, native engine column.
    println!("figure21_native_per_level");
    for (level, ruleset) in &suite {
        bench(level.label(), 10, || {
            for name in &names {
                server
                    .match_preference(ruleset, Target::Policy(name), EngineKind::Native)
                    .unwrap();
            }
        });
    }
}
