//! Bench for the caching stack: prepared-plan reuse, per-ruleset
//! translation caching, and zero-copy snapshot matching.
//!
//! The container has no crates.io access, so this is a plain timing
//! harness (`harness = false`) like the other benches. Pass `--test`
//! (as `cargo bench -p p3p-bench --bench caching -- --test` does) to
//! run a single-iteration smoke pass.

use p3p_bench::{fmt_duration, setup_server, Sample};
use p3p_server::concurrent::{MatchPool, SharedServer};
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
    let smoke = std::env::args().any(|a| a == "--test");
    let iters = |n: u32| if smoke { 1 } else { n };
    let server = setup_server(p3p_bench::DEFAULT_SEED);
    let names = server.policy_names();
    let ruleset = Sensitivity::High.ruleset();

    // Warm-path matching: the translation cache and plan cache serve
    // every rule, the policy id rides in as a bound parameter.
    println!("warm_match_high_vs_corpus");
    for engine in [
        EngineKind::Sql,
        EngineKind::SqlGeneric,
        EngineKind::XQueryXTable,
    ] {
        bench(engine.label(), iters(20), || {
            for name in &names {
                server
                    .match_preference(&ruleset, Target::Policy(name), engine)
                    .unwrap();
            }
        });
    }

    // Statement preparation: text-keyed plan-cache hit vs a fresh parse
    // + semantic analysis each time.
    println!("prepare_statement");
    let db = server.database();
    let sql = "SELECT name FROM policy WHERE policy_id = ?";
    bench("prepare (plan cache)", iters(1000), || {
        db.prepare(sql).unwrap();
    });

    // Snapshot cost: what MatchPool pays per refresh — and what every
    // match used to pay before zero-copy snapshots.
    println!("snapshot");
    bench("clone_state (copy-on-write)", iters(1000), || {
        let _ = server.clone_state();
    });

    // End-to-end pool matching off a shared snapshot.
    println!("match_pool");
    let shared = SharedServer::new(server.clone_state());
    let pool = MatchPool::new(&shared);
    bench("pool match (snapshot, no copy)", iters(20), || {
        for name in &names {
            pool.match_preference(&ruleset, Target::Policy(name), EngineKind::Sql)
                .unwrap();
        }
    });

    // The whole point of the caching stack: setup (parameterized
    // shredding) and matching (bound-parameter rule queries) run
    // through a small set of stable statement texts, so the plan cache
    // must absorb well over half of all prepares.
    let stats = server.database().plan_cache_stats();
    let hit_rate = stats.hit_rate();
    println!(
        "plan cache: {} hits / {} misses ({:.1}% hit rate)",
        stats.hits,
        stats.misses,
        hit_rate * 100.0
    );
    assert!(
        hit_rate >= 0.5,
        "plan-cache hit rate {hit_rate:.4} fell below the 0.5 floor \
         ({} hits / {} misses) — prepared statements are thrashing",
        stats.hits,
        stats.misses
    );
}
