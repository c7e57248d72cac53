//! `repro` — regenerate every table and figure of the paper's §6.
//!
//! ```text
//! repro                 # everything
//! repro --figure 19     # Figure 19 only
//! repro --figure 20     # Figure 20 only
//! repro --figure 21     # Figure 21 only
//! repro --table shredding | warmcold | caching | bulk | join | fuzz | churn | profile | serve | ablation | scaling
//! repro --seed 7        # different workload seed
//! repro --metrics-dir target   # where the metrics snapshot lands
//! repro --trace-out trace.json # Chrome trace of a sharded corpus sweep
//! ```
//!
//! Tables with a committed `BENCH_<table>.json` baseline write their
//! fresh run to `target/bench/BENCH_<table>.json`; the baseline at the
//! repository root changes only when someone copies a run over it.
//!
//! Every run ends with a telemetry snapshot of the metrics the
//! pipeline recorded while the experiments ran (per-engine match
//! latency histograms, executor counters, shred timings), printed as
//! Prometheus text and written as both text and JSON next to the
//! timing report.

use p3p_bench::bench_serve_json;
use p3p_bench::{
    ablation_table, bench_bulk_json, bench_churn_json, bench_fuzz_json, bench_join_json,
    bench_matching_json, bench_profile_json, bench_scaling_json, bulk_report, bulk_table,
    caching_report, caching_table, churn_report, churn_table, export_trace, figure19, figure20,
    figure21, fuzz_report, fuzz_table, join_report, join_table, profile_report, profile_table,
    scaling_rows, scaling_rows_growth, scaling_table, serve_report, serve_table,
    served_install_growth, served_install_rows, served_install_table, shredding_table,
    subset_table, telemetry_table, warm_cold_table, DEFAULT_SEED, SCALING_MAX_ROWS_GROWTH,
    SCALING_SIZES, SERVED_INSTALLS, SERVED_INSTALL_MAX_GROWTH, SERVED_INSTALL_SIZES,
};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut seed = DEFAULT_SEED;
    let mut figures: Vec<String> = Vec::new();
    let mut tables: Vec<String> = Vec::new();
    let mut metrics_dir = std::path::PathBuf::from("target");
    let mut trace_out: Option<std::path::PathBuf> = None;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--trace-out" => {
                i += 1;
                trace_out = Some(
                    args.get(i)
                        .map(std::path::PathBuf::from)
                        .unwrap_or_else(|| usage("--trace-out needs a path")),
                );
            }
            "--seed" => {
                i += 1;
                seed = args
                    .get(i)
                    .and_then(|s| s.parse().ok())
                    .unwrap_or_else(|| usage("--seed needs an integer"));
            }
            "--metrics-dir" => {
                i += 1;
                metrics_dir = args
                    .get(i)
                    .map(std::path::PathBuf::from)
                    .unwrap_or_else(|| usage("--metrics-dir needs a path"));
            }
            "--figure" => {
                i += 1;
                figures.push(
                    args.get(i)
                        .cloned()
                        .unwrap_or_else(|| usage("--figure needs 19|20|21")),
                );
            }
            "--table" => {
                i += 1;
                tables.push(
                    args.get(i)
                        .cloned()
                        .unwrap_or_else(|| usage("--table needs a name")),
                );
            }
            "--help" | "-h" => {
                usage("");
            }
            other => usage(&format!("unknown argument `{other}`")),
        }
        i += 1;
    }
    let all = figures.is_empty() && tables.is_empty() && trace_out.is_none();

    println!("p3p-suite experiment reproduction (seed {seed})");
    println!("================================================================\n");
    if all || figures.iter().any(|f| f == "19") {
        println!("{}", figure19());
    }
    if all || tables.iter().any(|t| t == "shredding") {
        println!("{}", shredding_table(seed));
    }
    if all || figures.iter().any(|f| f == "20") {
        println!("{}", figure20(seed));
    }
    if all || figures.iter().any(|f| f == "21") {
        println!("{}", figure21(seed));
    }
    if all || tables.iter().any(|t| t == "warmcold") {
        println!("{}", warm_cold_table(seed));
    }
    let mut caching_ok = true;
    if all || tables.iter().any(|t| t == "caching") {
        let report = caching_report(seed);
        println!("{}", caching_table(&report));
        write_bench("matching", &bench_matching_json(seed, &report));
        let speedup = report.optimized_sql_convert_speedup();
        if speedup < 5.0 {
            eprintln!(
                "error: optimized-SQL warm convert speedup {speedup:.1}x is below the 5x floor"
            );
            caching_ok = false;
        }
        let hit_rate = report.plans.hit_rate();
        if hit_rate < 0.5 {
            eprintln!("error: plan-cache hit rate {hit_rate:.4} is below the 0.5 floor");
            caching_ok = false;
        }
    }
    let mut bulk_ok = true;
    if all || tables.iter().any(|t| t == "bulk") {
        let report = bulk_report(seed, 120, 5);
        println!("{}", bulk_table(&report));
        write_bench("bulk", &bench_bulk_json(&report));
        match report
            .rows
            .iter()
            .find(|r| r.engine == p3p_server::EngineKind::Sql)
        {
            Some(sql) if sql.error.is_none() => {
                let speedup = sql.bulk_speedup();
                if speedup < 5.0 {
                    eprintln!(
                        "error: bulk-over-loop speedup {speedup:.1}x for optimized SQL is below \
                         the 5x floor"
                    );
                    bulk_ok = false;
                }
                // Allow 10% timing noise: SQL sweeps never shard, so the
                // pool's pass runs the identical single-threaded path.
                if sql.sharded_time.as_secs_f64() > sql.bulk_time.as_secs_f64() * 1.10 {
                    eprintln!(
                        "error: sharded bulk ({:?}) is slower than single-threaded bulk ({:?})",
                        sql.sharded_time, sql.bulk_time
                    );
                    bulk_ok = false;
                }
                match sql.columnar_speedup() {
                    Some(columnar) if columnar < 3.0 => {
                        eprintln!(
                            "error: columnar-over-row speedup {columnar:.1}x on the optimized \
                             SQL bulk sweep is below the 3x floor"
                        );
                        bulk_ok = false;
                    }
                    Some(_) => {}
                    None => {
                        eprintln!("error: optimized SQL reported no columnar comparison");
                        bulk_ok = false;
                    }
                }
            }
            _ => {
                eprintln!("error: optimized SQL could not run the bulk sweep");
                bulk_ok = false;
            }
        }
        // The bulk API must never lose to its own per-policy loop —
        // for any engine. 10% headroom absorbs timing noise on the
        // engines whose bulk path *is* the loop.
        for row in report.rows.iter().filter(|r| r.error.is_none()) {
            if row.bulk_time.as_secs_f64() > row.loop_time.as_secs_f64() * 1.10 {
                eprintln!(
                    "error: bulk sweep for {} ({:?}) is slower than the per-policy loop ({:?})",
                    row.engine.label(),
                    row.bulk_time,
                    row.loop_time
                );
                bulk_ok = false;
            }
            // The columnar executor must never be a slowdown on any
            // engine's bulk path (≥1.0x; the two sides are measured
            // interleaved, so only 5% noise headroom is needed).
            if let Some(columnar) = row.columnar_speedup() {
                if columnar < 0.95 {
                    eprintln!(
                        "error: columnar executor is a {columnar:.2}x slowdown on the {} bulk \
                         sweep (must be >= 1.0x)",
                        row.engine.label()
                    );
                    bulk_ok = false;
                }
            }
        }
    }
    let mut join_ok = true;
    if all || tables.iter().any(|t| t == "join") {
        let report = join_report(seed, 120, 5);
        println!("{}", join_table(&report));
        write_bench("join", &bench_join_json(&report));
        let speedup = report.overall_speedup();
        if speedup < 3.0 {
            eprintln!(
                "error: cost-based join planning speedup {speedup:.1}x over FROM-order \
                 execution is below the 3x floor"
            );
            join_ok = false;
        }
    }
    let mut fuzz_ok = true;
    if all || tables.iter().any(|t| t == "fuzz") {
        // A bounded sweep: the standalone p3p-fuzz binary is the place
        // for long runs; here the point is a reproducible zero row in
        // the report. P3P_FUZZ_CASES overrides the depth.
        let cases = std::env::var("P3P_FUZZ_CASES")
            .ok()
            .and_then(|v| v.parse().ok())
            .unwrap_or(50);
        let report = fuzz_report(seed, cases);
        println!("{}", fuzz_table(&report));
        write_bench("fuzz", &bench_fuzz_json(&report));
        if report.stats.divergences > 0 {
            eprintln!(
                "error: {} verdict divergences across the engine matrix (must be 0)",
                report.stats.divergences
            );
            fuzz_ok = false;
        }
        if report.stats.metamorphic_mismatches > 0 {
            eprintln!(
                "error: {} metamorphic row mismatches across minidb knobs (must be 0)",
                report.stats.metamorphic_mismatches
            );
            fuzz_ok = false;
        }
    }
    let mut churn_ok = true;
    if all || tables.iter().any(|t| t == "churn") {
        // Live policy churn: 1% update probability, verdict cache on.
        // P3P_CHURN_OPS overrides the stream length.
        let ops = std::env::var("P3P_CHURN_OPS")
            .ok()
            .and_then(|v| v.parse().ok())
            .unwrap_or(5000);
        let report = churn_report(seed, ops, 0.01);
        println!("{}", churn_table(&report));
        write_bench("churn", &bench_churn_json(&report));
        let hit_rate = report.cache.hit_rate();
        if hit_rate < 0.8 {
            eprintln!(
                "error: verdict-cache hit rate {hit_rate:.4} at 1% churn is below the 0.8 floor"
            );
            churn_ok = false;
        }
        let speedup = report.speedup();
        if speedup < 10.0 {
            eprintln!(
                "error: cached-hit speedup {speedup:.1}x over the uncached match p50 is below \
                 the 10x floor"
            );
            churn_ok = false;
        }
    }
    let mut profile_ok = true;
    if all || tables.iter().any(|t| t == "profile") {
        let report = profile_report(seed, 5);
        println!("{}", profile_table(&report));
        write_bench("profile", &bench_profile_json(&report));
        // The gate is A/A: profiler compiled in but OFF must be within
        // noise of the baseline. Profiler-on cost is informational.
        let off = report.off_overhead();
        if off > 1.10 {
            eprintln!("error: profiler-off overhead {off:.2}x exceeds the 1.10x gate");
            profile_ok = false;
        }
        if report.ops.is_empty() {
            eprintln!("error: the profiled sweep observed no operators");
            profile_ok = false;
        }
    }
    let mut serve_ok = true;
    if all || tables.iter().any(|t| t == "serve") {
        // The daemon under load. The full acceptance run uses a
        // 100k-policy corpus (P3P_SERVE_POLICIES=100000); the default
        // keeps CI runs under a minute. P3P_SERVE_SECS stretches the
        // load phases.
        let policies = std::env::var("P3P_SERVE_POLICIES")
            .ok()
            .and_then(|v| v.parse().ok())
            .unwrap_or(2000);
        let secs = std::env::var("P3P_SERVE_SECS")
            .ok()
            .and_then(|v| v.parse().ok())
            .unwrap_or(5);
        let report = serve_report(seed, policies, secs);
        println!("{}", serve_table(&report));
        write_bench("serve", &bench_serve_json(&report));
        if !report.qps_floor_met() {
            eprintln!(
                "error: closed-loop sustained throughput {:.0} qps is below the {:.0} floor",
                report.closed.qps(),
                report.qps_floor()
            );
            serve_ok = false;
        }
        if report.closed.errors > 0 || report.open.errors > 0 {
            eprintln!(
                "error: load phases saw transport errors (closed {}, open {}) — overload must \
                 answer 429, never break the connection",
                report.closed.errors, report.open.errors
            );
            serve_ok = false;
        }
        if !report.drain_clean() {
            eprintln!(
                "error: drain drill not clean ({} in-flight completed, {} lost, listener down: \
                 {})",
                report.drain.drained_in_flight, report.drain.lost, report.drain.listener_down
            );
            serve_ok = false;
        }
    }
    if all || tables.iter().any(|t| t == "ablation") {
        println!("{}", ablation_table(seed));
    }
    let mut scaling_ok = true;
    if all || tables.iter().any(|t| t == "scaling") {
        let rows = scaling_rows(seed, &SCALING_SIZES);
        println!("{}", scaling_table(&rows));
        let served = served_install_rows(seed, &SERVED_INSTALL_SIZES, SERVED_INSTALLS);
        println!("{}", served_install_table(&served));
        write_bench("scaling", &bench_scaling_json(seed, &rows, &served));
        // Row counts are exact for a fixed seed, so the gate needs no
        // noise band: a point match must not read more of a larger
        // corpus.
        let growth = scaling_rows_growth(&rows);
        if growth > SCALING_MAX_ROWS_GROWTH {
            eprintln!(
                "error: SQL rows per match grow {growth:.2}x from {} to {} policies (gate \
                 {SCALING_MAX_ROWS_GROWTH:.1}x)",
                rows.first().map_or(0, |r| r.policies),
                rows.last().map_or(0, |r| r.policies),
            );
            scaling_ok = false;
        }
        // A served install must cost O(policy): the 20,000-policy mean
        // may be at most 2x the 2,000-policy one.
        let served_growth = served_install_growth(&served);
        if served_growth > SERVED_INSTALL_MAX_GROWTH {
            eprintln!(
                "error: served install grows {served_growth:.2}x from {} to {} policies (gate \
                 {SERVED_INSTALL_MAX_GROWTH:.1}x)",
                served.first().map_or(0, |r| r.policies),
                served.last().map_or(0, |r| r.policies),
            );
            scaling_ok = false;
        }
    }
    if all || tables.iter().any(|t| t == "subset") {
        println!("{}", subset_table());
    }
    if all || tables.iter().any(|t| t == "telemetry") {
        println!("{}", telemetry_table(seed));
    }

    if let Some(path) = &trace_out {
        let json = export_trace(seed);
        match std::fs::write(path, &json) {
            Ok(()) => println!("wrote {} (Chrome trace-event JSON)\n", path.display()),
            Err(e) => eprintln!("warning: cannot write {}: {e}\n", path.display()),
        }
    }

    dump_metrics(&metrics_dir);
    if !caching_ok
        || !bulk_ok
        || !join_ok
        || !fuzz_ok
        || !churn_ok
        || !profile_ok
        || !serve_ok
        || !scaling_ok
    {
        std::process::exit(1);
    }
}

/// Write one table's JSON to `target/bench/BENCH_<table>.json`, under
/// `target/` where the metrics snapshot lands by default. A run never
/// replaces the committed baseline at the repository root; committing
/// a new baseline is a `cp`.
fn write_bench(table: &str, json: &str) {
    let dir = std::path::Path::new("target/bench");
    let path = dir.join(format!("BENCH_{table}.json"));
    match std::fs::create_dir_all(dir).and_then(|()| std::fs::write(&path, json)) {
        Ok(()) => println!("wrote {}\n", path.display()),
        Err(e) => eprintln!("warning: cannot write {}: {e}\n", path.display()),
    }
}

/// Print the metrics the run accumulated and write the snapshot (text
/// and JSON) next to the timing report.
fn dump_metrics(dir: &std::path::Path) {
    let text = p3p_telemetry::metrics::render_text();
    let json = p3p_telemetry::metrics::snapshot_json();
    println!("metrics snapshot");
    println!("----------------------------------------------------------------");
    print!("{text}");
    if let Err(e) = std::fs::create_dir_all(dir) {
        eprintln!("warning: cannot create {}: {e}", dir.display());
        return;
    }
    for (name, body) in [("repro-metrics.prom", &text), ("repro-metrics.json", &json)] {
        let path = dir.join(name);
        match std::fs::write(&path, body) {
            Ok(()) => println!("wrote {}", path.display()),
            Err(e) => eprintln!("warning: cannot write {}: {e}", path.display()),
        }
    }
}

fn usage(err: &str) -> ! {
    if !err.is_empty() {
        eprintln!("error: {err}");
    }
    eprintln!(
        "usage: repro [--seed N] [--figure 19|20|21]... [--table shredding|warmcold|caching|bulk|join|fuzz|churn|profile|serve|ablation|scaling|subset|telemetry]... [--metrics-dir DIR] [--trace-out PATH]"
    );
    std::process::exit(if err.is_empty() { 0 } else { 2 });
}
