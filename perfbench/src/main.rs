//! `perfbench` — end-to-end and per-layer benchmark of `p3p-serverd`.
//!
//! One invocation measures one workload on one seed:
//!
//! 1. Generate the plan (corpus, every request's bytes) from the seed,
//!    and rebuild the daemon's start-up in-process as the reference.
//! 2. Start the release daemon `--setups` times; each start-up is timed
//!    from spawn to the first checked 200 on a fixed probe `/match`.
//! 3. On the last daemon: warm up, scrape `/metrics`, replay the timed
//!    sequence closed-loop over the workload's connections, scrape
//!    again, read the daemon's CPU time and peak RSS.
//! 4. With `--trace 1`, replay the same sequence in-process twice,
//!    untraced and traced, and derive the per-layer metrics.
//!
//! The last line of stdout is the JSON result; everything above it is
//! the human-readable report. `python3 perfbench/run.py` builds the
//! daemon and this binary and passes `--daemon`.

mod daemon;
mod load;
mod replay;
mod stats;
mod workload;

use daemon::Daemon;
use load::{Checker, Conn, LoadRun};
use p3p_minidb::exec::ExecStats;
use replay::{Reference, ReplayRun};
use stats::{quartiles, Dist, Scrape};
use std::fmt::Write as _;
use std::path::PathBuf;
use std::time::{Duration, Instant};
use workload::{Kind, Op, Plan, Sizes};

/// End-to-end metrics, printed with `--trace 0`.
const END_TO_END: [(&str, &str); 6] = [
    ("setup_s", "s"),
    ("qps", "req/s"),
    ("p50_us", "us"),
    ("p99_us", "us"),
    ("cpu_us_per_req", "us"),
    ("rss_mb", "MB"),
];

/// Per-layer metrics, printed with `--trace 1`. A timing is the median
/// of that call's samples (`.p99` its 99th percentile); a layer the
/// workload never calls reports 0 with n=0 in the report.
const PER_LAYER: [(&str, &str); 32] = [
    ("serve.read_request_us", "us"),
    ("serve.write_response_us", "us"),
    ("serve.server_us", "us"),
    ("serve.conn_completed_min", "count"),
    ("serve.conn_completed_max", "count"),
    ("serve.install_p50_us", "us"),
    ("appel.parse_us", "us"),
    ("p3p.parse_us", "us"),
    ("core.match_us", "us"),
    ("core.match_us.p99", "us"),
    ("core.convert_us", "us"),
    ("core.query_us", "us"),
    ("core.query_us.p99", "us"),
    ("core.translation_misses", "count"),
    ("core.verdict_hit_rate", "ratio"),
    ("core.install_us", "us"),
    ("core.refresh_us", "us"),
    ("core.sweep_us", "us"),
    ("core.sweep_us.p99", "us"),
    ("core.setup_install_s", "s"),
    ("core.install_first_us", "us"),
    ("core.install_last_us", "us"),
    ("core.first_match_us", "us"),
    ("workload.corpus_gen_s", "s"),
    ("minidb.rows_scanned", "count"),
    ("minidb.index_probes", "count"),
    ("minidb.seq_scans", "count"),
    ("minidb.exists_builds", "count"),
    ("minidb.exists_probes", "count"),
    ("trace.unattributed_us", "us"),
    ("trace.span_overhead", "ratio"),
    ("trace.glue_us", "us"),
];

/// Installs averaged at each end of the start-up loop for
/// `core.install_first_us` / `core.install_last_us`.
const INSTALL_WINDOW: usize = 200;

struct Args {
    daemon: PathBuf,
    kind: Kind,
    seed: u64,
    seconds: f64,
    trace: bool,
    smoke: bool,
    out: Option<PathBuf>,
    rev: String,
    source: String,
}

fn usage() -> ! {
    eprintln!(
        "usage: perfbench --daemon PATH --workload visit|publish|audit --seed N \
         --seconds S --trace 0|1 [--smoke] [--out DIR] [--rev REV] [--source DIGEST]"
    );
    std::process::exit(2)
}

fn parse_args() -> Args {
    let mut args = Args {
        daemon: PathBuf::new(),
        kind: Kind::Visit,
        seed: 1,
        seconds: 10.0,
        trace: false,
        smoke: false,
        out: None,
        rev: "unknown".into(),
        source: "unknown".into(),
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        if flag == "--smoke" {
            args.smoke = true;
            continue;
        }
        let value = it.next().unwrap_or_else(|| usage());
        let bad = |what: &str| -> ! {
            eprintln!("perfbench: bad {what}: {value}");
            usage()
        };
        match flag.as_str() {
            "--daemon" => args.daemon = PathBuf::from(&value),
            "--workload" => args.kind = Kind::parse(&value).unwrap_or_else(|| bad("workload")),
            "--seed" => args.seed = value.parse().unwrap_or_else(|_| bad("seed")),
            "--seconds" => {
                args.seconds = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| *s > 0.0)
                    .unwrap_or_else(|| bad("seconds"))
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => bad("trace"),
                }
            }
            "--out" => args.out = Some(PathBuf::from(&value)),
            "--rev" => args.rev = value,
            "--source" => args.source = value,
            _ => usage(),
        }
    }
    if args.daemon.as_os_str().is_empty() {
        usage();
    }
    args
}

fn main() {
    replay::origin();
    let args = parse_args();
    match run(&args) {
        Ok(result) => println!("{result}"),
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(1);
        }
    }
}

/// What the daemon run measured.
struct DaemonRun {
    setup_s: Vec<f64>,
    /// Epoch the probe answered with (the catalog after start-up).
    start_epoch: u64,
    warm: LoadRun,
    timed: LoadRun,
    cpu_us: f64,
    rss_mb: f64,
    /// `/metrics` after − before the timed sequence.
    delta: Scrape,
    /// Installs whose epoch broke the consecutive run.
    epoch_breaks: u64,
    /// Share of the VM's CPU time stolen by the hypervisor during the
    /// timed sequence.
    steal: f64,
}

fn run(args: &Args) -> Result<String, String> {
    let sizes = if args.smoke {
        Sizes::SMOKE
    } else {
        Sizes::FULL
    };
    // A cap for a daemon far slower than the sequence was sized for;
    // three capped phases (load, two replays) still end within 180 s.
    let deadline = Duration::from_secs_f64((args.seconds * 5.0).max(20.0));
    let generated = Instant::now();
    let plan = Plan::new(args.kind, args.seed, args.seconds, sizes);
    let reference = Reference::build(&plan, generated)?;
    let setups = if args.trace { 1 } else { sizes.setups };
    let daemon = run_daemon(args, &plan, &reference, setups, deadline)?;
    let replays = args.trace.then(|| {
        let untraced = replay::replay(&plan, &reference, false, deadline);
        let traced = replay::replay(&plan, &reference, true, deadline);
        (untraced, traced)
    });

    let mut report = String::new();
    let provenance = provenance(args, &plan, setups);
    writeln!(report, "perfbench {} seed {}", plan.kind.name(), plan.seed).unwrap();
    writeln!(report, "provenance: {provenance}").unwrap();
    let e2e = end_to_end(&plan, &daemon, &mut report);
    let (attempted, mut failed) = {
        let total = daemon.timed.total();
        (total.attempted, total.failed() + daemon.epoch_breaks)
    };
    let mut problems: Vec<String> = daemon
        .warm
        .problems
        .iter()
        .chain(&daemon.timed.problems)
        .cloned()
        .collect();
    if daemon.warm.total().failed() > 0 {
        problems.push(format!(
            "{} warm-up requests failed",
            daemon.warm.total().failed()
        ));
    }
    cross_check(&plan, &daemon, replays.as_ref().map(|r| &r.1), &mut report);

    let metrics: Vec<(&str, &str, f64)> = match &replays {
        None => END_TO_END
            .iter()
            .map(|&(name, unit)| (name, unit, e2e[name]))
            .collect(),
        Some((untraced, traced)) => {
            failed += (untraced.failures.len() + traced.failures.len()) as u64;
            problems.extend(untraced.failures.iter().take(5).cloned());
            problems.extend(traced.failures.iter().take(5).cloned());
            let layer = per_layer(&plan, &reference, &daemon, untraced, traced, &mut report);
            if let Some(dir) = &args.out {
                write_trace(dir, &plan, &reference, traced)?;
            }
            PER_LAYER
                .iter()
                .map(|&(name, unit)| (name, unit, layer[name]))
                .collect()
        }
    };
    let correct = failed == 0 && problems.is_empty();
    for p in &problems {
        writeln!(report, "problem: {p}").unwrap();
    }
    writeln!(
        report,
        "checks: {} (attempted {attempted}, failed {failed})",
        if correct { "pass" } else { "FAIL" }
    )
    .unwrap();

    let mut json = format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
    );
    for (i, (name, unit, value)) in metrics.iter().enumerate() {
        let value = if value.is_finite() { *value } else { 0.0 };
        write!(
            json,
            "{}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}",
            if i > 0 { ", " } else { "" }
        )
        .unwrap();
    }
    json.push_str("}}");
    if let Some(dir) = &args.out {
        let record = format!(
            "{{\"provenance\": {provenance}, \"trace\": {}, \"result\": {json}}}\n",
            args.trace as u8
        );
        write_out(
            dir,
            &format!("{}.json", run_name(&plan, args.trace)),
            &record,
        )?;
    }
    print!("{report}");
    Ok(json)
}

fn run_name(plan: &Plan, trace: bool) -> String {
    format!(
        "{}-seed{}-trace{}",
        plan.kind.name(),
        plan.seed,
        trace as u8
    )
}

fn write_out(dir: &std::path::Path, file: &str, text: &str) -> Result<(), String> {
    std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let path = dir.join(file);
    std::fs::write(&path, text).map_err(|e| format!("{}: {e}", path.display()))
}

fn provenance(args: &Args, plan: &Plan, setups: usize) -> String {
    format!(
        "{{\"workload\": \"{}\", \"seed\": {}, \"git_rev\": \"{}\", \"source_digest\": \"{}\", \
         \"nproc\": {}, \"corpus_n\": {}, \"sequence_len\": {}, \"reads\": {}, \"installs\": {}, \
         \"connections\": {}, \"daemon_flags\": \"{}\", \"setups\": {setups}, \"seconds\": {}}}",
        plan.kind.name(),
        plan.seed,
        args.rev,
        args.source,
        std::thread::available_parallelism().map_or(1, |p| p.get()),
        plan.sizes.corpus_n,
        plan.timed.len(),
        plan.reads(),
        plan.installs.len(),
        plan.kind.connections(),
        plan.daemon_args.join(" "),
        args.seconds,
    )
}

fn run_daemon(
    args: &Args,
    plan: &Plan,
    reference: &Reference,
    setups: usize,
    deadline: Duration,
) -> Result<DaemonRun, String> {
    let mut setup_s = Vec::new();
    let mut running: Option<(Daemon, Vec<Conn>)> = None;
    let mut start_epoch = 0;
    for _ in 0..setups {
        // The previous start-up's daemon is killed and reaped first.
        drop(running.take());
        let (daemon, spawned) = Daemon::spawn(&args.daemon, &plan.daemon_args)?;
        let mut clients = load::connect(daemon.addr, 1, plan.kind.polls())?;
        let answer = clients[0]
            .exchange(&plan.probe.bytes)
            .map_err(|e| format!("probe: {e}"))?;
        if answer.status != 200 {
            return Err(format!("probe answered {}", answer.status));
        }
        start_epoch = Checker::new(plan, reference)
            .check(plan.probe.op, &answer)
            .map_err(|e| format!("probe: {e}"))?;
        setup_s.push(spawned.elapsed().as_secs_f64());
        running = Some((daemon, clients));
    }
    let (daemon, mut clients) = running.expect("at least one set-up");
    clients.extend(load::connect(
        daemon.addr,
        plan.kind.connections() - clients.len(),
        plan.kind.polls(),
    )?);

    let warm = load::drive(
        daemon.addr,
        &mut clients,
        &plan.warmup,
        plan,
        reference,
        deadline,
    );
    let before = scrape(&mut clients[0])?;
    let cpu_before = daemon.cpu_us()?;
    let steal_before = daemon::host_steal_ticks()?;
    let timed = load::drive(
        daemon.addr,
        &mut clients,
        &plan.timed,
        plan,
        reference,
        deadline,
    );
    let cpu_us = daemon.cpu_us()? - cpu_before;
    let steal_after = daemon::host_steal_ticks()?;
    let after = scrape(&mut clients[0])?;
    let rss_mb = daemon.peak_rss_mb()?;
    drop(clients);
    drop(daemon);

    // Installs are answered with consecutive epochs after start-up.
    let mut epochs: Vec<u64> = timed
        .samples
        .iter()
        .filter(|s| matches!(plan.timed[s.index].op, Op::Install { .. }))
        .map(|s| s.epoch)
        .collect();
    epochs.sort_unstable();
    let epoch_breaks = epochs
        .iter()
        .enumerate()
        .filter(|&(i, &e)| e != start_epoch + 1 + i as u64)
        .count() as u64;

    Ok(DaemonRun {
        setup_s,
        start_epoch,
        warm,
        timed,
        cpu_us,
        rss_mb,
        delta: after.delta(&before),
        epoch_breaks,
        steal: (steal_after.0 - steal_before.0) / (steal_after.1 - steal_before.1).max(1.0),
    })
}

fn scrape(conn: &mut Conn) -> Result<Scrape, String> {
    let answer = conn
        .exchange(b"GET /metrics HTTP/1.1\r\nHost: p3p\r\nContent-Length: 0\r\n\r\n")
        .map_err(|e| format!("GET /metrics: {e}"))?;
    if answer.status != 200 {
        return Err(format!("GET /metrics answered {}", answer.status));
    }
    Ok(Scrape::parse(&answer.body_string()))
}

/// Latencies (µs) of the timed sequence's answered requests, filtered.
fn latencies(plan: &Plan, run: &LoadRun, keep: impl Fn(Op) -> bool) -> Vec<f64> {
    run.samples
        .iter()
        .filter(|s| keep(plan.timed[s.index].op))
        .map(|s| s.latency_us)
        .collect()
}

fn end_to_end(
    plan: &Plan,
    daemon: &DaemonRun,
    report: &mut String,
) -> std::collections::BTreeMap<&'static str, f64> {
    let total = daemon.timed.total();
    let all = Dist::of(&latencies(plan, &daemon.timed, |_| true));
    let reads = Dist::of(&latencies(plan, &daemon.timed, Op::is_read));
    let installs = Dist::of(&latencies(plan, &daemon.timed, |op| !op.is_read()));
    let (q1, setup_median, q3) = quartiles(&daemon.setup_s);
    let p99 = all.p99.unwrap_or(all.max);
    let completed = total.completed.max(1) as f64;
    let mut m = std::collections::BTreeMap::new();
    m.insert("setup_s", setup_median);
    m.insert(
        "qps",
        total.completed as f64 / daemon.timed.wall.as_secs_f64(),
    );
    m.insert("p50_us", all.p50);
    m.insert("p99_us", p99);
    m.insert("cpu_us_per_req", daemon.cpu_us / completed);
    m.insert("rss_mb", daemon.rss_mb);

    let r = report;
    writeln!(r, "end to end (daemon over HTTP, untraced):").unwrap();
    writeln!(
        r,
        "  setup_s        {setup_median:.4} s  (median of {}: {:?}; q1 {q1:.4} q3 {q3:.4})",
        daemon.setup_s.len(),
        daemon
            .setup_s
            .iter()
            .map(|s| (s * 1e4).round() / 1e4)
            .collect::<Vec<_>>()
    )
    .unwrap();
    writeln!(
        r,
        "  qps            {:.2} req/s  ({} completed in {:.3} s)",
        m["qps"],
        total.completed,
        daemon.timed.wall.as_secs_f64()
    )
    .unwrap();
    writeln!(r, "  requests       {}", all.describe("us")).unwrap();
    if all.p99.is_none() {
        writeln!(
            r,
            "  p99_us         fewer than ten samples beyond the p99: reporting the max"
        )
        .unwrap();
    }
    if installs.n > 0 {
        writeln!(r, "  reads          {}", reads.describe("us")).unwrap();
        writeln!(r, "  installs       {}", installs.describe("us")).unwrap();
        let in_order: Vec<String> = latencies(plan, &daemon.timed, |op| !op.is_read())
            .iter()
            .map(|us| format!("{:.0}", us / 1e3))
            .collect();
        writeln!(r, "  install ms in sequence order: {}", in_order.join(" ")).unwrap();
    }
    writeln!(
        r,
        "  cpu_us_per_req {:.1} us  (daemon utime+stime {:.3} s)",
        m["cpu_us_per_req"],
        daemon.cpu_us / 1e6
    )
    .unwrap();
    writeln!(r, "  rss_mb         {:.1} MB (VmHWM)", daemon.rss_mb).unwrap();
    writeln!(
        r,
        "  host cpu steal during the timed sequence: {:.2}%",
        daemon.steal * 100.0
    )
    .unwrap();
    writeln!(
        r,
        "  start epoch {}; epoch breaks among installs: {}",
        daemon.start_epoch, daemon.epoch_breaks
    )
    .unwrap();
    for (i, c) in daemon.timed.conns.iter().enumerate() {
        writeln!(
            r,
            "  connection {i}: attempted {} completed {} failed {} (non-200 {}, transport {}, wrong {})",
            c.attempted,
            c.completed,
            c.failed(),
            c.non_200,
            c.transport,
            c.wrong
        )
        .unwrap();
    }
    m
}

/// The daemon's own `/metrics` deltas beside the client's and the
/// replay's numbers for the same sequence.
fn cross_check(plan: &Plan, daemon: &DaemonRun, traced: Option<&ReplayRun>, r: &mut String) {
    let d = &daemon.delta;
    let mean = |(sum, count): (f64, f64)| if count > 0.0 { sum / count } else { 0.0 };
    let spans = traced.map(|t| replay::by_name(&t.spans));
    let replay_mean = |name: &str| {
        spans
            .as_ref()
            .and_then(|s| s.get(name))
            .map_or("-".to_string(), |(durations, _)| {
                format!("{:.1}", Dist::of(durations).mean)
            })
    };
    writeln!(r, "daemon /metrics deltas over the timed sequence:").unwrap();
    for labels in d.hist_label_sets("p3p_http_request_us") {
        let (sum, count) = d.hist("p3p_http_request_us", &labels);
        if count == 0.0 {
            continue;
        }
        let endpoint = labels
            .trim_start_matches("endpoint=\"")
            .trim_end_matches('"');
        let client = Dist::of(&latencies(plan, &daemon.timed, |op| {
            op.endpoint() == endpoint
        }));
        writeln!(
            r,
            "  p3p_http_request_us{{{labels}}}  mean {:.1} us (n={count})  client mean {:.1} us",
            sum / count,
            client.mean
        )
        .unwrap();
    }
    for labels in d.hist_label_sets("p3p_match_phase_us") {
        let (sum, count) = d.hist("p3p_match_phase_us", &labels);
        if count > 0.0 {
            writeln!(
                r,
                "  p3p_match_phase_us{{{labels}}}  mean {:.1} us (n={count})",
                sum / count
            )
            .unwrap();
        }
    }
    if let Some(t) = traced {
        writeln!(
            r,
            "    replay: convert mean {:.1} us, query mean {:.1} us (n={})",
            Dist::of(&t.convert_us).mean,
            Dist::of(&t.query_us).mean,
            t.query_us.len()
        )
        .unwrap();
    }
    let install = d.hist("p3p_install_policy_us", "");
    if install.1 > 0.0 {
        writeln!(
            r,
            "  p3p_install_policy_us  mean {:.1} us (n={})  replay core.install mean {} us",
            mean(install),
            install.1,
            replay_mean("core.install")
        )
        .unwrap();
        for labels in d.hist_label_sets("p3p_shred_us") {
            let shred = d.hist("p3p_shred_us", &labels);
            writeln!(
                r,
                "  p3p_shred_us{{{labels}}}  mean {:.1} us (n={})",
                mean(shred),
                shred.1
            )
            .unwrap();
        }
    }
    let bulk = d.hist("p3p_bulk_match_latency_us", "");
    if bulk.1 > 0.0 {
        writeln!(
            r,
            "  p3p_bulk_match_latency_us  mean {:.1} us per shard (n={})  replay core.sweep mean {} us",
            mean(bulk),
            bulk.1,
            replay_mean("core.sweep")
        )
        .unwrap();
    }
    let reads = daemon
        .timed
        .samples
        .iter()
        .filter(|s| plan.timed[s.index].op.is_read())
        .count()
        .max(1) as f64;
    for cache in ["translation", "verdict"] {
        let hits = d.get(&format!("p3p_{cache}_cache_hits_total"));
        let misses = d.get(&format!("p3p_{cache}_cache_misses_total"));
        writeln!(r, "  p3p_{cache}_cache  hits {hits} misses {misses}").unwrap();
    }
    if let Some(t) = traced {
        writeln!(
            r,
            "    replay: translation misses {}, verdict hits {} of {} matches",
            t.translation_misses, t.verdict_hits, t.matches
        )
        .unwrap();
    }
    writeln!(
        r,
        "  p3p_db_rows_scanned_total  {} ({:.1} per read){}",
        d.get("p3p_db_rows_scanned_total"),
        d.get("p3p_db_rows_scanned_total") / reads,
        traced.map_or(String::new(), |t| format!(
            "  replay /match rows per match {:.1}",
            t.db.rows_scanned as f64 / t.matches.max(1) as f64
        ))
    )
    .unwrap();
}

fn per_layer(
    plan: &Plan,
    reference: &Reference,
    daemon: &DaemonRun,
    untraced: &ReplayRun,
    traced: &ReplayRun,
    r: &mut String,
) -> std::collections::BTreeMap<&'static str, f64> {
    let spans = replay::by_name(&traced.spans);
    let dist = |name: &str| {
        spans
            .get(name)
            .map(|(d, _)| Dist::of(d))
            .unwrap_or_default()
    };
    let mut m = std::collections::BTreeMap::new();
    let p99 = |d: Dist| d.p99.unwrap_or(0.0);

    m.insert("serve.read_request_us", dist("serve.read_request").p50);
    m.insert("serve.write_response_us", dist("serve.write_response").p50);
    let (sum, count) = daemon.delta.hist("p3p_http_request_us", "");
    m.insert(
        "serve.server_us",
        if count > 0.0 { sum / count } else { 0.0 },
    );
    let completed: Vec<u64> = daemon.timed.conns.iter().map(|c| c.completed).collect();
    m.insert(
        "serve.conn_completed_min",
        completed.iter().copied().min().unwrap_or(0) as f64,
    );
    m.insert(
        "serve.conn_completed_max",
        completed.iter().copied().max().unwrap_or(0) as f64,
    );
    let installs = Dist::of(&latencies(plan, &daemon.timed, |op| !op.is_read()));
    m.insert("serve.install_p50_us", installs.p50);
    m.insert("appel.parse_us", dist("appel.parse").p50);
    m.insert("p3p.parse_us", dist("p3p.parse").p50);
    m.insert("core.match_us", dist("core.match").p50);
    m.insert("core.match_us.p99", p99(dist("core.match")));
    let convert = Dist::of(&traced.convert_us);
    let query = Dist::of(&traced.query_us);
    m.insert("core.convert_us", convert.p50);
    m.insert("core.query_us", query.p50);
    m.insert("core.query_us.p99", p99(query));
    m.insert("core.translation_misses", traced.translation_misses as f64);
    let hit_rate = if plan.kind.verdict_cache().is_some() && traced.matches > 0 {
        traced.verdict_hits as f64 / traced.matches as f64
    } else {
        0.0
    };
    m.insert("core.verdict_hit_rate", hit_rate);
    m.insert("core.install_us", dist("core.install").p50);
    m.insert("core.refresh_us", dist("core.refresh").p50);
    m.insert("core.sweep_us", dist("core.sweep").p50);
    m.insert("core.sweep_us.p99", p99(dist("core.sweep")));

    let window = INSTALL_WINDOW.min(reference.install_us.len() / 2).max(1);
    let mean_us = |xs: &[f64]| xs.iter().sum::<f64>() / xs.len().max(1) as f64;
    let n = reference.install_us.len();
    m.insert(
        "core.setup_install_s",
        reference.install_total.as_secs_f64(),
    );
    m.insert(
        "core.install_first_us",
        mean_us(&reference.install_us[..window]),
    );
    m.insert(
        "core.install_last_us",
        mean_us(&reference.install_us[n - window..]),
    );
    m.insert(
        "core.first_match_us",
        reference.first_match.as_secs_f64() * 1e6,
    );
    m.insert("workload.corpus_gen_s", plan.corpus_gen.as_secs_f64());

    // Executor counts per read request: exact per-match statistics for
    // `/match`; for sweeps the daemon's counters (shard threads keep
    // their statistics thread-local), and for the EXISTS counts, which
    // the daemon does not export, the single-threaded reference sweep.
    let per_read = |total: f64, reads: f64| if reads > 0.0 { total / reads } else { 0.0 };
    if plan.kind == Kind::Audit {
        let sweeps = daemon.timed.total().completed as f64;
        let d = &daemon.delta;
        m.insert(
            "minidb.rows_scanned",
            per_read(d.get("p3p_db_rows_scanned_total"), sweeps),
        );
        m.insert(
            "minidb.index_probes",
            per_read(d.get("p3p_db_index_probes_total"), sweeps),
        );
        m.insert(
            "minidb.seq_scans",
            per_read(d.get("p3p_db_seq_scans_total"), sweeps),
        );
        let mut exists = ExecStats::default();
        for request in &plan.timed {
            if let Op::Sweep { pref } = request.op {
                exists = replay::add_stats(&exists, &reference.sweep_stats[pref]);
            }
        }
        let sweeps = plan.timed.len() as f64;
        m.insert(
            "minidb.exists_builds",
            per_read(exists.exists_builds as f64, sweeps),
        );
        m.insert(
            "minidb.exists_probes",
            per_read(exists.exists_probes as f64, sweeps),
        );
    } else {
        let db = &traced.db;
        let matches = traced.matches as f64;
        m.insert(
            "minidb.rows_scanned",
            per_read(db.rows_scanned as f64, matches),
        );
        m.insert(
            "minidb.index_probes",
            per_read(db.index_probes as f64, matches),
        );
        m.insert("minidb.seq_scans", per_read(db.seq_scans as f64, matches));
        m.insert(
            "minidb.exists_builds",
            per_read(db.exists_builds as f64, matches),
        );
        m.insert(
            "minidb.exists_probes",
            per_read(db.exists_probes as f64, matches),
        );
    }

    let e2e_mean = Dist::of(&latencies(plan, &daemon.timed, |_| true)).mean;
    let replay_mean = Dist::of(&untraced.latency_us).mean;
    m.insert("trace.unattributed_us", e2e_mean - replay_mean);
    m.insert(
        "trace.span_overhead",
        traced.wall.as_secs_f64() / untraced.wall.as_secs_f64(),
    );
    let glue = spans
        .get("request")
        .map(|(_, self_us)| Dist::of(self_us))
        .unwrap_or_default();
    m.insert("trace.glue_us", glue.p50);

    writeln!(
        r,
        "per layer (in-process replay, traced; duration | self time):"
    )
    .unwrap();
    for (name, (durations, self_us)) in &spans {
        writeln!(
            r,
            "  {name:<22} {}  | self p50 {:.1} us",
            Dist::of(durations).describe("us"),
            Dist::of(self_us).p50
        )
        .unwrap();
    }
    writeln!(r, "  core convert (outcome)  {}", convert.describe("us")).unwrap();
    writeln!(r, "  core query (outcome)    {}", query.describe("us")).unwrap();
    writeln!(
        r,
        "  setup replay: corpus_gen {:.4} s, install loop {:.4} s ({} policies; first {window} mean {:.1} us, last {window} mean {:.1} us), first match {:.1} us",
        plan.corpus_gen.as_secs_f64(),
        reference.install_total.as_secs_f64(),
        n,
        m["core.install_first_us"],
        m["core.install_last_us"],
        m["core.first_match_us"],
    )
    .unwrap();
    writeln!(
        r,
        "  replay wall: untraced {:.3} s, traced {:.3} s (overhead {:.4}); e2e mean {:.1} us - replay mean {:.1} us = unattributed {:.1} us",
        untraced.wall.as_secs_f64(),
        traced.wall.as_secs_f64(),
        m["trace.span_overhead"],
        e2e_mean,
        replay_mean,
        m["trace.unattributed_us"],
    )
    .unwrap();
    for (name, unit) in PER_LAYER {
        writeln!(r, "  {name} = {} {unit}", m[name]).unwrap();
    }
    m
}

/// Write the set-up and timed spans as one Chrome trace.
fn write_trace(
    dir: &std::path::Path,
    plan: &Plan,
    reference: &Reference,
    traced: &ReplayRun,
) -> Result<(), String> {
    let mut spans = reference.spans.clone();
    replay::append_spans(&mut spans, traced.spans.clone());
    write_out(
        dir,
        &format!("{}.spans.json", run_name(plan, true)),
        &replay::chrome_trace(&spans),
    )
}
