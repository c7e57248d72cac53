//! The in-process side of the benchmark.
//!
//! * [`Reference`] rebuilds the daemon's start-up in this process —
//!   `corpus_n`, the install loop, the first match — timing each step,
//!   and answers what every response must say.
//! * [`replay`] sends a plan's sequence through the daemon's layers by
//!   calling their public functions directly, on the same number of
//!   threads the load generator uses, optionally wrapping each call in
//!   a [`Span`].

use crate::workload::{Op, Plan, Request};
use p3p_appel::engine::Verdict;
use p3p_appel::model::Ruleset;
use p3p_minidb::exec::ExecStats;
use p3p_policy::model::Policy;
use p3p_serve::http;
use p3p_server::concurrent::{MatchPool, SharedServer};
use p3p_server::{EngineKind, MatchOutcome, PolicyServer, Target};
use std::collections::{BTreeMap, HashMap};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;
use std::time::{Duration, Instant};

/// The daemon's default `Content-Length` cap is far above any body the
/// plans send; the replay parses with a cap that cannot reject them.
const MAX_BODY: usize = 64 << 20;

/// Common origin of every span's timestamps.
pub fn origin() -> Instant {
    static ORIGIN: OnceLock<Instant> = OnceLock::new();
    *ORIGIN.get_or_init(Instant::now)
}

fn ns_since_origin(t: Instant) -> u64 {
    t.saturating_duration_since(origin()).as_nanos() as u64
}

/// One timed call. Spans of one request share `request`; set-up spans
/// use request 0 and timed requests their sequence position plus one.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span in the same list.
    pub parent: Option<usize>,
    pub request: u64,
    pub thread: usize,
}

impl Span {
    pub fn us(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e3
    }
}

/// Per-thread span buffer; a disabled recorder costs one branch per
/// call.
pub struct Recorder {
    enabled: bool,
    thread: usize,
    request: u64,
    stack: Vec<usize>,
    pub spans: Vec<Span>,
}

impl Recorder {
    pub fn new(enabled: bool, thread: usize) -> Recorder {
        Recorder {
            enabled,
            thread,
            request: 0,
            stack: Vec::new(),
            spans: Vec::new(),
        }
    }

    pub fn open(&mut self, name: &'static str) {
        if !self.enabled {
            return;
        }
        let now = ns_since_origin(Instant::now());
        self.spans.push(Span {
            name,
            start_ns: now,
            end_ns: now,
            parent: self.stack.last().copied(),
            request: self.request,
            thread: self.thread,
        });
        self.stack.push(self.spans.len() - 1);
    }

    pub fn close(&mut self) {
        if !self.enabled {
            return;
        }
        let now = ns_since_origin(Instant::now());
        let index = self.stack.pop().expect("close without open");
        self.spans[index].end_ns = now;
    }

    /// Record an already-measured interval as a child of the open span.
    fn record(&mut self, name: &'static str, start: Instant, end: Instant) {
        if !self.enabled {
            return;
        }
        self.spans.push(Span {
            name,
            start_ns: ns_since_origin(start),
            end_ns: ns_since_origin(end),
            parent: self.stack.last().copied(),
            request: self.request,
            thread: self.thread,
        });
    }

    fn timed<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        self.open(name);
        let out = f();
        self.close();
        out
    }
}

/// Start-up rebuilt in-process, plus every verdict the daemon must give.
pub struct Reference {
    pub server: PolicyServer,
    /// `verdicts[pref][policy]`, policy indices in corpus order.
    pub verdicts: Vec<Vec<Verdict>>,
    /// `PolicyServer::match_corpus` per preference (name order).
    pub sweeps: Vec<Vec<(String, Verdict)>>,
    /// Executor statistics of each single-threaded reference sweep.
    pub sweep_stats: Vec<ExecStats>,
    /// Per-policy install times of the start-up loop, in order (µs).
    pub install_us: Vec<f64>,
    pub install_total: Duration,
    pub first_match: Duration,
    /// The start-up spans (request 0).
    pub spans: Vec<Span>,
}

impl Reference {
    pub fn build(plan: &Plan, corpus_gen_started: Instant) -> Result<Reference, String> {
        let mut rec = Recorder::new(true, 0);
        rec.open("setup");
        rec.record(
            "workload.corpus_gen",
            corpus_gen_started,
            corpus_gen_started + plan.corpus_gen,
        );
        let mut server = PolicyServer::new();
        let mut install_us = Vec::with_capacity(plan.corpus.len());
        rec.open("core.setup_install");
        let loop_started = Instant::now();
        for policy in &plan.corpus {
            let t = Instant::now();
            server
                .install_policy(policy)
                .map_err(|e| format!("reference install of {}: {e}", policy.name))?;
            install_us.push(t.elapsed().as_secs_f64() * 1e6);
        }
        let install_total = loop_started.elapsed();
        rec.close();

        let Op::Match { pref, policy } = plan.probe.op else {
            unreachable!("the probe is a /match");
        };
        rec.open("core.first_match");
        let t = Instant::now();
        let probe = server
            .match_preference(
                &plan.prefs[pref],
                Target::Policy(&plan.corpus[policy].name),
                EngineKind::Sql,
            )
            .map_err(|e| format!("reference probe: {e}"))?;
        let first_match = t.elapsed();
        rec.close();
        rec.close();

        let index: HashMap<&str, usize> = plan
            .corpus
            .iter()
            .enumerate()
            .map(|(i, p)| (p.name.as_str(), i))
            .collect();
        let mut verdicts = Vec::new();
        let mut sweeps = Vec::new();
        let mut sweep_stats = Vec::new();
        for ruleset in &plan.prefs {
            let sweep = server
                .match_corpus(ruleset, EngineKind::Sql)
                .map_err(|e| format!("reference sweep: {e}"))?;
            sweep_stats.push(p3p_minidb::exec::stats_snapshot());
            let mut by_policy = vec![None; plan.corpus.len()];
            for (name, verdict) in &sweep {
                by_policy[index[name.as_str()]] = Some(verdict.clone());
            }
            verdicts.push(
                by_policy
                    .into_iter()
                    .map(|v| v.ok_or("a corpus policy is missing from the sweep"))
                    .collect::<Result<Vec<_>, _>>()?,
            );
            sweeps.push(sweep);
        }
        if verdicts[pref][policy] != probe.verdict {
            return Err("reference sweep and point match disagree on the probe".into());
        }
        Ok(Reference {
            server,
            verdicts,
            sweeps,
            sweep_stats,
            install_us,
            install_total,
            first_match,
            spans: rec.spans,
        })
    }

    /// The verdict `/match` must return for a (preference, policy) pair.
    pub fn expected(&self, pref: usize, policy: usize) -> &Verdict {
        &self.verdicts[pref][policy]
    }
}

/// Tallies of one replay.
#[derive(Debug, Default)]
pub struct ReplayRun {
    pub wall: Duration,
    /// Per timed request, the root span's duration (µs).
    pub latency_us: Vec<f64>,
    pub spans: Vec<Span>,
    pub convert_us: Vec<f64>,
    pub query_us: Vec<f64>,
    /// Summed executor statistics of every `/match`.
    pub db: ExecStats,
    pub matches: u64,
    pub verdict_hits: u64,
    pub translation_misses: u64,
    pub failures: Vec<String>,
}

struct Ctx<'a> {
    plan: &'a Plan,
    reference: &'a Reference,
    shared: SharedServer,
    pool: MatchPool,
    shards: usize,
}

/// Replay the plan's warm-up (untimed) and timed sequence in-process.
pub fn replay(plan: &Plan, reference: &Reference, traced: bool, deadline: Duration) -> ReplayRun {
    let mut server = reference.server.clone_state();
    if let Some(capacity) = plan.kind.verdict_cache() {
        server.set_verdict_cache_capacity(capacity);
    }
    let shared = SharedServer::new(server);
    let pool = MatchPool::new(&shared);
    let ctx = Ctx {
        plan,
        reference,
        pool,
        shared,
        shards: std::thread::available_parallelism().map_or(1, |p| p.get()),
    };
    let threads = plan.kind.connections();
    let mut run = ReplayRun::default();

    let warm = run_threads(&ctx, &plan.warmup, threads, false, Duration::MAX, 0);
    run.failures
        .extend(warm.into_iter().flat_map(|t| t.run.failures));

    let misses_before = ctx.shared.with(|s| s.translation_cache_stats().misses);
    let started = Instant::now();
    let parts = run_threads(&ctx, &plan.timed, threads, traced, deadline, 1);
    run.wall = started.elapsed();
    run.translation_misses =
        ctx.shared.with(|s| s.translation_cache_stats().misses) - misses_before;

    let mut latency = vec![f64::NAN; plan.timed.len()];
    for part in parts {
        for (i, us) in part.latency {
            latency[i] = us;
        }
        let t = part.run;
        append_spans(&mut run.spans, t.spans);
        run.convert_us.extend(t.convert_us);
        run.query_us.extend(t.query_us);
        run.db = add_stats(&run.db, &t.db);
        run.matches += t.matches;
        run.verdict_hits += t.verdict_hits;
        run.failures.extend(t.failures);
    }
    let skipped = latency.iter().filter(|v| v.is_nan()).count();
    if skipped > 0 {
        run.failures.push(format!(
            "{skipped} requests not replayed before the deadline"
        ));
    }
    run.latency_us = latency.into_iter().filter(|v| !v.is_nan()).collect();
    run
}

struct ThreadPart {
    run: ReplayRun,
    latency: Vec<(usize, f64)>,
}

fn run_threads(
    ctx: &Ctx<'_>,
    requests: &[Request],
    threads: usize,
    traced: bool,
    deadline: Duration,
    first_request_id: u64,
) -> Vec<ThreadPart> {
    let next = AtomicUsize::new(0);
    let started = Instant::now();
    let worker = |thread: usize| {
        let mut rec = Recorder::new(traced, thread);
        let mut part = ThreadPart {
            run: ReplayRun::default(),
            latency: Vec::new(),
        };
        loop {
            let i = next.fetch_add(1, Ordering::Relaxed);
            if i >= requests.len() || started.elapsed() > deadline {
                break;
            }
            rec.request = first_request_id + i as u64;
            let t = Instant::now();
            rec.open("request");
            let result = serve_one(ctx, &requests[i], &mut rec, &mut part.run);
            rec.close();
            part.latency.push((i, t.elapsed().as_secs_f64() * 1e6));
            if let Err(e) = result {
                part.run.failures.push(format!("request {i}: {e}"));
            }
        }
        part.run.spans = rec.spans;
        part
    };
    std::thread::scope(|scope| {
        let helpers: Vec<_> = (1..threads)
            .map(|t| scope.spawn(move || worker(t)))
            .collect();
        let mut parts = vec![worker(0)];
        parts.extend(
            helpers
                .into_iter()
                .map(|h| h.join().expect("replay thread panicked")),
        );
        parts
    })
}

/// One request through the daemon's layers, in the daemon's order:
/// read the request, parse the document, call the layer, write the
/// response. The verdict check sits between the layer call and the
/// write, outside every layer span.
fn serve_one(
    ctx: &Ctx<'_>,
    request: &Request,
    rec: &mut Recorder,
    acc: &mut ReplayRun,
) -> Result<(), String> {
    let parsed = rec.timed("serve.read_request", || {
        http::read_request(&mut &request.bytes[..], MAX_BODY)
    });
    let parsed = parsed.map_err(|e| format!("read_request: {e}"))?;
    let text = std::str::from_utf8(&parsed.body).map_err(|e| e.to_string())?;
    let (body, epoch) = match request.op {
        Op::Match { pref, policy } => {
            let ruleset = rec
                .timed("appel.parse", || Ruleset::parse(text))
                .map_err(|e| e.to_string())?;
            let name = parsed.query_param("policy").ok_or("no policy= parameter")?;
            let outcome = rec
                .timed("core.match", || {
                    ctx.pool
                        .match_preference(&ruleset, Target::Policy(name), EngineKind::Sql)
                })
                .map_err(|e| e.to_string())?;
            acc.matches += 1;
            acc.verdict_hits += outcome.verdict_cached as u64;
            acc.convert_us.push(outcome.convert.as_secs_f64() * 1e6);
            acc.query_us.push(outcome.query.as_secs_f64() * 1e6);
            acc.db = add_stats(&acc.db, &outcome.db_stats);
            let expected = ctx.reference.expected(pref, policy);
            if outcome.verdict != *expected {
                return Err(format!(
                    "verdict {:?}, reference {expected:?}",
                    outcome.verdict
                ));
            }
            (outcome_json(&outcome), outcome.epoch)
        }
        Op::Install { index } => {
            rec.timed("p3p.parse", || Policy::parse(text))
                .map_err(|e| e.to_string())?;
            let (policy_id, epoch) = rec
                .timed("core.install", || {
                    ctx.shared.with(|server| {
                        server
                            .install_policy_xml(text)
                            .map(|id| (id, server.catalog_epoch()))
                    })
                })
                .map_err(|e| format!("install {}: {e}", ctx.plan.installs[index].0))?;
            rec.timed("core.refresh", || ctx.pool.refresh(&ctx.shared));
            (
                format!("{{\"policy_id\": {policy_id}, \"epoch\": {epoch}}}\n"),
                epoch,
            )
        }
        Op::Sweep { pref } => {
            let ruleset = rec
                .timed("appel.parse", || Ruleset::parse(text))
                .map_err(|e| e.to_string())?;
            let (epoch, verdicts) = rec
                .timed("core.sweep", || {
                    ctx.pool
                        .match_corpus_pinned(&ruleset, EngineKind::Sql, ctx.shards)
                })
                .map_err(|e| e.to_string())?;
            if verdicts != ctx.reference.sweeps[pref] {
                return Err("sweep verdicts differ from the reference".to_string());
            }
            (sweep_json(epoch, &verdicts), epoch)
        }
    };
    let mut extra = BTreeMap::new();
    extra.insert("X-P3P-Epoch", epoch.to_string());
    let mut out = Vec::with_capacity(body.len() + 160);
    rec.timed("serve.write_response", || {
        http::write_response(
            &mut out,
            200,
            "application/json",
            &extra,
            body.as_bytes(),
            parsed.keep_alive,
        )
    })
    .map_err(|e| e.to_string())?;
    std::hint::black_box(&out);
    Ok(())
}

/// The daemon's `/match` body.
fn outcome_json(outcome: &MatchOutcome) -> String {
    format!(
        "{{\"behavior\": \"{}\", \"fired_rule\": {}, \"epoch\": {}, \"verdict_cached\": {}, \
         \"translation_cached\": {}, \"convert_us\": {}, \"query_us\": {}}}\n",
        http::json_escape(outcome.verdict.behavior.as_str()),
        outcome
            .verdict
            .fired_rule
            .map_or("null".to_string(), |i| i.to_string()),
        outcome.epoch,
        outcome.verdict_cached,
        outcome.cached,
        outcome.convert.as_micros(),
        outcome.query.as_micros(),
    )
}

/// The daemon's `/match_corpus` body.
fn sweep_json(epoch: u64, verdicts: &[(String, Verdict)]) -> String {
    let mut body = format!(
        "{{\"epoch\": {epoch}, \"policies\": {}, \"verdicts\": [",
        verdicts.len()
    );
    for (i, (name, verdict)) in verdicts.iter().enumerate() {
        if i > 0 {
            body.push_str(", ");
        }
        body.push_str(&format!(
            "{{\"name\": \"{}\", \"behavior\": \"{}\", \"fired_rule\": {}}}",
            http::json_escape(name),
            http::json_escape(verdict.behavior.as_str()),
            verdict
                .fired_rule
                .map_or("null".to_string(), |i| i.to_string()),
        ));
    }
    body.push_str("]}\n");
    body
}

pub fn add_stats(a: &ExecStats, b: &ExecStats) -> ExecStats {
    ExecStats {
        rows_scanned: a.rows_scanned + b.rows_scanned,
        index_probes: a.index_probes + b.index_probes,
        subqueries: a.subqueries + b.subqueries,
        seq_scans: a.seq_scans + b.seq_scans,
        rows_output: a.rows_output + b.rows_output,
        exists_builds: a.exists_builds + b.exists_builds,
        exists_probes: a.exists_probes + b.exists_probes,
        join_hash_builds: a.join_hash_builds + b.join_hash_builds,
        join_hash_probes: a.join_hash_probes + b.join_hash_probes,
        planner_reorders: a.planner_reorders + b.planner_reorders,
    }
}

/// Move `src` (a list whose parent indices point into itself) onto
/// the end of `dst`, keeping every parent index pointing at its span.
pub fn append_spans(dst: &mut Vec<Span>, src: Vec<Span>) {
    let offset = dst.len();
    dst.extend(src.into_iter().map(|mut s| {
        s.parent = s.parent.map(|p| p + offset);
        s
    }));
}

/// Durations and self times (duration minus the children's) by span
/// name, in µs.
pub fn by_name(spans: &[Span]) -> BTreeMap<&'static str, (Vec<f64>, Vec<f64>)> {
    let mut child_us = vec![0.0; spans.len()];
    for s in spans {
        if let Some(parent) = s.parent {
            child_us[parent] += s.us();
        }
    }
    let mut out: BTreeMap<&'static str, (Vec<f64>, Vec<f64>)> = BTreeMap::new();
    for (s, children) in spans.iter().zip(child_us) {
        let entry = out.entry(s.name).or_default();
        entry.0.push(s.us());
        entry.1.push(s.us() - children);
    }
    out
}

/// Spans as Chrome trace-event JSON (`chrome://tracing`, Perfetto).
pub fn chrome_trace(spans: &[Span]) -> String {
    let mut out = String::from("{\"traceEvents\": [\n");
    for (i, s) in spans.iter().enumerate() {
        if i > 0 {
            out.push_str(",\n");
        }
        out.push_str(&format!(
            "{{\"name\": \"{}\", \"ph\": \"X\", \"pid\": 1, \"tid\": {}, \"ts\": {:.3}, \"dur\": {:.3}, \
             \"args\": {{\"request\": {}, \"parent\": {}}}}}",
            s.name,
            s.thread,
            s.start_ns as f64 / 1e3,
            s.us(),
            s.request,
            s.parent.map_or("null".to_string(), |p| p.to_string()),
        ));
    }
    out.push_str("\n]}\n");
    out
}
