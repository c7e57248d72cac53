//! The long-running policy-server daemon: a worker pool over
//! [`MatchPool`] snapshots behind a hand-rolled HTTP/1.1 listener.
//!
//! Node shape: one accept thread feeds accepted connections through
//! the bounded [`Admission`] queue to `workers` threads, each of which
//! owns one connection at a time and serves keep-alive requests off it
//! until the peer closes, the idle timeout fires, or a drain begins.
//! Matching runs against the shared [`MatchPool`] snapshot — zero-copy
//! and epoch-pinned, so every response carries the catalog epoch it
//! was answered under (`X-P3P-Epoch` header and `"epoch"` body field).
//! Installs take the primary's lock and refresh the pool, bumping the
//! epoch that subsequent responses report.
//!
//! Endpoints:
//!
//! * `POST /install` — body is P3P policy XML; shreds and installs.
//! * `POST /match?policy=NAME[&engine=E]` — body is an APPEL ruleset;
//!   `uri=` / `cookie=` select the other target forms.
//! * `POST /match_corpus[?engine=E]` — body is an APPEL ruleset;
//!   sweeps every installed policy, one pinned epoch (engines whose
//!   sweep is a per-policy loop shard it across one thread per core).
//! * `GET /metrics` — the shared registry's Prometheus text page,
//!   byte-identical to [`metrics::render_text`].
//! * `GET /health` — liveness, policy count, epoch, drain state.
//!
//! `/metrics` and `/health` bypass admission control and record no
//! request metrics: observability must stay readable exactly when the
//! daemon is saturated, and the `/metrics` body stays byte-identical
//! to the registry render at the instant of the request.
//!
//! Graceful drain ([`Daemon::begin_drain`], SIGTERM in `p3p-serverd`):
//! the listener closes (new connections are refused by the OS), queued
//! and in-flight requests complete and are answered with
//! `Connection: close`, the metrics snapshot is flushed, and
//! [`Daemon::join`] returns the final stats — no verdict in flight is
//! lost.

use crate::admission::{Admission, Endpoint, EndpointLimits, Rejection};
use crate::http::{json_escape, read_request, write_response, Method, Request, DEFAULT_MAX_BODY};
use p3p_appel::model::Ruleset;
use p3p_server::concurrent::{MatchPool, SharedServer};
use p3p_server::{EngineKind, MatchOutcome, PolicyServer, ServerError, Target};
use p3p_telemetry::metrics;
use std::collections::BTreeMap;
use std::io::{self, BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Daemon knobs.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Worker threads (each owns one connection at a time).
    pub workers: usize,
    /// Bounded connection-queue capacity; beyond it, accepts answer
    /// 429 immediately.
    pub queue_depth: usize,
    /// Per-endpoint in-flight caps.
    pub limits: EndpointLimits,
    /// `Content-Length` cap.
    pub max_body_bytes: usize,
    /// Budget for reading one request once its first byte arrived;
    /// a peer stalling longer gets 408.
    pub read_timeout: Duration,
    /// How long an idle keep-alive connection may hold a worker.
    pub keep_alive_timeout: Duration,
    /// Artificial per-request handler delay — load/drain drills use it
    /// to keep requests in flight deterministically. Zero in service.
    pub delay_ms: u64,
}

impl Default for ServeConfig {
    fn default() -> ServeConfig {
        ServeConfig {
            workers: 4,
            queue_depth: 128,
            limits: EndpointLimits::default(),
            max_body_bytes: DEFAULT_MAX_BODY,
            read_timeout: Duration::from_secs(5),
            keep_alive_timeout: Duration::from_secs(30),
            delay_ms: 0,
        }
    }
}

/// Final tallies returned by [`Daemon::join`].
#[derive(Debug, Clone, Default)]
pub struct DaemonStats {
    /// Connections accepted (including ones bounced with 429).
    pub connections: u64,
    /// Requests answered with any status.
    pub served: u64,
    /// Requests answered 429 (queue-full bounces and per-endpoint
    /// concurrency rejections).
    pub rejected: u64,
    /// Requests answered 200 after the drain began — the in-flight
    /// work a graceful shutdown completed instead of dropping.
    pub drained_in_flight: u64,
}

struct Inner {
    shared: SharedServer,
    pool: MatchPool,
    admission: Arc<Admission>,
    config: ServeConfig,
    /// Live copy of `config.delay_ms` — drills retune it at runtime
    /// ([`Daemon::set_delay_ms`]) to park requests in flight.
    delay_ms: AtomicU64,
    draining: AtomicBool,
    connections: AtomicU64,
    served: AtomicU64,
    rejected: AtomicU64,
    drained_in_flight: AtomicU64,
}

/// A running daemon. Dropping it without [`Daemon::join`] aborts the
/// threads with the process; call [`Daemon::begin_drain`] + `join` for
/// a graceful stop.
pub struct Daemon {
    inner: Arc<Inner>,
    addr: SocketAddr,
    accept_handle: Option<std::thread::JoinHandle<()>>,
    worker_handles: Vec<std::thread::JoinHandle<()>>,
}

/// Poll cadence for noticing drain while blocked on idle sockets or
/// an empty queue.
const POLL: Duration = Duration::from_millis(25);

/// Register and describe every `p3p_http_*` family once, at bind, so
/// `/metrics` renders them (with real HELP text) before first traffic.
fn describe_metrics() {
    metrics::describe(
        "p3p_http_requests_total",
        "HTTP requests answered, by endpoint and status",
    );
    metrics::describe(
        "p3p_http_rejected_total",
        "Requests turned away by admission control (429), by reason",
    );
    metrics::describe(
        "p3p_http_queue_depth",
        "Accepted connections waiting for a worker",
    );
    metrics::describe(
        "p3p_http_in_flight",
        "Requests currently being processed, by endpoint",
    );
    metrics::describe(
        "p3p_http_request_us",
        "Request service time in microseconds, by endpoint",
    );
    metrics::describe(
        "p3p_http_parse_errors_total",
        "Malformed requests rejected by the HTTP parser, by kind",
    );
    metrics::describe(
        "p3p_http_connections_total",
        "TCP connections accepted by the listener",
    );
    metrics::describe(
        "p3p_http_draining",
        "1 while the daemon is draining, else 0",
    );
    metrics::counter_with("p3p_http_rejected_total", &[("reason", "queue_full")]);
    metrics::counter_with("p3p_http_rejected_total", &[("reason", "concurrency")]);
    metrics::counter_with(
        "p3p_http_parse_errors_total",
        &[("kind", "bad_request_line")],
    );
    metrics::gauge("p3p_http_queue_depth");
    metrics::counter("p3p_http_connections_total");
    metrics::gauge("p3p_http_draining").set(0);
    for endpoint in [Endpoint::Install, Endpoint::Match, Endpoint::MatchCorpus] {
        metrics::counter_with(
            "p3p_http_requests_total",
            &[("endpoint", endpoint.label()), ("status", "200")],
        );
        metrics::histogram_with("p3p_http_request_us", &[("endpoint", endpoint.label())]);
        metrics::gauge_with("p3p_http_in_flight", &[("endpoint", endpoint.label())]);
    }
}

impl Daemon {
    /// Bind `addr` (e.g. `127.0.0.1:0`), take ownership of `server` as
    /// the primary, and start the accept and worker threads.
    pub fn bind(addr: &str, server: PolicyServer, config: ServeConfig) -> io::Result<Daemon> {
        describe_metrics();
        let listener = TcpListener::bind(addr)?;
        let addr = listener.local_addr()?;
        let shared = SharedServer::new(server);
        let pool = MatchPool::new(&shared);
        let inner = Arc::new(Inner {
            admission: Admission::new(config.queue_depth, config.limits.clone()),
            shared,
            pool,
            delay_ms: AtomicU64::new(config.delay_ms),
            config,
            draining: AtomicBool::new(false),
            connections: AtomicU64::new(0),
            served: AtomicU64::new(0),
            rejected: AtomicU64::new(0),
            drained_in_flight: AtomicU64::new(0),
        });

        let accept_handle = {
            let inner = inner.clone();
            std::thread::Builder::new()
                .name("p3p-accept".into())
                .spawn(move || accept_loop(listener, &inner))?
        };
        let worker_handles = (0..inner.config.workers.max(1))
            .map(|i| {
                let inner = inner.clone();
                std::thread::Builder::new()
                    .name(format!("p3p-http-{i}"))
                    .spawn(move || worker_loop(&inner))
            })
            .collect::<io::Result<Vec<_>>>()?;

        Ok(Daemon {
            inner,
            addr,
            accept_handle: Some(accept_handle),
            worker_handles,
        })
    }

    /// The bound address.
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// The primary's current catalog epoch.
    pub fn catalog_epoch(&self) -> u64 {
        self.inner.shared.catalog_epoch()
    }

    /// Begin a graceful drain: stop accepting, let queued and
    /// in-flight requests finish. Idempotent; returns immediately —
    /// pair with [`Daemon::join`].
    pub fn begin_drain(&self) {
        self.inner.draining.store(true, Ordering::SeqCst);
        metrics::gauge("p3p_http_draining").set(1);
    }

    /// Retune the artificial per-request handler delay at runtime.
    /// Load and drain drills use this to park requests in flight
    /// deterministically; zero restores normal service.
    pub fn set_delay_ms(&self, delay_ms: u64) {
        self.inner.delay_ms.store(delay_ms, Ordering::Relaxed);
    }

    /// Wait for the accept thread and every worker to finish (only
    /// returns after [`Daemon::begin_drain`]), then return the final
    /// stats. The metrics registry holds the flushed final state.
    pub fn join(mut self) -> DaemonStats {
        if let Some(handle) = self.accept_handle.take() {
            let _ = handle.join();
        }
        for handle in self.worker_handles.drain(..) {
            let _ = handle.join();
        }
        metrics::gauge("p3p_http_queue_depth").set(0);
        DaemonStats {
            connections: self.inner.connections.load(Ordering::Relaxed),
            served: self.inner.served.load(Ordering::Relaxed),
            rejected: self.inner.rejected.load(Ordering::Relaxed),
            drained_in_flight: self.inner.drained_in_flight.load(Ordering::Relaxed),
        }
    }
}

fn accept_loop(listener: TcpListener, inner: &Inner) {
    listener
        .set_nonblocking(true)
        .expect("nonblocking listener");
    loop {
        if inner.draining.load(Ordering::SeqCst) {
            break;
        }
        match listener.accept() {
            Ok((stream, _peer)) => {
                inner.connections.fetch_add(1, Ordering::Relaxed);
                metrics::counter("p3p_http_connections_total").inc();
                let _ = stream.set_nodelay(true);
                if let Err(stream) = inner.admission.enqueue(stream) {
                    // Queue full: answer 429 on the spot and close.
                    inner.rejected.fetch_add(1, Ordering::Relaxed);
                    respond_rejection(&stream, Rejection::QueueFull);
                }
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => std::thread::sleep(POLL),
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(_) => break,
        }
    }
    // Listener drops here: the OS refuses new connections from this
    // point on. Workers drain what was already accepted.
    inner.admission.close();
}

fn worker_loop(inner: &Inner) {
    while let Some(stream) = inner.admission.dequeue(POLL) {
        handle_connection(stream, inner);
    }
}

/// Write a bare 429 with `Retry-After` on a stream (used at accept
/// time for queue-full bounces, before any request is parsed).
fn respond_rejection(mut stream: &TcpStream, rejection: Rejection) {
    let mut extra = BTreeMap::new();
    extra.insert("Retry-After", rejection.retry_after_secs().to_string());
    let body = format!(
        "{{\"error\": \"overloaded\", \"reason\": \"{}\"}}\n",
        rejection.reason()
    );
    let _ = write_response(
        &mut stream,
        429,
        "application/json",
        &extra,
        body.as_bytes(),
        false,
    );
    let _ = stream.shutdown(std::net::Shutdown::Both);
}

/// Serve keep-alive requests off one connection until close, idle
/// timeout, parse failure, or drain.
fn handle_connection(stream: TcpStream, inner: &Inner) {
    let mut reader = BufReader::new(match stream.try_clone() {
        Ok(clone) => clone,
        Err(_) => return,
    });
    loop {
        // Wait for the first byte of the next request on a short poll
        // so drain is noticed promptly; a clean close or idle timeout
        // ends the connection without a response.
        let idle_start = Instant::now();
        let _ = stream.set_read_timeout(Some(POLL));
        let got_data = loop {
            match reader.fill_buf() {
                Ok([]) => break false,
                Ok(_) => break true,
                Err(e)
                    if e.kind() == io::ErrorKind::WouldBlock
                        || e.kind() == io::ErrorKind::TimedOut =>
                {
                    if inner.draining.load(Ordering::SeqCst) {
                        break false;
                    }
                    if idle_start.elapsed() > inner.config.keep_alive_timeout {
                        break false;
                    }
                }
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(_) => break false,
            }
        };
        if !got_data {
            return;
        }

        // The request has begun: give it the full read budget.
        let _ = stream.set_read_timeout(Some(inner.config.read_timeout));
        let started = Instant::now();
        match read_request(&mut reader, inner.config.max_body_bytes) {
            Ok(request) => {
                let keep_alive = serve_request(&stream, inner, &request, started);
                if !keep_alive {
                    let _ = stream.shutdown(std::net::Shutdown::Both);
                    return;
                }
            }
            Err(err) => {
                metrics::counter_with("p3p_http_parse_errors_total", &[("kind", err.kind())]).inc();
                if let Some((status, _reason)) = err.status() {
                    inner.served.fetch_add(1, Ordering::Relaxed);
                    let body = format!(
                        "{{\"error\": \"{}\", \"kind\": \"{}\"}}\n",
                        json_escape(&err.to_string()),
                        err.kind()
                    );
                    let mut out = &stream;
                    let _ = write_response(
                        &mut out,
                        status,
                        "application/json",
                        &BTreeMap::new(),
                        body.as_bytes(),
                        false,
                    );
                }
                // Parse errors are never safe to continue past: the
                // connection's framing is unknown from here.
                let _ = stream.shutdown(std::net::Shutdown::Both);
                return;
            }
        }
    }
}

/// Route, admit, handle, respond. Returns whether to keep the
/// connection alive.
fn serve_request(
    mut stream: &TcpStream,
    inner: &Inner,
    request: &Request,
    started: Instant,
) -> bool {
    let draining = inner.draining.load(Ordering::SeqCst);
    let keep_alive = request.keep_alive && !draining;

    let endpoint = match route(request) {
        Ok(endpoint) => endpoint,
        Err((status, message)) => {
            inner.served.fetch_add(1, Ordering::Relaxed);
            let body = format!("{{\"error\": \"{}\"}}\n", json_escape(message));
            let _ = write_response(
                &mut stream,
                status,
                "application/json",
                &BTreeMap::new(),
                body.as_bytes(),
                keep_alive,
            );
            return keep_alive;
        }
    };

    // Observability endpoints bypass admission and request metrics:
    // they must answer while the daemon is saturated, and /metrics
    // must stay byte-identical to the registry render.
    if matches!(endpoint, Endpoint::Metrics | Endpoint::Health) {
        inner.served.fetch_add(1, Ordering::Relaxed);
        let response = match endpoint {
            Endpoint::Metrics => Response::text(200, metrics::render_text()),
            _ => handle_health(inner),
        };
        let _ = response.write(&mut stream, keep_alive);
        return keep_alive;
    }

    let _guard = match inner.admission.try_enter(endpoint) {
        Ok(guard) => guard,
        Err(rejection) => {
            inner.served.fetch_add(1, Ordering::Relaxed);
            inner.rejected.fetch_add(1, Ordering::Relaxed);
            record_request(endpoint, 429, started);
            let mut extra = BTreeMap::new();
            extra.insert("Retry-After", rejection.retry_after_secs().to_string());
            let body = format!(
                "{{\"error\": \"overloaded\", \"reason\": \"{}\", \"endpoint\": \"{}\"}}\n",
                rejection.reason(),
                endpoint.label()
            );
            let _ = write_response(
                &mut stream,
                429,
                "application/json",
                &extra,
                body.as_bytes(),
                keep_alive,
            );
            return keep_alive;
        }
    };

    let delay_ms = inner.delay_ms.load(Ordering::Relaxed);
    if delay_ms > 0 {
        std::thread::sleep(Duration::from_millis(delay_ms));
    }

    let response = match endpoint {
        Endpoint::Install => handle_install(inner, request),
        Endpoint::Match => handle_match(inner, request),
        Endpoint::MatchCorpus => handle_match_corpus(inner, request),
        Endpoint::Metrics | Endpoint::Health => unreachable!("handled above"),
    };

    inner.served.fetch_add(1, Ordering::Relaxed);
    // Re-sample: a drain that began while this request was being
    // handled still counts it as completed-in-flight, and the
    // connection closes after the response instead of idling.
    let draining = draining || inner.draining.load(Ordering::SeqCst);
    let keep_alive = keep_alive && !draining;
    if draining && response.status == 200 {
        inner.drained_in_flight.fetch_add(1, Ordering::Relaxed);
    }
    record_request(endpoint, response.status, started);
    let _ = response.write(&mut stream, keep_alive);
    keep_alive
}

fn record_request(endpoint: Endpoint, status: u16, started: Instant) {
    metrics::counter_with(
        "p3p_http_requests_total",
        &[
            ("endpoint", endpoint.label()),
            ("status", status_label(status)),
        ],
    )
    .inc();
    metrics::histogram_with("p3p_http_request_us", &[("endpoint", endpoint.label())])
        .observe_duration(started.elapsed());
}

/// Static status labels: metric label sets want `&'static str`.
fn status_label(status: u16) -> &'static str {
    match status {
        200 => "200",
        400 => "400",
        404 => "404",
        409 => "409",
        422 => "422",
        429 => "429",
        500 => "500",
        501 => "501",
        _ => "other",
    }
}

struct Response {
    status: u16,
    content_type: &'static str,
    body: Vec<u8>,
    extra: BTreeMap<&'static str, String>,
}

impl Response {
    fn json(status: u16, body: String) -> Response {
        Response {
            status,
            content_type: "application/json",
            body: body.into_bytes(),
            extra: BTreeMap::new(),
        }
    }

    fn text(status: u16, body: String) -> Response {
        Response {
            status,
            content_type: "text/plain; version=0.0.4",
            body: body.into_bytes(),
            extra: BTreeMap::new(),
        }
    }

    fn with_epoch(mut self, epoch: u64) -> Response {
        self.extra.insert("X-P3P-Epoch", epoch.to_string());
        self
    }

    fn write(&self, out: &mut impl Write, keep_alive: bool) -> io::Result<()> {
        write_response(
            out,
            self.status,
            self.content_type,
            &self.extra,
            &self.body,
            keep_alive,
        )
    }
}

/// Map a path+method to an endpoint, or a 404/405 error.
fn route(request: &Request) -> Result<Endpoint, (u16, &'static str)> {
    match (request.method, request.path.as_str()) {
        (Method::Post, "/install") => Ok(Endpoint::Install),
        (Method::Post, "/match") => Ok(Endpoint::Match),
        (Method::Post, "/match_corpus") => Ok(Endpoint::MatchCorpus),
        (Method::Get, "/metrics") => Ok(Endpoint::Metrics),
        (Method::Get, "/health") => Ok(Endpoint::Health),
        (_, "/install" | "/match" | "/match_corpus" | "/metrics" | "/health") => {
            Err((405, "method not allowed on this path"))
        }
        _ => Err((404, "no such endpoint")),
    }
}

/// Status code for a [`ServerError`] leaking out of a handler.
fn status_of(err: &ServerError) -> u16 {
    match err {
        ServerError::UnknownPolicy(_) | ServerError::NoApplicablePolicy(_) => 404,
        ServerError::Install(_) => 409,
        ServerError::Policy(_) | ServerError::Appel(_) | ServerError::XQuery(_) => 422,
        ServerError::Unsupported(_) => 501,
        ServerError::Db(_) => 500,
    }
}

fn error_response(err: &ServerError) -> Response {
    Response::json(
        status_of(err),
        format!("{{\"error\": \"{}\"}}\n", json_escape(&err.to_string())),
    )
}

fn handle_install(inner: &Inner, request: &Request) -> Response {
    let xml = match std::str::from_utf8(&request.body) {
        Ok(xml) => xml,
        Err(_) => {
            return Response::json(
                422,
                "{\"error\": \"policy XML is not valid UTF-8\"}\n".to_string(),
            )
        }
    };
    let installed = inner.shared.with(|server| {
        let id = server.install_policy_xml(xml)?;
        Ok::<(i64, u64), ServerError>((id, server.catalog_epoch()))
    });
    match installed {
        Ok((policy_id, epoch)) => {
            // New state becomes visible to match traffic from here on.
            inner.pool.refresh(&inner.shared);
            Response::json(
                200,
                format!("{{\"policy_id\": {policy_id}, \"epoch\": {epoch}}}\n"),
            )
            .with_epoch(epoch)
        }
        Err(err) => error_response(&err),
    }
}

/// Parse `engine=` (defaulting to the paper's APPEL→SQL engine).
fn parse_engine(request: &Request) -> Result<EngineKind, Response> {
    match request.query_param("engine") {
        None => Ok(EngineKind::Sql),
        Some("sql") => Ok(EngineKind::Sql),
        Some("sql_generic") => Ok(EngineKind::SqlGeneric),
        Some("xquery_xtable") => Ok(EngineKind::XQueryXTable),
        Some("xquery_native") => Ok(EngineKind::XQueryNative),
        Some("native") => Ok(EngineKind::Native),
        Some(other) => Err(Response::json(
            400,
            format!(
                "{{\"error\": \"unknown engine `{}` (want sql|sql_generic|xquery_xtable|xquery_native|native)\"}}\n",
                json_escape(other)
            ),
        )),
    }
}

fn parse_ruleset(request: &Request) -> Result<Ruleset, Response> {
    let xml = std::str::from_utf8(&request.body).map_err(|_| {
        Response::json(
            422,
            "{\"error\": \"ruleset XML is not valid UTF-8\"}\n".to_string(),
        )
    })?;
    Ruleset::parse(xml).map_err(|e| {
        Response::json(
            422,
            format!(
                "{{\"error\": \"ruleset does not parse: {}\"}}\n",
                json_escape(&e.to_string())
            ),
        )
    })
}

fn outcome_json(outcome: &MatchOutcome) -> String {
    format!(
        "{{\"behavior\": \"{}\", \"fired_rule\": {}, \"epoch\": {}, \"verdict_cached\": {}, \
         \"translation_cached\": {}, \"convert_us\": {}, \"query_us\": {}}}\n",
        json_escape(outcome.verdict.behavior.as_str()),
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

fn handle_match(inner: &Inner, request: &Request) -> Response {
    let engine = match parse_engine(request) {
        Ok(engine) => engine,
        Err(response) => return response,
    };
    let ruleset = match parse_ruleset(request) {
        Ok(ruleset) => ruleset,
        Err(response) => return response,
    };
    let target = if let Some(name) = request.query_param("policy") {
        Target::Policy(name)
    } else if let Some(uri) = request.query_param("uri") {
        Target::Uri(uri)
    } else if let Some(cookie) = request.query_param("cookie") {
        Target::Cookie(cookie)
    } else {
        return Response::json(
            400,
            "{\"error\": \"missing target: pass policy=, uri=, or cookie=\"}\n".to_string(),
        );
    };
    match inner.pool.match_preference(&ruleset, target, engine) {
        Ok(outcome) => {
            let epoch = outcome.epoch;
            Response::json(200, outcome_json(&outcome)).with_epoch(epoch)
        }
        Err(err) => error_response(&err),
    }
}

fn handle_match_corpus(inner: &Inner, request: &Request) -> Response {
    let engine = match parse_engine(request) {
        Ok(engine) => engine,
        Err(response) => return response,
    };
    let ruleset = match parse_ruleset(request) {
        Ok(ruleset) => ruleset,
        Err(response) => return response,
    };
    let shards = std::thread::available_parallelism().map_or(1, |p| p.get());
    match inner.pool.match_corpus_pinned(&ruleset, engine, shards) {
        Ok((epoch, verdicts)) => {
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
                    json_escape(name),
                    json_escape(verdict.behavior.as_str()),
                    verdict
                        .fired_rule
                        .map_or("null".to_string(), |i| i.to_string()),
                ));
            }
            body.push_str("]}\n");
            Response::json(200, body).with_epoch(epoch)
        }
        Err(err) => error_response(&err),
    }
}

fn handle_health(inner: &Inner) -> Response {
    let epoch = inner.pool.snapshot_epoch();
    let policies = inner.shared.with(|server| server.policy_names().len());
    let draining = inner.draining.load(Ordering::SeqCst);
    Response::json(
        200,
        format!(
            "{{\"status\": \"{}\", \"policies\": {policies}, \"epoch\": {epoch}, \
             \"workers\": {}, \"queue_depth\": {}}}\n",
            if draining { "draining" } else { "ok" },
            inner.config.workers,
            inner.admission.depth(),
        ),
    )
    .with_epoch(epoch)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client::Client;
    use p3p_policy::model::volga_policy;
    use p3p_workload::Sensitivity;

    fn daemon_with_volga(config: ServeConfig) -> Daemon {
        let mut server = PolicyServer::new();
        server.install_policy(&volga_policy()).unwrap();
        Daemon::bind("127.0.0.1:0", server, config).expect("bind daemon")
    }

    #[test]
    fn match_and_health_round_trip() {
        let daemon = daemon_with_volga(ServeConfig::default());
        let mut client = Client::connect(daemon.local_addr()).unwrap();

        let ruleset = Sensitivity::Medium.ruleset().to_xml();
        let response = client
            .request("POST", "/match?policy=volga&engine=sql", ruleset.as_bytes())
            .unwrap();
        assert_eq!(response.status, 200, "{}", response.body_string());
        assert!(response.body_string().contains("\"behavior\""));
        assert_eq!(response.header("x-p3p-epoch"), Some("1"));

        let health = client.request("GET", "/health", b"").unwrap();
        assert_eq!(health.status, 200);
        assert!(health.body_string().contains("\"status\": \"ok\""));
        assert!(health.body_string().contains("\"policies\": 1"));

        daemon.begin_drain();
        daemon.join();
    }

    #[test]
    fn install_bumps_epoch_and_becomes_matchable() {
        let daemon = daemon_with_volga(ServeConfig::default());
        let mut client = Client::connect(daemon.local_addr()).unwrap();

        let mut second = volga_policy();
        second.name = "second".to_string();
        let response = client
            .request("POST", "/install", second.to_xml().as_bytes())
            .unwrap();
        assert_eq!(response.status, 200, "{}", response.body_string());
        assert!(response.body_string().contains("\"epoch\": 2"));

        let ruleset = Sensitivity::Medium.ruleset().to_xml();
        let matched = client
            .request("POST", "/match?policy=second", ruleset.as_bytes())
            .unwrap();
        assert_eq!(matched.status, 200, "{}", matched.body_string());
        assert_eq!(matched.header("x-p3p-epoch"), Some("2"));

        // Install of a duplicate name conflicts.
        let duplicate = client
            .request("POST", "/install", second.to_xml().as_bytes())
            .unwrap();
        assert_eq!(duplicate.status, 409, "{}", duplicate.body_string());

        daemon.begin_drain();
        daemon.join();
    }

    #[test]
    fn match_errors_are_typed() {
        let daemon = daemon_with_volga(ServeConfig::default());
        let mut client = Client::connect(daemon.local_addr()).unwrap();
        let ruleset = Sensitivity::Medium.ruleset().to_xml();

        let unknown = client
            .request("POST", "/match?policy=missing", ruleset.as_bytes())
            .unwrap();
        assert_eq!(unknown.status, 404);

        let bad_engine = client
            .request(
                "POST",
                "/match?policy=volga&engine=warp",
                ruleset.as_bytes(),
            )
            .unwrap();
        assert_eq!(bad_engine.status, 400);

        let no_target = client
            .request("POST", "/match", ruleset.as_bytes())
            .unwrap();
        assert_eq!(no_target.status, 400);

        let bad_ruleset = client
            .request("POST", "/match?policy=volga", b"<not-appel/>")
            .unwrap();
        assert_eq!(bad_ruleset.status, 422);

        let wrong_method = client.request("GET", "/match", b"").unwrap();
        assert_eq!(wrong_method.status, 405);

        let nowhere = client.request("GET", "/nowhere", b"").unwrap();
        assert_eq!(nowhere.status, 404);

        daemon.begin_drain();
        daemon.join();
    }

    #[test]
    fn corpus_sweep_reports_one_pinned_epoch() {
        let mut server = PolicyServer::new();
        for policy in p3p_workload::corpus_n(7, 12) {
            server.install_policy(&policy).unwrap();
        }
        let daemon = Daemon::bind("127.0.0.1:0", server, ServeConfig::default()).unwrap();
        let mut client = Client::connect(daemon.local_addr()).unwrap();
        let ruleset = Sensitivity::High.ruleset().to_xml();
        let response = client
            .request("POST", "/match_corpus?engine=sql", ruleset.as_bytes())
            .unwrap();
        assert_eq!(response.status, 200, "{}", response.body_string());
        let body = response.body_string();
        assert!(body.contains("\"policies\": 12"));
        assert!(body.contains("\"epoch\": 12"));
        assert_eq!(response.header("x-p3p-epoch"), Some("12"));
        daemon.begin_drain();
        daemon.join();
    }

    #[test]
    fn programmatic_drain_completes_in_flight_and_refuses_new() {
        let daemon = daemon_with_volga(ServeConfig {
            delay_ms: 120,
            ..ServeConfig::default()
        });
        let addr = daemon.local_addr();
        let ruleset = Sensitivity::Medium.ruleset().to_xml();

        // Put a slow request in flight, then drain while it runs.
        let in_flight = std::thread::spawn({
            let ruleset = ruleset.clone();
            move || {
                let mut client = Client::connect(addr).unwrap();
                client
                    .request("POST", "/match?policy=volga", ruleset.as_bytes())
                    .unwrap()
            }
        });
        std::thread::sleep(Duration::from_millis(40));
        daemon.begin_drain();

        let response = in_flight.join().unwrap();
        assert_eq!(response.status, 200, "in-flight request must complete");

        let stats = daemon.join();
        assert!(stats.drained_in_flight >= 1, "{stats:?}");
        // With the listener gone, new connections are refused.
        assert!(TcpStream::connect(addr).is_err());
    }
}
