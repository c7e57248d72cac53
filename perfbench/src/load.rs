//! The load generator: closed-loop replay of a plan's requests over
//! keep-alive connections, one per thread, checking every answer.

use crate::replay::Reference;
use crate::workload::{Op, Plan, Request};
use p3p_serve::client::ClientResponse;
use std::collections::BTreeMap;
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

/// How long one answer may take before the request counts as failed.
const ANSWER_TIMEOUT: Duration = Duration::from_secs(60);

/// One keep-alive HTTP/1.1 connection speaking the daemon's dialect
/// (Content-Length framing).
///
/// A *polling* connection waits for its answer by retrying a
/// non-blocking read instead of sleeping in the kernel. Its thread
/// keeps a vCPU busy, so an answer is not delayed by the hypervisor
/// waking an idle vCPU: with one connection of ~150 µs requests that
/// wake-up varied from 150 to 250 µs per request with host load.
pub struct Conn {
    stream: TcpStream,
    polling: bool,
    buf: Vec<u8>,
}

impl Conn {
    pub fn connect(addr: SocketAddr, polling: bool) -> io::Result<Conn> {
        let stream = TcpStream::connect_timeout(&addr, Duration::from_secs(30))?;
        stream.set_nodelay(true)?;
        stream.set_nonblocking(polling)?;
        stream.set_read_timeout(Some(ANSWER_TIMEOUT))?;
        Ok(Conn {
            stream,
            polling,
            buf: Vec::with_capacity(1 << 16),
        })
    }

    /// Send one request's bytes and read its answer.
    pub fn exchange(&mut self, request: &[u8]) -> io::Result<ClientResponse> {
        let started = Instant::now();
        let mut sent = 0;
        while sent < request.len() {
            match self.stream.write(&request[sent..]) {
                Ok(0) => return Err(io::ErrorKind::WriteZero.into()),
                Ok(n) => sent += n,
                Err(e) if self.retry(&e, started)? => {}
                Err(e) => return Err(e),
            }
        }
        self.buf.clear();
        let mut chunk = [0u8; 1 << 16];
        loop {
            match self.stream.read(&mut chunk) {
                Ok(0) => return Err(io::ErrorKind::UnexpectedEof.into()),
                Ok(n) => self.buf.extend_from_slice(&chunk[..n]),
                Err(e) if self.retry(&e, started)? => continue,
                Err(e) => return Err(e),
            }
            if let Some(response) = parse_response(&self.buf)? {
                return Ok(response);
            }
        }
    }

    /// Whether an I/O error only means "not ready yet" on a polling
    /// connection; past the answer timeout it becomes a failure.
    fn retry(&self, e: &io::Error, started: Instant) -> io::Result<bool> {
        let transient = matches!(e.kind(), io::ErrorKind::Interrupted)
            || (self.polling && e.kind() == io::ErrorKind::WouldBlock);
        if transient && started.elapsed() > ANSWER_TIMEOUT {
            return Err(io::ErrorKind::TimedOut.into());
        }
        if transient && self.polling {
            std::hint::spin_loop();
        }
        Ok(transient)
    }
}

/// A complete response at the start of `buf`, or `None` if more bytes
/// are needed.
fn parse_response(buf: &[u8]) -> io::Result<Option<ClientResponse>> {
    let bad = |what: &str| io::Error::new(io::ErrorKind::InvalidData, what.to_string());
    let Some(head_end) = buf.windows(4).position(|w| w == b"\r\n\r\n") else {
        return Ok(None);
    };
    let head = std::str::from_utf8(&buf[..head_end]).map_err(|_| bad("non-UTF-8 head"))?;
    let mut lines = head.split("\r\n");
    let status = lines
        .next()
        .and_then(|line| line.split_whitespace().nth(1))
        .and_then(|code| code.parse::<u16>().ok())
        .ok_or_else(|| bad("bad status line"))?;
    let headers: BTreeMap<String, String> = lines
        .filter_map(|line| line.split_once(':'))
        .map(|(k, v)| (k.trim().to_ascii_lowercase(), v.trim().to_string()))
        .collect();
    let length: usize = match headers.get("content-length") {
        Some(v) => v.parse().map_err(|_| bad("bad Content-Length"))?,
        None => 0,
    };
    let body_start = head_end + 4;
    if buf.len() < body_start + length {
        return Ok(None);
    }
    Ok(Some(ClientResponse {
        status,
        headers,
        body: buf[body_start..body_start + length].to_vec(),
    }))
}

/// Per-connection tallies. A request is attempted once its bytes are
/// handed to the socket; it fails as a non-200 answer, a transport
/// error, or a wrong answer (verdict, epoch or header).
#[derive(Debug, Clone, Default)]
pub struct ConnTally {
    pub attempted: u64,
    pub completed: u64,
    pub non_200: u64,
    pub transport: u64,
    pub wrong: u64,
}

impl ConnTally {
    pub fn failed(&self) -> u64 {
        self.non_200 + self.transport + self.wrong
    }

    fn add(&mut self, other: &ConnTally) {
        self.attempted += other.attempted;
        self.completed += other.completed;
        self.non_200 += other.non_200;
        self.transport += other.transport;
        self.wrong += other.wrong;
    }
}

/// One answered request of the timed sequence.
#[derive(Debug, Clone, Copy)]
pub struct Sample {
    pub index: usize,
    pub latency_us: f64,
    /// The epoch a 200 reported.
    pub epoch: u64,
}

#[derive(Debug, Default)]
pub struct LoadRun {
    pub wall: Duration,
    pub conns: Vec<ConnTally>,
    pub samples: Vec<Sample>,
    /// The first few failures, for the log.
    pub problems: Vec<String>,
}

impl LoadRun {
    pub fn total(&self) -> ConnTally {
        let mut t = ConnTally::default();
        for c in &self.conns {
            t.add(c);
        }
        t
    }
}

/// Checks answers against the reference. Each connection keeps the
/// last correct `/match_corpus` body per preference: an identical body
/// needs no re-parse, so checking a 140 KB sweep costs a `memcmp`.
pub struct Checker<'a> {
    plan: &'a Plan,
    reference: &'a Reference,
    sweep_bodies: Vec<Option<Vec<u8>>>,
}

impl<'a> Checker<'a> {
    pub fn new(plan: &'a Plan, reference: &'a Reference) -> Checker<'a> {
        Checker {
            plan,
            reference,
            sweep_bodies: vec![None; plan.prefs.len()],
        }
    }

    /// `Ok(epoch)` for a correct 200, else why it is wrong.
    pub fn check(&mut self, op: Op, response: &ClientResponse) -> Result<u64, String> {
        let epoch: u64 = response
            .header("x-p3p-epoch")
            .ok_or("200 without X-P3P-Epoch")?
            .parse()
            .map_err(|_| "unparsable X-P3P-Epoch")?;
        let body = std::str::from_utf8(&response.body).map_err(|_| "body is not UTF-8")?;
        let body_epoch = json_values(body, "epoch").first().copied().unwrap_or("");
        if body_epoch != epoch.to_string() {
            return Err(format!(
                "body epoch {body_epoch:?} differs from X-P3P-Epoch {epoch}"
            ));
        }
        match op {
            Op::Match { pref, policy } => {
                let expected = self.reference.expected(pref, policy);
                let behavior = json_values(body, "behavior");
                let fired = json_values(body, "fired_rule");
                if behavior != [expected.behavior.as_str()] || fired != [fired_rule(expected)] {
                    return Err(format!(
                        "{} × {}: got {behavior:?}/{fired:?}, reference {expected:?}",
                        pref, self.plan.corpus[policy].name
                    ));
                }
            }
            Op::Install { .. } => {}
            Op::Sweep { pref } => {
                if self.sweep_bodies[pref].as_deref() != Some(&response.body[..]) {
                    self.check_sweep(pref, body)?;
                    self.sweep_bodies[pref] = Some(response.body.clone());
                }
            }
        }
        Ok(epoch)
    }

    fn check_sweep(&self, pref: usize, body: &str) -> Result<(), String> {
        let expected = &self.reference.sweeps[pref];
        let names = json_values(body, "name");
        let behaviors = json_values(body, "behavior");
        let fired = json_values(body, "fired_rule");
        if names.len() != expected.len()
            || behaviors.len() != expected.len()
            || fired.len() != expected.len()
        {
            return Err(format!(
                "sweep lists {} verdicts, reference {}",
                names.len(),
                expected.len()
            ));
        }
        for (i, (name, verdict)) in expected.iter().enumerate() {
            if names[i] != name
                || behaviors[i] != verdict.behavior.as_str()
                || fired[i] != fired_rule(verdict)
            {
                return Err(format!(
                    "sweep entry {i}: got {}/{}/{}, reference {name}/{verdict:?}",
                    names[i], behaviors[i], fired[i]
                ));
            }
        }
        Ok(())
    }
}

fn fired_rule(verdict: &p3p_appel::engine::Verdict) -> String {
    verdict
        .fired_rule
        .map_or("null".to_string(), |i| i.to_string())
}

/// Every value of `"key": value` in a flat JSON text, in order: string
/// values without their quotes, other values as their raw token. The
/// daemon's bodies escape nothing the corpus names contain.
pub fn json_values<'b>(body: &'b str, key: &str) -> Vec<&'b str> {
    let pattern = format!("\"{key}\"");
    let mut out = Vec::new();
    let mut rest = body;
    while let Some(at) = rest.find(&pattern) {
        rest = rest[at + pattern.len()..].trim_start();
        let Some(value) = rest.strip_prefix(':') else {
            continue;
        };
        let value = value.trim_start();
        if let Some(string) = value.strip_prefix('"') {
            let end = string.find('"').unwrap_or(string.len());
            out.push(&string[..end]);
            rest = &string[end..];
        } else {
            let end = value.find([',', '}', ']']).unwrap_or(value.len());
            out.push(value[..end].trim());
            rest = &value[end..];
        }
    }
    out
}

/// Connect `n` keep-alive connections.
pub fn connect(addr: SocketAddr, n: usize, polling: bool) -> Result<Vec<Conn>, String> {
    (0..n)
        .map(|_| Conn::connect(addr, polling).map_err(|e| format!("connect {addr}: {e}")))
        .collect()
}

/// Closed loop: each connection sends the next unsent request of
/// `requests` as soon as its previous answer arrived, until the
/// sequence is exhausted or `deadline` has passed. Connection 0 runs
/// on the calling thread, each other one on its own thread.
pub fn drive(
    addr: SocketAddr,
    conns: &mut [Conn],
    requests: &[Request],
    plan: &Plan,
    reference: &Reference,
    deadline: Duration,
) -> LoadRun {
    let next = AtomicUsize::new(0);
    let started = Instant::now();
    let worker = |conn: &mut Conn| {
        let mut checker = Checker::new(plan, reference);
        let mut tally = ConnTally::default();
        let mut samples = Vec::new();
        let mut problems = Vec::new();
        loop {
            let i = next.fetch_add(1, Ordering::Relaxed);
            if i >= requests.len() || started.elapsed() > deadline {
                break;
            }
            let request = &requests[i];
            tally.attempted += 1;
            let sent = Instant::now();
            let answer = conn.exchange(&request.bytes);
            let latency_us = sent.elapsed().as_secs_f64() * 1e6;
            let problem = match answer {
                Err(e) => {
                    tally.transport += 1;
                    // Reconnect so one broken socket does not end the run.
                    if let Ok(fresh) = Conn::connect(addr, conn.polling) {
                        *conn = fresh;
                    }
                    format!("request {i}: transport error: {e}")
                }
                Ok(response) if response.status != 200 => {
                    tally.non_200 += 1;
                    format!(
                        "request {i}: status {}: {}",
                        response.status,
                        response.body_string().trim()
                    )
                }
                Ok(response) => match checker.check(request.op, &response) {
                    Ok(epoch) => {
                        tally.completed += 1;
                        samples.push(Sample {
                            index: i,
                            latency_us,
                            epoch,
                        });
                        continue;
                    }
                    Err(why) => {
                        tally.wrong += 1;
                        format!("request {i}: wrong answer: {why}")
                    }
                },
            };
            if problems.len() < 5 {
                problems.push(problem);
            }
        }
        (tally, samples, problems)
    };
    let parts = std::thread::scope(|scope| {
        let (first, others) = conns.split_first_mut().expect("at least one connection");
        let helpers: Vec<_> = others
            .iter_mut()
            .map(|conn| scope.spawn(|| worker(conn)))
            .collect();
        let mut parts = vec![worker(first)];
        parts.extend(
            helpers
                .into_iter()
                .map(|h| h.join().expect("load thread panicked")),
        );
        parts
    });
    let wall = started.elapsed();
    let mut run = LoadRun {
        wall,
        ..LoadRun::default()
    };
    for (tally, samples, problems) in parts {
        run.conns.push(tally);
        run.samples.extend(samples);
        run.problems.extend(problems);
    }
    run.samples.sort_by_key(|s| s.index);
    run
}

#[cfg(test)]
mod tests {
    use super::json_values;

    #[test]
    fn responses_parse_only_when_complete() {
        let full = b"HTTP/1.1 200 OK\r\nContent-Length: 5\r\nX-P3P-Epoch: 3\r\n\r\nhello";
        for cut in 0..full.len() {
            assert!(
                super::parse_response(&full[..cut]).unwrap().is_none(),
                "{cut}"
            );
        }
        let response = super::parse_response(full).unwrap().unwrap();
        assert_eq!(response.status, 200);
        assert_eq!(response.header("x-p3p-epoch"), Some("3"));
        assert_eq!(response.body, b"hello");
    }

    #[test]
    fn json_values_reads_strings_numbers_and_null() {
        let body = "{\"epoch\": 7, \"verdicts\": [{\"name\": \"a-1\", \"behavior\": \"block\", \"fired_rule\": null}, {\"name\": \"b\", \"behavior\": \"request\", \"fired_rule\": 2}]}\n";
        assert_eq!(json_values(body, "epoch"), ["7"]);
        assert_eq!(json_values(body, "name"), ["a-1", "b"]);
        assert_eq!(json_values(body, "behavior"), ["block", "request"]);
        assert_eq!(json_values(body, "fired_rule"), ["null", "2"]);
    }
}
