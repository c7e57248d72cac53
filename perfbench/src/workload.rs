//! The three workloads as fixed, seeded request sequences.
//!
//! Every request is rendered to its exact HTTP bytes before any daemon
//! starts, so the load generator does no generation work during set-up
//! or the timed phase, and the in-process replay parses the very bytes
//! the daemon received.

use p3p_appel::model::Ruleset;
use p3p_policy::model::Policy;
use p3p_workload::gen::{gen_policy, GenConfig};
use p3p_workload::rng::SmallRng;
use p3p_workload::Sensitivity;
use std::time::{Duration, Instant};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// `/match` on uniform (preference, policy) pairs, verdict cache off.
    Visit,
    /// Verdict-cache hits on a hot set, with 2% `/install`s among them.
    Publish,
    /// `/match_corpus` sweeps in a seeded rotation of the preferences.
    Audit,
}

impl Kind {
    pub const ALL: [Kind; 3] = [Kind::Visit, Kind::Publish, Kind::Audit];

    pub fn name(self) -> &'static str {
        match self {
            Kind::Visit => "visit",
            Kind::Publish => "publish",
            Kind::Audit => "audit",
        }
    }

    pub fn parse(name: &str) -> Option<Kind> {
        Kind::ALL.into_iter().find(|k| k.name() == name)
    }

    /// Keep-alive connections (and client threads) driving the daemon.
    /// `audit` uses two although a sweep already spreads over both
    /// cores: with one, both vCPUs idle between sweeps, the hypervisor
    /// lends them out, and when the host was busy each sweep waited to
    /// get both back (`qps` ranged 25–38 req/s over ten seeds, 48 on a
    /// quiet host, while CPU per sweep varied 7%). `publish` uses one:
    /// over two, each install queues behind the other connection's
    /// install and snapshot refresh, and its latency then depends on how
    /// the two connections happen to interleave.
    pub fn connections(self) -> usize {
        match self {
            Kind::Publish => 1,
            Kind::Visit | Kind::Audit => 2,
        }
    }

    /// Whether the load generator polls its connection for answers
    /// instead of sleeping (see [`crate::load::Conn`]). Only `publish`
    /// leaves a vCPU idle between requests; `visit` and `audit` keep both
    /// busy with two connections, and a polling client would compete
    /// with the daemon for them.
    pub fn polls(self) -> bool {
        self == Kind::Publish
    }

    /// The fewest requests a full-size sequence holds, so its p99 has
    /// at least ten samples beyond it. `audit`'s p99 is the tail of the
    /// Very High sweeps, which depends on what the other connection
    /// sweeps meanwhile; twice the samples halve how much one unlucky
    /// overlap moves it.
    fn min_requests(self) -> usize {
        match self {
            Kind::Audit => 2000,
            Kind::Visit | Kind::Publish => 1000,
        }
    }

    /// `--verdict-cache` capacity; `None` keeps the shipped default (off).
    pub fn verdict_cache(self) -> Option<usize> {
        match self {
            Kind::Publish => Some(4096),
            Kind::Visit | Kind::Audit => None,
        }
    }

    /// Completed requests per second this workload ran at on a 2-vCPU
    /// x86-64 VM when the benchmark was written. It only sizes the
    /// sequence to about `--seconds`; the sequence is then fixed, so a
    /// faster daemon finishes the same work sooner.
    fn nominal_rate(self) -> f64 {
        match self {
            Kind::Visit => 350.0,
            Kind::Publish => 220.0,
            Kind::Audit => 70.0,
        }
    }
}

/// Sizes of one run's inputs.
#[derive(Debug, Clone, Copy)]
pub struct Sizes {
    /// Policies the daemon installs at start (`--corpus-n`).
    pub corpus_n: usize,
    /// Policies in `publish`'s hot set (× 5 preferences = cached pairs).
    pub hot_policies: usize,
    /// One `publish` request in this many is an `/install`.
    pub install_every: usize,
    /// Fixed sequence length, overriding `seconds × nominal rate` and
    /// the workload's minimum.
    pub fixed_len: Option<usize>,
    /// Daemon start-ups measured per run (`setup_s` is their median).
    pub setups: usize,
}

impl Sizes {
    pub const FULL: Sizes = Sizes {
        corpus_n: 2000,
        hot_policies: 64,
        install_every: 50,
        fixed_len: None,
        setups: 3,
    };

    /// The benchmark's own smoke test: a tiny corpus, short sequences.
    pub const SMOKE: Sizes = Sizes {
        corpus_n: 60,
        hot_policies: 8,
        install_every: 10,
        fixed_len: Some(40),
        setups: 2,
    };
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    /// `POST /match?policy=` — indices into [`Plan::prefs`] and
    /// [`Plan::corpus`].
    Match { pref: usize, policy: usize },
    /// `POST /install` of [`Plan::installs`]`[index]`.
    Install { index: usize },
    /// `POST /match_corpus` with [`Plan::prefs`]`[pref]`.
    Sweep { pref: usize },
}

impl Op {
    pub fn is_read(self) -> bool {
        !matches!(self, Op::Install { .. })
    }

    pub fn endpoint(self) -> &'static str {
        match self {
            Op::Match { .. } => "match",
            Op::Install { .. } => "install",
            Op::Sweep { .. } => "match_corpus",
        }
    }
}

pub struct Request {
    pub op: Op,
    /// The exact bytes sent on the wire.
    pub bytes: Vec<u8>,
}

/// Everything one run sends, generated from the seed alone.
pub struct Plan {
    pub kind: Kind,
    pub seed: u64,
    pub sizes: Sizes,
    /// `corpus_n(seed, n)`: the policies the daemon installs at start.
    pub corpus: Vec<Policy>,
    /// Wall time of generating [`Plan::corpus`] (the first set-up step
    /// the daemon performs too).
    pub corpus_gen: Duration,
    /// The five JRC preferences, Figure 19 order.
    pub prefs: Vec<Ruleset>,
    /// Fresh policies `publish` installs: (name, XML).
    pub installs: Vec<(String, String)>,
    /// The fixed `/match` whose first 200 ends a daemon's set-up.
    pub probe: Request,
    /// Untimed requests that fill the caches.
    pub warmup: Vec<Request>,
    /// The timed sequence.
    pub timed: Vec<Request>,
    pub daemon_args: Vec<String>,
}

impl Plan {
    pub fn new(kind: Kind, seed: u64, seconds: f64, sizes: Sizes) -> Plan {
        let started = Instant::now();
        let corpus = p3p_workload::corpus_n(seed, sizes.corpus_n);
        let corpus_gen = started.elapsed();
        let prefs: Vec<Ruleset> = Sensitivity::ALL.iter().map(|s| s.ruleset()).collect();
        let pref_xml: Vec<String> = prefs.iter().map(Ruleset::to_xml).collect();
        let mut rng = SmallRng::seed_from_u64(seed ^ 0x7065_7266_6265_6e63);

        let nominal = (kind.nominal_rate() * seconds).ceil() as usize;
        let len = sizes
            .fixed_len
            .unwrap_or_else(|| nominal.max(kind.min_requests()));

        let mut installs = Vec::new();
        let (warmup, timed): (Vec<Op>, Vec<Op>) = match kind {
            Kind::Visit => {
                let prefs_seq = balanced(&mut rng, prefs.len(), len);
                let policies = balanced(&mut rng, corpus.len(), len);
                let warmup = (0..prefs.len())
                    .map(|pref| Op::Match { pref, policy: 0 })
                    .collect();
                let timed = prefs_seq
                    .into_iter()
                    .zip(policies)
                    .map(|(pref, policy)| Op::Match { pref, policy })
                    .collect();
                (warmup, timed)
            }
            Kind::Publish => {
                let mut order: Vec<usize> = (0..corpus.len()).collect();
                rng.shuffle(&mut order);
                let hot = &order[..sizes.hot_policies.min(order.len())];
                let pairs: Vec<Op> = hot
                    .iter()
                    .flat_map(|&policy| {
                        (0..prefs.len()).map(move |pref| Op::Match { pref, policy })
                    })
                    .collect();
                let mut warmup = pairs.clone();
                rng.shuffle(&mut warmup);
                // One install sits at a seeded slot of every block.
                let every = sizes.install_every;
                let blocks = len.div_ceil(every);
                let mut reads = balanced(&mut rng, pairs.len(), blocks * (every - 1)).into_iter();
                let mut timed = Vec::with_capacity(blocks * every);
                for _ in 0..blocks {
                    let slot = rng.gen_index(every);
                    for i in 0..every {
                        if i == slot {
                            let index = installs.len();
                            let name = format!("perfbench-s{seed}-{index}");
                            let policy = gen_policy(&mut rng, &name, &GenConfig::default());
                            installs.push((name, policy.to_xml()));
                            timed.push(Op::Install { index });
                        } else {
                            let pair = reads.next().expect("one read per non-install slot");
                            timed.push(pairs[pair]);
                        }
                    }
                }
                (warmup, timed)
            }
            Kind::Audit => {
                let mut rotation: Vec<usize> = (0..prefs.len()).collect();
                rng.shuffle(&mut rotation);
                let warmup = (0..prefs.len()).map(|pref| Op::Sweep { pref }).collect();
                // Each preference once per connection in a row: the
                // connections take consecutive requests, so both sweep
                // the same preference at once and each sweep shares the
                // cores with one of equal cost. A connection that runs
                // ahead falls back in step at the next cheap preference.
                let per_turn = kind.connections();
                let timed = (0..len)
                    .map(|i| Op::Sweep {
                        pref: rotation[(i / per_turn) % rotation.len()],
                    })
                    .collect();
                (warmup, timed)
            }
        };

        let render = |op: Op| Request {
            op,
            bytes: match op {
                Op::Match { pref, policy } => http_post(
                    &format!("/match?policy={}", corpus[policy].name),
                    &pref_xml[pref],
                ),
                Op::Install { index } => http_post("/install", &installs[index].1),
                Op::Sweep { pref } => http_post("/match_corpus", &pref_xml[pref]),
            },
        };
        let probe = render(Op::Match {
            pref: prefs.len() - 1,
            policy: 0,
        });
        let warmup = warmup.into_iter().map(render).collect();
        let timed = timed.into_iter().map(render).collect();

        let mut daemon_args = vec![
            "--corpus-n".to_string(),
            sizes.corpus_n.to_string(),
            "--corpus-seed".to_string(),
            seed.to_string(),
        ];
        if let Some(capacity) = kind.verdict_cache() {
            daemon_args.extend(["--verdict-cache".to_string(), capacity.to_string()]);
        }

        Plan {
            kind,
            seed,
            sizes,
            corpus,
            corpus_gen,
            prefs,
            installs,
            probe,
            warmup,
            timed,
            daemon_args,
        }
    }

    pub fn reads(&self) -> usize {
        self.timed.iter().filter(|r| r.op.is_read()).count()
    }
}

/// `len` draws from `0..n`, each value once per pass over a fresh
/// seeded permutation: uniform like independent draws, but every value
/// appears equally often, so seeds differ in pairing, not in mix.
fn balanced(rng: &mut SmallRng, n: usize, len: usize) -> Vec<usize> {
    let mut out = Vec::with_capacity(len);
    while out.len() < len {
        let mut pass: Vec<usize> = (0..n).collect();
        rng.shuffle(&mut pass);
        out.extend(pass.into_iter().take(len - out.len()));
    }
    out
}

fn http_post(path: &str, body: &str) -> Vec<u8> {
    let mut bytes = format!(
        "POST {path} HTTP/1.1\r\nHost: p3p\r\nContent-Length: {}\r\n\r\n",
        body.len()
    )
    .into_bytes();
    bytes.extend_from_slice(body.as_bytes());
    bytes
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plans_are_deterministic_per_seed() {
        for kind in Kind::ALL {
            let a = Plan::new(kind, 5, 1.0, Sizes::SMOKE);
            let b = Plan::new(kind, 5, 1.0, Sizes::SMOKE);
            let c = Plan::new(kind, 6, 1.0, Sizes::SMOKE);
            let bytes = |p: &Plan| p.timed.iter().map(|r| r.bytes.clone()).collect::<Vec<_>>();
            assert_eq!(bytes(&a), bytes(&b), "{}", kind.name());
            assert_ne!(bytes(&a), bytes(&c), "{}", kind.name());
        }
    }

    #[test]
    fn publish_installs_one_in_every_block() {
        let plan = Plan::new(Kind::Publish, 1, 1.0, Sizes::SMOKE);
        let installs = plan.timed.len() - plan.reads();
        assert_eq!(installs, plan.timed.len() / Sizes::SMOKE.install_every);
        assert_eq!(installs, plan.installs.len());
    }

    #[test]
    fn balanced_draws_cover_every_value_equally() {
        let mut rng = SmallRng::seed_from_u64(3);
        let draws = balanced(&mut rng, 5, 20);
        for v in 0..5 {
            assert_eq!(draws.iter().filter(|&&d| d == v).count(), 4);
        }
    }
}
