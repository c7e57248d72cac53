//! Bench for the columnar batch executor: the optimized-SQL corpus
//! sweep and a synthetic single-table scan, each timed with columnar
//! kernels engaged vs the row-at-a-time interpreter (a clone with
//! `ExecOptions::columnar` off).
//!
//! Like the other benches this is a plain timing harness
//! (`harness = false`); pass `--test` for a single-iteration smoke
//! pass. The authoritative columnar-over-row number (and the ≥3x
//! gate) comes from `repro --table bulk`, which writes
//! `BENCH_bulk.json`.

use std::time::{Duration, Instant};

use p3p_bench::DEFAULT_SEED;
use p3p_minidb::{Database, ExecOptions};
use p3p_server::{EngineKind, PolicyServer};
use p3p_workload::{corpus_n, Sensitivity};

fn best_of(runs: u32, mut f: impl FnMut()) -> Duration {
    let mut best = Duration::MAX;
    for _ in 0..runs.max(1) {
        let t = Instant::now();
        f();
        best = best.min(t.elapsed());
    }
    best
}

/// Time `f` over the columnar target and over its row-engine clone.
fn both<T>(runs: u32, columnar: &T, row: &T, f: impl Fn(&T)) -> (Duration, Duration) {
    (best_of(runs, || f(columnar)), best_of(runs, || f(row)))
}

fn fmt(d: Duration) -> String {
    format!("{:.2}ms", d.as_secs_f64() * 1e3)
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--test");
    let (n, runs, scan_rows) = if smoke {
        (29, 1, 4_096)
    } else {
        (120, 5, 100_000)
    };

    // The workload the floor is gated on: one High preference decided
    // against the whole corpus through the optimized-SQL bulk path.
    let policies = corpus_n(DEFAULT_SEED, n);
    let mut server = PolicyServer::new();
    for p in &policies {
        server.install_policy(p).expect("corpus policy installs");
    }
    let ruleset = Sensitivity::High.ruleset();
    let sweep = |server: &PolicyServer| {
        server
            .match_corpus(&ruleset, EngineKind::Sql)
            .expect("bulk sweep succeeds")
    };
    let row_options = ExecOptions {
        columnar: false,
        ..ExecOptions::default()
    };
    let mut row_server = server.clone_state();
    row_server.database_mut().set_options(row_options);
    let baseline = sweep(&server);
    assert_eq!(
        baseline,
        sweep(&row_server),
        "executors disagree on verdicts"
    );
    let (columnar, row) = both(runs, &server, &row_server, |s| {
        sweep(s);
    });
    println!(
        "corpus sweep ({n} policies):  columnar {}  row {}  ({:.1}x)",
        fmt(columnar),
        fmt(row),
        row.as_secs_f64() / columnar.as_secs_f64()
    );

    // A synthetic scan isolating the kernels from translation and
    // verdict folding: filter + IN + DISTINCT over one wide column.
    let mut db = Database::new();
    db.execute("CREATE TABLE t (id INT, tag TEXT)").unwrap();
    let mut inserted = 0usize;
    while inserted < scan_rows {
        let batch: Vec<String> = (inserted..(inserted + 512).min(scan_rows))
            .map(|k| {
                if k % 5 == 3 {
                    format!("({k}, NULL)")
                } else {
                    format!("({k}, 'tag{}')", k % 97)
                }
            })
            .collect();
        inserted += batch.len();
        db.execute(&format!("INSERT INTO t VALUES {}", batch.join(", ")))
            .unwrap();
    }
    let sql = "SELECT DISTINCT tag FROM t t \
               WHERE t.id >= 100 AND t.tag LIKE 'tag%' \
               AND t.tag IN ('tag1', 'tag2', 'tag3', 'tag5', 'tag8', 'tag13')";
    let mut row_db = db.clone();
    row_db.set_options(row_options);
    let expected = db.query(sql).unwrap();
    assert_eq!(
        expected,
        row_db.query(sql).unwrap(),
        "executors disagree on rows"
    );
    let (columnar, row) = both(runs, &db, &row_db, |d| {
        d.query(sql).unwrap();
    });
    println!(
        "synthetic scan ({scan_rows} rows): columnar {}  row {}  ({:.1}x)",
        fmt(columnar),
        fmt(row),
        row.as_secs_f64() / columnar.as_secs_f64()
    );
}
