//! Slow-query log.
//!
//! The executor reports every statement it runs through [`record`];
//! statements whose wall time is at or above the configured threshold
//! are kept in a bounded global log. A threshold of zero therefore
//! captures *every* statement — the mode integration tests use to
//! assert that each executed SQL statement is attributable to the APPEL
//! rule it was translated from. A test that must see exactly its own
//! statements, whatever other threads log meanwhile, wraps them in
//! [`capture`] instead.
//!
//! Attribution works through a thread-local query context: the match
//! pipeline sets the originating rule id (via [`QueryContextGuard`])
//! before handing the statement to the executor, and [`record`] reads
//! it back. The log stores the executor's statistics as the
//! engine-neutral [`QueryStats`] so this crate stays dependency-free.

use std::cell::{Cell, RefCell};
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Duration;

/// Default capacity of the slow-query log.
const DEFAULT_CAPACITY: usize = 1024;

/// Threshold in nanoseconds. Starts effectively disabled.
static THRESHOLD_NANOS: AtomicU64 = AtomicU64::new(u64::MAX);
static CAPACITY: AtomicUsize = AtomicUsize::new(DEFAULT_CAPACITY);
static LOG: Mutex<VecDeque<SlowQueryRecord>> = Mutex::new(VecDeque::new());

thread_local! {
    /// APPEL rule id the statement currently executing on this thread
    /// was translated from, if the caller declared one.
    static RULE_CONTEXT: Cell<Option<u64>> = const { Cell::new(None) };
    /// Every statement reported on this thread while a [`capture`] is
    /// running, whatever the threshold.
    static CAPTURED: RefCell<Option<Vec<SlowQueryRecord>>> = const { RefCell::new(None) };
}

/// Engine-neutral executor statistics for one statement.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct QueryStats {
    /// Rows visited by scans and index probes.
    pub rows_scanned: u64,
    /// Index lookups performed.
    pub index_probes: u64,
    /// Full-table (sequential) scans started.
    pub seq_scans: u64,
    /// Correlated subquery evaluations.
    pub subqueries: u64,
    /// Rows in the statement's result.
    pub rows_output: u64,
    /// Hash tables built for hash-join levels.
    pub join_hash_builds: u64,
    /// Probes into hash-join tables.
    pub join_hash_probes: u64,
    /// Correlated EXISTS subqueries decorrelated into hash sets.
    pub exists_builds: u64,
    /// EXISTS predicates answered by probing a decorrelated hash set.
    pub exists_probes: u64,
}

/// One captured slow query.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SlowQueryRecord {
    /// The SQL text as executed.
    pub sql: String,
    /// APPEL rule id the statement was translated from, if known.
    pub rule_id: Option<u64>,
    /// Executor statistics for this statement alone.
    pub stats: QueryStats,
    /// Wall time of the statement.
    pub wall: Duration,
    /// Join strategy the planner chose (per-level scan order and
    /// operators), for multi-table SELECTs that went through the
    /// cost-based planner.
    pub join_strategy: Option<String>,
    /// Rendered `EXPLAIN ANALYZE` tree of the statement's execution
    /// (actual rows/loops/time per operator), when the executor ran
    /// with profiling enabled.
    pub analyzed_plan: Option<String>,
}

/// RAII guard that tags statements executed on this thread with an
/// APPEL rule id, restoring the previous tag on drop.
#[derive(Debug)]
pub struct QueryContextGuard {
    previous: Option<u64>,
}

impl QueryContextGuard {
    /// Tag subsequent statements on this thread as translated from
    /// `rule_id`.
    pub fn rule(rule_id: u64) -> QueryContextGuard {
        let previous = RULE_CONTEXT.with(|c| c.replace(Some(rule_id)));
        QueryContextGuard { previous }
    }
}

impl Drop for QueryContextGuard {
    fn drop(&mut self) {
        RULE_CONTEXT.with(|c| c.set(self.previous));
    }
}

/// The rule id statements on this thread are currently attributed to.
pub fn current_rule() -> Option<u64> {
    RULE_CONTEXT.with(|c| c.get())
}

/// Capture every statement at least `threshold` slow. Zero captures
/// everything.
pub fn set_threshold(threshold: Duration) {
    THRESHOLD_NANOS.store(
        u64::try_from(threshold.as_nanos()).unwrap_or(u64::MAX),
        Ordering::Relaxed,
    );
}

/// Stop capturing (the default state).
pub fn disable() {
    THRESHOLD_NANOS.store(u64::MAX, Ordering::Relaxed);
}

/// Bound the log to `capacity` records, evicting oldest first.
pub fn set_capacity(capacity: usize) {
    CAPACITY.store(capacity.max(1), Ordering::Relaxed);
}

/// Report an executed statement. Called by the executor for every
/// statement; the record is kept only if `wall` meets the threshold.
/// The rule id is read from this thread's [`QueryContextGuard`].
pub fn record(sql: &str, stats: QueryStats, wall: Duration) {
    record_with_strategy(sql, stats, wall, None);
}

/// [`record`] plus the join strategy the planner chose for the
/// statement, when it planned one.
pub fn record_with_strategy(
    sql: &str,
    stats: QueryStats,
    wall: Duration,
    join_strategy: Option<String>,
) {
    record_analyzed(sql, stats, wall, join_strategy, None);
}

/// [`record_with_strategy`] plus the statement's analyzed plan (the
/// rendered `EXPLAIN ANALYZE` tree), when the executor profiled it.
pub fn record_analyzed(
    sql: &str,
    stats: QueryStats,
    wall: Duration,
    join_strategy: Option<String>,
    analyzed_plan: Option<String>,
) {
    let threshold = THRESHOLD_NANOS.load(Ordering::Relaxed);
    let slow = u64::try_from(wall.as_nanos()).unwrap_or(u64::MAX) >= threshold;
    let capturing = CAPTURED.with(|c| c.borrow().is_some());
    if !slow && !capturing {
        return;
    }
    let record = SlowQueryRecord {
        sql: sql.to_string(),
        rule_id: current_rule(),
        stats,
        wall,
        join_strategy,
        analyzed_plan,
    };
    if capturing {
        CAPTURED.with(|c| {
            if let Some(captured) = c.borrow_mut().as_mut() {
                captured.push(record.clone());
            }
        });
    }
    if !slow {
        return;
    }
    let mut log = LOG.lock().unwrap();
    let cap = CAPACITY.load(Ordering::Relaxed);
    while log.len() >= cap {
        log.pop_front();
    }
    log.push_back(record);
}

/// Run `f` and return it with every statement this thread reported
/// while it ran, oldest first, whatever the threshold. Other threads
/// filling (and evicting from) the global log cannot touch the capture,
/// so a test can assert on exactly its own statements.
pub fn capture<R>(f: impl FnOnce() -> R) -> (R, Vec<SlowQueryRecord>) {
    let outer = CAPTURED.with(|c| c.replace(Some(Vec::new())));
    let result = f();
    let captured = CAPTURED.with(|c| c.replace(outer)).unwrap_or_default();
    (result, captured)
}

/// Copy of the log, oldest first.
pub fn entries() -> Vec<SlowQueryRecord> {
    LOG.lock().unwrap().iter().cloned().collect()
}

/// Discard all captured records.
pub fn clear() {
    LOG.lock().unwrap().clear();
}

#[cfg(test)]
mod tests {
    use super::*;

    // The log and threshold are global and tests run in parallel, so
    // these tests mark their records with unique SQL text and tolerate
    // records from other tests being present.

    #[test]
    fn threshold_zero_captures_everything_with_rule_attribution() {
        set_threshold(Duration::ZERO);
        {
            let _ctx = QueryContextGuard::rule(3);
            record(
                "SELECT slowlog_test_a",
                QueryStats {
                    rows_scanned: 7,
                    ..QueryStats::default()
                },
                Duration::from_micros(1),
            );
        }
        record(
            "SELECT slowlog_test_b",
            QueryStats::default(),
            Duration::ZERO,
        );
        let entries = entries();
        let a = entries
            .iter()
            .find(|r| r.sql == "SELECT slowlog_test_a")
            .expect("zero threshold keeps the record");
        assert_eq!(a.rule_id, Some(3));
        assert_eq!(a.stats.rows_scanned, 7);
        let b = entries
            .iter()
            .find(|r| r.sql == "SELECT slowlog_test_b")
            .expect("even a zero-duration statement is captured");
        assert_eq!(b.rule_id, None, "context guard must not leak");
    }

    #[test]
    fn context_guard_nests_and_restores() {
        assert_eq!(current_rule(), None);
        let outer = QueryContextGuard::rule(1);
        assert_eq!(current_rule(), Some(1));
        {
            let _inner = QueryContextGuard::rule(2);
            assert_eq!(current_rule(), Some(2));
        }
        assert_eq!(current_rule(), Some(1));
        drop(outer);
        assert_eq!(current_rule(), None);
    }

    #[test]
    fn join_strategy_is_recorded_when_supplied() {
        set_threshold(Duration::ZERO);
        record_with_strategy(
            "SELECT slowlog_test_strategy",
            QueryStats {
                join_hash_builds: 1,
                join_hash_probes: 9,
                ..QueryStats::default()
            },
            Duration::from_micros(2),
            Some("a: seq scan, b: hash join on (k)".to_string()),
        );
        let entry = entries()
            .into_iter()
            .find(|r| r.sql == "SELECT slowlog_test_strategy")
            .expect("captured");
        assert_eq!(
            entry.join_strategy.as_deref(),
            Some("a: seq scan, b: hash join on (k)")
        );
        assert_eq!(entry.stats.join_hash_probes, 9);
    }

    #[test]
    fn analyzed_plan_is_recorded_when_supplied() {
        set_threshold(Duration::ZERO);
        record_analyzed(
            "SELECT slowlog_test_analyzed",
            QueryStats::default(),
            Duration::from_micros(3),
            None,
            Some("Select (rows=1)\n  seq scan t AS t (rows=4 loops=1)".to_string()),
        );
        let entry = entries()
            .into_iter()
            .find(|r| r.sql == "SELECT slowlog_test_analyzed")
            .expect("captured");
        let plan = entry.analyzed_plan.expect("analyzed plan attached");
        assert!(plan.contains("seq scan t"), "{plan}");
        // Plain records carry no analyzed plan.
        record(
            "SELECT slowlog_test_unanalyzed",
            QueryStats::default(),
            Duration::from_micros(3),
        );
        let entry = entries()
            .into_iter()
            .find(|r| r.sql == "SELECT slowlog_test_unanalyzed")
            .expect("captured");
        assert_eq!(entry.analyzed_plan, None);
    }

    #[test]
    fn capture_sees_only_this_threads_statements_whatever_the_threshold() {
        let other = std::thread::spawn(|| {
            record(
                "SELECT slowlog_test_other_thread",
                QueryStats::default(),
                Duration::from_micros(1),
            )
        });
        let ((), captured) = capture(|| {
            record(
                "SELECT slowlog_test_captured",
                QueryStats {
                    exists_builds: 1,
                    exists_probes: 4,
                    ..QueryStats::default()
                },
                Duration::ZERO,
            );
        });
        other.join().unwrap();
        let sqls: Vec<&str> = captured.iter().map(|r| r.sql.as_str()).collect();
        assert_eq!(sqls, ["SELECT slowlog_test_captured"]);
        assert_eq!(captured[0].stats.exists_probes, 4);
        // A new capture starts empty: nothing carries over.
        let ((), empty) = capture(|| {});
        assert!(empty.is_empty());
    }

    #[test]
    fn fast_statements_are_dropped_under_a_high_threshold() {
        set_threshold(Duration::ZERO);
        // Raise the threshold just for this record; other parallel
        // tests set it to zero again for themselves, which is fine —
        // we only assert our own marker never appears.
        THRESHOLD_NANOS.store(u64::MAX, Ordering::Relaxed);
        record(
            "SELECT slowlog_test_dropped",
            QueryStats::default(),
            Duration::from_millis(5),
        );
        set_threshold(Duration::ZERO);
        assert!(entries()
            .iter()
            .all(|r| r.sql != "SELECT slowlog_test_dropped"));
    }
}
