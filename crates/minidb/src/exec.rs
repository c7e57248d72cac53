//! Query execution: binding, predicate evaluation, nested-loop joins
//! with hash-index acceleration, correlated EXISTS, and aggregation.

use crate::database::{Database, QueryResult};
use crate::error::DbError;
use crate::plan::{JoinOp, JoinPlan, JoinPlanCache};
use crate::profile::{Collector, ExistsStrategy, Profile};
use crate::schema::ColumnDef;
use crate::sql::ast::{CompareOp, Expr, SelectItem, SelectStmt, TableRef};
use crate::table::Table;
use crate::value::{like_match, Value};
use std::cell::{Cell, RefCell};
use std::cmp::Ordering;
use std::collections::hash_map::Entry;
use std::collections::{HashMap, HashSet};
use std::rc::Rc;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Execution statistics, accumulated across queries until reset.
///
/// Used by tests and by the index-ablation bench to confirm that index
/// probes actually replace scans.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct ExecStats {
    /// Rows visited by table scans.
    pub rows_scanned: u64,
    /// Hash-index probes performed.
    pub index_probes: u64,
    /// Subqueries (EXISTS bodies) evaluated.
    pub subqueries: u64,
    /// Full-table (sequential) scans started because no index applied.
    pub seq_scans: u64,
    /// Rows output by completed SELECTs.
    pub rows_output: u64,
    /// Correlated EXISTS subqueries decorrelated into hash sets.
    pub exists_builds: u64,
    /// EXISTS predicates answered by probing a decorrelated hash set.
    pub exists_probes: u64,
    /// Hash tables built for hash-join levels.
    pub join_hash_builds: u64,
    /// Probes into hash-join tables.
    pub join_hash_probes: u64,
    /// Join plans whose scan order differs from the FROM order.
    pub planner_reorders: u64,
}

impl ExecStats {
    /// Statistics accumulated since `earlier` (field-wise difference).
    pub fn since(&self, earlier: &ExecStats) -> ExecStats {
        self.zip(earlier, |a, b| a - b)
    }

    fn zip(&self, other: &ExecStats, f: impl Fn(u64, u64) -> u64) -> ExecStats {
        ExecStats {
            rows_scanned: f(self.rows_scanned, other.rows_scanned),
            index_probes: f(self.index_probes, other.index_probes),
            subqueries: f(self.subqueries, other.subqueries),
            seq_scans: f(self.seq_scans, other.seq_scans),
            rows_output: f(self.rows_output, other.rows_output),
            exists_builds: f(self.exists_builds, other.exists_builds),
            exists_probes: f(self.exists_probes, other.exists_probes),
            join_hash_builds: f(self.join_hash_builds, other.join_hash_builds),
            join_hash_probes: f(self.join_hash_probes, other.join_hash_probes),
            planner_reorders: f(self.planner_reorders, other.planner_reorders),
        }
    }
}

thread_local! {
    static STATS: Cell<ExecStats> = Cell::new(ExecStats::default());
}

/// Read and reset the thread's execution statistics.
pub fn take_stats() -> ExecStats {
    STATS.with(|s| s.replace(ExecStats::default()))
}

/// Read the thread's execution statistics without resetting them.
/// Per-statement attribution diffs two snapshots with
/// [`ExecStats::since`].
pub fn stats_snapshot() -> ExecStats {
    STATS.with(|s| s.get())
}

/// Reset the thread's execution statistics to zero.
pub fn reset_stats() {
    STATS.with(|s| s.set(ExecStats::default()));
}

/// Add `delta` to the thread's execution statistics: how work done on
/// other threads on this thread's behalf (a sharded corpus sweep) is
/// reported where the caller reads it.
pub fn add_stats(delta: &ExecStats) {
    bump(|s| *s = s.zip(delta, |a, b| a + b));
}

pub(crate) fn bump(f: impl FnOnce(&mut ExecStats)) {
    STATS.with(|s| {
        let mut v = s.get();
        f(&mut v);
        s.set(v);
    });
}

/// One bound table in a scope: the binding name (alias or table name),
/// the table's columns, and the current row. Name and columns borrow
/// from the statement and the catalog, so entering a scan level
/// allocates nothing but the row buffer.
#[derive(Debug, Clone)]
struct Binding<'t> {
    name: &'t str,
    columns: &'t [ColumnDef],
    row: Vec<Value>,
}

/// The execution settings a statement runs under. A [`Database`]
/// holds one value ([`Database::options`]) that its clones, snapshots
/// and staging forks inherit; the executor reads it once per statement.
/// The default is the served configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ExecOptions {
    /// Equality and IN-list conjuncts over indexed columns become hash
    /// index probes. Off, every scan level is sequential (the
    /// index-ablation knob); indexes are still maintained.
    pub indexes: bool,
    /// Multi-table SELECTs go through the cost-based join planner. Off,
    /// they scan in literal FROM order with the index-probed nested
    /// loop, the baseline the join bench measures against.
    pub planner: bool,
    /// Eligible single-table SELECTs run on the columnar batch
    /// executor. The row-at-a-time engine is the fallback for every
    /// shape the batch compiler rejects, and the differential fuzzer
    /// turns this off to run both executors over identical inputs.
    pub columnar: bool,
    /// Force the evaluation-count decorrelation rule: `Some(k)` runs
    /// the first `k + 1` evaluations of an EXISTS node correlated and
    /// decorrelates on the next, so `Some(0)` decorrelates every
    /// eligible EXISTS on its second evaluation and `Some(u32::MAX)`
    /// pins the correlated nested loop. `None` keeps the break-even
    /// rule: a node decorrelates once its correlated evaluations have
    /// visited more rows than a build scan would read.
    pub decorrelate_after: Option<u32>,
    /// Collect a per-operator [`Profile`] for every SELECT, retrievable
    /// with [`take_last_profile`]. Profiling is observation-only:
    /// results, execution strategy and [`ExecStats`] are identical
    /// either way.
    pub profile: bool,
}

impl Default for ExecOptions {
    fn default() -> Self {
        ExecOptions {
            indexes: true,
            planner: true,
            columnar: true,
            decorrelate_after: None,
            profile: false,
        }
    }
}

/// Adaptive decorrelation state plus join-planning state, one per
/// statement execution, with the options the statement runs under.
///
/// A correlated EXISTS costs a subquery scan per candidate outer row.
/// Once the rows one node's correlated evaluations have visited
/// outweigh a single scan of its FROM tables — the signature of a query
/// scanning many outer rows — the executor rewrites it on the fly into
/// a hash semi-join: the subquery runs once with its correlation
/// conjuncts removed, the correlation-key values of every surviving row
/// land in a hash set, and each later outer row answers EXISTS with a
/// single hash probe.
///
/// The memo also carries the execution's join plans (computed lazily
/// per multi-table SELECT node) and the hash tables built for
/// hash-join levels, both keyed by node address so a correlated
/// subquery re-entered per outer row reuses its plan and build work.
#[derive(Default)]
struct ExistsMemo<'p> {
    /// The options this execution runs under.
    opts: ExecOptions,
    /// Keyed by the subquery node's address, stable for one execution.
    states: RefCell<HashMap<usize, MemoState>>,
    /// Rows visited by scan levels since the innermost EXISTS evaluation
    /// in progress began: each evaluation swaps in zero and restores the
    /// enclosing count, so a node is charged only its own levels' rows.
    rows_visited: Cell<u64>,
    /// Join plans for this execution only (ad-hoc statements).
    local_plans: RefCell<HashMap<usize, Arc<JoinPlan>>>,
    /// Join plans shared across executions of a prepared statement,
    /// whose AST `Arc` keeps node addresses stable.
    shared_plans: Option<&'p JoinPlanCache>,
    /// Hash-join build results, keyed by (plan address, level).
    hash_tables: RefCell<HashMap<(usize, usize), Rc<JoinHashTable>>>,
    /// Per-operator measurement collector, present only when this
    /// execution runs with profiling enabled — with it absent every
    /// hook below is a single `Option` check.
    profiler: Option<Collector>,
}

/// A transient hash table backing one hash-join level: build key values
/// to row ids of the build-side table.
struct JoinHashTable {
    map: HashMap<Vec<Value>, Vec<usize>>,
}

enum MemoState {
    /// Still running correlated: evaluations so far, their cost (rows
    /// visited plus one per evaluation), and the rows a build scan
    /// would read (the summed sizes of the subquery's FROM tables).
    Counting {
        evals: u32,
        cost: u64,
        build_rows: u64,
    },
    /// Analysis found the node non-decorrelatable; stay correlated.
    Bypass,
    /// Decorrelated: probe the hash set instead of re-running.
    Set(Rc<DecorrelatedSet>),
}

/// The result of decorrelating one EXISTS subquery.
struct DecorrelatedSet {
    /// Outer sides of the removed correlation conjuncts, evaluated in
    /// the probing row's environment to form the lookup key.
    probes: Vec<Expr>,
    /// Correlation keys of every subquery row surviving the residual
    /// (outer-free) predicates.
    keys: HashSet<Vec<Value>>,
}

/// An evaluation environment: the current query's bindings plus a chain
/// of outer environments for correlated subqueries, and the statement's
/// bound parameter values and decorrelation memo (shared across the
/// whole chain). Bindings are borrowed, never cloned: evaluating a
/// filter over a candidate row costs no allocation.
struct Env<'a> {
    bindings: &'a [Binding<'a>],
    outer: Option<&'a Env<'a>>,
    params: &'a [Value],
    memo: &'a ExistsMemo<'a>,
}

impl<'a> Env<'a> {
    fn root(params: &'a [Value], memo: &'a ExistsMemo<'a>) -> Env<'a> {
        Env {
            bindings: &[],
            outer: None,
            params,
            memo,
        }
    }

    /// Resolve a bind-parameter slot to its bound value.
    fn param(&self, index: usize, name: Option<&str>) -> Result<Value, DbError> {
        self.params.get(index).cloned().ok_or_else(|| {
            DbError::Execution(match name {
                Some(n) => format!("parameter `:{n}` is not bound"),
                None => format!(
                    "parameter {} is not bound ({} value(s) supplied)",
                    index + 1,
                    self.params.len()
                ),
            })
        })
    }

    /// Resolve a column reference to its value.
    fn lookup(&self, qualifier: Option<&str>, name: &str) -> Result<Value, DbError> {
        // Innermost scope first.
        let mut scope: Option<&Env<'_>> = Some(self);
        while let Some(env) = scope {
            let mut found: Option<Value> = None;
            let mut count = 0;
            for b in env.bindings {
                if let Some(q) = qualifier {
                    if !b.name.eq_ignore_ascii_case(q) {
                        continue;
                    }
                }
                if let Some(i) = b
                    .columns
                    .iter()
                    .position(|c| c.name.eq_ignore_ascii_case(name))
                {
                    found = Some(b.row[i].clone());
                    count += 1;
                }
            }
            match count {
                0 => scope = env.outer,
                1 => return Ok(found.expect("count==1")),
                _ => {
                    return Err(DbError::AmbiguousColumn(match qualifier {
                        Some(q) => format!("{q}.{name}"),
                        None => name.to_string(),
                    }))
                }
            }
        }
        Err(DbError::UnknownColumn(match qualifier {
            Some(q) => format!("{q}.{name}"),
            None => name.to_string(),
        }))
    }
}

/// Run a SELECT with bound parameter values for `?`/`:name` slots,
/// under the database's options.
pub fn run_select_bound(
    db: &Database,
    stmt: &SelectStmt,
    params: &[Value],
) -> Result<QueryResult, DbError> {
    run_select_with_plans(db, stmt, params, None, db.options())
}

/// Run a SELECT under `opts`, caching join plans in `plans` (a prepared
/// statement's per-node cache) when supplied; ad-hoc runs plan per
/// execution.
pub(crate) fn run_select_with_plans(
    db: &Database,
    stmt: &SelectStmt,
    params: &[Value],
    plans: Option<&JoinPlanCache>,
    opts: ExecOptions,
) -> Result<QueryResult, DbError> {
    LAST_STRATEGY.with(|s| *s.borrow_mut() = None);
    LAST_PROFILE.with(|s| *s.borrow_mut() = None);
    // Batch-eligible single-table statements run on the columnar
    // executor; everything it declines falls through to the row engine
    // below with no work lost.
    if opts.columnar {
        if let Some(result) = crate::columnar::try_select(db, stmt, params, opts)? {
            bump(|s| s.rows_output += result.rows.len() as u64);
            return Ok(result);
        }
    }
    let memo = ExistsMemo {
        opts,
        shared_plans: plans,
        profiler: opts.profile.then(Collector::new),
        ..ExistsMemo::default()
    };
    let root = Env::root(params, &memo);
    let result = select_with_env(db, stmt, &root)?;
    bump(|s| s.rows_output += result.rows.len() as u64);
    if let Some(profile) = memo
        .profiler
        .as_ref()
        .and_then(|c| c.finish(stmt as *const SelectStmt as usize))
    {
        LAST_PROFILE.with(|s| *s.borrow_mut() = Some(profile));
    }
    Ok(result)
}

thread_local! {
    /// Strategy summary of the last planned top-level SELECT on this
    /// thread, consumed by the slow-query log.
    static LAST_STRATEGY: RefCell<Option<String>> = const { RefCell::new(None) };
    /// Profile of the last profiled SELECT on this thread, consumed by
    /// `EXPLAIN ANALYZE` and the slow-query log.
    static LAST_PROFILE: RefCell<Option<Profile>> = const { RefCell::new(None) };
}

/// Take (and clear) the join-strategy summary recorded by the last
/// top-level multi-table SELECT executed on this thread.
pub fn take_last_join_strategy() -> Option<String> {
    LAST_STRATEGY.with(|s| s.borrow_mut().take())
}

/// Take (and clear) the execution profile of the last profiled SELECT
/// on this thread.
pub fn take_last_profile() -> Option<Profile> {
    LAST_PROFILE.with(|s| s.borrow_mut().take())
}

/// Inspect the last profile without consuming it, so per-statement
/// reporting (slow-query log, histograms) leaves it for the caller.
pub(crate) fn with_last_profile<R>(f: impl FnOnce(Option<&Profile>) -> R) -> R {
    LAST_PROFILE.with(|s| f(s.borrow().as_ref()))
}

/// Record the profile of a completed columnar execution (the columnar
/// module owns its collector; the thread-local hand-off stays here).
pub(crate) fn set_last_profile(profile: Profile) {
    LAST_PROFILE.with(|s| *s.borrow_mut() = Some(profile));
}

/// Fetch (or compute and cache) the join plan for one SELECT node.
/// Single-table selects and planner-off executions skip planning — the
/// translated EXISTS workload stays on its unchanged fast path.
fn plan_for(db: &Database, stmt: &SelectStmt, memo: &ExistsMemo<'_>) -> Option<Arc<JoinPlan>> {
    if stmt.from.len() < 2 || !memo.opts.planner {
        return None;
    }
    let node = stmt as *const SelectStmt as usize;
    // A prepared statement's plans are shared by every clone of the
    // database and costed with indexes on; an indexes-off execution
    // plans for itself, so neither runs a plan costed for the other.
    if let Some(shared) = memo.shared_plans.filter(|_| memo.opts.indexes) {
        if let Some(plan) = shared.get(node) {
            return Some(plan);
        }
        let plan = crate::plan::plan_select(db, stmt)?;
        if plan.reordered {
            bump(|s| s.planner_reorders += 1);
        }
        shared.insert(node, Arc::clone(&plan));
        Some(plan)
    } else {
        if let Some(plan) = memo.local_plans.borrow().get(&node) {
            return Some(Arc::clone(plan));
        }
        let plan = crate::plan::plan_select(db, stmt)?;
        if plan.reordered {
            bump(|s| s.planner_reorders += 1);
        }
        memo.local_plans
            .borrow_mut()
            .insert(node, Arc::clone(&plan));
        Some(plan)
    }
}

/// Run one SELECT node, timing it as a profile node when profiling is
/// on. The wrapper keeps the collector's stack balanced on the error
/// path (an error aborts the execution, but attribution of the partial
/// work stays well-formed).
fn select_with_env(
    db: &Database,
    stmt: &SelectStmt,
    outer: &Env<'_>,
) -> Result<QueryResult, DbError> {
    let Some(profiler) = &outer.memo.profiler else {
        return select_body(db, stmt, outer);
    };
    let addr = stmt as *const SelectStmt as usize;
    let start = profiler.enter(addr, "Select");
    let result = select_body(db, stmt, outer);
    let rows = result.as_ref().map_or(0, |r| r.rows.len() as u64);
    profiler.exit(addr, start, rows);
    result
}

fn select_body(db: &Database, stmt: &SelectStmt, outer: &Env<'_>) -> Result<QueryResult, DbError> {
    // Resolve FROM tables up front.
    let mut tables: Vec<(&TableRef, &Table)> = Vec::with_capacity(stmt.from.len());
    for tref in &stmt.from {
        let table = db
            .table(&tref.table)
            .ok_or_else(|| DbError::UnknownTable(tref.table.clone()))?;
        tables.push((tref, table));
    }
    // Check for duplicate binding names.
    for (i, (a, _)) in tables.iter().enumerate() {
        if tables[..i]
            .iter()
            .any(|(b, _)| b.binding_name().eq_ignore_ascii_case(a.binding_name()))
        {
            return Err(DbError::Execution(format!(
                "duplicate table binding `{}`",
                a.binding_name()
            )));
        }
    }

    let aggregate = !stmt.group_by.is_empty()
        || stmt
            .items
            .iter()
            .any(|i| matches!(i, SelectItem::Count { .. }));

    // Plan multi-table joins; scan in planned order. Projection and
    // wildcard expansion below keep using `tables` (FROM order), and
    // bindings are matched by name, so reordering is output-invariant
    // up to row order.
    let plan = plan_for(db, stmt, outer.memo);
    if let Some(p) = &plan {
        if outer.bindings.is_empty() && outer.outer.is_none() {
            LAST_STRATEGY.with(|s| *s.borrow_mut() = Some(p.describe(stmt)));
        }
        if let Some(c) = &outer.memo.profiler {
            c.set_order(p.order_line(stmt));
        }
    }
    let scan_tables: Vec<(&TableRef, &Table)> = match &plan {
        Some(p) => p.order.iter().map(|&i| tables[i]).collect(),
        None => tables.clone(),
    };

    let mut joined: Vec<Vec<Binding>> = Vec::new();
    join_scan(
        db,
        &scan_tables,
        plan.as_ref(),
        0,
        &mut Vec::new(),
        stmt.filter.as_ref(),
        outer,
        &mut |bindings| {
            joined.push(bindings.to_vec());
            Ok(true)
        },
    )?;

    let columns = output_columns(stmt, &tables);

    let mut rows: Vec<Vec<Value>> = Vec::new();
    if aggregate {
        rows = aggregate_rows(db, stmt, &tables, &joined, outer)?;
    } else {
        for bindings in &joined {
            let env = Env {
                bindings,
                outer: Some(outer),
                params: outer.params,
                memo: outer.memo,
            };
            rows.push(project_row(db, &stmt.items, &tables, &env)?);
        }
    }

    if stmt.distinct {
        // Preserve first-occurrence order; hash-based dedup keeps
        // DISTINCT linear in the row count.
        let distinct_start = outer.memo.profiler.as_ref().map(|_| Instant::now());
        let before = rows.len() as u64;
        let mut seen: HashSet<Vec<Value>> = HashSet::with_capacity(rows.len());
        rows.retain(|row| seen.insert(row.clone()));
        if let Some(c) = &outer.memo.profiler {
            let elapsed = distinct_start.expect("profiling on").elapsed();
            c.record_distinct(before, rows.len() as u64, elapsed);
        }
    }

    // ORDER BY evaluates against output columns first, then bindings.
    if !stmt.order_by.is_empty() && !stmt.distinct {
        order_rows(db, stmt, &columns, &mut rows, &joined, outer, aggregate)?;
    } else if !stmt.order_by.is_empty() {
        // After DISTINCT, joined-row keys no longer line up; sort by
        // output columns only.
        order_output_rows(stmt, &columns, &mut rows)?;
    }
    if let Some(limit) = stmt.limit {
        rows.truncate(limit);
    }
    Ok(QueryResult { columns, rows })
}

/// Recursive nested-loop join over the scan tables (FROM order, or the
/// plan's order when `plan` is supplied — `tables` must then be the
/// plan-reordered list, with `plan.ops` aligned by depth). `emit`
/// returns `false` to stop early (EXISTS short-circuit).
#[allow(clippy::too_many_arguments)]
fn join_scan<'t>(
    db: &Database,
    tables: &[(&'t TableRef, &'t Table)],
    plan: Option<&Arc<JoinPlan>>,
    depth: usize,
    bound: &mut Vec<Binding<'t>>,
    filter: Option<&Expr>,
    outer: &Env<'_>,
    emit: &mut dyn FnMut(&[Binding<'t>]) -> Result<bool, DbError>,
) -> Result<bool, DbError> {
    if depth == tables.len() {
        // All tables bound: evaluate the residual filter.
        let keep = match filter {
            Some(f) => {
                let env = Env {
                    bindings: bound.as_slice(),
                    outer: Some(outer),
                    params: outer.params,
                    memo: outer.memo,
                };
                match &outer.memo.profiler {
                    Some(p) => {
                        let start = Instant::now();
                        let keep = eval_pred(db, f, &env)? == Some(true);
                        p.record_filter(keep, start.elapsed());
                        keep
                    }
                    None => eval_pred(db, f, &env)? == Some(true),
                }
            }
            None => true,
        };
        if keep {
            return emit(bound);
        }
        return Ok(true);
    }
    let (tref, table) = tables[depth];

    // Planned hash-join levels bypass the dynamic index-probe search.
    if let Some(plan_arc) = plan {
        if let JoinOp::HashJoin {
            build_cols,
            probes,
            build_filter,
            ..
        } = &plan_arc.ops[depth]
        {
            return hash_join_level(
                db,
                tables,
                plan_arc,
                depth,
                bound,
                filter,
                outer,
                emit,
                build_cols,
                probes,
                build_filter,
            );
        }
    }

    // Try index probe: collect equality conjuncts `this.col = expr`
    // where expr is evaluable from already-bound tables + outer env.
    let candidate_rows: Option<(Vec<usize>, ProbeProfile)> = if outer.memo.opts.indexes {
        probe_rows(db, tref, table, filter, bound.as_slice(), outer)?
    } else {
        None
    };

    let level_start = outer.memo.profiler.as_ref().map(|_| Instant::now());
    let mut visited: u64 = 0;
    // One binding per join level; only its row slot is rewritten per
    // visited row, so the scan allocates no per-row name/column lists.
    bound.push(Binding {
        name: tref.binding_name(),
        columns: &table.schema.columns,
        row: Vec::new(),
    });
    let mut cont = true;
    match candidate_rows {
        Some((ids, probe)) => {
            bump(|s| s.index_probes += 1);
            for id in ids {
                visit_row(outer.memo);
                visited += 1;
                let slot = bound.last_mut().expect("binding just pushed");
                table.read_row_into(id, &mut slot.row);
                if !join_scan(db, tables, plan, depth + 1, bound, filter, outer, emit)? {
                    cont = false;
                    break;
                }
            }
            if let Some(p) = &outer.memo.profiler {
                let planned = plan.and_then(|pl| pl.est_rows.get(depth).copied());
                let elapsed = level_start.expect("profiling on").elapsed();
                p.record_level(depth, probe.kind, planned, visited, elapsed, || {
                    probe.label.unwrap_or_default()
                });
            }
        }
        None => {
            bump(|s| s.seq_scans += 1);
            for id in 0..table.len() {
                visit_row(outer.memo);
                visited += 1;
                let slot = bound.last_mut().expect("binding just pushed");
                table.read_row_into(id, &mut slot.row);
                if !join_scan(db, tables, plan, depth + 1, bound, filter, outer, emit)? {
                    cont = false;
                    break;
                }
            }
            if let Some(p) = &outer.memo.profiler {
                // An unplanned seq scan's implicit estimate is the full
                // table; planned levels carry the cost model's estimate.
                let planned = match plan {
                    Some(pl) => pl.est_rows.get(depth).copied(),
                    None => Some(table.len() as u64),
                };
                let elapsed = level_start.expect("profiling on").elapsed();
                p.record_level(depth, "seq_scan", planned, visited, elapsed, || {
                    format!("seq scan {} AS {}", tref.table, tref.binding_name())
                });
            }
        }
    }
    bound.pop();
    Ok(cont)
}

/// One hash-join level: build a hash table over this table's rows once
/// per execution (memoized by plan address and level, so a correlated
/// subquery re-entered per outer row builds once), then probe it with
/// the outer-side key expressions. NULLs never satisfy the underlying
/// equality, so NULL-keyed rows are skipped at build and a NULL probe
/// component matches nothing — and the residual filter still re-checks
/// every conjunct at the leaf.
#[allow(clippy::too_many_arguments)]
fn hash_join_level<'t>(
    db: &Database,
    tables: &[(&'t TableRef, &'t Table)],
    plan: &Arc<JoinPlan>,
    depth: usize,
    bound: &mut Vec<Binding<'t>>,
    filter: Option<&Expr>,
    outer: &Env<'_>,
    emit: &mut dyn FnMut(&[Binding<'t>]) -> Result<bool, DbError>,
    build_cols: &[usize],
    probes: &[Expr],
    build_filter: &[Expr],
) -> Result<bool, DbError> {
    let (tref, table) = tables[depth];
    let level_start = outer.memo.profiler.as_ref().map(|_| Instant::now());
    let mut build_info: Option<(u64, u64, Duration)> = None;
    let memo_key = (Arc::as_ptr(plan) as usize, depth);
    let cached = outer.memo.hash_tables.borrow().get(&memo_key).cloned();
    let hash_table = match cached {
        Some(ht) => ht,
        None => {
            let build_start = outer.memo.profiler.as_ref().map(|_| Instant::now());
            bump(|s| s.join_hash_builds += 1);
            let mut map: HashMap<Vec<Value>, Vec<usize>> = HashMap::new();
            let mut build_binding = vec![Binding {
                name: tref.binding_name(),
                columns: &table.schema.columns,
                row: Vec::new(),
            }];
            'rows: for row_id in 0..table.len() {
                visit_row(outer.memo);
                if !build_filter.is_empty() {
                    table.read_row_into(row_id, &mut build_binding[0].row);
                    // The pushdown conjuncts are outer-free: evaluating
                    // them with no outer chain is the same answer every
                    // probing row would see.
                    let env = Env {
                        bindings: &build_binding,
                        outer: None,
                        params: outer.params,
                        memo: outer.memo,
                    };
                    for pred in build_filter {
                        if eval_pred(db, pred, &env)? != Some(true) {
                            continue 'rows;
                        }
                    }
                }
                let mut key = Vec::with_capacity(build_cols.len());
                for &c in build_cols {
                    let v = table.value(row_id, c);
                    if v.is_null() {
                        continue 'rows;
                    }
                    key.push(v);
                }
                map.entry(key).or_default().push(row_id);
            }
            if let Some(start) = build_start {
                let kept: u64 = map.values().map(|ids| ids.len() as u64).sum();
                build_info = Some((table.len() as u64, kept, start.elapsed()));
            }
            let ht = Rc::new(JoinHashTable { map });
            outer
                .memo
                .hash_tables
                .borrow_mut()
                .insert(memo_key, Rc::clone(&ht));
            ht
        }
    };

    bump(|s| s.join_hash_probes += 1);
    let mut key = Vec::with_capacity(probes.len());
    let mut null_probe = false;
    {
        let env = Env {
            bindings: bound.as_slice(),
            outer: Some(outer),
            params: outer.params,
            memo: outer.memo,
        };
        for probe in probes {
            let v = eval_value(db, probe, &env)?;
            if v.is_null() {
                null_probe = true;
                break;
            }
            key.push(v);
        }
    }
    let ids: &[usize] = if null_probe {
        &[]
    } else {
        hash_table.map.get(&key).map(Vec::as_slice).unwrap_or(&[])
    };

    bound.push(Binding {
        name: tref.binding_name(),
        columns: &table.schema.columns,
        row: Vec::new(),
    });
    let mut cont = true;
    let mut visited: u64 = 0;
    for &id in ids {
        visit_row(outer.memo);
        visited += 1;
        let slot = bound.last_mut().expect("binding just pushed");
        table.read_row_into(id, &mut slot.row);
        if !join_scan(
            db,
            tables,
            Some(plan),
            depth + 1,
            bound,
            filter,
            outer,
            emit,
        )? {
            cont = false;
            break;
        }
    }
    bound.pop();
    if let Some(p) = &outer.memo.profiler {
        let planned = plan.est_rows.get(depth).copied();
        let elapsed = level_start.expect("profiling on").elapsed();
        p.record_level(
            depth,
            "hash_join",
            planned,
            visited,
            elapsed,
            || match &plan.ops[depth] {
                JoinOp::HashJoin { columns, .. } => format!(
                    "hash join {} AS {} on ({})",
                    tref.table,
                    tref.binding_name(),
                    columns.join(", ")
                ),
                op => format!("{op} {} AS {}", tref.table, tref.binding_name()),
            },
        );
        if let Some((scanned, kept, build_elapsed)) = build_info {
            p.record_build(depth, scanned, kept, build_elapsed);
        }
    }
    Ok(cont)
}

/// Access-path description of one index probe, consumed by the
/// profiler; the operator line is rendered only when profiling is on.
struct ProbeProfile {
    kind: &'static str,
    label: Option<String>,
}

/// Find an index usable for this table given the filter's top-level
/// equality and IN-list conjuncts; returns the candidate row ids (and
/// the access path taken, for the profiler) when one applies. At most
/// one index column may come from an IN list: that column is probed
/// once per list value and the hits are unioned, which is what lets
/// bulk corpus queries restrict a scan to a set of still-undecided
/// policy ids.
fn probe_rows(
    db: &Database,
    tref: &TableRef,
    table: &Table,
    filter: Option<&Expr>,
    bound: &[Binding],
    outer: &Env<'_>,
) -> Result<Option<(Vec<usize>, ProbeProfile)>, DbError> {
    let Some(filter) = filter else {
        return Ok(None);
    };
    let mut conjuncts = Vec::new();
    collect_conjuncts(filter, &mut conjuncts);
    let env = Env {
        bindings: bound,
        outer: Some(outer),
        params: outer.params,
        memo: outer.memo,
    };
    // A column reference belongs to this table when its qualifier names
    // the binding (or it is unqualified in a single-table scan) and the
    // column exists in the schema.
    let own_column = |expr: &Expr| -> Option<usize> {
        let Expr::Column { qualifier, name } = expr else {
            return None;
        };
        let qualifies = match qualifier {
            Some(q) => q.eq_ignore_ascii_case(tref.binding_name()),
            // Unqualified references are only safely attributable in
            // single-table scans.
            None => bound.is_empty(),
        };
        if !qualifies {
            return None;
        }
        table.schema.column_index(name)
    };
    // Equality pairs (column index in this table, evaluable value) and
    // IN lists (column index, fully-evaluable non-null values).
    let mut eq_pairs: Vec<(usize, Value)> = Vec::new();
    let mut in_lists: Vec<(usize, Vec<Value>)> = Vec::new();
    for c in conjuncts {
        match c {
            Expr::Compare {
                op: CompareOp::Eq,
                left,
                right,
            } => {
                for (col_side, val_side) in [(left, right), (right, left)] {
                    let Some(col_idx) = own_column(col_side) else {
                        continue;
                    };
                    // The other side must be evaluable *without* this table.
                    if let Ok(v) = eval_value(db, val_side, &env) {
                        if !v.is_null() {
                            eq_pairs.push((col_idx, v));
                        }
                        break;
                    }
                }
            }
            Expr::InList {
                expr,
                list,
                negated: false,
            } => {
                let Some(col_idx) = own_column(expr) else {
                    continue;
                };
                let mut values = Vec::with_capacity(list.len());
                let mut usable = true;
                for item in list {
                    match eval_value(db, item, &env) {
                        // NULL items can never satisfy equality; skip.
                        Ok(v) if v.is_null() => {}
                        Ok(v) => values.push(v),
                        Err(_) => {
                            usable = false;
                            break;
                        }
                    }
                }
                if usable {
                    in_lists.push((col_idx, values));
                }
            }
            _ => {}
        }
    }
    if eq_pairs.is_empty() && in_lists.is_empty() {
        return Ok(None);
    }
    // Find the largest index whose columns are all covered by equality
    // pairs, allowing at most one column to be covered by an IN list
    // instead. Exact (all-equality) coverage wins ties.
    let mut best: Option<(&crate::table::Index, Option<(usize, usize)>)> = None;
    for index in table.indexes() {
        let mut multi: Option<(usize, usize)> = None; // (pos in index, in_lists slot)
        let mut covered = true;
        for (pos, c) in index.columns.iter().enumerate() {
            if eq_pairs.iter().any(|(ec, _)| ec == c) {
                continue;
            }
            let slot = in_lists.iter().position(|(ic, _)| ic == c);
            match slot {
                Some(slot) if multi.is_none() => multi = Some((pos, slot)),
                _ => {
                    covered = false;
                    break;
                }
            }
        }
        if !covered {
            continue;
        }
        let better = match &best {
            Some((b, b_multi)) => {
                index.columns.len() > b.columns.len()
                    || (index.columns.len() == b.columns.len()
                        && multi.is_none()
                        && b_multi.is_some())
            }
            None => true,
        };
        if better {
            best = Some((index, multi));
        }
    }
    let Some((index, multi)) = best else {
        return Ok(None);
    };
    let profile = ProbeProfile {
        kind: if multi.is_some() {
            "in_list_probe"
        } else {
            "index_probe"
        },
        label: outer.memo.profiler.as_ref().map(|_| {
            let cols: Vec<&str> = index
                .columns
                .iter()
                .map(|&c| table.schema.columns[c].name.as_str())
                .collect();
            let op = if multi.is_some() {
                "in-list probe"
            } else {
                "index nested loop"
            };
            let mut label = format!(
                "{op} {} AS {} on ({})",
                tref.table,
                tref.binding_name(),
                cols.join(", ")
            );
            if let Some(name) = index.name() {
                label.push_str(&format!(" via {name}"));
            }
            label
        }),
    };
    let mut key: Vec<Value> = index
        .columns
        .iter()
        .map(|c| {
            eq_pairs
                .iter()
                .find(|(ec, _)| ec == c)
                .map(|(_, v)| v.clone())
                // Placeholder for the IN-list column, filled per value.
                .unwrap_or(Value::Null)
        })
        .collect();
    match multi {
        None => Ok(Some((index.probe(&key).to_vec(), profile))),
        Some((pos, slot)) => {
            let mut ids = Vec::new();
            for v in &in_lists[slot].1 {
                key[pos] = v.clone();
                ids.extend_from_slice(index.probe(&key));
            }
            // Deterministic scan order and no duplicate visits even if
            // the IN list repeats a value.
            ids.sort_unstable();
            ids.dedup();
            Ok(Some((ids, profile)))
        }
    }
}

/// Candidate-row selection for the columnar executor: the same index /
/// IN-list probe search the row engine runs, against an empty scope (a
/// top-level single-table scan has no bound tables and no outer env).
/// `None` means "scan the whole table". Statistics are *not* bumped
/// here — the caller commits them only once it decides to engage.
pub(crate) struct CandidateProbe {
    pub ids: Vec<usize>,
    pub label: Option<String>,
}

pub(crate) fn probe_candidates(
    db: &Database,
    tref: &TableRef,
    table: &Table,
    filter: Option<&Expr>,
    params: &[Value],
    opts: ExecOptions,
) -> Result<Option<CandidateProbe>, DbError> {
    if !opts.indexes {
        return Ok(None);
    }
    // A profiled execution wants the probe's label.
    let memo = ExistsMemo {
        opts,
        profiler: opts.profile.then(Collector::new),
        ..ExistsMemo::default()
    };
    let root = Env::root(params, &memo);
    Ok(
        probe_rows(db, tref, table, filter, &[], &root)?.map(|(ids, p)| CandidateProbe {
            ids,
            label: p.label,
        }),
    )
}

/// Flatten nested ANDs into conjuncts.
pub(crate) fn collect_conjuncts<'e>(expr: &'e Expr, out: &mut Vec<&'e Expr>) {
    match expr {
        Expr::And(a, b) => {
            collect_conjuncts(a, out);
            collect_conjuncts(b, out);
        }
        other => out.push(other),
    }
}

/// Output column names for a SELECT.
pub(crate) fn output_columns(stmt: &SelectStmt, tables: &[(&TableRef, &Table)]) -> Vec<String> {
    let mut out = Vec::new();
    for item in &stmt.items {
        match item {
            SelectItem::Wildcard => {
                for (_, table) in tables {
                    out.extend(table.schema.column_names());
                }
            }
            SelectItem::Expr { expr, alias } => out.push(match (alias, expr) {
                (Some(a), _) => a.clone(),
                (None, Expr::Column { name, .. }) => name.clone(),
                (None, Expr::Literal(v)) => v.to_string(),
                (None, _) => "expr".to_string(),
            }),
            SelectItem::Count { alias, .. } => {
                out.push(alias.clone().unwrap_or_else(|| "count".to_string()))
            }
        }
    }
    out
}

/// Project one output row from a fully-bound environment.
fn project_row(
    db: &Database,
    items: &[SelectItem],
    tables: &[(&TableRef, &Table)],
    env: &Env<'_>,
) -> Result<Vec<Value>, DbError> {
    let mut out = Vec::new();
    for item in items {
        match item {
            SelectItem::Wildcard => {
                for (tref, _) in tables {
                    let binding = env
                        .bindings
                        .iter()
                        .find(|b| b.name == tref.binding_name())
                        .expect("bound table");
                    out.extend(binding.row.iter().cloned());
                }
            }
            SelectItem::Expr { expr, .. } => out.push(eval_value(db, expr, env)?),
            SelectItem::Count { .. } => {
                return Err(DbError::Execution(
                    "COUNT outside aggregate evaluation".to_string(),
                ))
            }
        }
    }
    Ok(out)
}

/// Aggregate execution: group the joined rows and compute COUNTs.
fn aggregate_rows(
    db: &Database,
    stmt: &SelectStmt,
    tables: &[(&TableRef, &Table)],
    joined: &[Vec<Binding>],
    outer: &Env<'_>,
) -> Result<Vec<Vec<Value>>, DbError> {
    let _ = tables;
    // Group key → member environments.
    let mut groups: Vec<(Vec<Value>, Vec<&Vec<Binding>>)> = Vec::new();
    let mut index: HashMap<Vec<String>, usize> = HashMap::new();
    for bindings in joined {
        let env = Env {
            bindings,
            outer: Some(outer),
            params: outer.params,
            memo: outer.memo,
        };
        let key: Vec<Value> = stmt
            .group_by
            .iter()
            .map(|e| eval_value(db, e, &env))
            .collect::<Result<_, _>>()?;
        let hash_key: Vec<String> = key.iter().map(|v| format!("{v:?}")).collect();
        match index.get(&hash_key) {
            Some(&i) => groups[i].1.push(bindings),
            None => {
                index.insert(hash_key, groups.len());
                groups.push((key, vec![bindings]));
            }
        }
    }
    // With no GROUP BY, a global aggregate over zero rows still yields
    // one row.
    if stmt.group_by.is_empty() && groups.is_empty() {
        groups.push((Vec::new(), Vec::new()));
    }
    let mut rows = Vec::new();
    for (_key, members) in &groups {
        let mut row = Vec::new();
        let representative = members.first();
        for item in &stmt.items {
            match item {
                SelectItem::Count { expr, .. } => {
                    let n = match expr {
                        None => members.len() as i64,
                        Some(e) => {
                            let mut n = 0i64;
                            for m in members {
                                let env = Env {
                                    bindings: m.as_slice(),
                                    outer: Some(outer),
                                    params: outer.params,
                                    memo: outer.memo,
                                };
                                if !eval_value(db, e, &env)?.is_null() {
                                    n += 1;
                                }
                            }
                            n
                        }
                    };
                    row.push(Value::Int(n));
                }
                SelectItem::Expr { expr, .. } => {
                    let Some(m) = representative else {
                        row.push(Value::Null);
                        continue;
                    };
                    let env = Env {
                        bindings: m.as_slice(),
                        outer: Some(outer),
                        params: outer.params,
                        memo: outer.memo,
                    };
                    row.push(eval_value(db, expr, &env)?);
                }
                SelectItem::Wildcard => {
                    return Err(DbError::Execution(
                        "SELECT * is not allowed with GROUP BY".to_string(),
                    ))
                }
            }
        }
        rows.push(row);
    }
    Ok(rows)
}

/// Sort output rows per ORDER BY. Keys referring to output column names
/// (or aliases) sort on the projected values; otherwise the key is
/// evaluated against the source bindings (non-aggregate queries only).
fn order_rows(
    db: &Database,
    stmt: &SelectStmt,
    columns: &[String],
    rows: &mut [Vec<Value>],
    joined: &[Vec<Binding>],
    outer: &Env<'_>,
    aggregate: bool,
) -> Result<(), DbError> {
    // Precompute sort keys per row.
    let mut keyed: Vec<(Vec<Value>, usize)> = Vec::with_capacity(rows.len());
    for (i, row) in rows.iter().enumerate() {
        let mut keys = Vec::with_capacity(stmt.order_by.len());
        for (expr, _) in &stmt.order_by {
            let key = if let Expr::Column {
                qualifier: None,
                name,
            } = expr
            {
                columns
                    .iter()
                    .position(|c| c.eq_ignore_ascii_case(name))
                    .map(|ci| row[ci].clone())
            } else {
                None
            };
            let key = match key {
                Some(k) => k,
                None if !aggregate => {
                    let env = Env {
                        bindings: &joined[i],
                        outer: Some(outer),
                        params: outer.params,
                        memo: outer.memo,
                    };
                    eval_value(db, expr, &env)?
                }
                None => {
                    return Err(DbError::Execution(
                        "ORDER BY key must name an output column in aggregate queries".to_string(),
                    ))
                }
            };
            keys.push(key);
        }
        keyed.push((keys, i));
    }
    let descending: Vec<bool> = stmt.order_by.iter().map(|(_, d)| *d).collect();
    keyed.sort_by(|(a, ai), (b, bi)| {
        for ((ka, kb), desc) in a.iter().zip(b).zip(&descending) {
            let ord = ka.total_cmp(kb);
            let ord = if *desc { ord.reverse() } else { ord };
            if ord != Ordering::Equal {
                return ord;
            }
        }
        ai.cmp(bi) // stable
    });
    let reordered: Vec<Vec<Value>> = keyed.iter().map(|(_, i)| rows[*i].clone()).collect();
    rows.clone_from_slice(&reordered);
    Ok(())
}

/// ORDER BY restricted to output-column keys (used after DISTINCT).
fn order_output_rows(
    stmt: &SelectStmt,
    columns: &[String],
    rows: &mut [Vec<Value>],
) -> Result<(), DbError> {
    let mut key_indexes = Vec::with_capacity(stmt.order_by.len());
    for (expr, desc) in &stmt.order_by {
        let Expr::Column {
            qualifier: None,
            name,
        } = expr
        else {
            return Err(DbError::Execution(
                "ORDER BY after DISTINCT must name an output column".to_string(),
            ));
        };
        let ci = columns
            .iter()
            .position(|c| c.eq_ignore_ascii_case(name))
            .ok_or_else(|| DbError::UnknownColumn(name.clone()))?;
        key_indexes.push((ci, *desc));
    }
    rows.sort_by(|a, b| {
        for &(ci, desc) in &key_indexes {
            let ord = a[ci].total_cmp(&b[ci]);
            let ord = if desc { ord.reverse() } else { ord };
            if ord != Ordering::Equal {
                return ord;
            }
        }
        Ordering::Equal
    });
    Ok(())
}

/// Evaluate an expression to a value. Predicates evaluate to
/// `Int(1)`/`Int(0)`/`Null` when used in value position.
fn eval_value(db: &Database, expr: &Expr, env: &Env<'_>) -> Result<Value, DbError> {
    match expr {
        Expr::Literal(v) => Ok(v.clone()),
        Expr::Column { qualifier, name } => env.lookup(qualifier.as_deref(), name),
        Expr::Parameter { index, name } => env.param(*index, name.as_deref()),
        other => Ok(match eval_pred(db, other, env)? {
            Some(true) => Value::Int(1),
            Some(false) => Value::Int(0),
            None => Value::Null,
        }),
    }
}

/// Evaluate a predicate with SQL three-valued logic.
fn eval_pred(db: &Database, expr: &Expr, env: &Env<'_>) -> Result<Option<bool>, DbError> {
    match expr {
        Expr::Compare { op, left, right } => {
            let l = eval_value(db, left, env)?;
            let r = eval_value(db, right, env)?;
            Ok(match op {
                CompareOp::Eq => l.sql_eq(&r),
                CompareOp::Neq => l.sql_eq(&r).map(|b| !b),
                CompareOp::Lt => l.sql_cmp(&r).map(|o| o == Ordering::Less),
                CompareOp::Le => l.sql_cmp(&r).map(|o| o != Ordering::Greater),
                CompareOp::Gt => l.sql_cmp(&r).map(|o| o == Ordering::Greater),
                CompareOp::Ge => l.sql_cmp(&r).map(|o| o != Ordering::Less),
            })
        }
        Expr::And(a, b) => {
            let l = eval_pred(db, a, env)?;
            if l == Some(false) {
                return Ok(Some(false));
            }
            let r = eval_pred(db, b, env)?;
            Ok(match (l, r) {
                (Some(true), Some(true)) => Some(true),
                (_, Some(false)) => Some(false),
                _ => None,
            })
        }
        Expr::Or(a, b) => {
            let l = eval_pred(db, a, env)?;
            if l == Some(true) {
                return Ok(Some(true));
            }
            let r = eval_pred(db, b, env)?;
            Ok(match (l, r) {
                (_, Some(true)) => Some(true),
                (Some(false), Some(false)) => Some(false),
                _ => None,
            })
        }
        Expr::Not(inner) => Ok(eval_pred(db, inner, env)?.map(|b| !b)),
        Expr::Exists(sub) => {
            bump(|s| s.subqueries += 1);
            Ok(Some(exists(db, sub, env)?))
        }
        Expr::InList {
            expr,
            list,
            negated,
        } => {
            let v = eval_value(db, expr, env)?;
            let mut saw_null = false;
            let mut found = false;
            for item in list {
                let iv = eval_value(db, item, env)?;
                match v.sql_eq(&iv) {
                    Some(true) => {
                        found = true;
                        break;
                    }
                    Some(false) => {}
                    None => saw_null = true,
                }
            }
            let base = if found {
                Some(true)
            } else if saw_null {
                None
            } else {
                Some(false)
            };
            Ok(if *negated { base.map(|b| !b) } else { base })
        }
        Expr::Like {
            expr,
            pattern,
            negated,
        } => {
            let v = eval_value(db, expr, env)?;
            let p = eval_value(db, pattern, env)?;
            match (v, p) {
                (Value::Null, _) | (_, Value::Null) => Ok(None),
                (Value::Text(s), Value::Text(pat)) => {
                    let m = like_match(&pat, &s);
                    Ok(Some(if *negated { !m } else { m }))
                }
                _ => Err(DbError::Type("LIKE requires text operands".to_string())),
            }
        }
        Expr::IsNull { expr, negated } => {
            let v = eval_value(db, expr, env)?;
            let is_null = v.is_null();
            Ok(Some(if *negated { !is_null } else { is_null }))
        }
        Expr::Literal(Value::Int(i)) => Ok(Some(*i != 0)),
        Expr::Literal(Value::Null) => Ok(None),
        other => Err(DbError::Type(format!(
            "expression is not a predicate: {other:?}"
        ))),
    }
}

/// Count one row visited by a scan level: the thread's statistics and
/// the execution's break-even tally.
fn visit_row(memo: &ExistsMemo<'_>) {
    bump(|s| s.rows_scanned += 1);
    memo.rows_visited.set(memo.rows_visited.get() + 1);
}

/// EXISTS with adaptive decorrelation. A node runs the ordinary
/// correlated nested loop while its cost — the rows its correlated
/// evaluations have visited, plus one per evaluation — stays at or
/// below the rows a build scan would read; past that break-even it is
/// rewritten into a hash semi-join and every further outer row answers
/// with one probe. Either way the node does at most about twice the
/// work of the cheaper strategy, so a point query whose nested EXISTS
/// runs a few dozen index-probed evaluations never hashes a
/// corpus-wide table, while a corpus scan decorrelates once it has
/// visited about one table's worth of rows. A forced evaluation count
/// ([`ExecOptions::decorrelate_after`]) replaces the break-even test.
fn exists(db: &Database, stmt: &SelectStmt, env: &Env<'_>) -> Result<bool, DbError> {
    let Some(profiler) = &env.memo.profiler else {
        return exists_dispatch(db, stmt, env);
    };
    let addr = stmt as *const SelectStmt as usize;
    let start = profiler.enter(addr, "Exists");
    let result = exists_dispatch(db, stmt, env);
    let hits = matches!(result, Ok(true)) as u64;
    profiler.exit(addr, start, hits);
    result
}

fn exists_dispatch(db: &Database, stmt: &SelectStmt, env: &Env<'_>) -> Result<bool, DbError> {
    enum Action {
        Correlated,
        Build,
        Probe(Rc<DecorrelatedSet>),
    }
    let node = stmt as *const SelectStmt as usize;
    // Keep the RefCell borrow short: the correlated path and the build
    // path both re-enter the memo for nested EXISTS nodes.
    let action = {
        let mut states = env.memo.states.borrow_mut();
        match states.entry(node) {
            Entry::Vacant(v) => {
                let build_rows = stmt
                    .from
                    .iter()
                    .filter_map(|t| db.table(&t.table))
                    .map(|t| t.len() as u64)
                    .sum();
                v.insert(MemoState::Counting {
                    evals: 1,
                    cost: 0,
                    build_rows,
                });
                Action::Correlated
            }
            Entry::Occupied(mut o) => match o.get_mut() {
                MemoState::Counting {
                    evals,
                    cost,
                    build_rows,
                } => {
                    *evals += 1;
                    let build = match env.memo.opts.decorrelate_after {
                        Some(after) => *evals > after,
                        None => *cost > *build_rows,
                    };
                    if build {
                        Action::Build
                    } else {
                        Action::Correlated
                    }
                }
                MemoState::Bypass => Action::Correlated,
                MemoState::Set(set) => Action::Probe(Rc::clone(set)),
            },
        }
    };
    // Each evaluation tallies only its own scan levels' rows: nested
    // EXISTS evaluations swap the tally out and back in the same way.
    let enclosing = env.memo.rows_visited.replace(0);
    let result = match action {
        Action::Correlated => exists_correlated(db, stmt, env),
        Action::Probe(set) => probe_exists_set(db, &set, env),
        Action::Build => match build_exists_set(db, stmt, env) {
            Ok(Some(set)) => {
                let set = Rc::new(set);
                env.memo
                    .states
                    .borrow_mut()
                    .insert(node, MemoState::Set(Rc::clone(&set)));
                bump(|s| s.exists_builds += 1);
                if let Some(p) = &env.memo.profiler {
                    p.note_exists(ExistsStrategy::Build);
                }
                probe_exists_set(db, &set, env)
            }
            Ok(None) => {
                env.memo.states.borrow_mut().insert(node, MemoState::Bypass);
                exists_correlated(db, stmt, env)
            }
            Err(e) => Err(e),
        },
    };
    let visited = env.memo.rows_visited.replace(enclosing);
    if let Some(MemoState::Counting { cost, .. }) = env.memo.states.borrow_mut().get_mut(&node) {
        *cost += visited + 1;
    }
    result
}

/// Correlated EXISTS: run the subquery until the first row survives.
/// Multi-table bodies scan in planned order; the plan (and any hash
/// tables it builds) is memoized by node address, so every outer row
/// reuses it.
fn exists_correlated(db: &Database, stmt: &SelectStmt, env: &Env<'_>) -> Result<bool, DbError> {
    if let Some(p) = &env.memo.profiler {
        p.note_exists(ExistsStrategy::Correlated);
    }
    let mut tables: Vec<(&TableRef, &Table)> = Vec::with_capacity(stmt.from.len());
    for tref in &stmt.from {
        let table = db
            .table(&tref.table)
            .ok_or_else(|| DbError::UnknownTable(tref.table.clone()))?;
        tables.push((tref, table));
    }
    let plan = plan_for(db, stmt, env.memo);
    if let (Some(c), Some(p)) = (&env.memo.profiler, &plan) {
        c.set_order(p.order_line(stmt));
    }
    let scan_tables: Vec<(&TableRef, &Table)> = match &plan {
        Some(p) => p.order.iter().map(|&i| tables[i]).collect(),
        None => tables,
    };
    let mut found = false;
    join_scan(
        db,
        &scan_tables,
        plan.as_ref(),
        0,
        &mut Vec::new(),
        stmt.filter.as_ref(),
        env,
        &mut |_| {
            found = true;
            Ok(false) // stop at first row
        },
    )?;
    Ok(found)
}

/// Answer a decorrelated EXISTS by evaluating the outer-side key
/// expressions and probing the hash set. A NULL component can never
/// satisfy the removed `=` conjunct, so it answers `false` outright —
/// the same result the correlated loop would reach.
fn probe_exists_set(db: &Database, set: &DecorrelatedSet, env: &Env<'_>) -> Result<bool, DbError> {
    bump(|s| s.exists_probes += 1);
    if let Some(p) = &env.memo.profiler {
        p.note_exists(ExistsStrategy::SetProbe);
    }
    let mut key = Vec::with_capacity(set.probes.len());
    for expr in &set.probes {
        let v = eval_value(db, expr, env)?;
        if v.is_null() {
            return Ok(false);
        }
        key.push(v);
    }
    Ok(set.keys.contains(&key))
}

/// Run the subquery once with its correlation conjuncts removed and
/// collect every surviving row's correlation key. Returns `None` when
/// the node's filter cannot be split into equality correlations plus an
/// outer-free residual.
///
/// Key and residual expressions are evaluated *by reference* into the
/// original statement, never cloned: the memo keys decorrelation state
/// by node address, and a cloned subtree dropped mid-execution would
/// leave a stale entry that a later allocation could land on. Evaluating
/// the original nodes also lets a nested EXISTS inside the residual keep
/// (and reuse) its own decorrelation state.
fn build_exists_set(
    db: &Database,
    stmt: &SelectStmt,
    env: &Env<'_>,
) -> Result<Option<DecorrelatedSet>, DbError> {
    let Some((key_exprs, probes, residual)) = decorrelation_plan(stmt) else {
        return Ok(None);
    };
    let mut tables: Vec<(&TableRef, &Table)> = Vec::with_capacity(stmt.from.len());
    for tref in &stmt.from {
        let table = db
            .table(&tref.table)
            .ok_or_else(|| DbError::UnknownTable(tref.table.clone()))?;
        tables.push((tref, table));
    }
    // The residual is outer-free, so the build scan runs with no outer
    // chain — only parameters and the shared memo carry over.
    let root = Env {
        bindings: &[],
        outer: None,
        params: env.params,
        memo: env.memo,
    };
    let mut keys: HashSet<Vec<Value>> = HashSet::new();
    // The build scan runs with its filter stripped (correlations become
    // keys, the residual is checked in the callback), so there are no
    // conjuncts for the join planner to work with: scan in FROM order.
    join_scan(
        db,
        &tables,
        None,
        0,
        &mut Vec::new(),
        None,
        &root,
        &mut |bindings| {
            let env = Env {
                bindings,
                outer: None,
                params: root.params,
                memo: root.memo,
            };
            for cond in &residual {
                if eval_pred(db, cond, &env)? != Some(true) {
                    return Ok(true);
                }
            }
            let mut key = Vec::with_capacity(key_exprs.len());
            for expr in &key_exprs {
                let v = eval_value(db, expr, &env)?;
                if v.is_null() {
                    // A NULL key never satisfies the removed equality.
                    return Ok(true);
                }
                key.push(v);
            }
            keys.insert(key);
            Ok(true)
        },
    )?;
    Ok(Some(DecorrelatedSet { probes, keys }))
}

/// Split an EXISTS filter into `(subquery keys, outer probes, residual)`.
///
/// Every top-level conjunct must be either outer-free (it joins the
/// residual and runs during the build scan) or an equality whose sides
/// separate cleanly into a subquery-local expression and an outer-only
/// expression (it becomes one component of the hash key). Unqualified
/// column references make scope membership ambiguous, so any such
/// reference rejects the plan.
///
/// Keys and residual conjuncts borrow from the statement; only the
/// probe expressions are cloned, because they outlive this call inside
/// the [`DecorrelatedSet`] (which itself lives until the execution's
/// memo is dropped, keeping their addresses allocated).
#[allow(clippy::type_complexity)]
pub(crate) fn decorrelation_plan(stmt: &SelectStmt) -> Option<(Vec<&Expr>, Vec<Expr>, Vec<&Expr>)> {
    decorrelation_plan_with(stmt, false)
}

/// [`decorrelation_plan`] with an extra admission: an outer-referencing
/// `EXISTS` (or `NOT EXISTS`) conjunct may join the residual instead of
/// rejecting the plan. The row engine cannot use this form — its build
/// scan evaluates residuals with only the subquery binding in scope —
/// but the columnar compiler can, because its rebind map substitutes
/// skipped-over outer references with provably-equal local columns (and
/// rejects the statement itself if any reference is not rebindable).
#[allow(clippy::type_complexity)]
pub(crate) fn decorrelation_plan_relaxed(
    stmt: &SelectStmt,
) -> Option<(Vec<&Expr>, Vec<Expr>, Vec<&Expr>)> {
    decorrelation_plan_with(stmt, true)
}

#[allow(clippy::type_complexity)]
fn decorrelation_plan_with(
    stmt: &SelectStmt,
    outer_exists_residual: bool,
) -> Option<(Vec<&Expr>, Vec<Expr>, Vec<&Expr>)> {
    let filter = stmt.filter.as_ref()?;
    let mut conjuncts = Vec::new();
    collect_conjuncts(filter, &mut conjuncts);
    let mut local: Vec<String> = stmt
        .from
        .iter()
        .map(|t| t.binding_name().to_string())
        .collect();
    let classify = |expr: &Expr, local: &mut Vec<String>| {
        let (mut uses_local, mut uses_outer, mut clean) = (false, false, true);
        classify_columns(expr, local, &mut uses_local, &mut uses_outer, &mut clean);
        (uses_local, uses_outer, clean)
    };
    let mut keys: Vec<&Expr> = Vec::new();
    let mut probes: Vec<Expr> = Vec::new();
    let mut residual: Vec<&Expr> = Vec::new();
    for c in conjuncts {
        let (_, uses_outer, clean) = classify(c, &mut local);
        if !clean {
            return None;
        }
        if !uses_outer {
            residual.push(c);
            continue;
        }
        if outer_exists_residual && is_exists_conjunct(c) {
            residual.push(c);
            continue;
        }
        let Expr::Compare {
            op: CompareOp::Eq,
            left,
            right,
        } = c
        else {
            return None;
        };
        let (l_local, l_outer, l_clean) = classify(left, &mut local);
        let (r_local, r_outer, r_clean) = classify(right, &mut local);
        if !l_clean || !r_clean {
            return None;
        }
        let (sub, outer_side) = if l_local && !l_outer && !r_local {
            (left, right)
        } else if r_local && !r_outer && !l_local {
            (right, left)
        } else {
            return None;
        };
        keys.push(sub);
        probes.push((**outer_side).clone());
    }
    if keys.is_empty() {
        return None;
    }
    Some((keys, probes, residual))
}

/// `EXISTS(...)` under any number of `NOT`s — the conjunct shapes the
/// columnar rebind machinery can compile with outer references intact.
fn is_exists_conjunct(expr: &Expr) -> bool {
    match expr {
        Expr::Exists(_) => true,
        Expr::Not(inner) => is_exists_conjunct(inner),
        _ => false,
    }
}

/// Walk an expression classifying each column reference against the
/// scope stack: qualified references resolve to the innermost matching
/// binding (nested EXISTS push their own), unqualified references
/// poison the analysis. Parameters and literals are scope-free.
fn classify_columns(
    expr: &Expr,
    local: &mut Vec<String>,
    uses_local: &mut bool,
    uses_outer: &mut bool,
    clean: &mut bool,
) {
    match expr {
        Expr::Column { qualifier, .. } => match qualifier {
            Some(q) => {
                if local.iter().any(|b| b.eq_ignore_ascii_case(q)) {
                    *uses_local = true;
                } else {
                    *uses_outer = true;
                }
            }
            None => *clean = false,
        },
        Expr::Literal(_) | Expr::Parameter { .. } => {}
        Expr::Compare { left, right, .. } => {
            classify_columns(left, local, uses_local, uses_outer, clean);
            classify_columns(right, local, uses_local, uses_outer, clean);
        }
        Expr::And(a, b) | Expr::Or(a, b) => {
            classify_columns(a, local, uses_local, uses_outer, clean);
            classify_columns(b, local, uses_local, uses_outer, clean);
        }
        Expr::Not(inner) => classify_columns(inner, local, uses_local, uses_outer, clean),
        Expr::Exists(sub) => {
            let added = sub.from.len();
            for tref in &sub.from {
                local.push(tref.binding_name().to_string());
            }
            // The executor's EXISTS path only evaluates the filter, so
            // only the filter can reference the surrounding scopes.
            if let Some(f) = &sub.filter {
                classify_columns(f, local, uses_local, uses_outer, clean);
            }
            for _ in 0..added {
                local.pop();
            }
        }
        Expr::InList { expr, list, .. } => {
            classify_columns(expr, local, uses_local, uses_outer, clean);
            for item in list {
                classify_columns(item, local, uses_local, uses_outer, clean);
            }
        }
        Expr::Like { expr, pattern, .. } => {
            classify_columns(expr, local, uses_local, uses_outer, clean);
            classify_columns(pattern, local, uses_local, uses_outer, clean);
        }
        Expr::IsNull { expr, .. } => classify_columns(expr, local, uses_local, uses_outer, clean),
    }
}

/// Evaluate a scalar expression with bound parameter values but no
/// table context (parameterized INSERT/UPDATE values).
pub fn eval_const_bound(db: &Database, expr: &Expr, params: &[Value]) -> Result<Value, DbError> {
    let memo = ExistsMemo {
        opts: db.options(),
        ..ExistsMemo::default()
    };
    let root = Env::root(params, &memo);
    eval_value(db, expr, &root)
}
