//! Prepared statements and the shared LRU plan cache.
//!
//! `Database::prepare` parses and semantically checks a statement once,
//! yielding a [`Prepared`] plan that can be re-executed with different
//! bound parameter values (`?` positional, `:name` named). A
//! [`PlanCache`] keyed by statement text backs `execute`/`query`
//! transparently, so repeated statements skip the parser entirely. The
//! cache is shared across `Database` clones (an `Arc` internally):
//! snapshot copies made for concurrent matching keep the warm cache.

use crate::database::Database;
use crate::error::DbError;
use crate::sql::ast::{CompareOp, Expr, SelectItem, SelectStmt, Statement};
use crate::table::{Index, Table};
use crate::value::Value;
use p3p_telemetry::metrics::{self, Counter};
use std::collections::HashMap;
use std::sync::{Arc, Mutex, OnceLock};

/// Default number of cached plans per database.
pub const DEFAULT_PLAN_CACHE_CAPACITY: usize = 256;

struct CacheMetrics {
    hits: Arc<Counter>,
    misses: Arc<Counter>,
    evictions: Arc<Counter>,
    invalidations: Arc<Counter>,
}

fn cache_metrics() -> &'static CacheMetrics {
    static METRICS: OnceLock<CacheMetrics> = OnceLock::new();
    METRICS.get_or_init(|| CacheMetrics {
        hits: metrics::counter("p3p_plan_cache_hits_total"),
        misses: metrics::counter("p3p_plan_cache_misses_total"),
        evictions: metrics::counter("p3p_plan_cache_evictions_total"),
        invalidations: metrics::counter("p3p_plan_cache_invalidations_total"),
    })
}

/// A parsed, semantically-checked statement ready for repeated
/// execution. Cloning is cheap (a few `Arc` bumps).
#[derive(Debug, Clone)]
pub struct Prepared {
    sql: Arc<str>,
    stmt: Arc<Statement>,
    /// One slot per bind parameter; `Some(name)` for `:name` slots.
    params: Arc<[Option<String>]>,
    /// Join plans computed lazily at execution time, shared by clones
    /// (so the warm plan survives the plan cache handing out copies).
    join_plans: Arc<JoinPlanCache>,
}

impl Prepared {
    pub(crate) fn new(sql: &str, stmt: Statement, params: Vec<Option<String>>) -> Prepared {
        Prepared {
            sql: sql.into(),
            stmt: Arc::new(stmt),
            params: params.into(),
            join_plans: Arc::new(JoinPlanCache::default()),
        }
    }

    /// The join plans cached for this statement's SELECT nodes.
    pub fn join_plans(&self) -> &JoinPlanCache {
        &self.join_plans
    }

    /// The statement text this plan was prepared from.
    pub fn sql(&self) -> &str {
        &self.sql
    }

    /// The parsed statement.
    pub fn statement(&self) -> &Statement {
        &self.stmt
    }

    /// Number of bind-parameter slots.
    pub fn param_count(&self) -> usize {
        self.params.len()
    }

    /// Resolve named bindings into the positional value vector expected
    /// by `query_prepared`/`execute_prepared`. Every slot must be named
    /// and supplied.
    pub fn bind_named(&self, values: &[(&str, Value)]) -> Result<Vec<Value>, DbError> {
        let mut out = Vec::with_capacity(self.params.len());
        for (i, slot) in self.params.iter().enumerate() {
            let name = slot.as_deref().ok_or_else(|| {
                DbError::Execution(format!(
                    "parameter {} is positional; bind_named requires named parameters",
                    i + 1
                ))
            })?;
            let value = values
                .iter()
                .find(|(n, _)| *n == name)
                .map(|(_, v)| v.clone())
                .ok_or_else(|| {
                    DbError::Execution(format!("no value supplied for parameter `:{name}`"))
                })?;
            out.push(value);
        }
        Ok(out)
    }
}

/// Cumulative plan-cache statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PlanCacheStats {
    pub hits: u64,
    pub misses: u64,
    pub evictions: u64,
    pub invalidations: u64,
}

#[derive(Debug)]
struct Entry {
    plan: Prepared,
    last_used: u64,
}

#[derive(Debug)]
struct Inner {
    entries: HashMap<String, Entry>,
    tick: u64,
    capacity: usize,
    stats: PlanCacheStats,
}

impl Default for Inner {
    fn default() -> Inner {
        Inner {
            entries: HashMap::new(),
            tick: 0,
            capacity: DEFAULT_PLAN_CACHE_CAPACITY,
            stats: PlanCacheStats::default(),
        }
    }
}

/// An LRU cache of [`Prepared`] plans keyed by statement text. Interior
/// mutability keeps `Database::query` usable through `&self`; the
/// `Arc` makes clones of a `Database` share one warm cache.
#[derive(Debug, Clone, Default)]
pub struct PlanCache {
    inner: Arc<Mutex<Inner>>,
}

impl PlanCache {
    /// Look up a cached plan, refreshing its LRU position. A lookup
    /// that finds nothing is *not* counted as a miss here: the caller
    /// decides (via [`PlanCache::note_miss`]) whether the statement was
    /// cacheable at all, so one-shot statements that bypass the cache
    /// do not drown the hit rate.
    pub fn get(&self, sql: &str) -> Option<Prepared> {
        let mut inner = self.inner.lock().unwrap();
        inner.tick += 1;
        let tick = inner.tick;
        match inner.entries.get_mut(sql) {
            Some(entry) => {
                entry.last_used = tick;
                let plan = entry.plan.clone();
                inner.stats.hits += 1;
                cache_metrics().hits.inc();
                Some(plan)
            }
            None => None,
        }
    }

    /// Record a miss for a cacheable statement that had to be parsed.
    pub fn note_miss(&self) {
        self.inner.lock().unwrap().stats.misses += 1;
        cache_metrics().misses.inc();
    }

    /// Insert a plan, evicting the least-recently-used entry when full.
    pub fn insert(&self, plan: Prepared) {
        let mut inner = self.inner.lock().unwrap();
        if inner.capacity == 0 {
            return;
        }
        inner.tick += 1;
        let tick = inner.tick;
        if inner.entries.len() >= inner.capacity && !inner.entries.contains_key(plan.sql()) {
            Self::evict_one(&mut inner);
        }
        inner.entries.insert(
            plan.sql().to_string(),
            Entry {
                plan,
                last_used: tick,
            },
        );
    }

    fn evict_one(inner: &mut Inner) {
        let victim = inner
            .entries
            .iter()
            .min_by_key(|(_, e)| e.last_used)
            .map(|(k, _)| k.clone());
        if let Some(key) = victim {
            inner.entries.remove(&key);
            inner.stats.evictions += 1;
            cache_metrics().evictions.inc();
        }
    }

    /// Drop every cached plan (DDL changed the catalog).
    pub fn invalidate_all(&self) {
        let mut inner = self.inner.lock().unwrap();
        if !inner.entries.is_empty() {
            inner.entries.clear();
        }
        inner.stats.invalidations += 1;
        cache_metrics().invalidations.inc();
    }

    /// Cumulative hit/miss/eviction/invalidation counts.
    pub fn stats(&self) -> PlanCacheStats {
        self.inner.lock().unwrap().stats
    }

    /// Number of plans currently cached.
    pub fn len(&self) -> usize {
        self.inner.lock().unwrap().entries.len()
    }

    /// True when no plans are cached.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Change the capacity, evicting down to the new bound.
    pub fn set_capacity(&self, capacity: usize) {
        let mut inner = self.inner.lock().unwrap();
        inner.capacity = capacity;
        while inner.entries.len() > capacity {
            Self::evict_one(&mut inner);
        }
    }
}

// ---------------------------------------------------------------------
// Cost-based join planning
// ---------------------------------------------------------------------

/// Row-count drift factor (either direction) past which the join plans
/// cached on a prepared statement are dropped and recomputed.
pub const PLAN_DRIFT_FACTOR: f64 = 10.0;

struct PlannerMetrics {
    replans: Arc<Counter>,
}

fn planner_metrics() -> &'static PlannerMetrics {
    static METRICS: OnceLock<PlannerMetrics> = OnceLock::new();
    METRICS.get_or_init(|| PlannerMetrics {
        replans: metrics::counter("p3p_planner_replans_total"),
    })
}

/// Operator chosen for one join level.
#[derive(Debug, Clone)]
pub enum JoinOp {
    /// Full scan of the table (once at level 0, per outer tuple later).
    SeqScan,
    /// Nested loop answered by hash-index probes per outer tuple.
    IndexNestedLoop {
        index: Option<String>,
        /// Index column names, in index order.
        columns: Vec<String>,
    },
    /// Build a hash table over this table once per execution and probe
    /// it per outer tuple — the equi-join operator for join columns no
    /// index covers.
    HashJoin {
        /// Column indexes (into this table) forming the build key.
        build_cols: Vec<usize>,
        /// The same columns by name (EXPLAIN / slow-log rendering).
        columns: Vec<String>,
        /// Probe-side expressions, evaluated in the outer environment;
        /// aligned with `build_cols`.
        probes: Vec<Expr>,
        /// Outer-free single-table conjuncts applied while building, so
        /// the hash table only holds rows that can survive the filter.
        build_filter: Vec<Expr>,
    },
}

/// A join plan for one SELECT node: the scan order (positions into the
/// FROM list) plus one operator per level, most selective first.
#[derive(Debug, Clone)]
pub struct JoinPlan {
    pub order: Vec<usize>,
    /// Aligned with `order`.
    pub ops: Vec<JoinOp>,
    /// Estimated rows produced per scan invocation at each level
    /// (aligned with `order`), from the same stats model that chose the
    /// order. EXPLAIN ANALYZE compares these against actual rows to
    /// surface misestimation.
    pub est_rows: Vec<u64>,
    /// True when `order` differs from the literal FROM order.
    pub reordered: bool,
    /// True when every FROM table was empty at plan time; with no
    /// statistics to rank on, the planner keeps FROM order.
    pub no_stats: bool,
    /// `(lowercased table name, row count)` observed at plan time,
    /// consumed by [`JoinPlanCache::check_drift`].
    pub planned_rows: Vec<(String, usize)>,
}

impl JoinPlan {
    /// One-line strategy summary — per-level `binding: operator` in
    /// scan order — recorded in the slow-query log.
    pub fn describe(&self, stmt: &SelectStmt) -> String {
        let mut parts = Vec::with_capacity(self.order.len());
        for (level, &i) in self.order.iter().enumerate() {
            let binding = stmt.from[i].binding_name();
            parts.push(format!("{binding}: {}", self.ops[level]));
        }
        parts.join(", ")
    }
}

impl std::fmt::Display for JoinOp {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            JoinOp::SeqScan => write!(f, "seq scan"),
            JoinOp::IndexNestedLoop { index, columns } => {
                write!(f, "index nested loop on ({})", columns.join(", "))?;
                if let Some(name) = index {
                    write!(f, " via {name}")?;
                }
                Ok(())
            }
            JoinOp::HashJoin { columns, .. } => {
                write!(f, "hash join on ({})", columns.join(", "))
            }
        }
    }
}

/// What one expression references, relative to a FROM list.
#[derive(Debug, Default, Clone, Copy)]
struct ExprRefs {
    /// Bitmask of FROM tables referenced (by position).
    tables: u64,
    /// References a column qualified by a non-FROM binding (an outer
    /// scope of a correlated subquery).
    outer: bool,
    /// Contains an unqualified column reference, whose owner the
    /// planner will not guess.
    unqualified: bool,
    /// Contains an EXISTS subquery.
    exists: bool,
}

fn expr_refs(expr: &Expr, bindings: &[&str], out: &mut ExprRefs) {
    match expr {
        Expr::Column { qualifier, .. } => match qualifier {
            Some(q) => match bindings.iter().position(|b| b.eq_ignore_ascii_case(q)) {
                Some(i) => out.tables |= 1 << i,
                None => out.outer = true,
            },
            None => out.unqualified = true,
        },
        Expr::Literal(_) | Expr::Parameter { .. } => {}
        Expr::Compare { left, right, .. } => {
            expr_refs(left, bindings, out);
            expr_refs(right, bindings, out);
        }
        Expr::And(a, b) | Expr::Or(a, b) => {
            expr_refs(a, bindings, out);
            expr_refs(b, bindings, out);
        }
        Expr::Not(inner) | Expr::IsNull { expr: inner, .. } => expr_refs(inner, bindings, out),
        Expr::Exists(_) => out.exists = true,
        Expr::InList { expr, list, .. } => {
            expr_refs(expr, bindings, out);
            for item in list {
                expr_refs(item, bindings, out);
            }
        }
        Expr::Like { expr, pattern, .. } => {
            expr_refs(expr, bindings, out);
            expr_refs(pattern, bindings, out);
        }
    }
}

/// One usable equality `table.col = other`: the owning FROM table and
/// column, plus the FROM tables the other side needs bound (`needs` is
/// 0 for literals, parameters, and outer correlations).
struct EqPred<'e> {
    table: usize,
    col: usize,
    col_name: String,
    other: &'e Expr,
    needs: u64,
}

/// Columns of table `t` constrained by equalities whose other side is
/// evaluable from the `prefix` tables (plus constants and outer scopes).
fn avail_eq_cols(eqs: &[EqPred<'_>], t: usize, prefix: u64) -> Vec<usize> {
    let mut cols = Vec::new();
    for e in eqs {
        if e.table == t && e.needs & !prefix == 0 && !cols.contains(&e.col) {
            cols.push(e.col);
        }
    }
    cols
}

/// Largest index fully covered by the equality columns, allowing at
/// most one column to come from an IN list instead (mirroring the
/// executor's probe coverage); all-equality coverage wins ties.
fn best_covered_index<'t>(
    table: &'t Table,
    eq_cols: &[usize],
    in_cols: &[usize],
) -> Option<&'t Index> {
    let mut best: Option<(&Index, bool)> = None; // (index, uses an IN list)
    for index in table.indexes() {
        let mut uses_in = false;
        let mut covered = true;
        for c in &index.columns {
            if eq_cols.contains(c) {
                continue;
            }
            if !uses_in && in_cols.contains(c) {
                uses_in = true;
                continue;
            }
            covered = false;
            break;
        }
        if !covered {
            continue;
        }
        let better = match &best {
            Some((b, b_in)) => {
                index.columns.len() > b.columns.len()
                    || (index.columns.len() == b.columns.len() && !uses_in && *b_in)
            }
            None => true,
        };
        if better {
            best = Some((index, uses_in));
        }
    }
    best.map(|(i, _)| i)
}

/// Compute a cost-based join plan for a multi-table SELECT, or `None`
/// when a FROM table does not exist (the executor reports that error).
///
/// The stats model: a table's cardinality under the available equality
/// predicates is `rows / distinct_keys` of the largest index those
/// equalities cover, `rows / 10^k` for `k` uncovered equality columns,
/// and each remaining single-table predicate keeps a third of the rows.
/// The greedy search picks the table with the smallest estimate at
/// every step (FROM position breaks ties), which front-loads selective
/// tables and keeps join edges probing into already-bound prefixes.
pub(crate) fn plan_select(db: &Database, stmt: &SelectStmt) -> Option<Arc<JoinPlan>> {
    let n = stmt.from.len();
    if !(2..=64).contains(&n) {
        return None;
    }
    let mut tables: Vec<&Table> = Vec::with_capacity(n);
    for tref in &stmt.from {
        tables.push(db.table(&tref.table)?);
    }
    let bindings: Vec<&str> = stmt.from.iter().map(|t| t.binding_name()).collect();

    let mut conjuncts = Vec::new();
    if let Some(filter) = &stmt.filter {
        crate::exec::collect_conjuncts(filter, &mut conjuncts);
    }

    let mut eqs: Vec<EqPred<'_>> = Vec::new();
    // Usable IN-list columns `(table, col, needs)` — these only inform
    // index coverage; the executor's probe path does the unioned probes.
    let mut ins: Vec<(usize, usize, u64)> = Vec::new();
    // Non-equality single-table predicate count per table (selectivity)
    // and the outer-free subset safe to run during a hash build.
    let mut local_preds = vec![0usize; n];
    let mut pushable: Vec<Vec<&Expr>> = vec![Vec::new(); n];

    for c in &conjuncts {
        let mut refs = ExprRefs::default();
        expr_refs(c, &bindings, &mut refs);
        if refs.exists || refs.unqualified {
            continue; // opaque to the planner; stays in the residual
        }
        let mut used = false;
        match c {
            Expr::Compare {
                op: CompareOp::Eq,
                left,
                right,
            } => {
                for (col_side, other) in [(left, right), (right, left)] {
                    let Expr::Column {
                        qualifier: Some(q),
                        name,
                    } = col_side.as_ref()
                    else {
                        continue;
                    };
                    let Some(t) = bindings.iter().position(|b| b.eq_ignore_ascii_case(q)) else {
                        continue;
                    };
                    let Some(col) = tables[t].schema.column_index(name) else {
                        continue;
                    };
                    let mut orefs = ExprRefs::default();
                    expr_refs(other, &bindings, &mut orefs);
                    if orefs.tables & (1 << t) != 0 {
                        continue; // other side needs this table itself
                    }
                    eqs.push(EqPred {
                        table: t,
                        col,
                        col_name: tables[t].schema.columns[col].name.clone(),
                        other,
                        needs: orefs.tables,
                    });
                    used = true;
                }
            }
            Expr::InList {
                expr,
                list,
                negated: false,
            } => {
                if let Expr::Column {
                    qualifier: Some(q),
                    name,
                } = expr.as_ref()
                {
                    if let Some(t) = bindings.iter().position(|b| b.eq_ignore_ascii_case(q)) {
                        if let Some(col) = tables[t].schema.column_index(name) {
                            let mut orefs = ExprRefs::default();
                            for item in list {
                                expr_refs(item, &bindings, &mut orefs);
                            }
                            if orefs.tables & (1 << t) == 0 {
                                ins.push((t, col, orefs.tables));
                                used = true;
                            }
                        }
                    }
                }
            }
            _ => {}
        }
        if !used && refs.tables.count_ones() == 1 {
            let t = refs.tables.trailing_zeros() as usize;
            local_preds[t] += 1;
            if !refs.outer {
                pushable[t].push(c);
            }
        }
    }

    // Estimated cardinality of table `t` under the given equality cols.
    // Reads the per-version cached [`crate::table::TableStats`] instead
    // of walking the live hash indexes, so repeated planning over an
    // unchanged table costs an `Arc` bump per table.
    let stats: Vec<Arc<crate::table::TableStats>> = tables.iter().map(|t| t.stats()).collect();
    let est = |t: usize, eq_cols: &[usize]| -> f64 {
        let stats = &stats[t];
        let rows = stats.row_count as f64;
        let mut est = rows;
        if !eq_cols.is_empty() {
            let mut distinct: Option<usize> = None;
            let mut widest = 0;
            for index in &stats.indexes {
                if index.columns.len() > widest && index.columns.iter().all(|c| eq_cols.contains(c))
                {
                    widest = index.columns.len();
                    distinct = Some(index.distinct_keys);
                }
            }
            est = match distinct {
                Some(d) => rows / d.max(1) as f64,
                None => rows * 0.1f64.powi(eq_cols.len().min(3) as i32),
            };
        }
        est * 0.33f64.powi(local_preds[t].min(3) as i32)
    };

    let no_stats = tables.iter().all(|t| t.is_empty());
    let order: Vec<usize> = if no_stats {
        (0..n).collect()
    } else {
        let mut chosen: Vec<usize> = Vec::with_capacity(n);
        let mut mask = 0u64;
        while chosen.len() < n {
            let mut best: Option<(f64, usize)> = None;
            for i in 0..n {
                if mask & (1 << i) != 0 {
                    continue;
                }
                let cost = est(i, &avail_eq_cols(&eqs, i, mask));
                if best.is_none_or(|(c, _)| cost < c) {
                    best = Some((cost, i));
                }
            }
            let (_, next) = best.expect("an unchosen table remains");
            chosen.push(next);
            mask |= 1 << next;
        }
        chosen
    };

    let mut ops = Vec::with_capacity(n);
    let mut est_rows = Vec::with_capacity(n);
    let mut prefix = 0u64;
    for (level, &i) in order.iter().enumerate() {
        let avail: Vec<&EqPred<'_>> = eqs
            .iter()
            .filter(|e| e.table == i && e.needs & !prefix == 0)
            .collect();
        let eq_cols = avail_eq_cols(&eqs, i, prefix);
        est_rows.push(est(i, &eq_cols).round() as u64);
        let in_cols: Vec<usize> = ins
            .iter()
            .filter(|(t, _, needs)| *t == i && needs & !prefix == 0)
            .map(|(_, c, _)| *c)
            .collect();
        let covered = if db.use_indexes() {
            best_covered_index(tables[i], &eq_cols, &in_cols)
        } else {
            None
        };
        let op = match covered {
            Some(index) => JoinOp::IndexNestedLoop {
                index: index.name().map(str::to_string),
                columns: index
                    .columns
                    .iter()
                    .map(|&c| tables[i].schema.columns[c].name.clone())
                    .collect(),
            },
            // A hash join pays off only when the table is re-scanned
            // per outer tuple, i.e. past level 0.
            None if level > 0 && !avail.is_empty() => {
                let mut build_cols = Vec::new();
                let mut columns = Vec::new();
                let mut probes = Vec::new();
                for e in &avail {
                    if build_cols.contains(&e.col) {
                        continue; // extra equalities stay in the residual
                    }
                    build_cols.push(e.col);
                    columns.push(e.col_name.clone());
                    probes.push(e.other.clone());
                }
                JoinOp::HashJoin {
                    build_cols,
                    columns,
                    probes,
                    build_filter: pushable[i].iter().map(|e| (*e).clone()).collect(),
                }
            }
            None => JoinOp::SeqScan,
        };
        ops.push(op);
        prefix |= 1 << i;
    }

    let reordered = order.iter().enumerate().any(|(k, &i)| k != i);
    let planned_rows = stmt
        .from
        .iter()
        .zip(&tables)
        .map(|(tref, t)| (tref.table.to_ascii_lowercase(), t.len()))
        .collect();
    Some(Arc::new(JoinPlan {
        order,
        ops,
        est_rows,
        reordered,
        no_stats,
        planned_rows,
    }))
}

/// Join plans cached on one prepared statement, keyed by SELECT-node
/// address (stable for the life of the statement's AST `Arc`), plus the
/// per-table row counts observed at plan time for drift detection.
#[derive(Debug, Default)]
pub struct JoinPlanCache {
    inner: Mutex<JoinPlansInner>,
}

#[derive(Debug, Default)]
struct JoinPlansInner {
    plans: HashMap<usize, Arc<JoinPlan>>,
    planned_rows: HashMap<String, usize>,
}

impl JoinPlanCache {
    pub(crate) fn get(&self, node: usize) -> Option<Arc<JoinPlan>> {
        self.inner.lock().unwrap().plans.get(&node).cloned()
    }

    pub(crate) fn insert(&self, node: usize, plan: Arc<JoinPlan>) {
        let mut inner = self.inner.lock().unwrap();
        for (name, rows) in &plan.planned_rows {
            inner.planned_rows.insert(name.clone(), *rows);
        }
        inner.plans.insert(node, plan);
    }

    /// Cheap staleness check run once per prepared execute: when any
    /// table a cached plan was costed on has drifted an order of
    /// magnitude in row count ([`PLAN_DRIFT_FACTOR`], either
    /// direction), drop every plan so the next execution replans.
    /// Returns true when a replan was forced.
    pub(crate) fn check_drift(&self, db: &Database) -> bool {
        let mut inner = self.inner.lock().unwrap();
        if inner.plans.is_empty() {
            return false;
        }
        let drifted = inner.planned_rows.iter().any(|(name, &planned)| {
            let now = db.table(name).map(Table::len).unwrap_or(0);
            let (then, now) = ((planned + 1) as f64, (now + 1) as f64);
            now >= then * PLAN_DRIFT_FACTOR || then >= now * PLAN_DRIFT_FACTOR
        });
        if drifted {
            inner.plans.clear();
            inner.planned_rows.clear();
            planner_metrics().replans.inc();
        }
        drifted
    }

    /// Number of join plans currently cached.
    pub fn len(&self) -> usize {
        self.inner.lock().unwrap().plans.len()
    }

    /// True when no join plans are cached.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// One name-resolution scope: `(binding name, column names)` per table.
type Scope = Vec<(String, Vec<String>)>;

/// Semantic checks performed at prepare time: every SELECT's FROM
/// tables must exist (recursively, through EXISTS subqueries) and every
/// column referenced by a WHERE clause must resolve against some scope,
/// innermost first — mirroring runtime resolution order. Projection
/// items and GROUP BY/ORDER BY keys are left to runtime, which applies
/// aggregate-specific rules.
pub(crate) fn validate(db: &Database, stmt: &Statement) -> Result<(), DbError> {
    if let Statement::Select(sel) = stmt {
        validate_select(db, sel, &mut Vec::new())?;
    }
    Ok(())
}

fn validate_select(
    db: &Database,
    stmt: &SelectStmt,
    scopes: &mut Vec<Scope>,
) -> Result<(), DbError> {
    let mut scope = Scope::new();
    for tref in &stmt.from {
        let table = db
            .table(&tref.table)
            .ok_or_else(|| DbError::UnknownTable(tref.table.clone()))?;
        scope.push((tref.binding_name().to_string(), table.schema.column_names()));
    }
    scopes.push(scope);
    let result = validate_select_body(db, stmt, scopes);
    scopes.pop();
    result
}

fn validate_select_body(
    db: &Database,
    stmt: &SelectStmt,
    scopes: &mut Vec<Scope>,
) -> Result<(), DbError> {
    if let Some(filter) = &stmt.filter {
        validate_expr(db, filter, scopes)?;
    }
    // Subqueries inside projection items still get table checks.
    for item in &stmt.items {
        if let SelectItem::Expr { expr, .. }
        | SelectItem::Count {
            expr: Some(expr), ..
        } = item
        {
            validate_subqueries(db, expr, scopes)?;
        }
    }
    Ok(())
}

fn validate_expr(db: &Database, expr: &Expr, scopes: &mut Vec<Scope>) -> Result<(), DbError> {
    match expr {
        Expr::Literal(_) | Expr::Parameter { .. } => Ok(()),
        Expr::Column { qualifier, name } => resolve_column(qualifier.as_deref(), name, scopes),
        Expr::Compare { left, right, .. } => {
            validate_expr(db, left, scopes)?;
            validate_expr(db, right, scopes)
        }
        Expr::And(a, b) | Expr::Or(a, b) => {
            validate_expr(db, a, scopes)?;
            validate_expr(db, b, scopes)
        }
        Expr::Not(inner) => validate_expr(db, inner, scopes),
        Expr::Exists(sub) => validate_select(db, sub, scopes),
        Expr::InList { expr, list, .. } => {
            validate_expr(db, expr, scopes)?;
            for item in list {
                validate_expr(db, item, scopes)?;
            }
            Ok(())
        }
        Expr::Like { expr, pattern, .. } => {
            validate_expr(db, expr, scopes)?;
            validate_expr(db, pattern, scopes)
        }
        Expr::IsNull { expr, .. } => validate_expr(db, expr, scopes),
    }
}

/// Walk an expression checking only EXISTS bodies (used for projection
/// items, whose top-level column rules are runtime concerns).
fn validate_subqueries(db: &Database, expr: &Expr, scopes: &mut Vec<Scope>) -> Result<(), DbError> {
    match expr {
        Expr::Exists(sub) => validate_select(db, sub, scopes),
        Expr::Compare { left, right, .. } => {
            validate_subqueries(db, left, scopes)?;
            validate_subqueries(db, right, scopes)
        }
        Expr::And(a, b) | Expr::Or(a, b) => {
            validate_subqueries(db, a, scopes)?;
            validate_subqueries(db, b, scopes)
        }
        Expr::Not(inner) | Expr::IsNull { expr: inner, .. } => {
            validate_subqueries(db, inner, scopes)
        }
        Expr::InList { expr, list, .. } => {
            validate_subqueries(db, expr, scopes)?;
            for item in list {
                validate_subqueries(db, item, scopes)?;
            }
            Ok(())
        }
        Expr::Like { expr, pattern, .. } => {
            validate_subqueries(db, expr, scopes)?;
            validate_subqueries(db, pattern, scopes)
        }
        Expr::Literal(_) | Expr::Column { .. } | Expr::Parameter { .. } => Ok(()),
    }
}

fn resolve_column(qualifier: Option<&str>, name: &str, scopes: &[Scope]) -> Result<(), DbError> {
    for scope in scopes.iter().rev() {
        for (binding, columns) in scope {
            if let Some(q) = qualifier {
                if !binding.eq_ignore_ascii_case(q) {
                    continue;
                }
            }
            if columns.iter().any(|c| c.eq_ignore_ascii_case(name)) {
                return Ok(());
            }
        }
    }
    Err(DbError::UnknownColumn(match qualifier {
        Some(q) => format!("{q}.{name}"),
        None => name.to_string(),
    }))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sql::parse_statement;

    fn select(sql: &str) -> SelectStmt {
        match parse_statement(sql).unwrap() {
            Statement::Select(s) => s,
            other => panic!("expected SELECT, got {other:?}"),
        }
    }

    /// Three tables chained by unindexed equi-joins, sized 200/20/2.
    fn chain_db() -> Database {
        let mut db = Database::new();
        db.execute("CREATE TABLE t_small (id INT NOT NULL)")
            .unwrap();
        db.execute("CREATE TABLE t_mid (id INT NOT NULL, sid INT NOT NULL)")
            .unwrap();
        db.execute("CREATE TABLE t_big (id INT NOT NULL, mid INT NOT NULL)")
            .unwrap();
        db.execute("INSERT INTO t_small VALUES (1), (2)").unwrap();
        for i in 0..20 {
            db.execute(&format!("INSERT INTO t_mid VALUES ({i}, {})", i % 2 + 1))
                .unwrap();
        }
        for i in 0..200 {
            db.execute(&format!("INSERT INTO t_big VALUES ({i}, {})", i % 20))
                .unwrap();
        }
        db
    }

    #[test]
    fn greedy_order_front_loads_selective_tables() {
        let db = chain_db();
        let stmt = select(
            "SELECT * FROM t_big b, t_mid m, t_small s \
             WHERE b.mid = m.id AND m.sid = s.id",
        );
        let plan = plan_select(&db, &stmt).unwrap();
        assert_eq!(plan.order, vec![2, 1, 0], "smallest estimate first");
        assert!(plan.reordered);
        assert!(!plan.no_stats);
        assert!(matches!(plan.ops[0], JoinOp::SeqScan));
        assert!(
            matches!(&plan.ops[1], JoinOp::HashJoin { columns, .. } if columns == &["sid"]),
            "{:?}",
            plan.ops[1]
        );
        assert!(
            matches!(&plan.ops[2], JoinOp::HashJoin { columns, .. } if columns == &["mid"]),
            "{:?}",
            plan.ops[2]
        );
        assert_eq!(
            plan.describe(&stmt),
            "s: seq scan, m: hash join on (sid), b: hash join on (mid)"
        );
    }

    #[test]
    fn no_stats_keeps_from_order() {
        let mut db = Database::new();
        db.execute("CREATE TABLE ea (k INT NOT NULL)").unwrap();
        db.execute("CREATE TABLE eb (k INT NOT NULL)").unwrap();
        let stmt = select("SELECT * FROM ea x, eb y WHERE x.k = y.k");
        let plan = plan_select(&db, &stmt).unwrap();
        assert!(plan.no_stats);
        assert!(!plan.reordered);
        assert_eq!(plan.order, vec![0, 1]);
    }

    #[test]
    fn covered_index_beats_hash_join() {
        let mut db = chain_db();
        db.execute("CREATE INDEX idx_big_mid ON t_big (mid)")
            .unwrap();
        let stmt = select("SELECT * FROM t_big b, t_mid m WHERE b.mid = m.id");
        let plan = plan_select(&db, &stmt).unwrap();
        // t_mid (20 rows) drives; t_big is probed through its index.
        assert_eq!(plan.order, vec![1, 0]);
        assert!(
            matches!(
                &plan.ops[1],
                JoinOp::IndexNestedLoop { index: Some(name), .. } if name == "idx_big_mid"
            ),
            "{:?}",
            plan.ops[1]
        );
    }

    #[test]
    fn single_table_selects_are_not_planned() {
        let db = chain_db();
        let stmt = select("SELECT * FROM t_big WHERE id = 1");
        assert!(plan_select(&db, &stmt).is_none());
    }

    #[test]
    fn drift_clears_cached_plans_in_both_directions() {
        let mut db = chain_db();
        let stmt = select("SELECT * FROM t_mid m, t_small s WHERE m.sid = s.id");
        let cache = JoinPlanCache::default();
        let plan = plan_select(&db, &stmt).unwrap();
        cache.insert(1, plan);
        assert!(!cache.check_drift(&db), "fresh stats must not drift");
        assert_eq!(cache.len(), 1);

        // Growth: 2 rows -> 40 rows crosses the 10x factor.
        for i in 0..38 {
            db.execute(&format!("INSERT INTO t_small VALUES ({})", i + 10))
                .unwrap();
        }
        assert!(cache.check_drift(&db));
        assert!(cache.is_empty());

        // Shrink: replan at 40 rows, then empty the table.
        cache.insert(1, plan_select(&db, &stmt).unwrap());
        db.execute("DELETE FROM t_small").unwrap();
        assert!(cache.check_drift(&db), "shrink drifts too");
        assert!(cache.is_empty());
    }
}
