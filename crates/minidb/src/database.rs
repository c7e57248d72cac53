//! The database façade: catalog plus the `execute`/`query` entry points.

use crate::error::DbError;
use crate::exec;
use crate::plan::{self, PlanCache, PlanCacheStats, Prepared, PLAN_DRIFT_FACTOR};
use crate::profile::Profile;
use crate::schema::{ColumnDef, ForeignKey, TableSchema};
use crate::sql::ast::Statement;
use crate::sql::parse_statement_params;
use crate::table::{Table, Unshared};
use crate::value::Value;
use p3p_telemetry::metrics::{self, Counter, Histogram};
use std::collections::BTreeMap;
use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};

/// Cached handles into the global metrics registry for the executor's
/// per-statement accounting (one registry lookup per process, one
/// atomic op per update afterwards).
struct DbMetrics {
    latency_us: Arc<Histogram>,
    statements: Arc<Counter>,
    rows_scanned: Arc<Counter>,
    index_probes: Arc<Counter>,
    seq_scans: Arc<Counter>,
    rows_output: Arc<Counter>,
    join_hash_builds: Arc<Counter>,
    join_hash_probes: Arc<Counter>,
    planner_reorders: Arc<Counter>,
    exists_builds: Arc<Counter>,
    exists_probes: Arc<Counter>,
}

fn db_metrics() -> &'static DbMetrics {
    static METRICS: OnceLock<DbMetrics> = OnceLock::new();
    METRICS.get_or_init(|| {
        metrics::describe(
            "p3p_db_exists_builds_total",
            "Correlated EXISTS subqueries decorrelated into hash sets",
        );
        metrics::describe(
            "p3p_db_exists_probes_total",
            "EXISTS predicates answered by probing a decorrelated hash set",
        );
        DbMetrics {
            latency_us: metrics::histogram("p3p_db_statement_latency_us"),
            statements: metrics::counter("p3p_db_statements_total"),
            rows_scanned: metrics::counter("p3p_db_rows_scanned_total"),
            index_probes: metrics::counter("p3p_db_index_probes_total"),
            seq_scans: metrics::counter("p3p_db_seq_scans_total"),
            rows_output: metrics::counter("p3p_db_rows_output_total"),
            join_hash_builds: metrics::counter("p3p_db_join_hash_builds_total"),
            join_hash_probes: metrics::counter("p3p_db_join_hash_probes_total"),
            planner_reorders: metrics::counter("p3p_db_planner_reorders_total"),
            exists_builds: metrics::counter("p3p_db_exists_builds_total"),
            exists_probes: metrics::counter("p3p_db_exists_probes_total"),
        }
    })
}

/// Report one executed statement to the metrics registry and the
/// slow-query log. Per-statement work is attributed by diffing the
/// thread's cumulative [`exec::ExecStats`] against the snapshot taken
/// before execution, so nested SELECTs run by DELETE/UPDATE fold into
/// their parent statement rather than double-counting.
fn report_statement(sql: &str, before: &exec::ExecStats, wall: Duration, profiled_select: bool) {
    let delta = exec::stats_snapshot().since(before);
    let m = db_metrics();
    m.latency_us.observe_duration(wall);
    m.statements.inc();
    m.rows_scanned.add(delta.rows_scanned);
    m.index_probes.add(delta.index_probes);
    m.seq_scans.add(delta.seq_scans);
    m.rows_output.add(delta.rows_output);
    m.join_hash_builds.add(delta.join_hash_builds);
    m.join_hash_probes.add(delta.join_hash_probes);
    m.planner_reorders.add(delta.planner_reorders);
    m.exists_builds.add(delta.exists_builds);
    m.exists_probes.add(delta.exists_probes);
    // Only a SELECT that just ran may own the thread's last profile;
    // gating on the statement kind keeps a non-SELECT from picking up
    // a stale profile left by an earlier profiled query.
    let analyzed = if profiled_select {
        observe_profile()
    } else {
        None
    };
    p3p_telemetry::slowlog::record_analyzed(
        sql,
        p3p_telemetry::QueryStats {
            rows_scanned: delta.rows_scanned,
            index_probes: delta.index_probes,
            seq_scans: delta.seq_scans,
            subqueries: delta.subqueries,
            rows_output: delta.rows_output,
            join_hash_builds: delta.join_hash_builds,
            join_hash_probes: delta.join_hash_probes,
            exists_builds: delta.exists_builds,
            exists_probes: delta.exists_probes,
        },
        wall,
        exec::take_last_join_strategy(),
        analyzed,
    );
}

/// Feed the last execution's profile (when one was collected) into the
/// per-operator `p3p_op_*` histograms and the actual-vs-estimated rows
/// drift signal, returning the rendered analyzed plan for the
/// slow-query log. Peeks rather than takes, so the `*_profiled` entry
/// points can still hand the full [`Profile`] to their caller.
fn observe_profile() -> Option<String> {
    exec::with_last_profile(|profile| {
        let p = profile?;
        p.visit(&mut |node| {
            // The join-order annotation is not an operator.
            if node.kind == "plan" {
                return;
            }
            metrics::histogram_with("p3p_op_time_us", &[("op", node.kind)])
                .observe(node.self_time().as_micros() as u64);
            metrics::histogram_with("p3p_op_rows", &[("op", node.kind)]).observe(node.rows);
        });
        if let Some(factor) = p.max_misestimation() {
            metrics::histogram("p3p_plan_misestimation_factor").observe(factor.round() as u64);
            if factor >= PLAN_DRIFT_FACTOR {
                metrics::counter("p3p_plan_misestimations_total").inc();
            }
        }
        Some(p.render())
    })
}

/// The result of a SELECT.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QueryResult {
    /// Output column names.
    pub columns: Vec<String>,
    /// Result rows.
    pub rows: Vec<Vec<Value>>,
}

impl QueryResult {
    /// The single value of a single-row, single-column result.
    pub fn scalar(&self) -> Option<&Value> {
        match (self.rows.len(), self.columns.len()) {
            (1, 1) => Some(&self.rows[0][0]),
            _ => None,
        }
    }

    /// True when no rows were produced.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }
}

/// Outcome of `execute` for non-SELECT statements.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ExecOutcome {
    /// Table or index created / dropped.
    Ddl,
    /// Rows inserted.
    Inserted(usize),
    /// Rows deleted.
    Deleted(usize),
    /// Rows updated.
    Updated(usize),
    /// A SELECT ran; its result.
    Rows(QueryResult),
}

/// An in-memory database: named tables plus execution settings.
#[derive(Debug, Clone, Default)]
pub struct Database {
    tables: BTreeMap<String, Table>,
    use_indexes: bool,
    use_planner: bool,
    check_foreign_keys: bool,
    /// Plan cache shared across clones of this database (the `Arc`
    /// inside `PlanCache`): snapshots made for concurrent matching keep
    /// the warm cache.
    plans: PlanCache,
}

impl Database {
    /// An empty database with indexes, the join planner, and FK
    /// checking enabled.
    pub fn new() -> Database {
        Database {
            tables: BTreeMap::new(),
            use_indexes: true,
            use_planner: true,
            check_foreign_keys: true,
            plans: PlanCache::default(),
        }
    }

    /// Enable or disable hash-index use during query execution (the
    /// suite's index-ablation knob). Indexes are still maintained.
    pub fn set_use_indexes(&mut self, enabled: bool) {
        self.use_indexes = enabled;
    }

    /// Whether query execution may use hash indexes.
    pub fn use_indexes(&self) -> bool {
        self.use_indexes
    }

    /// Enable or disable the cost-based join planner. Disabled,
    /// multi-table SELECTs scan in literal FROM order with the
    /// index-probed nested loop — the baseline the join bench measures
    /// against.
    pub fn set_use_planner(&mut self, enabled: bool) {
        self.use_planner = enabled;
    }

    /// Whether multi-table SELECTs go through the cost-based planner.
    pub fn use_planner(&self) -> bool {
        self.use_planner
    }

    /// Enable or disable foreign-key checking on insert.
    pub fn set_check_foreign_keys(&mut self, enabled: bool) {
        self.check_foreign_keys = enabled;
    }

    /// Look up a table (case-insensitive). Catalog keys are lowercase,
    /// so an already-lowercase name — every translated query's — skips
    /// the folding allocation.
    pub fn table(&self, name: &str) -> Option<&Table> {
        self.tables
            .get(name)
            .or_else(|| self.tables.get(&name.to_ascii_lowercase()))
    }

    fn table_mut(&mut self, name: &str) -> Option<&mut Table> {
        self.tables.get_mut(&name.to_ascii_lowercase())
    }

    /// Names of all tables, sorted.
    pub fn table_names(&self) -> Vec<String> {
        self.tables.keys().cloned().collect()
    }

    /// Total rows across all tables.
    pub fn total_rows(&self) -> usize {
        self.tables.values().map(Table::len).sum()
    }

    /// What this database holds that `other` does not share with it,
    /// summed over tables by name, comparing `Arc` pointers at chunk and
    /// trie-node grain. For a copy-on-write fork, this is what its
    /// writes copied.
    pub fn unshared_with(&self, other: &Database) -> Unshared {
        let mut total = Unshared::default();
        for (name, table) in &self.tables {
            total += match other.tables.get(name) {
                Some(twin) => table.unshared_with(twin),
                None => table.unshared_with(&Table::new(table.schema.clone())),
            };
        }
        total
    }

    /// Parse and semantically check a statement, returning a reusable
    /// plan. Plans for SELECTs and parameterized statements are cached
    /// by statement text, so repeated `prepare` (and therefore
    /// `execute`/`query`) calls skip the parser. One-shot literal DML
    /// (INSERT/DELETE/UPDATE without bind parameters — each unique by
    /// construction) and DDL bypass the cache entirely so they cannot
    /// thrash the LRU; misses are only counted for cacheable
    /// statements. Any successful DDL invalidates the cache.
    pub fn prepare(&self, sql: &str) -> Result<Prepared, DbError> {
        if let Some(plan) = self.plans.get(sql) {
            return Ok(plan);
        }
        let (stmt, params) = parse_statement_params(sql)?;
        plan::validate(self, &stmt)?;
        let cacheable = match stmt {
            Statement::CreateTable { .. }
            | Statement::CreateIndex { .. }
            | Statement::DropTable { .. } => false,
            Statement::Select(_) => true,
            _ => !params.is_empty(),
        };
        let prepared = Prepared::new(sql, stmt, params);
        if cacheable {
            self.plans.note_miss();
            self.plans.insert(prepared.clone());
        }
        Ok(prepared)
    }

    /// Parse and semantically check a statement without consulting or
    /// populating the plan cache. For deliberately one-shot queries
    /// (e.g. a corpus query restricted to an ad-hoc id set) whose text
    /// will never recur.
    pub fn prepare_uncached(&self, sql: &str) -> Result<Prepared, DbError> {
        let (stmt, params) = parse_statement_params(sql)?;
        plan::validate(self, &stmt)?;
        Ok(Prepared::new(sql, stmt, params))
    }

    /// Cumulative statistics for this database's plan cache.
    pub fn plan_cache_stats(&self) -> PlanCacheStats {
        self.plans.stats()
    }

    /// Number of plans currently cached.
    pub fn plan_cache_len(&self) -> usize {
        self.plans.len()
    }

    /// Change the plan-cache capacity (0 disables caching), evicting
    /// down to the new bound.
    pub fn set_plan_cache_capacity(&self, capacity: usize) {
        self.plans.set_capacity(capacity);
    }

    /// Execute any SQL statement.
    pub fn execute(&mut self, sql: &str) -> Result<ExecOutcome, DbError> {
        let prepared = self.prepare(sql)?;
        self.execute_prepared(&prepared, &[])
    }

    /// Execute a prepared statement with bound parameter values.
    pub fn execute_prepared(
        &mut self,
        prepared: &Prepared,
        params: &[Value],
    ) -> Result<ExecOutcome, DbError> {
        let before = exec::stats_snapshot();
        let start = Instant::now();
        let outcome = match prepared.statement() {
            // SELECTs keep their join plans on the prepared statement,
            // replanning when table sizes have drifted since plan time.
            Statement::Select(sel) => {
                prepared.join_plans().check_drift(self);
                exec::run_select_with_plans(self, sel, params, Some(prepared.join_plans()))
                    .map(ExecOutcome::Rows)
            }
            stmt => self.execute_stmt_ref(stmt, params),
        };
        report_statement(
            prepared.sql(),
            &before,
            start.elapsed(),
            matches!(prepared.statement(), Statement::Select(_)),
        );
        outcome
    }

    fn execute_stmt_ref(
        &mut self,
        stmt: &Statement,
        params: &[Value],
    ) -> Result<ExecOutcome, DbError> {
        let outcome = self.run_statement(stmt, params);
        // Any successful DDL changes the catalog; cached plans were
        // validated against the old one, so drop them.
        if outcome.is_ok()
            && matches!(
                stmt,
                Statement::CreateTable { .. }
                    | Statement::CreateIndex { .. }
                    | Statement::DropTable { .. }
            )
        {
            self.plans.invalidate_all();
        }
        outcome
    }

    fn run_statement(
        &mut self,
        stmt: &Statement,
        params: &[Value],
    ) -> Result<ExecOutcome, DbError> {
        match stmt {
            Statement::CreateTable {
                name,
                columns,
                primary_key,
                foreign_keys,
            } => {
                let key = name.to_ascii_lowercase();
                if self.tables.contains_key(&key) {
                    return Err(DbError::DuplicateTable(name.clone()));
                }
                let column_defs: Vec<ColumnDef> = columns
                    .iter()
                    .cloned()
                    .map(|(name, data_type, not_null)| ColumnDef {
                        name,
                        data_type,
                        not_null,
                    })
                    .collect();
                let mut pk_indexes = Vec::new();
                for pk in primary_key {
                    let idx = column_defs
                        .iter()
                        .position(|c| c.name.eq_ignore_ascii_case(pk))
                        .ok_or_else(|| DbError::UnknownColumn(pk.clone()))?;
                    pk_indexes.push(idx);
                }
                let fks = foreign_keys
                    .iter()
                    .cloned()
                    .map(|(cols, rtable, rcols)| ForeignKey {
                        columns: cols,
                        references_table: rtable,
                        references_columns: rcols,
                    })
                    .collect();
                let schema = TableSchema {
                    name: name.clone(),
                    columns: column_defs,
                    primary_key: pk_indexes,
                    foreign_keys: fks,
                };
                self.tables.insert(key, Table::new(schema));
                Ok(ExecOutcome::Ddl)
            }
            Statement::CreateIndex {
                name,
                table,
                columns,
            } => {
                let t = self
                    .table_mut(table)
                    .ok_or_else(|| DbError::UnknownTable(table.clone()))?;
                t.create_index_named(Some(name), columns)?;
                Ok(ExecOutcome::Ddl)
            }
            Statement::DropTable { name, if_exists } => {
                let key = name.to_ascii_lowercase();
                if self.tables.remove(&key).is_none() && !if_exists {
                    return Err(DbError::UnknownTable(name.clone()));
                }
                Ok(ExecOutcome::Ddl)
            }
            Statement::Insert {
                table,
                columns,
                values,
            } => {
                let mut inserted = 0usize;
                for tuple in values {
                    let row = self.build_row(table, columns, tuple, params)?;
                    if self.check_foreign_keys {
                        self.check_fks(table, &row)?;
                    }
                    let t = self
                        .table_mut(table)
                        .ok_or_else(|| DbError::UnknownTable(table.clone()))?;
                    t.insert(row)?;
                    inserted += 1;
                }
                Ok(ExecOutcome::Inserted(inserted))
            }
            Statement::Delete { table, filter } => {
                // Select the matching row ids via a scan.
                let select = crate::sql::ast::SelectStmt {
                    distinct: false,
                    items: vec![crate::sql::ast::SelectItem::Wildcard],
                    from: vec![crate::sql::ast::TableRef {
                        table: table.clone(),
                        alias: None,
                    }],
                    filter: filter.clone(),
                    group_by: vec![],
                    order_by: vec![],
                    limit: None,
                };
                let matching = exec::run_select_bound(self, &select, params)?;
                let t = self
                    .table_mut(table)
                    .ok_or_else(|| DbError::UnknownTable(table.clone()))?;
                // Identify row ids by value equality against the scan
                // output (rows are whole-row projections in order).
                let mut ids = Vec::new();
                let mut remaining: Vec<&Vec<Value>> = matching.rows.iter().collect();
                let mut row = Vec::new();
                for id in 0..t.len() {
                    t.read_row_into(id, &mut row);
                    if let Some(pos) = remaining.iter().position(|m| **m == row) {
                        remaining.remove(pos);
                        ids.push(id);
                    }
                }
                let n = t.delete_rows(ids);
                Ok(ExecOutcome::Deleted(n))
            }
            Statement::Update {
                table,
                assignments,
                filter,
            } => {
                // Resolve target column indexes and constant values.
                let (col_indexes, values) = {
                    let t = self
                        .table(table)
                        .ok_or_else(|| DbError::UnknownTable(table.clone()))?;
                    let mut idx = Vec::with_capacity(assignments.len());
                    let mut vals = Vec::with_capacity(assignments.len());
                    for (col, e) in assignments {
                        idx.push(
                            t.schema
                                .column_index(col)
                                .ok_or_else(|| DbError::UnknownColumn(col.clone()))?,
                        );
                        vals.push(exec::eval_const_bound(self, e, params)?);
                    }
                    (idx, vals)
                };
                // Find matching rows via a scan, like DELETE.
                let select = crate::sql::ast::SelectStmt {
                    distinct: false,
                    items: vec![crate::sql::ast::SelectItem::Wildcard],
                    from: vec![crate::sql::ast::TableRef {
                        table: table.clone(),
                        alias: None,
                    }],
                    filter: filter.clone(),
                    group_by: vec![],
                    order_by: vec![],
                    limit: None,
                };
                let matching = exec::run_select_bound(self, &select, params)?;
                let t = self
                    .table_mut(table)
                    .ok_or_else(|| DbError::UnknownTable(table.clone()))?;
                let n = t.update_rows(&matching.rows, &col_indexes, &values)?;
                Ok(ExecOutcome::Updated(n))
            }
            Statement::Select(sel) => Ok(ExecOutcome::Rows(exec::run_select_bound(
                self, sel, params,
            )?)),
        }
    }

    /// Run a SELECT and return its rows (errors on non-SELECT).
    pub fn query(&self, sql: &str) -> Result<QueryResult, DbError> {
        let prepared = self.prepare(sql)?;
        self.query_prepared(&prepared, &[])
    }

    /// Run a prepared SELECT with bound parameter values (errors on
    /// non-SELECT plans).
    pub fn query_prepared(
        &self,
        prepared: &Prepared,
        params: &[Value],
    ) -> Result<QueryResult, DbError> {
        match prepared.statement() {
            Statement::Select(sel) => {
                let before = exec::stats_snapshot();
                let start = Instant::now();
                // Replan when table sizes have drifted an order of
                // magnitude since the cached join plans were costed.
                prepared.join_plans().check_drift(self);
                let result =
                    exec::run_select_with_plans(self, sel, params, Some(prepared.join_plans()));
                report_statement(prepared.sql(), &before, start.elapsed(), true);
                result
            }
            _ => Err(DbError::Execution(
                "query() accepts SELECT statements only".to_string(),
            )),
        }
    }

    /// Run a SELECT with per-operator profiling enabled and return the
    /// rows together with the execution's [`Profile`] — the
    /// programmatic face of `EXPLAIN ANALYZE`.
    pub fn query_profiled(&self, sql: &str) -> Result<(QueryResult, Profile), DbError> {
        let prepared = self.prepare(sql)?;
        self.query_prepared_profiled(&prepared, &[])
    }

    /// [`Database::query_prepared`] with per-operator profiling turned
    /// on for this statement only; the thread's profiling flag is
    /// restored afterwards.
    pub fn query_prepared_profiled(
        &self,
        prepared: &Prepared,
        params: &[Value],
    ) -> Result<(QueryResult, Profile), DbError> {
        let was_profiling = exec::profiling_enabled();
        exec::set_profiling(true);
        let result = self.query_prepared(prepared, params);
        exec::set_profiling(was_profiling);
        let rows = result?;
        let profile = exec::take_last_profile()
            .ok_or_else(|| DbError::Execution("no profile was collected".to_string()))?;
        Ok((rows, profile))
    }

    /// Build a full row for INSERT, reordering named columns and
    /// filling unnamed ones with NULL.
    fn build_row(
        &self,
        table: &str,
        columns: &[String],
        tuple: &[crate::sql::ast::Expr],
        params: &[Value],
    ) -> Result<Vec<Value>, DbError> {
        let t = self
            .table(table)
            .ok_or_else(|| DbError::UnknownTable(table.to_string()))?;
        let schema = &t.schema;
        let mut values = Vec::with_capacity(tuple.len());
        for e in tuple {
            values.push(exec::eval_const_bound(self, e, params)?);
        }
        if columns.is_empty() {
            return Ok(values);
        }
        if columns.len() != values.len() {
            return Err(DbError::Constraint(format!(
                "INSERT names {} columns but provides {} values",
                columns.len(),
                values.len()
            )));
        }
        let mut row = vec![Value::Null; schema.columns.len()];
        for (name, value) in columns.iter().zip(values) {
            let idx = schema
                .column_index(name)
                .ok_or_else(|| DbError::UnknownColumn(name.clone()))?;
            row[idx] = value;
        }
        Ok(row)
    }

    /// Verify every FK of `table` holds for `row`.
    fn check_fks(&self, table: &str, row: &[Value]) -> Result<(), DbError> {
        let t = self
            .table(table)
            .ok_or_else(|| DbError::UnknownTable(table.to_string()))?;
        for fk in &t.schema.foreign_keys {
            let mut key = Vec::with_capacity(fk.columns.len());
            for col in &fk.columns {
                let idx = t
                    .schema
                    .column_index(col)
                    .ok_or_else(|| DbError::UnknownColumn(col.clone()))?;
                key.push(row[idx].clone());
            }
            // NULLs in the FK opt out of the check (SQL semantics).
            if key.iter().any(Value::is_null) {
                continue;
            }
            let parent = self
                .table(&fk.references_table)
                .ok_or_else(|| DbError::UnknownTable(fk.references_table.clone()))?;
            let mut ref_idx = Vec::with_capacity(fk.references_columns.len());
            for col in &fk.references_columns {
                ref_idx.push(
                    parent
                        .schema
                        .column_index(col)
                        .ok_or_else(|| DbError::UnknownColumn(col.clone()))?,
                );
            }
            let found = match parent.find_index(&ref_idx) {
                Some(index) => {
                    // Probe key must be ordered like the index columns.
                    let ordered: Vec<Value> = index
                        .columns
                        .iter()
                        .map(|c| {
                            let pos = ref_idx.iter().position(|r| r == c).expect("covered");
                            key[pos].clone()
                        })
                        .collect();
                    !index.probe(&ordered).is_empty()
                }
                None => (0..parent.len()).any(|r| {
                    ref_idx
                        .iter()
                        .zip(&key)
                        .all(|(&i, k)| &parent.value(r, i) == k)
                }),
            };
            if !found {
                return Err(DbError::Constraint(format!(
                    "foreign key violation: `{}` {:?} not present in `{}`",
                    table, key, fk.references_table
                )));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn policy_db() -> Database {
        let mut db = Database::new();
        db.execute(
            "CREATE TABLE policy (policy_id INT NOT NULL, name VARCHAR, PRIMARY KEY (policy_id))",
        )
        .unwrap();
        db.execute(
            "CREATE TABLE statement (policy_id INT NOT NULL, statement_id INT NOT NULL, consequence VARCHAR, \
             PRIMARY KEY (policy_id, statement_id), \
             FOREIGN KEY (policy_id) REFERENCES policy (policy_id))",
        )
        .unwrap();
        db.execute(
            "CREATE TABLE purpose (policy_id INT NOT NULL, statement_id INT NOT NULL, purpose VARCHAR NOT NULL, required VARCHAR NOT NULL, \
             FOREIGN KEY (policy_id, statement_id) REFERENCES statement (policy_id, statement_id))",
        )
        .unwrap();
        db.execute("INSERT INTO policy VALUES (1, 'volga')")
            .unwrap();
        db.execute("INSERT INTO statement VALUES (1, 1, 'purchase'), (1, 2, 'recommendations')")
            .unwrap();
        db.execute(
            "INSERT INTO purpose VALUES (1, 1, 'current', 'always'), (1, 2, 'individual-decision', 'opt-in'), (1, 2, 'contact', 'opt-in')",
        )
        .unwrap();
        db
    }

    #[test]
    fn create_insert_select() {
        let db = policy_db();
        let r = db
            .query("SELECT name FROM policy WHERE policy_id = 1")
            .unwrap();
        assert_eq!(r.scalar().unwrap().as_str(), Some("volga"));
    }

    #[test]
    fn query_profiled_returns_matching_profile() {
        let db = policy_db();
        let (result, profile) = db
            .query_profiled("SELECT * FROM statement WHERE policy_id = 1")
            .unwrap();
        assert_eq!(result.rows.len(), 2);
        assert_eq!(profile.root.kind, "select");
        assert_eq!(profile.root.rows, 2);
        // The flag is restored: a plain query collects nothing.
        assert!(!exec::profiling_enabled());
        db.query("SELECT * FROM statement WHERE policy_id = 1")
            .unwrap();
        assert!(exec::take_last_profile().is_none());
    }

    #[test]
    fn query_profiled_preserves_results_and_exec_stats() {
        let db = policy_db();
        let sql = "SELECT name FROM policy p WHERE EXISTS \
                   (SELECT * FROM statement s WHERE s.policy_id = p.policy_id)";
        exec::reset_stats();
        let plain = db.query(sql).unwrap();
        let plain_stats = exec::take_stats();
        let (profiled, profile) = db.query_profiled(sql).unwrap();
        let profiled_stats = exec::take_stats();
        assert_eq!(plain, profiled);
        assert_eq!(
            plain_stats, profiled_stats,
            "profiling must be observation-only"
        );
        assert_eq!(profile.root.loops, 1);
    }

    #[test]
    fn profiled_query_feeds_op_histograms() {
        let db = policy_db();
        db.query_profiled("SELECT * FROM statement WHERE policy_id = 1")
            .unwrap();
        let text = metrics::render_text();
        assert!(text.contains("p3p_op_time_us"), "{text}");
        assert!(text.contains("op=\"select\""), "{text}");
        assert!(text.contains("p3p_op_rows"), "{text}");
    }

    #[test]
    fn duplicate_table_rejected() {
        let mut db = policy_db();
        assert!(matches!(
            db.execute("CREATE TABLE policy (x INT)"),
            Err(DbError::DuplicateTable(_))
        ));
    }

    #[test]
    fn drop_table() {
        let mut db = policy_db();
        db.execute("DROP TABLE purpose").unwrap();
        assert!(db.table("purpose").is_none());
        assert!(db.execute("DROP TABLE purpose").is_err());
        db.execute("DROP TABLE IF EXISTS purpose").unwrap();
    }

    #[test]
    fn insert_with_named_columns_fills_null() {
        let mut db = policy_db();
        db.execute("INSERT INTO statement (policy_id, statement_id) VALUES (1, 3)")
            .unwrap();
        let r = db
            .query("SELECT consequence FROM statement WHERE statement_id = 3")
            .unwrap();
        assert!(r.rows[0][0].is_null());
    }

    #[test]
    fn primary_key_enforced_via_sql() {
        let mut db = policy_db();
        let err = db
            .execute("INSERT INTO policy VALUES (1, 'dup')")
            .unwrap_err();
        assert!(err.to_string().contains("duplicate primary key"));
    }

    #[test]
    fn foreign_keys_enforced() {
        let mut db = policy_db();
        let err = db
            .execute("INSERT INTO statement VALUES (99, 1, NULL)")
            .unwrap_err();
        assert!(err.to_string().contains("foreign key violation"));
        db.set_check_foreign_keys(false);
        db.execute("INSERT INTO statement VALUES (99, 1, NULL)")
            .unwrap();
    }

    #[test]
    fn delete_with_filter() {
        let mut db = policy_db();
        let out = db
            .execute("DELETE FROM purpose WHERE required = 'opt-in'")
            .unwrap();
        assert_eq!(out, ExecOutcome::Deleted(2));
        assert_eq!(db.table("purpose").unwrap().len(), 1);
    }

    #[test]
    fn delete_all() {
        let mut db = policy_db();
        let out = db.execute("DELETE FROM purpose").unwrap();
        assert_eq!(out, ExecOutcome::Deleted(3));
    }

    #[test]
    fn join_two_tables() {
        let db = policy_db();
        let r = db
            .query(
                "SELECT p.name, s.consequence FROM policy p, statement s \
                 WHERE s.policy_id = p.policy_id AND s.statement_id = 2",
            )
            .unwrap();
        assert_eq!(r.rows.len(), 1);
        assert_eq!(r.rows[0][1].as_str(), Some("recommendations"));
    }

    #[test]
    fn correlated_exists_figure13_shape() {
        let db = policy_db();
        // Jane's simplified first rule (paper Fig. 13) against the
        // shredded Volga-like data: no admin purpose and contact is
        // opt-in, so no row comes back.
        let sql = "SELECT 'block' FROM policy WHERE EXISTS (\
                     SELECT * FROM statement WHERE statement.policy_id = policy.policy_id AND EXISTS (\
                       SELECT * FROM purpose WHERE purpose.policy_id = statement.policy_id \
                         AND purpose.statement_id = statement.statement_id \
                         AND (purpose.purpose = 'admin' OR purpose.purpose = 'contact' AND purpose.required = 'always')))";
        let r = db.query(sql).unwrap();
        assert!(r.is_empty());
        // Flip contact to `always` and the rule fires.
        let mut db2 = policy_db();
        db2.execute("DELETE FROM purpose WHERE purpose = 'contact'")
            .unwrap();
        db2.execute("INSERT INTO purpose VALUES (1, 2, 'contact', 'always')")
            .unwrap();
        let r2 = db2.query(sql).unwrap();
        assert_eq!(r2.rows.len(), 1);
        assert_eq!(r2.rows[0][0].as_str(), Some("block"));
    }

    #[test]
    fn not_exists() {
        let db = policy_db();
        let r = db
            .query(
                "SELECT name FROM policy WHERE NOT EXISTS (\
                   SELECT * FROM purpose WHERE purpose.policy_id = policy.policy_id AND purpose.purpose = 'telemarketing')",
            )
            .unwrap();
        assert_eq!(r.rows.len(), 1);
    }

    #[test]
    fn count_and_group_by() {
        let db = policy_db();
        let r = db
            .query(
                "SELECT statement_id, COUNT(*) AS n FROM purpose GROUP BY statement_id ORDER BY statement_id",
            )
            .unwrap();
        assert_eq!(
            r.rows,
            vec![
                vec![Value::Int(1), Value::Int(1)],
                vec![Value::Int(2), Value::Int(2)],
            ]
        );
    }

    #[test]
    fn global_count_over_empty_is_zero() {
        let db = policy_db();
        let r = db
            .query("SELECT COUNT(*) FROM purpose WHERE purpose = 'nope'")
            .unwrap();
        assert_eq!(r.scalar().unwrap(), &Value::Int(0));
    }

    #[test]
    fn order_by_desc_and_limit() {
        let db = policy_db();
        let r = db
            .query("SELECT purpose FROM purpose ORDER BY purpose DESC LIMIT 2")
            .unwrap();
        assert_eq!(r.rows.len(), 2);
        assert_eq!(r.rows[0][0].as_str(), Some("individual-decision"));
    }

    #[test]
    fn in_and_like() {
        let db = policy_db();
        let r = db
            .query("SELECT purpose FROM purpose WHERE purpose IN ('current', 'contact') ORDER BY purpose")
            .unwrap();
        assert_eq!(r.rows.len(), 2);
        let r2 = db
            .query("SELECT purpose FROM purpose WHERE purpose LIKE '%decision%'")
            .unwrap();
        assert_eq!(r2.rows.len(), 1);
    }

    #[test]
    fn is_null_filters() {
        let mut db = policy_db();
        db.execute("INSERT INTO statement (policy_id, statement_id) VALUES (1, 3)")
            .unwrap();
        let r = db
            .query("SELECT statement_id FROM statement WHERE consequence IS NULL")
            .unwrap();
        assert_eq!(r.rows.len(), 1);
        let r2 = db
            .query("SELECT statement_id FROM statement WHERE consequence IS NOT NULL")
            .unwrap();
        assert_eq!(r2.rows.len(), 2);
    }

    #[test]
    fn unknown_table_and_column_errors() {
        let db = policy_db();
        assert!(matches!(
            db.query("SELECT * FROM nope"),
            Err(DbError::UnknownTable(_))
        ));
        assert!(matches!(
            db.query("SELECT nope FROM policy"),
            Err(DbError::UnknownColumn(_))
        ));
    }

    #[test]
    fn ambiguous_column_detected() {
        let db = policy_db();
        let err = db
            .query("SELECT policy_id FROM policy p, statement s")
            .unwrap_err();
        assert!(matches!(err, DbError::AmbiguousColumn(_)));
    }

    #[test]
    fn index_use_is_observable() {
        let db = policy_db();
        exec::take_stats();
        db.query("SELECT name FROM policy WHERE policy_id = 1")
            .unwrap();
        let with = exec::take_stats();
        assert!(with.index_probes >= 1, "{with:?}");

        let mut db2 = policy_db();
        db2.set_use_indexes(false);
        exec::take_stats();
        db2.query("SELECT name FROM policy WHERE policy_id = 1")
            .unwrap();
        let without = exec::take_stats();
        assert_eq!(without.index_probes, 0);
        assert!(without.rows_scanned >= with.rows_scanned);
    }

    #[test]
    fn results_agree_with_and_without_indexes() {
        let db = policy_db();
        let mut db_noidx = policy_db();
        db_noidx.set_use_indexes(false);
        for sql in [
            "SELECT * FROM purpose WHERE policy_id = 1 AND statement_id = 2",
            "SELECT name FROM policy p WHERE EXISTS (SELECT * FROM statement s WHERE s.policy_id = p.policy_id)",
        ] {
            assert_eq!(db.query(sql).unwrap(), db_noidx.query(sql).unwrap(), "{sql}");
        }
    }

    #[test]
    fn query_rejects_ddl() {
        let db = policy_db();
        assert!(db.query("DELETE FROM policy").is_err());
    }

    #[test]
    fn select_constant_per_row() {
        let db = policy_db();
        let r = db.query("SELECT 'block' FROM policy").unwrap();
        assert_eq!(r.rows.len(), 1);
        assert_eq!(r.rows[0][0].as_str(), Some("block"));
    }

    #[test]
    fn update_with_filter() {
        let mut db = policy_db();
        let out = db
            .execute("UPDATE purpose SET required = 'always' WHERE required = 'opt-in'")
            .unwrap();
        assert_eq!(out, ExecOutcome::Updated(2));
        let r = db
            .query("SELECT COUNT(*) FROM purpose WHERE required = 'always'")
            .unwrap();
        assert_eq!(r.scalar().unwrap(), &Value::Int(3));
        // Index reflects the change.
        let probe = db
            .query("SELECT purpose FROM purpose WHERE policy_id = 1 AND statement_id = 2 AND required = 'opt-in'")
            .unwrap();
        assert!(probe.is_empty());
    }

    #[test]
    fn update_without_filter_touches_all() {
        let mut db = policy_db();
        let out = db
            .execute("UPDATE statement SET consequence = 'redacted'")
            .unwrap();
        assert_eq!(out, ExecOutcome::Updated(2));
        let r = db
            .query("SELECT DISTINCT consequence FROM statement")
            .unwrap();
        assert_eq!(r.rows.len(), 1);
    }

    #[test]
    fn update_rejects_pk_duplication_and_rolls_back() {
        let mut db = policy_db();
        db.execute("INSERT INTO policy VALUES (2, 'other')")
            .unwrap();
        let err = db.execute("UPDATE policy SET policy_id = 1").unwrap_err();
        assert!(err.to_string().contains("primary key"), "{err}");
        // Nothing changed.
        let r = db
            .query("SELECT COUNT(*) FROM policy WHERE policy_id = 2")
            .unwrap();
        assert_eq!(r.scalar().unwrap(), &Value::Int(1));
    }

    #[test]
    fn update_rejects_type_and_null_violations() {
        let mut db = policy_db();
        assert!(db.execute("UPDATE purpose SET required = 7").is_err());
        assert!(db.execute("UPDATE purpose SET required = NULL").is_err());
        assert!(db.execute("UPDATE purpose SET nope = 'x'").is_err());
    }

    #[test]
    fn select_distinct_dedupes() {
        let db = policy_db();
        let all = db.query("SELECT policy_id FROM purpose").unwrap();
        assert_eq!(all.rows.len(), 3);
        let distinct = db.query("SELECT DISTINCT policy_id FROM purpose").unwrap();
        assert_eq!(distinct.rows.len(), 1);
    }

    #[test]
    fn select_distinct_with_order_by() {
        let db = policy_db();
        let r = db
            .query("SELECT DISTINCT required FROM purpose ORDER BY required DESC")
            .unwrap();
        let got: Vec<&str> = r.rows.iter().map(|row| row[0].as_str().unwrap()).collect();
        assert_eq!(got, ["opt-in", "always"]);
    }

    #[test]
    fn insert_arity_mismatch() {
        let mut db = policy_db();
        assert!(db.execute("INSERT INTO policy VALUES (2)").is_err());
        assert!(db
            .execute("INSERT INTO policy (policy_id) VALUES (2, 'x')")
            .is_err());
    }

    #[test]
    fn prepared_query_with_positional_parameters() {
        let db = policy_db();
        let plan = db
            .prepare("SELECT name FROM policy WHERE policy_id = ?")
            .unwrap();
        assert_eq!(plan.param_count(), 1);
        let r = db.query_prepared(&plan, &[Value::Int(1)]).unwrap();
        assert_eq!(r.scalar().unwrap().as_str(), Some("volga"));
        let none = db.query_prepared(&plan, &[Value::Int(99)]).unwrap();
        assert!(none.is_empty());
    }

    #[test]
    fn prepared_parameters_reach_index_probes() {
        let db = policy_db();
        let plan = db
            .prepare("SELECT name FROM policy WHERE policy_id = ?")
            .unwrap();
        exec::take_stats();
        db.query_prepared(&plan, &[Value::Int(1)]).unwrap();
        let stats = exec::take_stats();
        assert!(stats.index_probes >= 1, "{stats:?}");
    }

    #[test]
    fn in_list_uses_index_probe() {
        let mut db = policy_db();
        db.execute("INSERT INTO policy VALUES (2, 'dnepr'), (3, 'ob')")
            .unwrap();
        exec::take_stats();
        let r = db
            .query("SELECT name FROM policy WHERE policy_id IN (1, 3, 99) ORDER BY name")
            .unwrap();
        let stats = exec::take_stats();
        let got: Vec<&str> = r.rows.iter().map(|row| row[0].as_str().unwrap()).collect();
        assert_eq!(got, ["ob", "volga"]);
        assert!(stats.index_probes >= 1, "{stats:?}");
        assert_eq!(stats.seq_scans, 0, "{stats:?}");
        // Probing visits only the listed ids that exist, not the table.
        assert_eq!(stats.rows_scanned, 2, "{stats:?}");
    }

    #[test]
    fn in_list_probe_agrees_with_scan() {
        let mut db = policy_db();
        db.execute("INSERT INTO policy VALUES (2, 'dnepr'), (3, 'ob')")
            .unwrap();
        let mut db_noidx = policy_db();
        db_noidx
            .execute("INSERT INTO policy VALUES (2, 'dnepr'), (3, 'ob')")
            .unwrap();
        db_noidx.set_use_indexes(false);
        for sql in [
            "SELECT name FROM policy WHERE policy_id IN (3, 1) ORDER BY policy_id",
            "SELECT name FROM policy WHERE policy_id IN (2, 2) ORDER BY policy_id",
            "SELECT name FROM policy WHERE policy_id IN (NULL, 2) ORDER BY policy_id",
            "SELECT name FROM policy WHERE policy_id NOT IN (1, 2) ORDER BY policy_id",
            "SELECT purpose FROM purpose WHERE policy_id = 1 AND statement_id IN (1, 2) ORDER BY purpose",
        ] {
            assert_eq!(db.query(sql).unwrap(), db_noidx.query(sql).unwrap(), "{sql}");
        }
    }

    #[test]
    fn prepared_named_parameters_share_slots() {
        let db = policy_db();
        let plan = db
            .prepare(
                "SELECT purpose FROM purpose WHERE policy_id = :pid AND statement_id = :sid \
                 ORDER BY purpose",
            )
            .unwrap();
        assert_eq!(plan.param_count(), 2);
        let params = plan
            .bind_named(&[("sid", Value::Int(2)), ("pid", Value::Int(1))])
            .unwrap();
        let r = db.query_prepared(&plan, &params).unwrap();
        assert_eq!(r.rows.len(), 2);
        assert!(plan.bind_named(&[("pid", Value::Int(1))]).is_err());
    }

    #[test]
    fn prepared_parameters_in_correlated_exists() {
        let db = policy_db();
        let plan = db
            .prepare(
                "SELECT name FROM policy p WHERE EXISTS (\
                   SELECT * FROM purpose WHERE purpose.policy_id = p.policy_id \
                     AND purpose.purpose = ?)",
            )
            .unwrap();
        let hit = db
            .query_prepared(&plan, &[Value::Text("current".into())])
            .unwrap();
        assert_eq!(hit.rows.len(), 1);
        let miss = db
            .query_prepared(&plan, &[Value::Text("telemarketing".into())])
            .unwrap();
        assert!(miss.is_empty());
    }

    #[test]
    fn prepared_execute_with_parameters() {
        let mut db = policy_db();
        let insert = db
            .prepare("INSERT INTO policy (policy_id, name) VALUES (?, ?)")
            .unwrap();
        let out = db
            .execute_prepared(&insert, &[Value::Int(7), Value::Text("ob".into())])
            .unwrap();
        assert_eq!(out, ExecOutcome::Inserted(1));
        let delete = db
            .prepare("DELETE FROM policy WHERE policy_id = ?")
            .unwrap();
        let out = db.execute_prepared(&delete, &[Value::Int(7)]).unwrap();
        assert_eq!(out, ExecOutcome::Deleted(1));
    }

    #[test]
    fn unbound_parameter_is_an_execution_error() {
        let db = policy_db();
        let plan = db
            .prepare("SELECT name FROM policy WHERE policy_id = ?")
            .unwrap();
        let err = db.query_prepared(&plan, &[]).unwrap_err();
        assert!(err.to_string().contains("not bound"), "{err}");
    }

    #[test]
    fn prepare_rejects_unknown_tables_and_filter_columns() {
        let db = policy_db();
        assert!(matches!(
            db.prepare("SELECT * FROM nope"),
            Err(DbError::UnknownTable(_))
        ));
        assert!(matches!(
            db.prepare("SELECT name FROM policy WHERE nope = 1"),
            Err(DbError::UnknownColumn(_))
        ));
        assert!(matches!(
            db.prepare("SELECT name FROM policy WHERE EXISTS (SELECT * FROM missing WHERE x = 1)"),
            Err(DbError::UnknownTable(_))
        ));
    }

    #[test]
    fn plan_cache_hits_on_repeat_and_invalidates_on_ddl() {
        let db = policy_db();
        let base = db.plan_cache_stats();
        let sql = "SELECT name FROM policy WHERE policy_id = 1";
        db.query(sql).unwrap();
        db.query(sql).unwrap();
        let warm = db.plan_cache_stats();
        assert!(warm.hits > base.hits, "{warm:?}");
        assert!(db.plan_cache_len() >= 1);

        let mut db = db;
        db.execute("CREATE TABLE extra (x INT)").unwrap();
        assert_eq!(db.plan_cache_len(), 0);
        let after = db.plan_cache_stats();
        assert!(after.invalidations > warm.invalidations, "{after:?}");
        // Re-preparing after DDL repopulates the cache.
        db.query(sql).unwrap();
        assert!(db.plan_cache_len() >= 1);
    }

    #[test]
    fn plan_cache_is_shared_across_clones() {
        let db = policy_db();
        let sql = "SELECT name FROM policy WHERE policy_id = 1";
        db.query(sql).unwrap();
        let snapshot = db.clone();
        let before = snapshot.plan_cache_stats().hits;
        snapshot.query(sql).unwrap();
        assert!(snapshot.plan_cache_stats().hits > before);
        assert_eq!(db.plan_cache_stats(), snapshot.plan_cache_stats());
    }

    #[test]
    fn plan_cache_evicts_least_recently_used() {
        let db = policy_db();
        // Setup's INSERT plans are cached too; shrinking may already
        // evict, so assert on deltas from here.
        db.set_plan_cache_capacity(2);
        let base = db.plan_cache_stats();
        db.query("SELECT name FROM policy WHERE policy_id = 1")
            .unwrap();
        db.query("SELECT COUNT(*) FROM purpose").unwrap();
        // Refresh the first plan, then overflow: the COUNT plan goes.
        db.query("SELECT name FROM policy WHERE policy_id = 1")
            .unwrap();
        db.query("SELECT COUNT(*) FROM statement").unwrap();
        assert_eq!(db.plan_cache_len(), 2);
        assert!(db.plan_cache_stats().evictions > base.evictions);
        // The refreshed plan is still a hit; the evicted one re-misses.
        let before = db.plan_cache_stats();
        db.query("SELECT name FROM policy WHERE policy_id = 1")
            .unwrap();
        assert_eq!(db.plan_cache_stats().hits, before.hits + 1);
        db.query("SELECT COUNT(*) FROM purpose").unwrap();
        assert_eq!(db.plan_cache_stats().misses, before.misses + 1);
    }

    #[test]
    fn cached_and_fresh_plans_agree() {
        let db = policy_db();
        let sql = "SELECT purpose FROM purpose WHERE required = 'opt-in' ORDER BY purpose";
        let cold = db.query(sql).unwrap();
        let warm = db.query(sql).unwrap();
        assert_eq!(cold, warm);
        // A capacity-0 cache (caching disabled) agrees too.
        let db2 = policy_db();
        db2.set_plan_cache_capacity(0);
        assert_eq!(db2.query(sql).unwrap(), cold);
        assert_eq!(db2.plan_cache_len(), 0);
    }

    /// `policy_db` grown to `n` policies: every policy gets one
    /// statement, even-numbered ones a `current` purpose.
    fn corpus_db(n: i64) -> Database {
        let mut db = policy_db();
        for i in 2..=n {
            db.execute(&format!("INSERT INTO policy VALUES ({i}, 'p{i}')"))
                .unwrap();
            db.execute(&format!("INSERT INTO statement VALUES ({i}, 1, NULL)"))
                .unwrap();
            if i % 2 == 0 {
                db.execute(&format!(
                    "INSERT INTO purpose VALUES ({i}, 1, 'current', 'always')"
                ))
                .unwrap();
            }
        }
        db
    }

    #[test]
    fn exists_decorrelates_past_threshold() {
        let db = corpus_db(30);
        exec::take_stats();
        let r = db
            .query(
                "SELECT p.policy_id FROM policy p WHERE EXISTS (\
                   SELECT * FROM purpose pu WHERE pu.policy_id = p.policy_id \
                     AND pu.purpose = 'current') ORDER BY p.policy_id",
            )
            .unwrap();
        let stats = exec::take_stats();
        assert_eq!(stats.exists_builds, 1, "{stats:?}");
        assert!(stats.exists_probes >= 30 - 9, "{stats:?}");
        // The equivalent semi-join names the same policies.
        let join = db
            .query(
                "SELECT DISTINCT pu.policy_id FROM purpose pu \
                 WHERE pu.purpose = 'current' ORDER BY policy_id",
            )
            .unwrap();
        assert_eq!(r.rows, join.rows);
    }

    #[test]
    fn exists_stays_correlated_below_threshold() {
        let db = policy_db();
        exec::take_stats();
        db.query(
            "SELECT name FROM policy p WHERE EXISTS (\
               SELECT * FROM statement s WHERE s.policy_id = p.policy_id)",
        )
        .unwrap();
        let stats = exec::take_stats();
        assert_eq!(stats.exists_builds, 0, "{stats:?}");
        assert_eq!(stats.exists_probes, 0, "{stats:?}");
    }

    #[test]
    fn unqualified_columns_bypass_decorrelation() {
        let db = corpus_db(30);
        exec::take_stats();
        // `purpose` is unqualified, so scope analysis rejects the
        // rewrite; the correlated path still answers correctly.
        let r = db
            .query(
                "SELECT p.policy_id FROM policy p WHERE EXISTS (\
                   SELECT * FROM purpose pu WHERE pu.policy_id = p.policy_id \
                     AND purpose = 'current') ORDER BY p.policy_id",
            )
            .unwrap();
        let stats = exec::take_stats();
        assert_eq!(stats.exists_builds, 0, "{stats:?}");
        assert_eq!(stats.exists_probes, 0, "{stats:?}");
        // policy 1 plus every even policy carries `current`.
        assert_eq!(r.rows.len(), 16);
    }

    #[test]
    fn decorrelated_exists_handles_null_keys() {
        let mut db = Database::new();
        db.execute("CREATE TABLE a (id INT NOT NULL, tag VARCHAR, PRIMARY KEY (id))")
            .unwrap();
        db.execute("CREATE TABLE b (tag VARCHAR)").unwrap();
        for i in 1..=20 {
            let tag = if i % 3 == 0 {
                "NULL".to_string()
            } else {
                format!("'t{}'", i % 4)
            };
            db.execute(&format!("INSERT INTO a VALUES ({i}, {tag})"))
                .unwrap();
        }
        db.execute("INSERT INTO b VALUES ('t1'), ('t2'), (NULL)")
            .unwrap();
        exec::take_stats();
        let r = db
            .query(
                "SELECT a.id FROM a WHERE EXISTS (\
                   SELECT * FROM b WHERE b.tag = a.tag) ORDER BY a.id",
            )
            .unwrap();
        let stats = exec::take_stats();
        assert_eq!(stats.exists_builds, 1, "{stats:?}");
        // NULL never equals anything — on either side of the removed
        // conjunct — exactly as the correlated semi-join behaves.
        let join = db
            .query("SELECT DISTINCT a.id FROM a, b WHERE b.tag = a.tag ORDER BY id")
            .unwrap();
        assert_eq!(r.rows, join.rows);
    }

    #[test]
    fn forced_threshold_pins_both_exists_strategies() {
        // The two extremes of the knob: 0 decorrelates on the second
        // evaluation, MAX never decorrelates. Both must be observable
        // through the stats, and both must answer identically.
        let db = corpus_db(30);
        let sql = "SELECT p.policy_id FROM policy p WHERE EXISTS (\
                     SELECT * FROM purpose pu WHERE pu.policy_id = p.policy_id \
                       AND pu.purpose = 'current') ORDER BY p.policy_id";
        exec::set_decorrelate_after(Some(0));
        exec::take_stats();
        let decorrelated = db.query(sql).unwrap();
        let forced = exec::take_stats();
        assert_eq!(forced.exists_builds, 1, "{forced:?}");
        exec::set_decorrelate_after(Some(u32::MAX));
        let nested = db.query(sql).unwrap();
        let pinned = exec::take_stats();
        assert_eq!(pinned.exists_builds, 0, "{pinned:?}");
        assert_eq!(pinned.exists_probes, 0, "{pinned:?}");
        exec::set_decorrelate_after(None);
        assert_eq!(decorrelated, nested);
    }

    #[test]
    fn null_correlation_keys_metamorphic_under_forced_threshold() {
        // Random-ish data with NULLs sprinkled into the correlation
        // column on both sides: the decorrelated hash probe (NULL keys
        // skipped at build, NULL probes answer false) and the nested
        // loop (NULL = NULL is unknown) must answer row-identically.
        let mut db = Database::new();
        db.execute("CREATE TABLE outer_t (id INT NOT NULL, k VARCHAR, PRIMARY KEY (id))")
            .unwrap();
        db.execute("CREATE TABLE inner_t (k VARCHAR, flag INT)")
            .unwrap();
        let mut state = 0x9e37u64;
        let mut next = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 33) as usize
        };
        for i in 1..=40 {
            let k = match next() % 4 {
                0 => "NULL".to_string(),
                v => format!("'k{v}'"),
            };
            db.execute(&format!("INSERT INTO outer_t VALUES ({i}, {k})"))
                .unwrap();
        }
        for _ in 0..25 {
            let k = match next() % 5 {
                0 | 1 => "NULL".to_string(),
                v => format!("'k{}'", v % 4),
            };
            let flag = next() % 2;
            db.execute(&format!("INSERT INTO inner_t VALUES ({k}, {flag})"))
                .unwrap();
        }
        for sql in [
            // Plain correlated EXISTS over a nullable key.
            "SELECT o.id FROM outer_t o WHERE EXISTS (\
               SELECT * FROM inner_t i WHERE i.k = o.k) ORDER BY o.id",
            // With an outer-free residual predicate, which the
            // decorrelation splits off into the build-side filter.
            "SELECT o.id FROM outer_t o WHERE EXISTS (\
               SELECT * FROM inner_t i WHERE i.k = o.k AND i.flag = 1) ORDER BY o.id",
        ] {
            exec::set_decorrelate_after(Some(0));
            exec::take_stats();
            let hashed = db.query(sql).unwrap();
            assert_eq!(exec::take_stats().exists_builds, 1, "{sql}");
            exec::set_decorrelate_after(Some(u32::MAX));
            let looped = db.query(sql).unwrap();
            assert_eq!(exec::take_stats().exists_builds, 0, "{sql}");
            exec::set_decorrelate_after(None);
            assert_eq!(hashed, looped, "{sql}");
            assert!(!hashed.rows.is_empty(), "degenerate data for {sql}");
        }
    }

    #[test]
    fn decorrelated_nested_exists_agrees_with_per_policy_loop() {
        let db = corpus_db(30);
        exec::take_stats();
        let bulk = db
            .query(
                "SELECT p.policy_id FROM policy p WHERE EXISTS (\
                   SELECT * FROM statement s WHERE s.policy_id = p.policy_id AND EXISTS (\
                     SELECT * FROM purpose pu WHERE pu.policy_id = s.policy_id \
                       AND pu.statement_id = s.statement_id AND pu.purpose = 'current')) \
                 ORDER BY p.policy_id",
            )
            .unwrap();
        let stats = exec::take_stats();
        // Both EXISTS levels cross the threshold: the outer during the
        // corpus scan, the inner during the outer node's build scan.
        assert!(stats.exists_builds >= 2, "{stats:?}");
        // Per-policy point queries stay correlated (a fresh memo per
        // execution) and must agree row for row.
        let plan = db
            .prepare(
                "SELECT p.policy_id FROM policy p WHERE p.policy_id = ? AND EXISTS (\
                   SELECT * FROM statement s WHERE s.policy_id = p.policy_id AND EXISTS (\
                     SELECT * FROM purpose pu WHERE pu.policy_id = s.policy_id \
                       AND pu.statement_id = s.statement_id AND pu.purpose = 'current'))",
            )
            .unwrap();
        let mut looped = Vec::new();
        for i in 1..=30 {
            looped.extend(db.query_prepared(&plan, &[Value::Int(i)]).unwrap().rows);
        }
        assert_eq!(bulk.rows, looped);
    }

    /// `policies` policies of `statements` statements each, every
    /// statement with one `current` purpose. `statement` is indexed on
    /// its policy; `purpose` on its statement key only when `indexed`.
    fn wide_corpus_db(policies: i64, statements: i64, indexed: bool) -> Database {
        let mut db = Database::new();
        for ddl in [
            "CREATE TABLE policy (policy_id INT NOT NULL, PRIMARY KEY (policy_id))",
            "CREATE TABLE statement (policy_id INT NOT NULL, statement_id INT NOT NULL)",
            "CREATE INDEX idx_statement_policy ON statement (policy_id)",
            "CREATE TABLE purpose (policy_id INT NOT NULL, statement_id INT NOT NULL, \
             purpose VARCHAR NOT NULL)",
        ] {
            db.execute(ddl).unwrap();
        }
        if indexed {
            db.execute("CREATE INDEX idx_purpose_stmt ON purpose (policy_id, statement_id)")
                .unwrap();
        }
        for p in 1..=policies {
            let keys: Vec<String> = (1..=statements).map(|s| format!("{p}, {s}")).collect();
            let stmts: Vec<String> = keys.iter().map(|k| format!("({k})")).collect();
            let purposes: Vec<String> = keys.iter().map(|k| format!("({k}, 'current')")).collect();
            db.execute(&format!("INSERT INTO policy VALUES ({p})"))
                .unwrap();
            db.execute(&format!(
                "INSERT INTO statement VALUES {}",
                stmts.join(", ")
            ))
            .unwrap();
            db.execute(&format!(
                "INSERT INTO purpose VALUES {}",
                purposes.join(", ")
            ))
            .unwrap();
        }
        db
    }

    /// One policy's rule: does any statement carry a purpose nobody
    /// declares? The nested EXISTS runs once per statement of the policy.
    const POINT_RULE: &str = "SELECT p.policy_id FROM policy p WHERE p.policy_id = ? AND EXISTS (\
         SELECT * FROM statement s WHERE s.policy_id = p.policy_id AND EXISTS (\
           SELECT * FROM purpose pu WHERE pu.policy_id = s.policy_id \
             AND pu.statement_id = s.statement_id AND pu.purpose = 'telemarketing'))";

    #[test]
    fn point_query_with_many_nested_evaluations_stays_on_the_index() {
        // 12 statements: the purpose EXISTS runs 12 times for one
        // policy of 100, more than the count rule's 8.
        let db = wide_corpus_db(100, 12, true);
        let plan = db.prepare(POINT_RULE).unwrap();
        exec::take_stats();
        let rows = db.query_prepared(&plan, &[Value::Int(42)]).unwrap();
        let stats = exec::take_stats();
        assert!(rows.is_empty());
        assert_eq!(stats.exists_builds, 0, "{stats:?}");
        assert_eq!(stats.exists_probes, 0, "{stats:?}");
        // Only policy 42's rows: itself, its 12 statements, and one
        // purpose per statement.
        assert_eq!(stats.rows_scanned, 1 + 12 + 12, "{stats:?}");

        // The forced count rule at 8 hashes all 1,200 purpose rows for
        // the same answer.
        exec::set_decorrelate_after(Some(8));
        let forced = db.query_prepared(&plan, &[Value::Int(42)]);
        let forced_stats = exec::take_stats();
        exec::set_decorrelate_after(None);
        assert_eq!(forced.unwrap(), rows);
        assert_eq!(forced_stats.exists_builds, 1, "{forced_stats:?}");
        assert!(forced_stats.rows_scanned > 1200, "{forced_stats:?}");
    }

    #[test]
    fn unindexed_correlation_still_decorrelates() {
        // Without the purpose index every correlated evaluation scans
        // the whole 1,200-row table, so the first one already costs more
        // than a build and the second evaluation builds.
        let db = wide_corpus_db(100, 12, false);
        let plan = db.prepare(POINT_RULE).unwrap();
        exec::take_stats();
        let rows = db.query_prepared(&plan, &[Value::Int(42)]).unwrap();
        let stats = exec::take_stats();
        assert!(rows.is_empty());
        assert_eq!(stats.exists_builds, 1, "{stats:?}");
        assert_eq!(stats.exists_probes, 11, "{stats:?}");
        // One correlated scan plus one build scan of purpose.
        assert_eq!(stats.rows_scanned, 1 + 12 + 1200 + 1200, "{stats:?}");
    }

    #[test]
    fn correlated_rows_before_a_build_stay_within_the_build_side() {
        // Inner tables of 60 rows in buckets of `bucket` rows per key
        // (60 = one unindexed-like bucket); every probed bucket is
        // scanned in full because the residual never holds. Each
        // correlated evaluation costs `bucket + 1`, so the node switches
        // on the first evaluation after the cost passes 60.
        const INNER: i64 = 60;
        const OUTER: i64 = 80;
        exec::set_columnar(false);
        for bucket in [1, 2, 3, 4, 5, 6, 10, 12, 15, 20, 30, 60] {
            let keys = INNER / bucket;
            let mut db = Database::new();
            db.execute("CREATE TABLE o (id INT NOT NULL, k INT NOT NULL)")
                .unwrap();
            db.execute("CREATE TABLE i (k INT NOT NULL, v VARCHAR NOT NULL)")
                .unwrap();
            db.execute("CREATE INDEX idx_i_k ON i (k)").unwrap();
            let outer: Vec<String> = (0..OUTER).map(|n| format!("({n}, {})", n % keys)).collect();
            let inner: Vec<String> = (0..INNER).map(|n| format!("({}, 'v')", n % keys)).collect();
            db.execute(&format!("INSERT INTO o VALUES {}", outer.join(", ")))
                .unwrap();
            db.execute(&format!("INSERT INTO i VALUES {}", inner.join(", ")))
                .unwrap();
            exec::take_stats();
            let r = db
                .query(
                    "SELECT o.id FROM o WHERE EXISTS (\
                       SELECT * FROM i WHERE i.k = o.k AND i.v = 'never')",
                )
                .unwrap();
            let stats = exec::take_stats();
            assert!(r.is_empty());
            assert_eq!(stats.exists_builds, 1, "bucket {bucket}: {stats:?}");
            // The building evaluation probes too, so `exists_probes`
            // counts every evaluation from the switch on.
            let evals = (OUTER as u64) - stats.exists_probes;
            let correlated_rows = stats.rows_scanned - OUTER as u64 - INNER as u64;
            let inner_rows = INNER as u64;
            assert_eq!(correlated_rows, evals * bucket as u64, "bucket {bucket}");
            assert!(
                correlated_rows <= inner_rows + evals,
                "bucket {bucket}: {correlated_rows} correlated rows over {evals} evaluations"
            );
            // The switch comes exactly at break-even: the cost before
            // the last correlated evaluation was within one build, and
            // the cost after it was not.
            let cost = correlated_rows + evals;
            assert!(cost - (bucket as u64 + 1) <= inner_rows, "bucket {bucket}");
            assert!(cost > inner_rows, "bucket {bucket}");
        }
        exec::set_columnar(true);
    }

    /// Two join tables sized so the planner must reorder: `jbig` (60
    /// rows, join key unindexed) and `jsmall` (2 rows).
    fn join_db() -> Database {
        let mut db = Database::new();
        db.execute("CREATE TABLE jbig (k INT NOT NULL, v VARCHAR)")
            .unwrap();
        db.execute("CREATE TABLE jsmall (k INT NOT NULL)").unwrap();
        for i in 0..60 {
            db.execute(&format!("INSERT INTO jbig VALUES ({}, 'v{i}')", i % 6))
                .unwrap();
        }
        db.execute("INSERT INTO jsmall VALUES (1), (2)").unwrap();
        db
    }

    #[test]
    fn planner_reorder_and_hash_join_are_observable() {
        let db = join_db();
        exec::take_stats();
        let r = db
            .query("SELECT b.v FROM jbig b, jsmall s WHERE b.k = s.k")
            .unwrap();
        let stats = exec::take_stats();
        assert_eq!(r.rows.len(), 20);
        assert!(stats.planner_reorders >= 1, "{stats:?}");
        assert!(stats.join_hash_builds >= 1, "{stats:?}");
        assert!(stats.join_hash_probes >= 2, "{stats:?}");
    }

    #[test]
    fn results_agree_with_and_without_planner() {
        let db = policy_db();
        let mut db_noplan = policy_db();
        db_noplan.set_use_planner(false);
        let sorted = |mut rows: Vec<Vec<Value>>| {
            rows.sort_by_key(|r| format!("{r:?}"));
            rows
        };
        for sql in [
            "SELECT p.name, s.statement_id FROM policy p, statement s \
             WHERE s.policy_id = p.policy_id",
            "SELECT p.name, pu.purpose FROM purpose pu, statement s, policy p \
             WHERE pu.policy_id = s.policy_id AND pu.statement_id = s.statement_id \
             AND s.policy_id = p.policy_id",
            // `purpose` the column is unindexed, so this self-join runs
            // as a hash join under the planner.
            "SELECT a.statement_id, b.statement_id FROM purpose a, purpose b \
             WHERE a.purpose = b.purpose",
        ] {
            assert_eq!(
                sorted(db.query(sql).unwrap().rows),
                sorted(db_noplan.query(sql).unwrap().rows),
                "{sql}"
            );
        }
    }

    #[test]
    fn prepared_statement_reuses_join_plans() {
        let db = join_db();
        let prepared = db
            .prepare("SELECT COUNT(*) FROM jbig b, jsmall s WHERE b.k = s.k")
            .unwrap();
        assert!(prepared.join_plans().is_empty());
        db.query_prepared(&prepared, &[]).unwrap();
        assert_eq!(prepared.join_plans().len(), 1);
        db.query_prepared(&prepared, &[]).unwrap();
        assert_eq!(prepared.join_plans().len(), 1, "plan survives re-execution");
    }

    #[test]
    fn prepared_plan_replans_on_stats_drift() {
        use p3p_telemetry::slowlog;
        let mut db = Database::new();
        db.execute("CREATE TABLE drift_a (k INT NOT NULL)").unwrap();
        db.execute("CREATE TABLE drift_b (k INT NOT NULL)").unwrap();
        for i in 0..3 {
            db.execute(&format!("INSERT INTO drift_a VALUES ({i})"))
                .unwrap();
        }
        for i in 0..50 {
            db.execute(&format!("INSERT INTO drift_b VALUES ({})", i % 5))
                .unwrap();
        }
        let sql = "SELECT COUNT(*) FROM drift_b y, drift_a x WHERE x.k = y.k";
        let prepared = db.prepare(sql).unwrap();
        let replans = p3p_telemetry::metrics::counter("p3p_planner_replans_total");
        let replans_before = replans.get();
        // A thread-scoped capture: tests running in parallel flood the
        // global log and would evict the cold plan's entry.
        let ((), captured) = slowlog::capture(|| {
            db.query_prepared(&prepared, &[]).unwrap();

            // A 10k-row shred flips which side is small by two orders
            // of magnitude; the cheap drift check at execute must
            // replan.
            let values: Vec<String> = (0..500).map(|i| format!("({})", i % 5)).collect();
            let batch = format!("INSERT INTO drift_a VALUES {}", values.join(", "));
            for _ in 0..20 {
                db.execute(&batch).unwrap();
            }
            db.query_prepared(&prepared, &[]).unwrap();
        });

        assert!(
            replans.get() > replans_before,
            "drift must clear cached join plans"
        );
        let strategies: Vec<String> = captured
            .into_iter()
            .filter(|r| r.sql == sql)
            .filter_map(|r| r.join_strategy)
            .collect();
        assert!(strategies.len() >= 2, "{strategies:?}");
        let cold = &strategies[0];
        let replanned = strategies.last().unwrap();
        // Cold plan: drift_a (3 rows) drives, drift_b is hash-joined.
        assert!(cold.starts_with("x: seq scan"), "{cold}");
        assert!(cold.contains("y: hash join on (k)"), "{cold}");
        // After the shred, drift_b (50 rows) is the small side.
        assert!(replanned.starts_with("y: seq scan"), "{replanned}");
        assert!(replanned.contains("x: hash join on (k)"), "{replanned}");
        assert_ne!(cold, replanned);
    }

    #[test]
    fn hash_join_skips_null_keys() {
        let mut db = Database::new();
        db.execute("CREATE TABLE na (k INT)").unwrap();
        db.execute("CREATE TABLE nb (k INT)").unwrap();
        db.execute("INSERT INTO na VALUES (1), (NULL), (2), (NULL)")
            .unwrap();
        db.execute("INSERT INTO nb VALUES (1), (NULL)").unwrap();
        // NULL = NULL is not true in SQL; only the (1, 1) pair joins —
        // under both the planner's hash join and the FROM-order loop.
        let planned = db
            .query("SELECT na.k, nb.k FROM na, nb WHERE na.k = nb.k")
            .unwrap();
        assert_eq!(planned.rows, vec![vec![Value::Int(1), Value::Int(1)]]);
        let mut db_noplan = db.clone();
        db_noplan.set_use_planner(false);
        let unplanned = db_noplan
            .query("SELECT na.k, nb.k FROM na, nb WHERE na.k = nb.k")
            .unwrap();
        assert_eq!(planned.rows, unplanned.rows);
    }
}
