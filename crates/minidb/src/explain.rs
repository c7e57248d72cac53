//! Textual EXPLAIN plans.
//!
//! [`explain`] renders the access path the executor will take for a
//! SELECT. Multi-table queries go through the cost-based join planner:
//! the plan shows the chosen join order (`Join order: ...`) and the
//! operator per level — `hash join on (col)`, `index nested loop via
//! <name>`, or `seq scan` — exactly as the executor will run them.
//! Single-table queries and EXISTS subqueries show the same operators
//! without an order line. Used by the suite's documentation and by the
//! index-ablation analysis to show *why* the optimized schema's
//! queries stay flat.
//!
//! [`explain_analyze`] goes one step further: it *executes* the SELECT
//! with per-operator profiling on and renders the actual operator tree
//! — planned vs. actual rows side by side, loop counts, and per-node
//! wall time with its share of the execution.

use crate::database::Database;
use crate::error::DbError;
use crate::exec;
use crate::plan::{plan_select, JoinOp};
use crate::sql::ast::{CompareOp, Expr, SelectStmt, Statement};
use crate::sql::parse_statement;

/// Produce a textual plan for a SELECT statement.
pub fn explain(db: &Database, sql: &str) -> Result<String, DbError> {
    let stmt = parse_statement(sql)?;
    let Statement::Select(select) = stmt else {
        return Err(DbError::Execution("EXPLAIN requires a SELECT".to_string()));
    };
    let mut out = String::new();
    explain_select(db, &select, &[], 0, &mut out)?;
    Ok(out)
}

/// Execute a SELECT with per-operator profiling enabled and render the
/// analyzed plan. The profiling flag is restored afterwards, so an
/// `EXPLAIN ANALYZE` in the middle of an unprofiled workload leaves no
/// trace beyond the statement it executed.
pub fn explain_analyze(db: &Database, sql: &str) -> Result<String, DbError> {
    let stmt = parse_statement(sql)?;
    let Statement::Select(select) = stmt else {
        return Err(DbError::Execution(
            "EXPLAIN ANALYZE requires a SELECT".to_string(),
        ));
    };
    let was_profiling = exec::profiling_enabled();
    exec::set_profiling(true);
    let result = exec::run_select_bound(db, &select, &[]);
    exec::set_profiling(was_profiling);
    result?;
    exec::take_last_profile()
        .map(|p| p.render())
        .ok_or_else(|| DbError::Execution("no profile was collected".to_string()))
}

fn indent(out: &mut String, depth: usize) {
    for _ in 0..depth {
        out.push_str("  ");
    }
}

/// Names visible from outer queries (for correlation analysis).
fn explain_select(
    db: &Database,
    select: &SelectStmt,
    outer_names: &[String],
    depth: usize,
    out: &mut String,
) -> Result<(), DbError> {
    indent(out, depth);
    out.push_str("Select");
    if select.distinct {
        out.push_str(" DISTINCT");
    }
    if !select.group_by.is_empty() {
        out.push_str(" (grouped)");
    }
    if let Some(n) = select.limit {
        out.push_str(&format!(" LIMIT {n}"));
    }
    out.push('\n');

    let mut visible: Vec<String> = outer_names.to_vec();
    let plan = if select.from.len() >= 2 && db.use_planner() {
        plan_select(db, select)
    } else {
        None
    };
    if let Some(plan) = plan {
        // Cost-based path: render the chosen order, then one operator
        // per level in scan order.
        let order_names: Vec<&str> = plan
            .order
            .iter()
            .map(|&i| select.from[i].binding_name())
            .collect();
        let mode = if plan.no_stats {
            "FROM order, no stats"
        } else if plan.reordered {
            "cost-based"
        } else {
            "cost-based, FROM order"
        };
        indent(out, depth + 1);
        out.push_str(&format!(
            "Join order: {} ({mode})\n",
            order_names.join(", ")
        ));
        for (level, &i) in plan.order.iter().enumerate() {
            let tref = &select.from[i];
            let table = db
                .table(&tref.table)
                .ok_or_else(|| DbError::UnknownTable(tref.table.clone()))?;
            indent(out, depth + 1);
            match &plan.ops[level] {
                JoinOp::SeqScan => out.push_str(&format!(
                    "seq scan {} AS {} ({} rows)\n",
                    tref.table,
                    tref.binding_name(),
                    table.len()
                )),
                JoinOp::IndexNestedLoop { index, columns } => {
                    out.push_str(&format!(
                        "index nested loop {} AS {} on ({})",
                        tref.table,
                        tref.binding_name(),
                        columns.join(", ")
                    ));
                    if let Some(name) = index {
                        out.push_str(&format!(" via {name}"));
                    }
                    out.push('\n');
                }
                JoinOp::HashJoin { columns, .. } => out.push_str(&format!(
                    "hash join {} AS {} on ({})\n",
                    tref.table,
                    tref.binding_name(),
                    columns.join(", ")
                )),
            }
        }
        for tref in &select.from {
            visible.push(tref.binding_name().to_string());
        }
    } else {
        for (i, tref) in select.from.iter().enumerate() {
            let table = db
                .table(&tref.table)
                .ok_or_else(|| DbError::UnknownTable(tref.table.clone()))?;
            // Equality conjuncts on this table whose other side
            // references only earlier bindings or outer names.
            let eq_cols = equality_columns(
                select.filter.as_ref(),
                tref.binding_name(),
                &visible,
                i == 0,
            );
            let access = if db.use_indexes() {
                best_index(table, &eq_cols)
            } else {
                None
            };
            indent(out, depth + 1);
            match access {
                Some((index_name, cols)) => {
                    out.push_str(&format!(
                        "index nested loop {} AS {} on ({})",
                        tref.table,
                        tref.binding_name(),
                        cols.join(", ")
                    ));
                    if let Some(name) = index_name {
                        out.push_str(&format!(" via {name}"));
                    }
                    out.push('\n');
                }
                None => out.push_str(&format!(
                    "seq scan {} AS {} ({} rows)\n",
                    tref.table,
                    tref.binding_name(),
                    table.len()
                )),
            }
            visible.push(tref.binding_name().to_string());
        }
    }
    if select.from.len() == 1 && crate::columnar::shape_eligible(db, select) {
        indent(out, depth + 1);
        out.push_str("columnar batch execution\n");
    }
    if let Some(filter) = &select.filter {
        indent(out, depth + 1);
        out.push_str("Filter\n");
        explain_expr(db, filter, &visible, depth + 2, out)?;
    }
    Ok(())
}

/// Render subquery structure beneath a filter.
fn explain_expr(
    db: &Database,
    expr: &Expr,
    visible: &[String],
    depth: usize,
    out: &mut String,
) -> Result<(), DbError> {
    match expr {
        Expr::And(a, b) | Expr::Or(a, b) => {
            explain_expr(db, a, visible, depth, out)?;
            explain_expr(db, b, visible, depth, out)?;
        }
        Expr::Not(inner) => {
            explain_expr(db, inner, visible, depth, out)?;
        }
        Expr::Exists(sub) => {
            indent(out, depth);
            out.push_str("Exists\n");
            explain_select(db, sub, visible, depth + 1, out)?;
        }
        _ => {}
    }
    Ok(())
}

/// Columns of `binding` constrained by equality against something
/// evaluable without this table.
fn equality_columns(
    filter: Option<&Expr>,
    binding: &str,
    visible: &[String],
    allow_unqualified: bool,
) -> Vec<String> {
    let Some(filter) = filter else {
        return Vec::new();
    };
    let mut conjuncts = Vec::new();
    collect_conjuncts(filter, &mut conjuncts);
    let mut cols = Vec::new();
    for c in conjuncts {
        let Expr::Compare {
            op: CompareOp::Eq,
            left,
            right,
        } = c
        else {
            continue;
        };
        for (col_side, val_side) in [(left, right), (right, left)] {
            let Expr::Column { qualifier, name } = col_side.as_ref() else {
                continue;
            };
            let ours = match qualifier {
                Some(q) => q.eq_ignore_ascii_case(binding),
                None => allow_unqualified,
            };
            if ours && side_is_independent(val_side, binding, visible) {
                cols.push(name.clone());
                break;
            }
        }
    }
    cols
}

/// Is the expression computable without the given binding — i.e. does
/// it reference only literals and visible (earlier/outer) bindings?
fn side_is_independent(expr: &Expr, binding: &str, visible: &[String]) -> bool {
    match expr {
        Expr::Literal(_) => true,
        Expr::Column {
            qualifier: Some(q), ..
        } => !q.eq_ignore_ascii_case(binding) && visible.iter().any(|v| v.eq_ignore_ascii_case(q)),
        Expr::Column {
            qualifier: None, ..
        } => false,
        Expr::Parameter { .. } => true,
        _ => false,
    }
}

/// Largest index fully covered by the constrained columns, as its name
/// (when it has one) plus covered column names.
fn best_index(
    table: &crate::table::Table,
    eq_cols: &[String],
) -> Option<(Option<String>, Vec<String>)> {
    let schema = &table.schema;
    let eq_idx: Vec<usize> = eq_cols
        .iter()
        .filter_map(|c| schema.column_index(c))
        .collect();
    let mut best: Option<&crate::table::Index> = None;
    for index in table.indexes() {
        if index.columns.iter().all(|c| eq_idx.contains(c)) {
            let better = best.is_none_or(|b| index.columns.len() > b.columns.len());
            if better {
                best = Some(index);
            }
        }
    }
    best.map(|index| {
        (
            index.name().map(str::to_string),
            index
                .columns
                .iter()
                .map(|&i| schema.columns[i].name.clone())
                .collect(),
        )
    })
}

fn collect_conjuncts<'e>(expr: &'e Expr, out: &mut Vec<&'e Expr>) {
    match expr {
        Expr::And(a, b) => {
            collect_conjuncts(a, out);
            collect_conjuncts(b, out);
        }
        other => out.push(other),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn db() -> Database {
        let mut db = Database::new();
        db.execute(
            "CREATE TABLE policy (policy_id INT NOT NULL, name VARCHAR, PRIMARY KEY (policy_id))",
        )
        .unwrap();
        db.execute(
            "CREATE TABLE statement (policy_id INT NOT NULL, statement_id INT NOT NULL, \
             PRIMARY KEY (policy_id, statement_id))",
        )
        .unwrap();
        db.execute("CREATE INDEX idx_statement_fk ON statement (policy_id)")
            .unwrap();
        db.execute("INSERT INTO policy VALUES (1, 'volga')")
            .unwrap();
        db.execute("INSERT INTO statement VALUES (1, 1), (1, 2)")
            .unwrap();
        db
    }

    /// Two join tables with no index on the join column: `big` (100
    /// rows) and `small` (2 rows), joined on `k`.
    fn join_db() -> Database {
        let mut db = Database::new();
        db.execute("CREATE TABLE big (k INT NOT NULL, v VARCHAR)")
            .unwrap();
        db.execute("CREATE TABLE small (k INT NOT NULL, tag VARCHAR)")
            .unwrap();
        for i in 0..100 {
            db.execute(&format!("INSERT INTO big VALUES ({}, 'v{i}')", i % 10))
                .unwrap();
        }
        db.execute("INSERT INTO small VALUES (1, 'x'), (2, 'y')")
            .unwrap();
        db
    }

    #[test]
    fn literal_probe_is_detected() {
        let plan = explain(&db(), "SELECT name FROM policy WHERE policy_id = 1").unwrap();
        assert!(
            plan.contains("index nested loop policy AS policy on (policy_id)"),
            "{plan}"
        );
    }

    #[test]
    fn unconstrained_scan_is_sequential() {
        let plan = explain(&db(), "SELECT name FROM policy").unwrap();
        assert!(
            plan.contains("seq scan policy AS policy (1 rows)"),
            "{plan}"
        );
    }

    #[test]
    fn correlated_exists_probes_fk_index() {
        let plan = explain(
            &db(),
            "SELECT name FROM policy p WHERE EXISTS (SELECT * FROM statement s WHERE s.policy_id = p.policy_id)",
        )
        .unwrap();
        assert!(plan.contains("Exists"), "{plan}");
        assert!(
            plan.contains("index nested loop statement AS s on (policy_id)"),
            "{plan}"
        );
    }

    #[test]
    fn plan_names_the_probed_index() {
        let plan = explain(&db(), "SELECT name FROM policy WHERE policy_id = 1").unwrap();
        assert!(
            plan.contains("index nested loop policy AS policy on (policy_id) via pk_policy"),
            "{plan}"
        );
        let plan = explain(
            &db(),
            "SELECT name FROM policy p WHERE EXISTS (SELECT * FROM statement s WHERE s.policy_id = p.policy_id)",
        )
        .unwrap();
        assert!(
            plan.contains("index nested loop statement AS s on (policy_id) via idx_statement_fk"),
            "{plan}"
        );
    }

    #[test]
    fn disabled_indexes_show_scans_everywhere() {
        let mut d = db();
        d.set_use_indexes(false);
        let plan = explain(&d, "SELECT name FROM policy WHERE policy_id = 1").unwrap();
        assert!(plan.contains("seq scan"), "{plan}");
        assert!(!plan.contains("index nested loop"), "{plan}");
    }

    #[test]
    fn join_order_gates_index_use() {
        // The second table can probe using the first table's binding;
        // the planner keeps this order because policy is smaller.
        let plan = explain(
            &db(),
            "SELECT * FROM policy p, statement s WHERE s.policy_id = p.policy_id",
        )
        .unwrap();
        assert!(plan.contains("Join order: p, s (cost-based"), "{plan}");
        assert!(plan.contains("seq scan policy AS p"), "{plan}");
        assert!(
            plan.contains("index nested loop statement AS s on (policy_id) via idx_statement_fk"),
            "{plan}"
        );
    }

    #[test]
    fn distinct_and_limit_are_annotated() {
        let plan = explain(&db(), "SELECT DISTINCT name FROM policy LIMIT 3").unwrap();
        assert!(plan.contains("Select DISTINCT LIMIT 3"), "{plan}");
    }

    #[test]
    fn columnar_eligibility_is_annotated() {
        // Single-table SELECTs with plain projections run on the
        // columnar batch engine; joins and wildcards stay row-at-a-time.
        let plan = explain(&db(), "SELECT name FROM policy WHERE policy_id = 1").unwrap();
        assert!(plan.contains("columnar batch execution"), "{plan}");
        let plan = explain(&db(), "SELECT * FROM policy").unwrap();
        assert!(!plan.contains("columnar batch execution"), "{plan}");
        let plan = explain(
            &db(),
            "SELECT * FROM policy p, statement s WHERE s.policy_id = p.policy_id",
        )
        .unwrap();
        assert!(!plan.contains("columnar batch execution"), "{plan}");
    }

    #[test]
    fn non_select_is_rejected() {
        assert!(explain(&db(), "DELETE FROM policy").is_err());
    }

    #[test]
    fn multi_column_index_wins_over_prefix() {
        let plan = explain(
            &db(),
            "SELECT * FROM statement WHERE policy_id = 1 AND statement_id = 2",
        )
        .unwrap();
        // The PK index on (policy_id, statement_id) beats the FK index.
        assert!(plan.contains("on (policy_id, statement_id)"), "{plan}");
    }

    #[test]
    fn hash_join_is_selected_for_unindexed_equi_join() {
        // Deterministic full-plan snapshot: the planner reorders to
        // scan the 2-row table first and hash-joins the 100-row side
        // because no index covers `k`.
        let plan = explain(&join_db(), "SELECT * FROM big b, small s WHERE b.k = s.k").unwrap();
        assert_eq!(
            plan,
            "Select\n\
             \x20 Join order: s, b (cost-based)\n\
             \x20 seq scan small AS s (2 rows)\n\
             \x20 hash join big AS b on (k)\n\
             \x20 Filter\n"
        );
    }

    #[test]
    fn no_stats_falls_back_to_from_order() {
        let mut db = Database::new();
        db.execute("CREATE TABLE a (k INT NOT NULL)").unwrap();
        db.execute("CREATE TABLE b (k INT NOT NULL)").unwrap();
        let plan = explain(&db, "SELECT * FROM a x, b y WHERE x.k = y.k").unwrap();
        assert!(
            plan.contains("Join order: x, y (FROM order, no stats)"),
            "{plan}"
        );
    }

    #[test]
    fn planner_disabled_renders_from_order_without_order_line() {
        let mut d = join_db();
        d.set_use_planner(false);
        let plan = explain(&d, "SELECT * FROM big b, small s WHERE b.k = s.k").unwrap();
        assert!(!plan.contains("Join order:"), "{plan}");
        assert!(plan.contains("seq scan big AS b (100 rows)"), "{plan}");
    }

    #[test]
    fn analyze_hash_join_reports_actual_rows_per_level() {
        // small (2 rows, k in {1,2}) drives the probe side; big has 10
        // rows per k value, so the hash join produces 2 * 10 = 20 rows
        // over 2 probe loops, and the build keys all 100 big rows.
        let analyzed =
            explain_analyze(&join_db(), "SELECT * FROM big b, small s WHERE b.k = s.k").unwrap();
        assert!(analyzed.contains("Select (rows=20 loops=1)"), "{analyzed}");
        assert!(
            analyzed.contains("Join order: s, b (cost-based)"),
            "{analyzed}"
        );
        assert!(
            analyzed.contains("seq scan small AS s (planned=2 rows=2 loops=1)"),
            "{analyzed}"
        );
        assert!(
            analyzed.contains("hash join big AS b on (k) (planned="),
            "{analyzed}"
        );
        assert!(analyzed.contains("rows=20 loops=2)"), "{analyzed}");
        assert!(
            analyzed.contains("hash build (100 rows scanned) (rows=100 loops=1)"),
            "{analyzed}"
        );
        assert!(analyzed.contains("Filter (rows=20 loops=20)"), "{analyzed}");
        // Every non-annotation line carries a timing tail.
        assert_eq!(
            analyzed.matches(" [").count(),
            analyzed.lines().count() - 1, // all but the Join order line
            "{analyzed}"
        );
    }

    #[test]
    fn analyze_index_nested_loop_reports_probe_counts() {
        let analyzed = explain_analyze(
            &db(),
            "SELECT * FROM policy p, statement s WHERE s.policy_id = p.policy_id",
        )
        .unwrap();
        assert!(analyzed.contains("Select (rows=2 loops=1)"), "{analyzed}");
        assert!(
            analyzed.contains("Join order: p, s (cost-based, FROM order)"),
            "{analyzed}"
        );
        assert!(
            analyzed.contains("seq scan policy AS p (planned=1 rows=1 loops=1)"),
            "{analyzed}"
        );
        // One probe loop (one policy row) visiting both statement rows.
        assert!(
            analyzed.contains(
                "index nested loop statement AS s on (policy_id) via idx_statement_fk (planned="
            ),
            "{analyzed}"
        );
        assert!(analyzed.contains("rows=2 loops=1)"), "{analyzed}");
    }

    #[test]
    fn analyze_exists_reports_decorrelation_strategy_mix() {
        // 20 outer rows over an unindexed 10-row inner_t; matches for
        // the 10 even ids.
        let mut db = Database::new();
        db.execute("CREATE TABLE outer_t (id INT NOT NULL, PRIMARY KEY (id))")
            .unwrap();
        db.execute("CREATE TABLE inner_t (oid INT NOT NULL)")
            .unwrap();
        for i in 0..20 {
            db.execute(&format!("INSERT INTO outer_t VALUES ({i})"))
                .unwrap();
        }
        for i in 0..10 {
            db.execute(&format!("INSERT INTO inner_t VALUES ({})", i * 2))
                .unwrap();
        }
        let sql = "SELECT * FROM outer_t o WHERE EXISTS \
                   (SELECT * FROM inner_t i WHERE i.oid = o.id)";
        // The forced count rule at 8: the first 8 EXISTS evaluations
        // run correlated, the 9th builds the hash set, and the
        // remaining 12 answer by probing it.
        exec::set_decorrelate_after(Some(8));
        let forced = explain_analyze(&db, sql);
        exec::set_decorrelate_after(None);
        let forced = forced.unwrap();
        assert!(forced.contains("Select (rows=10 loops=1)"), "{forced}");
        assert!(
            forced.contains("seq scan outer_t AS o (planned=20 rows=20 loops=1)"),
            "{forced}"
        );
        assert!(forced.contains("Filter (rows=10 loops=20)"), "{forced}");
        assert!(
            forced.contains("Exists (correlated=8 set_probes=12 builds=1) (rows=10 loops=20)"),
            "{forced}"
        );
        // The subquery's own scans appear under the EXISTS node.
        assert!(forced.contains("seq scan inner_t AS i"), "{forced}");

        // The break-even default: a build reads 10 rows. Evaluation 1
        // (o.id = 0) matches inner_t's first row, costing 1 row + 1;
        // evaluation 2 (o.id = 1) scans all 10 rows for nothing,
        // taking the cost to 13 > 10, so evaluation 3 builds.
        let analyzed = explain_analyze(&db, sql).unwrap();
        assert!(analyzed.contains("Select (rows=10 loops=1)"), "{analyzed}");
        assert!(
            analyzed.contains("Exists (correlated=2 set_probes=18 builds=1) (rows=10 loops=20)"),
            "{analyzed}"
        );
        // Two correlated scans (1 + 10 rows) plus the 10-row build.
        assert!(
            analyzed.contains("seq scan inner_t AS i (planned=10 rows=21 loops=3)"),
            "{analyzed}"
        );
    }

    #[test]
    fn analyze_restores_the_profiling_flag_and_rejects_non_selects() {
        assert!(!exec::profiling_enabled());
        explain_analyze(&db(), "SELECT name FROM policy").unwrap();
        assert!(!exec::profiling_enabled());
        assert!(exec::take_last_profile().is_none(), "profile consumed");
        assert!(explain_analyze(&db(), "DELETE FROM policy").is_err());
    }

    #[test]
    fn index_nested_loop_beats_hash_join_when_covered() {
        // statement has idx_statement_fk on policy_id, so the join is
        // answered by index probes, not a hash table.
        let plan = explain(
            &db(),
            "SELECT * FROM statement s, policy p WHERE s.policy_id = p.policy_id",
        )
        .unwrap();
        // policy (1 row) is scanned first even though it is second in
        // the FROM list.
        assert!(plan.contains("Join order: p, s (cost-based)"), "{plan}");
        assert!(!plan.contains("hash join"), "{plan}");
        assert!(
            plan.contains("index nested loop statement AS s on (policy_id) via idx_statement_fk"),
            "{plan}"
        );
    }
}
