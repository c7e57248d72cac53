//! Columnar batch-at-a-time execution for single-table SELECTs.
//!
//! The row engine ([`crate::exec`]) interprets the `Expr` tree once per
//! row. This module compiles an eligible SELECT into per-column kernels
//! (`Spec`) and evaluates them over batches of [`BATCH`] row-ids,
//! producing a selection vector per batch instead of a per-row
//! `Option<bool>`. Decorrelated EXISTS subqueries become typed hash
//! sets built with one columnar scan of the subquery table and probed
//! a batch at a time — the hot corpus-sweep shape
//! (`SELECT DISTINCT policy_id` plus decorrelated EXISTS) runs here
//! without ever materializing a row until projection.
//!
//! Eligibility is strict: one FROM table, plain column/literal
//! projections, no aggregates, and a filter every node of which
//! compiles to a kernel. Anything else returns `None` from
//! `try_select` and falls back to the row engine, which also remains
//! the oracle for the differential fuzzer, which turns
//! [`ExecOptions::columnar`] off to compare the two executors.
//!
//! Three-valued logic is carried in `BoolVec`: two bitmask words per
//! 64 rows (`truth` and `known`, with `truth ⊆ known`), so NOT/AND/OR
//! over a batch are a handful of word ops and NULL semantics match the
//! row engine bit for bit.

use std::cmp::Ordering;
use std::collections::{HashMap, HashSet};
use std::time::Instant;

use crate::database::{Database, QueryResult};
use crate::error::DbError;
use crate::exec::{self, ExecOptions};
use crate::profile::{Collector, ExistsStrategy};
use crate::schema::DataType;
use crate::sql::ast::{CompareOp, Expr, SelectItem, SelectStmt, TableRef};
use crate::table::{Chunked, Column, Rows, Table, TextCells};
use crate::value::{like_match, Value};

/// Candidate-row count at or below which an EXISTS statement is left to
/// the row engine's correlated loop, unless an evaluation-count override
/// ([`ExecOptions::decorrelate_after`]) replaces it.
const EXISTS_MIN_CANDIDATES: u32 = 8;

/// Rows evaluated per batch. Large enough to amortize dispatch, small
/// enough that a batch's selection vector stays cache-resident.
pub const BATCH: usize = 1024;

/// Batch truth vector with SQL three-valued logic: bit `i` of `known`
/// set means row `i`'s predicate value is not NULL; `truth` then holds
/// the boolean. Invariant: `truth & !known == 0`.
struct BoolVec {
    truth: Vec<u64>,
    known: Vec<u64>,
}

impl BoolVec {
    fn unknown(len: usize) -> BoolVec {
        let words = len.div_ceil(64);
        BoolVec {
            truth: vec![0; words],
            known: vec![0; words],
        }
    }

    fn splat(len: usize, v: Option<bool>) -> BoolVec {
        let mut b = BoolVec::unknown(len);
        match v {
            Some(true) => {
                b.truth.fill(!0);
                b.known.fill(!0);
            }
            Some(false) => b.known.fill(!0),
            None => {}
        }
        b
    }

    /// Set row `i`'s value. Only valid on rows still at the initial
    /// `None`; kernels write each row exactly once.
    #[inline]
    fn set(&mut self, i: usize, v: Option<bool>) {
        match v {
            Some(true) => {
                self.truth[i / 64] |= 1 << (i % 64);
                self.known[i / 64] |= 1 << (i % 64);
            }
            Some(false) => self.known[i / 64] |= 1 << (i % 64),
            None => {}
        }
    }

    #[inline]
    fn get(&self, i: usize) -> Option<bool> {
        if self.known[i / 64] >> (i % 64) & 1 == 0 {
            None
        } else {
            Some(self.truth[i / 64] >> (i % 64) & 1 == 1)
        }
    }

    /// Kleene NOT: flips known bits, leaves NULLs NULL.
    fn not(mut self) -> BoolVec {
        for (t, k) in self.truth.iter_mut().zip(&self.known) {
            *t = !*t & *k;
        }
        self
    }

    /// Kleene AND: false dominates NULL.
    fn and(mut self, o: &BoolVec) -> BoolVec {
        for i in 0..self.truth.len() {
            let t = self.truth[i] & o.truth[i];
            self.known[i] = t | (self.known[i] & !self.truth[i]) | (o.known[i] & !o.truth[i]);
            self.truth[i] = t;
        }
        self
    }

    /// Kleene OR: true dominates NULL.
    fn or(mut self, o: &BoolVec) -> BoolVec {
        for i in 0..self.truth.len() {
            let t = self.truth[i] | o.truth[i];
            self.known[i] = t | ((self.known[i] & !self.truth[i]) & (o.known[i] & !o.truth[i]));
            self.truth[i] = t;
        }
        self
    }
}

/// A decorrelated EXISTS hash set, typed by its key columns.
enum KeySet {
    Int(HashSet<i64>),
    Text(HashSet<String>),
    Multi(HashSet<Vec<Value>>),
}

/// Compiled EXISTS kernel: probe columns of the enclosing table against
/// a set of key tuples from the subquery table. `set` is `None` until
/// [`build_sets`] runs (innermost residuals first).
struct ExistsSpec<'a> {
    /// The subquery AST node — its address keys the profile tree, so
    /// EXPLAIN ANALYZE output lines up with the row engine's.
    node: &'a SelectStmt,
    probe_cols: Vec<usize>,
    sub_tref: &'a TableRef,
    sub_table: &'a Table,
    key_cols: Vec<usize>,
    residual: Option<Box<Spec<'a>>>,
    set: Option<KeySet>,
}

/// A predicate compiled to per-column batch kernels. Every variant
/// reproduces the row engine's three-valued result for its `Expr`
/// shape; expressions with no matching variant reject compilation.
enum Spec<'a> {
    Const(Option<bool>),
    CmpIntLit {
        col: usize,
        op: CompareOp,
        lit: i64,
    },
    CmpTextLit {
        col: usize,
        op: CompareOp,
        lit: String,
    },
    /// Column compared to a non-NULL literal of the other type:
    /// `=` is false, `<>` true, ordered comparisons unknown.
    CmpMismatch {
        col: usize,
        op: CompareOp,
    },
    CmpIntCols {
        op: CompareOp,
        l: usize,
        r: usize,
    },
    CmpTextCols {
        op: CompareOp,
        l: usize,
        r: usize,
    },
    CmpMismatchCols {
        op: CompareOp,
        l: usize,
        r: usize,
    },
    IsNull {
        col: usize,
        negated: bool,
    },
    InInt {
        col: usize,
        /// Sorted for binary search.
        values: Vec<i64>,
        has_null_items: bool,
        has_any_items: bool,
        negated: bool,
    },
    InText {
        col: usize,
        values: Vec<String>,
        has_null_items: bool,
        has_any_items: bool,
        negated: bool,
    },
    /// `col LIKE 'text'`, or with `pattern_in_column` set,
    /// `'text' LIKE col` (a column of patterns matched against one
    /// string, as URI routing does).
    Like {
        col: usize,
        text: String,
        pattern_in_column: bool,
        negated: bool,
    },
    Not(Box<Spec<'a>>),
    And(Box<Spec<'a>>, Box<Spec<'a>>),
    Or(Box<Spec<'a>>, Box<Spec<'a>>),
    Exists(ExistsSpec<'a>),
}

/// One projection item after compilation.
enum Item {
    Col(usize),
    Lit(Value),
}

/// Sort key source: a projected output column or a table column.
enum OrderKey {
    Output(usize),
    Table(usize),
}

struct Compiled<'a> {
    tref: &'a TableRef,
    table: &'a Table,
    items: Vec<Item>,
    columns: Vec<String>,
    kernel: Option<Spec<'a>>,
    order: Vec<(OrderKey, bool)>,
}

/// Run `stmt` on the columnar engine if its shape is eligible.
/// `Ok(None)` means "not handled here" — the caller falls back to the
/// row engine, which also owns every runtime error the statement could
/// raise (unknown columns, unbound parameters, type errors), so
/// compilation rejects any expression that might error per-row.
pub(crate) fn try_select(
    db: &Database,
    stmt: &SelectStmt,
    params: &[Value],
    opts: ExecOptions,
) -> Result<Option<QueryResult>, DbError> {
    // Cheap pre-flight before any kernel compilation: resolve the one
    // table and count candidate rows. Over a few candidates the row
    // engine's correlated loop beats building hash sets, so an
    // EXISTS statement over few candidates declines *here* — compiling
    // kernels first and then declining would charge every query over a
    // one-row outer table (a per-policy match) the full compile cost
    // for nothing.
    if stmt.from.len() != 1 || !stmt.group_by.is_empty() {
        return Ok(None);
    }
    let tref = &stmt.from[0];
    let Some(table) = db.table(&tref.table) else {
        return Ok(None);
    };
    let probe = exec::probe_candidates(db, tref, table, stmt.filter.as_ref(), params, opts)?;
    let candidates = probe.as_ref().map_or(table.len(), |p| p.ids.len());
    if stmt.filter.as_ref().is_some_and(filter_has_exists)
        && (candidates as u64) <= u64::from(opts.decorrelate_after.unwrap_or(EXISTS_MIN_CANDIDATES))
    {
        return Ok(None);
    }
    let Some(mut c) = compile(db, stmt, params) else {
        return Ok(None);
    };

    // Committed: from here on, stats and the profile are ours.
    let profiler = opts.profile.then(Collector::new);
    let addr = stmt as *const SelectStmt as usize;
    let select_start = profiler.as_ref().map(|p| p.enter(addr, "Select"));
    if let Some(kernel) = &mut c.kernel {
        build_sets(kernel, profiler.as_ref());
    }
    match &probe {
        Some(_) => exec::bump(|s| s.index_probes += 1),
        None => exec::bump(|s| s.seq_scans += 1),
    }

    let table = c.table;
    let mut selected: Vec<usize> = Vec::new();
    let scan_start = profiler.as_ref().map(|_| Instant::now());
    let mut visited = 0u64;
    let mut scan = |rows: Rows<'_>| {
        exec::bump(|s| s.rows_scanned += rows.len() as u64);
        visited += rows.len() as u64;
        match &c.kernel {
            Some(kernel) => {
                let filter_start = profiler.as_ref().map(|_| Instant::now());
                let sel = eval(kernel, table, rows, profiler.as_ref());
                let before = selected.len();
                for k in 0..rows.len() {
                    if sel.get(k) == Some(true) {
                        selected.push(rows.id(k));
                    }
                }
                if let Some(p) = &profiler {
                    p.record_filter_batch(
                        rows.len() as u64,
                        (selected.len() - before) as u64,
                        filter_start.expect("profiling on").elapsed(),
                    );
                }
            }
            None => selected.extend((0..rows.len()).map(|k| rows.id(k))),
        }
    };
    match &probe {
        Some(p) => p.ids.chunks(BATCH).for_each(|ids| scan(Rows::Ids(ids))),
        None => table.chunks().for_each(scan),
    }
    if let Some(p) = &profiler {
        let planned = if probe.is_some() {
            None
        } else {
            Some(table.len() as u64)
        };
        let probe_label = probe.as_ref().and_then(|pr| pr.label.clone());
        let tref = c.tref;
        p.record_level(
            0,
            "columnar_scan",
            planned,
            visited,
            scan_start.expect("profiling on").elapsed(),
            || match probe_label {
                Some(l) => format!("columnar {l}"),
                None => scan_label("columnar seq scan", tref),
            },
        );
    }

    let mut rows = if stmt.distinct {
        let distinct_start = profiler.as_ref().map(|_| Instant::now());
        let before = selected.len() as u64;
        let rows = project_distinct(table, &c.items, &selected);
        if let Some(p) = &profiler {
            p.record_distinct(
                before,
                rows.len() as u64,
                distinct_start.expect("profiling on").elapsed(),
            );
        }
        rows
    } else if !c.order.is_empty() {
        // Sort row-ids by their keys before projecting; table-column
        // keys stay readable even when not projected.
        let mut keyed: Vec<(Vec<Value>, usize)> = selected
            .iter()
            .map(|&id| {
                let keys = c
                    .order
                    .iter()
                    .map(|(key, _)| match key {
                        OrderKey::Output(ci) => match &c.items[*ci] {
                            Item::Col(col) => table.value(id, *col),
                            Item::Lit(v) => v.clone(),
                        },
                        OrderKey::Table(col) => table.value(id, *col),
                    })
                    .collect();
                (keys, id)
            })
            .collect();
        sort_keyed(&mut keyed, &c.order);
        keyed
            .iter()
            .map(|&(_, id)| project(table, &c.items, id))
            .collect()
    } else {
        selected
            .iter()
            .map(|&id| project(table, &c.items, id))
            .collect()
    };
    if stmt.distinct && !c.order.is_empty() {
        // After DISTINCT only output-column keys exist (compile
        // guarantees it); sort the deduplicated rows directly.
        rows.sort_by(|a, b| {
            for (key, desc) in &c.order {
                let OrderKey::Output(ci) = key else {
                    unreachable!("compile rejects table keys after DISTINCT");
                };
                let ord = a[*ci].total_cmp(&b[*ci]);
                let ord = if *desc { ord.reverse() } else { ord };
                if ord != Ordering::Equal {
                    return ord;
                }
            }
            Ordering::Equal
        });
    }
    if let Some(limit) = stmt.limit {
        rows.truncate(limit);
    }

    if let Some(p) = &profiler {
        p.exit(addr, select_start.expect("profiling on"), rows.len() as u64);
        if let Some(profile) = p.finish(addr) {
            exec::set_last_profile(profile);
        }
    }
    Ok(Some(QueryResult {
        columns: c.columns,
        rows,
    }))
}

/// Whether `stmt` would run on the columnar engine (used by EXPLAIN to
/// annotate the plan). Parameter-bearing statements report `false` —
/// their values are only known at execution.
pub(crate) fn shape_eligible(db: &Database, stmt: &SelectStmt) -> bool {
    compile(db, stmt, &[]).is_some()
}

fn scan_label(prefix: &str, tref: &TableRef) -> String {
    if tref.binding_name() == tref.table {
        format!("{prefix} {}", tref.table)
    } else {
        format!("{prefix} {} AS {}", tref.table, tref.binding_name())
    }
}

fn project(table: &Table, items: &[Item], id: usize) -> Vec<Value> {
    items
        .iter()
        .map(|item| match item {
            Item::Col(col) => table.value(id, *col),
            Item::Lit(v) => v.clone(),
        })
        .collect()
}

/// DISTINCT over the projected rows, first occurrence wins. The common
/// corpus-sweep shape (`SELECT DISTINCT policy_id`) dedups through the
/// typed column vector without building `Vec<Value>` keys.
fn project_distinct(table: &Table, items: &[Item], selected: &[usize]) -> Vec<Vec<Value>> {
    if let [Item::Col(col)] = items {
        let column = &table.columns()[*col];
        let mut rows = Vec::new();
        let mut null_seen = false;
        if let Some(data) = column.ints() {
            let mut seen: HashSet<i64> = HashSet::new();
            for &id in selected {
                match data.get(id) {
                    None if !null_seen => {
                        null_seen = true;
                        rows.push(vec![Value::Null]);
                    }
                    Some(&v) if seen.insert(v) => rows.push(vec![Value::Int(v)]),
                    _ => {}
                }
            }
        } else if let Some(data) = column.texts() {
            let mut seen: HashSet<&str> = HashSet::new();
            for &id in selected {
                match data.get(id) {
                    None if !null_seen => {
                        null_seen = true;
                        rows.push(vec![Value::Null]);
                    }
                    Some(v) if seen.insert(v) => rows.push(vec![Value::Text(v.to_owned())]),
                    _ => {}
                }
            }
        }
        return rows;
    }
    let mut seen: HashSet<Vec<Value>> = HashSet::with_capacity(selected.len());
    let mut rows = Vec::new();
    for &id in selected {
        let row = project(table, items, id);
        if seen.insert(row.clone()) {
            rows.push(row);
        }
    }
    rows
}

/// Stable sort of `(keys, id)` pairs per the compiled ORDER BY. The
/// stable sort preserves selection order for equal keys, matching the
/// row engine's explicit original-index tiebreak.
fn sort_keyed(keyed: &mut [(Vec<Value>, usize)], order: &[(OrderKey, bool)]) {
    keyed.sort_by(|(a, _), (b, _)| {
        for ((ka, kb), (_, desc)) in a.iter().zip(b).zip(order) {
            let ord = ka.total_cmp(kb);
            let ord = if *desc { ord.reverse() } else { ord };
            if ord != Ordering::Equal {
                return ord;
            }
        }
        Ordering::Equal
    });
}

// ---------------------------------------------------------------------
// Compilation
// ---------------------------------------------------------------------

fn compile<'a>(db: &'a Database, stmt: &'a SelectStmt, params: &[Value]) -> Option<Compiled<'a>> {
    if stmt.from.len() != 1 || !stmt.group_by.is_empty() {
        return None;
    }
    let tref = &stmt.from[0];
    let table = db.table(&tref.table)?;
    let binding = tref.binding_name();

    let mut items = Vec::with_capacity(stmt.items.len());
    for item in &stmt.items {
        let SelectItem::Expr { expr, .. } = item else {
            return None; // wildcard and COUNT stay on the row engine
        };
        match expr {
            Expr::Column { qualifier, name } => {
                items.push(Item::Col(resolve_col(
                    table,
                    binding,
                    qualifier.as_deref(),
                    name,
                )?));
            }
            Expr::Literal(v) => items.push(Item::Lit(v.clone())),
            Expr::Parameter { index, .. } => items.push(Item::Lit(params.get(*index)?.clone())),
            _ => return None,
        }
    }
    let columns = exec::output_columns(stmt, &[(tref, table)]);

    let kernel = match &stmt.filter {
        Some(f) => Some(compile_pred(db, f, binding, table, params, &Rebind::new())?),
        None => None,
    };

    let mut order = Vec::with_capacity(stmt.order_by.len());
    for (expr, desc) in &stmt.order_by {
        let key = match expr {
            Expr::Column {
                qualifier: None,
                name,
            } => match columns.iter().position(|c| c.eq_ignore_ascii_case(name)) {
                Some(ci) => OrderKey::Output(ci),
                None if !stmt.distinct => OrderKey::Table(table.schema.column_index(name)?),
                None => return None, // row engine raises the DISTINCT error
            },
            Expr::Column {
                qualifier: Some(q),
                name,
            } if !stmt.distinct && q.eq_ignore_ascii_case(binding) => {
                OrderKey::Table(table.schema.column_index(name)?)
            }
            _ => return None,
        };
        order.push((key, *desc));
    }

    Some(Compiled {
        tref,
        table,
        items,
        columns,
        kernel,
        order,
    })
}

fn resolve_col(table: &Table, binding: &str, qualifier: Option<&str>, name: &str) -> Option<usize> {
    match qualifier {
        Some(q) if !q.eq_ignore_ascii_case(binding) => None,
        _ => table.schema.column_index(name),
    }
}

/// Does a filter expression contain an EXISTS subquery anywhere? A
/// cheap AST walk used by [`try_select`]'s pre-flight: whenever an
/// EXISTS appears in the filter, a committed kernel would contain an
/// [`Spec::Exists`] too (compilation either keeps every node or
/// declines the whole statement), so walking the AST decides the
/// decorrelation-threshold decline without compiling anything.
fn filter_has_exists(expr: &Expr) -> bool {
    match expr {
        Expr::Exists(_) => true,
        Expr::Not(a) => filter_has_exists(a),
        Expr::And(a, b) | Expr::Or(a, b) => filter_has_exists(a) || filter_has_exists(b),
        _ => false,
    }
}

/// A compare/IN/LIKE operand resolved at compile time: a column of the
/// current table or a constant value.
enum Side {
    Col(usize),
    Lit(Value),
}

fn side(expr: &Expr, binding: &str, table: &Table, params: &[Value]) -> Option<Side> {
    match expr {
        Expr::Column { qualifier, name } => Some(Side::Col(resolve_col(
            table,
            binding,
            qualifier.as_deref(),
            name,
        )?)),
        Expr::Literal(v) => Some(Side::Lit(v.clone())),
        Expr::Parameter { index, .. } => Some(Side::Lit(params.get(*index)?.clone())),
        _ => None,
    }
}

fn col_type(table: &Table, col: usize) -> DataType {
    table.schema.columns[col].data_type
}

fn flip(op: CompareOp) -> CompareOp {
    match op {
        CompareOp::Eq => CompareOp::Eq,
        CompareOp::Neq => CompareOp::Neq,
        CompareOp::Lt => CompareOp::Gt,
        CompareOp::Le => CompareOp::Ge,
        CompareOp::Gt => CompareOp::Lt,
        CompareOp::Ge => CompareOp::Le,
    }
}

fn cmp_ord(op: CompareOp, ord: Ordering) -> bool {
    match op {
        CompareOp::Eq => ord == Ordering::Equal,
        CompareOp::Neq => ord != Ordering::Equal,
        CompareOp::Lt => ord == Ordering::Less,
        CompareOp::Le => ord != Ordering::Greater,
        CompareOp::Gt => ord == Ordering::Greater,
        CompareOp::Ge => ord != Ordering::Less,
    }
}

fn fold_cmp(op: CompareOp, a: &Value, b: &Value) -> Option<bool> {
    match op {
        CompareOp::Eq => a.sql_eq(b),
        CompareOp::Neq => a.sql_eq(b).map(|x| !x),
        _ => a.sql_cmp(b).map(|o| cmp_ord(op, o)),
    }
}

fn cmp_col_lit<'a>(table: &Table, col: usize, op: CompareOp, lit: &Value) -> Spec<'a> {
    match (col_type(table, col), lit) {
        (_, Value::Null) => Spec::Const(None),
        (DataType::Int, Value::Int(i)) => Spec::CmpIntLit { col, op, lit: *i },
        (DataType::Text, Value::Text(s)) => Spec::CmpTextLit {
            col,
            op,
            lit: s.clone(),
        },
        _ => Spec::CmpMismatch { col, op },
    }
}

fn compile_pred<'a>(
    db: &'a Database,
    expr: &'a Expr,
    binding: &str,
    table: &'a Table,
    params: &[Value],
    rebind: &Rebind,
) -> Option<Spec<'a>> {
    match expr {
        Expr::Compare { op, left, right } => {
            let l = side(left, binding, table, params)?;
            let r = side(right, binding, table, params)?;
            Some(match (l, r) {
                (Side::Col(c), Side::Lit(v)) => cmp_col_lit(table, c, *op, &v),
                (Side::Lit(v), Side::Col(c)) => cmp_col_lit(table, c, flip(*op), &v),
                (Side::Lit(a), Side::Lit(b)) => Spec::Const(fold_cmp(*op, &a, &b)),
                (Side::Col(l), Side::Col(r)) => match (col_type(table, l), col_type(table, r)) {
                    (DataType::Int, DataType::Int) => Spec::CmpIntCols { op: *op, l, r },
                    (DataType::Text, DataType::Text) => Spec::CmpTextCols { op: *op, l, r },
                    _ => Spec::CmpMismatchCols { op: *op, l, r },
                },
            })
        }
        Expr::And(a, b) => Some(Spec::And(
            Box::new(compile_pred(db, a, binding, table, params, rebind)?),
            Box::new(compile_pred(db, b, binding, table, params, rebind)?),
        )),
        Expr::Or(a, b) => Some(Spec::Or(
            Box::new(compile_pred(db, a, binding, table, params, rebind)?),
            Box::new(compile_pred(db, b, binding, table, params, rebind)?),
        )),
        Expr::Not(a) => Some(Spec::Not(Box::new(compile_pred(
            db, a, binding, table, params, rebind,
        )?))),
        Expr::IsNull { expr, negated } => match side(expr, binding, table, params)? {
            Side::Col(col) => Some(Spec::IsNull {
                col,
                negated: *negated,
            }),
            Side::Lit(v) => Some(Spec::Const(Some(v.is_null() != *negated))),
        },
        Expr::InList {
            expr,
            list,
            negated,
        } => {
            let mut item_values = Vec::with_capacity(list.len());
            for item in list {
                match side(item, binding, table, params)? {
                    Side::Lit(v) => item_values.push(v),
                    Side::Col(_) => return None,
                }
            }
            compile_in_list(
                table,
                side(expr, binding, table, params)?,
                item_values,
                *negated,
            )
        }
        Expr::Like {
            expr,
            pattern,
            negated,
        } => {
            let pat = match side(pattern, binding, table, params)? {
                Side::Lit(Value::Null) => return Some(Spec::Const(None)),
                Side::Lit(Value::Text(p)) => p,
                Side::Col(col) if col_type(table, col) == DataType::Text => {
                    return match side(expr, binding, table, params)? {
                        Side::Lit(Value::Null) => Some(Spec::Const(None)),
                        Side::Lit(Value::Text(text)) => Some(Spec::Like {
                            col,
                            text,
                            pattern_in_column: true,
                            negated: *negated,
                        }),
                        // A column or Int subject can raise the row
                        // engine's type error per row — fall back.
                        _ => None,
                    };
                }
                // Non-text patterns can raise the row engine's type
                // error per row — fall back.
                _ => return None,
            };
            match side(expr, binding, table, params)? {
                Side::Col(col) if col_type(table, col) == DataType::Text => Some(Spec::Like {
                    col,
                    text: pat,
                    pattern_in_column: false,
                    negated: *negated,
                }),
                Side::Lit(Value::Null) => Some(Spec::Const(None)),
                Side::Lit(Value::Text(s)) => {
                    Some(Spec::Const(Some(like_match(&pat, &s) != *negated)))
                }
                // Int column / Int literal: the row engine raises
                // "LIKE requires text operands" for non-null values.
                _ => None,
            }
        }
        Expr::Exists(sub) => Some(Spec::Exists(compile_exists(
            db, sub, binding, table, params, rebind,
        )?)),
        Expr::Literal(Value::Int(i)) => Some(Spec::Const(Some(*i != 0))),
        Expr::Literal(Value::Null) => Some(Spec::Const(None)),
        // Text literals, bare columns, bare parameters: the row engine
        // raises "expression is not a predicate".
        _ => None,
    }
}

fn compile_in_list<'a>(
    table: &Table,
    target: Side,
    items: Vec<Value>,
    negated: bool,
) -> Option<Spec<'a>> {
    let has_any_items = !items.is_empty();
    let has_null_items = items.iter().any(Value::is_null);
    match target {
        Side::Lit(v) => {
            // Constant-fold with the row engine's exact scan order.
            let mut saw_null = false;
            let mut found = false;
            for item in &items {
                match v.sql_eq(item) {
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
            Some(Spec::Const(if negated { base.map(|b| !b) } else { base }))
        }
        Side::Col(col) => match col_type(table, col) {
            DataType::Int => {
                let mut values: Vec<i64> = items
                    .iter()
                    .filter_map(|v| match v {
                        Value::Int(i) => Some(*i),
                        _ => None,
                    })
                    .collect();
                values.sort_unstable();
                Some(Spec::InInt {
                    col,
                    values,
                    has_null_items,
                    has_any_items,
                    negated,
                })
            }
            DataType::Text => {
                let mut values: Vec<String> = items
                    .into_iter()
                    .filter_map(|v| match v {
                        Value::Text(s) => Some(s),
                        _ => None,
                    })
                    .collect();
                values.sort_unstable();
                Some(Spec::InText {
                    col,
                    values,
                    has_null_items,
                    has_any_items,
                    negated,
                })
            }
        },
    }
}

/// Out-of-scope qualified columns a nested EXISTS probe may still
/// reach: `(qualifier, column)` of a skipped-over binding, lowercased,
/// mapped to the column of the *current* scope's table that the
/// enclosing key equalities prove equal for every reachable row.
type Rebind = HashMap<(String, String), usize>;

fn rebind_key(q: &str, n: &str) -> (String, String) {
    (q.to_ascii_lowercase(), n.to_ascii_lowercase())
}

fn compile_exists<'a>(
    db: &'a Database,
    sub: &'a SelectStmt,
    outer_binding: &str,
    outer_table: &Table,
    params: &[Value],
    rebind: &Rebind,
) -> Option<ExistsSpec<'a>> {
    let (keys, probes, residual) = exec::decorrelation_plan_relaxed(sub)?;
    if sub.from.len() != 1 {
        return None;
    }
    let sub_tref = &sub.from[0];
    let sub_table = db.table(&sub_tref.table)?;
    let sub_binding = sub_tref.binding_name();

    // Probe expressions must be plain columns of the immediately
    // enclosing table (decorrelation already rejected unqualified
    // references and cross-scope mixing) — or references past it that
    // the enclosing scope's own key equalities pin to an in-scope
    // column (`rebind`). The substitution is sound because a set row
    // can only match at probe time when its key tuple equals the
    // probed outer values, which makes the rebound column equal to
    // the skipped-over binding's value for every reachable row;
    // unreachable rows' set membership is irrelevant either way.
    let mut probe_cols = Vec::with_capacity(probes.len());
    for p in &probes {
        let Expr::Column {
            qualifier: Some(q),
            name,
        } = p
        else {
            return None;
        };
        let col = if q.eq_ignore_ascii_case(outer_binding) {
            outer_table.schema.column_index(name)?
        } else {
            *rebind.get(&rebind_key(q, name))?
        };
        probe_cols.push(col);
    }
    let mut key_cols = Vec::with_capacity(keys.len());
    for k in keys {
        let Expr::Column {
            qualifier: Some(q),
            name,
        } = k
        else {
            return None;
        };
        if !q.eq_ignore_ascii_case(sub_binding) {
            return None;
        }
        key_cols.push(sub_table.schema.column_index(name)?);
    }

    let residual = if residual.is_empty() {
        None
    } else {
        // What this scope's key equalities make reachable for nested
        // EXISTS probes: each probe's original qualified name maps to
        // its key column, and anything the *outer* scope could rebind
        // that lands on one of our probe columns composes through.
        let mut child_rebind = Rebind::new();
        for (i, p) in probes.iter().enumerate() {
            if let Expr::Column {
                qualifier: Some(q),
                name,
            } = p
            {
                child_rebind.insert(rebind_key(q, name), key_cols[i]);
            }
        }
        for ((q, n), c) in rebind {
            if let Some(i) = probe_cols.iter().position(|pc| pc == c) {
                child_rebind
                    .entry((q.clone(), n.clone()))
                    .or_insert(key_cols[i]);
            }
        }
        let mut conjuncts = residual.into_iter();
        let mut spec = compile_pred(
            db,
            conjuncts.next()?,
            sub_binding,
            sub_table,
            params,
            &child_rebind,
        )?;
        for c in conjuncts {
            spec = Spec::And(
                Box::new(spec),
                Box::new(compile_pred(
                    db,
                    c,
                    sub_binding,
                    sub_table,
                    params,
                    &child_rebind,
                )?),
            );
        }
        Some(Box::new(spec))
    };

    Some(ExistsSpec {
        node: sub,
        probe_cols,
        sub_tref,
        sub_table,
        key_cols,
        residual,
        set: None,
    })
}

// ---------------------------------------------------------------------
// EXISTS set builds
// ---------------------------------------------------------------------

/// Build every EXISTS hash set in the kernel tree, innermost residuals
/// first so nested EXISTS probe already-built sets during their
/// enclosing build scan.
fn build_sets(spec: &mut Spec<'_>, prof: Option<&Collector>) {
    match spec {
        Spec::Not(a) => build_sets(a, prof),
        Spec::And(a, b) | Spec::Or(a, b) => {
            build_sets(a, prof);
            build_sets(b, prof);
        }
        Spec::Exists(ek) => {
            let addr = ek.node as *const SelectStmt as usize;
            let start = prof.map(|p| p.enter(addr, "Exists"));
            if let Some(res) = &mut ek.residual {
                build_sets(res, prof);
            }
            let set = build_one_set(ek, prof);
            ek.set = Some(set);
            if let Some(p) = prof {
                p.note_exists(ExistsStrategy::Build);
                p.exit(addr, start.expect("profiling on"), 0);
            }
        }
        _ => {}
    }
}

fn new_key_set(table: &Table, key_cols: &[usize]) -> KeySet {
    if let [col] = key_cols {
        match col_type(table, *col) {
            DataType::Int => KeySet::Int(HashSet::new()),
            DataType::Text => KeySet::Text(HashSet::new()),
        }
    } else {
        KeySet::Multi(HashSet::new())
    }
}

/// One columnar scan of the subquery table: evaluate the residual per
/// chunk, insert the key tuples of passing rows (NULL keys never
/// match, so they are skipped at build).
fn build_one_set(ek: &ExistsSpec<'_>, prof: Option<&Collector>) -> KeySet {
    let table = ek.sub_table;
    exec::bump(|s| {
        s.exists_builds += 1;
        s.seq_scans += 1;
    });
    let mut set = new_key_set(table, &ek.key_cols);
    let scan_start = prof.map(|_| Instant::now());
    for rows in table.chunks() {
        exec::bump(|s| s.rows_scanned += rows.len() as u64);
        let sel = ek.residual.as_ref().map(|r| eval(r, table, rows, prof));
        let pass = |k: usize| sel.as_ref().is_none_or(|sel| sel.get(k) == Some(true));
        insert_keys(&mut set, table, &ek.key_cols, rows, pass);
    }
    if let Some(p) = prof {
        p.record_level(
            0,
            "columnar_scan",
            Some(table.len() as u64),
            table.len() as u64,
            scan_start.expect("profiling on").elapsed(),
            || scan_label("columnar build scan", ek.sub_tref),
        );
    }
    set
}

/// Insert the keys of the batch's rows at the positions `pass` accepts.
fn insert_keys(
    set: &mut KeySet,
    table: &Table,
    key_cols: &[usize],
    rows: Rows<'_>,
    pass: impl Fn(usize) -> bool,
) {
    match set {
        KeySet::Int(s) => ints(table, key_cols[0]).each(rows, |k, v| {
            if let Some(&v) = v.filter(|_| pass(k)) {
                s.insert(v);
            }
        }),
        KeySet::Text(s) => texts(table, key_cols[0]).each(rows, |k, v| {
            if let Some(v) = v.filter(|_| pass(k)) {
                s.insert(v.to_owned());
            }
        }),
        KeySet::Multi(s) => {
            // Gather only the passing rows' cells.
            let ids: Vec<usize> = (0..rows.len())
                .filter(|&k| pass(k))
                .map(|k| rows.id(k))
                .collect();
            let cells = gather(table, key_cols, Rows::Ids(&ids));
            for k in 0..ids.len() {
                let mut key = Vec::with_capacity(key_cols.len());
                if tuple_into(&cells, k, &mut key) {
                    s.insert(key);
                }
            }
        }
    }
}

/// One column's cells for a batch, borrowed from the table.
enum Gathered<'t> {
    Int(Vec<Option<i64>>),
    Text(Vec<Option<&'t str>>),
}

/// The cells of `cols` for a batch, read a column at a time (a
/// full-scan batch resolves each chunk once).
fn gather<'t>(table: &'t Table, cols: &[usize], rows: Rows<'_>) -> Vec<Gathered<'t>> {
    cols.iter()
        .map(|&col| match &table.columns()[col] {
            Column::Int(c) => {
                let mut cells = Vec::with_capacity(rows.len());
                c.each(rows, |_, v| cells.push(v.copied()));
                Gathered::Int(cells)
            }
            Column::Text(c) => {
                let mut cells = Vec::with_capacity(rows.len());
                c.each(rows, |_, v| cells.push(v));
                Gathered::Text(cells)
            }
        })
        .collect()
}

/// Row `k`'s tuple over the gathered columns into `key` (cleared
/// first); false when a cell is NULL, since a NULL key never matches.
fn tuple_into(cells: &[Gathered<'_>], k: usize, key: &mut Vec<Value>) -> bool {
    key.clear();
    for column in cells {
        let cell = match column {
            Gathered::Int(v) => v[k].map(Value::Int),
            Gathered::Text(v) => v[k].map(|s| Value::Text(s.to_string())),
        };
        match cell {
            Some(cell) => key.push(cell),
            None => return false,
        }
    }
    true
}

// ---------------------------------------------------------------------
// Batch evaluation
// ---------------------------------------------------------------------

fn ints(table: &Table, col: usize) -> &Chunked<Vec<i64>> {
    table.columns()[col].ints().expect("typed by schema")
}

fn texts(table: &Table, col: usize) -> &Chunked<TextCells> {
    table.columns()[col].texts().expect("typed by schema")
}

fn eval(spec: &Spec<'_>, table: &Table, rows: Rows<'_>, prof: Option<&Collector>) -> BoolVec {
    match spec {
        Spec::Const(v) => BoolVec::splat(rows.len(), *v),
        Spec::Not(a) => eval(a, table, rows, prof).not(),
        Spec::And(a, b) => eval(a, table, rows, prof).and(&eval(b, table, rows, prof)),
        Spec::Or(a, b) => eval(a, table, rows, prof).or(&eval(b, table, rows, prof)),
        Spec::Exists(ek) => eval_exists(ek, table, rows, prof),
        kernel => eval_kernel(kernel, table, rows),
    }
}

/// A kernel over one column or a column pair.
fn eval_kernel(spec: &Spec<'_>, table: &Table, rows: Rows<'_>) -> BoolVec {
    let n = rows.len();
    let mut out = BoolVec::unknown(n);
    match spec {
        Spec::CmpIntLit { col, op, lit } => ints(table, *col).each(rows, |k, v| {
            if let Some(v) = v {
                out.set(k, Some(cmp_ord(*op, v.cmp(lit))));
            }
        }),
        Spec::CmpTextLit { col, op, lit } => texts(table, *col).each(rows, |k, v| {
            if let Some(v) = v {
                out.set(k, Some(cmp_ord(*op, v.cmp(lit.as_str()))));
            }
        }),
        Spec::CmpMismatch { col, op } => {
            let c = &table.columns()[*col];
            if let Some(v) = mismatch_truth(*op) {
                for k in 0..n {
                    if c.is_valid(rows.id(k)) {
                        out.set(k, Some(v));
                    }
                }
            }
        }
        Spec::CmpIntCols { op, l, r } => {
            let (dl, dr) = (ints(table, *l), ints(table, *r));
            for k in 0..n {
                let id = rows.id(k);
                if let (Some(a), Some(b)) = (dl.get(id), dr.get(id)) {
                    out.set(k, Some(cmp_ord(*op, a.cmp(b))));
                }
            }
        }
        Spec::CmpTextCols { op, l, r } => {
            let (dl, dr) = (texts(table, *l), texts(table, *r));
            for k in 0..n {
                let id = rows.id(k);
                if let (Some(a), Some(b)) = (dl.get(id), dr.get(id)) {
                    out.set(k, Some(cmp_ord(*op, a.cmp(b))));
                }
            }
        }
        Spec::CmpMismatchCols { op, l, r } => {
            let (cl, cr) = (&table.columns()[*l], &table.columns()[*r]);
            if let Some(v) = mismatch_truth(*op) {
                for k in 0..n {
                    let id = rows.id(k);
                    if cl.is_valid(id) && cr.is_valid(id) {
                        out.set(k, Some(v));
                    }
                }
            }
        }
        Spec::IsNull { col, negated } => {
            let c = &table.columns()[*col];
            for k in 0..n {
                out.set(k, Some(c.is_valid(rows.id(k)) == *negated));
            }
        }
        Spec::InInt {
            col,
            values,
            has_null_items,
            has_any_items,
            negated,
        } => ints(table, *col).each(rows, |k, v| {
            let hit = v.map(|v| values.binary_search(v).is_ok());
            let base = in_truth(hit, *has_null_items, *has_any_items);
            out.set(k, if *negated { base.map(|b| !b) } else { base });
        }),
        Spec::InText {
            col,
            values,
            has_null_items,
            has_any_items,
            negated,
        } => texts(table, *col).each(rows, |k, v| {
            let hit = v.map(|s| values.binary_search_by(|v| v.as_str().cmp(s)).is_ok());
            let base = in_truth(hit, *has_null_items, *has_any_items);
            out.set(k, if *negated { base.map(|b| !b) } else { base });
        }),
        Spec::Like {
            col,
            text,
            pattern_in_column,
            negated,
        } => texts(table, *col).each(rows, |k, v| {
            if let Some(v) = v {
                let hit = if *pattern_in_column {
                    like_match(v, text)
                } else {
                    like_match(text, v)
                };
                out.set(k, Some(hit != *negated));
            }
        }),
        Spec::Const(_) | Spec::Not(_) | Spec::And(..) | Spec::Or(..) | Spec::Exists(_) => {
            unreachable!("eval handles constants and combinators")
        }
    }
    out
}

/// A column compared to a non-NULL value of the other type: `=` is
/// false, `<>` true, ordered comparisons unknown.
fn mismatch_truth(op: CompareOp) -> Option<bool> {
    match op {
        CompareOp::Eq => Some(false),
        CompareOp::Neq => Some(true),
        _ => None,
    }
}

/// `x IN (…)` before negation, from whether a non-NULL `x` is among the
/// values (`None` for a NULL `x`): a miss is unknown when the list
/// holds a NULL, and a NULL `x` is unknown unless the list is empty.
fn in_truth(hit: Option<bool>, has_null_items: bool, has_any_items: bool) -> Option<bool> {
    match hit {
        Some(true) => Some(true),
        Some(false) if has_null_items => None,
        Some(false) => Some(false),
        None if has_any_items => None,
        None => Some(false),
    }
}

/// Probe the decorrelated set for a batch of enclosing-table rows.
/// NULL probe values and type-mismatched probes never match (the set
/// holds only non-NULL keys of the subquery column's type).
fn eval_exists(
    ek: &ExistsSpec<'_>,
    table: &Table,
    rows: Rows<'_>,
    prof: Option<&Collector>,
) -> BoolVec {
    let set = ek.set.as_ref().expect("sets built before eval");
    let n = rows.len();
    exec::bump(|s| {
        s.subqueries += n as u64;
        s.exists_probes += n as u64;
    });
    let addr = ek.node as *const SelectStmt as usize;
    let start = prof.map(|p| p.enter(addr, "Exists"));
    let mut out = BoolVec::unknown(n);
    let mut hits = 0u64;
    let mut record = |k: usize, hit: bool| {
        hits += hit as u64;
        out.set(k, Some(hit));
    };
    let probe = &table.columns()[ek.probe_cols[0]];
    match (set, probe.ints(), probe.texts()) {
        (KeySet::Int(s), Some(data), _) => {
            data.each(rows, |k, v| record(k, v.is_some_and(|v| s.contains(v))))
        }
        (KeySet::Text(s), _, Some(data)) => {
            data.each(rows, |k, v| record(k, v.is_some_and(|v| s.contains(v))))
        }
        (KeySet::Multi(s), _, _) => {
            let cells = gather(table, &ek.probe_cols, rows);
            let mut key = Vec::with_capacity(ek.probe_cols.len());
            for k in 0..n {
                record(k, tuple_into(&cells, k, &mut key) && s.contains(&key));
            }
        }
        // A probe column of the other type never matches.
        _ => (0..n).for_each(|k| record(k, false)),
    }
    if let Some(p) = prof {
        for _ in 0..n {
            p.note_exists(ExistsStrategy::SetProbe);
        }
        p.exit(addr, start.expect("profiling on"), hits);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Run one query on both executors and insist on identical output.
    fn run_both(db: &Database, sql: &str) -> QueryResult {
        let mut row_db = db.clone();
        row_db.set_options(ExecOptions {
            columnar: false,
            ..db.options()
        });
        let row = row_db.query(sql).expect("row engine");
        let col = db.query(sql).expect("columnar engine");
        assert_eq!(row, col, "engines diverge on {sql}");
        col
    }

    /// `n` rows: `id` dense, `tag` cycling text with NULLs mixed in.
    fn tagged_db(n: usize) -> Database {
        let mut db = Database::new();
        db.execute("CREATE TABLE t (id INT NOT NULL, tag VARCHAR, PRIMARY KEY (id))")
            .unwrap();
        let mut i = 0;
        while i < n {
            let end = (i + 512).min(n);
            let tuples: Vec<String> = (i..end)
                .map(|k| {
                    if k % 5 == 3 {
                        format!("({k}, NULL)")
                    } else {
                        format!("({k}, 'tag{}')", k % 7)
                    }
                })
                .collect();
            db.execute(&format!("INSERT INTO t VALUES {}", tuples.join(", ")))
                .unwrap();
            i = end;
        }
        db
    }

    #[test]
    fn batch_boundaries_agree_with_row_engine() {
        // 0, 1, one-under, exact, and one-over the batch size, plus a
        // word-boundary size for the validity masks.
        for n in [0usize, 1, 63, 64, 1023, 1024, 1025] {
            let db = tagged_db(n);
            run_both(&db, "SELECT id, tag FROM t");
            run_both(&db, "SELECT id FROM t WHERE tag = 'tag1' OR id < 10");
            run_both(&db, "SELECT DISTINCT tag FROM t ORDER BY tag");
            run_both(
                &db,
                "SELECT id FROM t WHERE tag IS NOT NULL AND id >= 3 ORDER BY id DESC LIMIT 5",
            );
            run_both(&db, "SELECT id FROM t WHERE tag IN ('tag1', 'tag2')");
            run_both(
                &db,
                "SELECT tag FROM t WHERE id IN (0, 1, 1022, 1024) LIMIT 3",
            );
        }
    }

    #[test]
    fn null_semantics_match_the_row_engine() {
        let db = tagged_db(101);
        // Each shape exercises a different NULL path: comparison,
        // negation, IS NULL, IN with a NULL item, LIKE on NULLs, and
        // cross-type comparison (Int column vs text literal).
        for sql in [
            "SELECT id FROM t WHERE tag = 'tag3'",
            "SELECT id FROM t WHERE NOT (tag = 'tag3')",
            "SELECT id FROM t WHERE tag IS NULL",
            "SELECT id FROM t WHERE tag IS NOT NULL",
            "SELECT id FROM t WHERE tag IN ('tag1', NULL)",
            "SELECT id FROM t WHERE tag NOT IN ('tag1', NULL)",
            "SELECT id FROM t WHERE tag LIKE 'tag%'",
            "SELECT id FROM t WHERE tag NOT LIKE '%2'",
            "SELECT id FROM t WHERE id = 'nope'",
            "SELECT id FROM t WHERE id <> 'nope'",
            "SELECT id FROM t WHERE tag < 'tag4' AND id > 10",
            "SELECT id FROM t WHERE tag = 'tag1' OR tag IS NULL",
        ] {
            run_both(&db, sql);
        }
    }

    #[test]
    fn column_patterns_match_the_row_engine() {
        // `'text' LIKE col`, the URI-routing shape: wildcards, NULL
        // patterns, negation, and the same predicate as the residual of
        // a decorrelated EXISTS.
        let mut db = Database::new();
        db.execute("CREATE TABLE r (id INT NOT NULL, pat VARCHAR, PRIMARY KEY (id))")
            .unwrap();
        db.execute("CREATE TABLE inc (id INT NOT NULL, pat VARCHAR)")
            .unwrap();
        let pats = [
            "'/site/a/%'",
            "'/site/_/index.html'",
            "'%index%'",
            "NULL",
            "'/site/b/%'",
            "'%'",
            "'/site/a/index.html'",
            "'x'",
        ];
        for id in 0..40 {
            let pat = pats[id % pats.len()];
            db.execute(&format!("INSERT INTO r VALUES ({id}, {pat})"))
                .unwrap();
            db.execute(&format!("INSERT INTO inc VALUES ({}, {pat})", id / 2))
                .unwrap();
        }
        let plain = "SELECT id FROM r WHERE '/site/a/index.html' LIKE pat";
        assert!(
            crate::explain::explain(&db, plain)
                .unwrap()
                .contains("columnar batch execution"),
            "column patterns compile to a kernel"
        );
        for sql in [
            plain,
            "SELECT id FROM r WHERE '/site/a/index.html' NOT LIKE pat",
            "SELECT id FROM r WHERE NOT ('/site/b/x' LIKE pat) OR id < 3",
            "SELECT id FROM r WHERE NULL LIKE pat",
            "SELECT r.id FROM r r WHERE EXISTS (SELECT * FROM inc i \
               WHERE i.id = r.id AND '/site/a/index.html' LIKE i.pat) ORDER BY r.id LIMIT 5",
            "SELECT r.id FROM r r WHERE NOT EXISTS (SELECT * FROM inc i \
               WHERE i.id = r.id AND '/site/c/' LIKE i.pat) ORDER BY r.id",
        ] {
            run_both(&db, sql);
        }
    }

    #[test]
    fn decorrelated_exists_matches_row_engine_and_counts_builds() {
        let mut db = Database::new();
        db.execute("CREATE TABLE p (pid INT NOT NULL, label VARCHAR, PRIMARY KEY (pid))")
            .unwrap();
        db.execute("CREATE TABLE s (pid INT NOT NULL, kind VARCHAR)")
            .unwrap();
        for i in 0..40 {
            db.execute(&format!("INSERT INTO p VALUES ({i}, 'p{}')", i % 6))
                .unwrap();
        }
        for i in 0..25 {
            let kind = if i % 4 == 0 {
                "NULL".to_string()
            } else {
                format!("'k{}'", i % 3)
            };
            db.execute(&format!("INSERT INTO s VALUES ({}, {kind})", i * 2))
                .unwrap();
        }
        let sql = "SELECT DISTINCT pid FROM p p \
                   WHERE EXISTS (SELECT * FROM s s WHERE s.pid = p.pid AND s.kind = 'k1') \
                   ORDER BY pid";
        let result = run_both(&db, sql);
        assert!(!result.rows.is_empty());

        // The columnar run above built exactly one hash set per EXISTS
        // node; confirm through the profile that the set was probed in
        // batches rather than per-row loops.
        let (_, profile) = db.query_profiled(sql).unwrap();
        let rendered = profile.render();
        assert!(rendered.contains("builds=1"), "{rendered}");
        assert!(rendered.contains("columnar"), "{rendered}");
    }

    #[test]
    fn profile_counts_batched_work_per_row() {
        // 2050 rows = 3 batches; the Filter node must still account
        // per-row (loops == rows in), and the scan level per-batch.
        let db = tagged_db(2050);
        let (_, profile) = db
            .query_profiled("SELECT id FROM t WHERE tag IS NOT NULL")
            .unwrap();
        let mut scan = None;
        let mut filter = None;
        profile.visit(&mut |node| {
            if node.kind == "columnar_scan" {
                scan = Some((node.rows, node.loops));
            }
            if node.kind == "filter" {
                filter = Some((node.rows, node.loops));
            }
        });
        assert_eq!(scan, Some((2050, 1)), "one scan pass over all rows");
        let (rows_out, loops) = filter.expect("filter node");
        assert_eq!(loops, 2050, "filter loops count rows, not batches");
        assert_eq!(rows_out, 2050 - 410, "410 NULL tags rejected");
    }

    fn tri(b: &BoolVec, len: usize) -> Vec<Option<bool>> {
        (0..len).map(|i| b.get(i)).collect()
    }

    #[test]
    fn boolvec_kleene_truth_tables() {
        let len = 3;
        // Rows: [true, false, null]
        let mut v = BoolVec::unknown(len);
        v.set(0, Some(true));
        v.set(1, Some(false));
        v.set(2, None);
        assert_eq!(tri(&v, len), vec![Some(true), Some(false), None]);

        let not = BoolVec {
            truth: v.truth.clone(),
            known: v.known.clone(),
        }
        .not();
        assert_eq!(tri(&not, len), vec![Some(false), Some(true), None]);

        for &a in &[Some(true), Some(false), None] {
            for &b in &[Some(true), Some(false), None] {
                let va = BoolVec::splat(1, a);
                let vb = BoolVec::splat(1, b);
                let and = BoolVec::splat(1, a).and(&vb);
                let or = va.or(&vb);
                let expect_and = match (a, b) {
                    (Some(true), Some(true)) => Some(true),
                    (Some(false), _) | (_, Some(false)) => Some(false),
                    _ => None,
                };
                let expect_or = match (a, b) {
                    (Some(true), _) | (_, Some(true)) => Some(true),
                    (Some(false), Some(false)) => Some(false),
                    _ => None,
                };
                assert_eq!(and.get(0), expect_and, "AND {a:?} {b:?}");
                assert_eq!(or.get(0), expect_or, "OR {a:?} {b:?}");
            }
        }
    }

    #[test]
    fn boolvec_word_boundary_bits() {
        // 130 rows spans three words; pattern survives round-trip.
        let len = 130;
        let mut v = BoolVec::unknown(len);
        for i in 0..len {
            v.set(
                i,
                match i % 3 {
                    0 => Some(true),
                    1 => Some(false),
                    _ => None,
                },
            );
        }
        for i in 0..len {
            let expect = match i % 3 {
                0 => Some(true),
                1 => Some(false),
                _ => None,
            };
            assert_eq!(v.get(i), expect, "row {i}");
        }
    }
}
