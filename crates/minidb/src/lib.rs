//! # p3p-minidb — a small in-memory relational engine
//!
//! The server-centric P3P architecture stores shredded privacy policies
//! in relational tables and evaluates APPEL preferences as SQL queries
//! (paper §4–5). The paper used DB2 UDB 7.2; this crate is the
//! substrate standing in for it: a deterministic, in-memory relational
//! engine executing exactly the SQL dialect the suite's translators
//! emit.
//!
//! Supported SQL (see [`sql`] for the grammar):
//!
//! * `CREATE TABLE` with column types, `NOT NULL`, multi-column
//!   `PRIMARY KEY`, and `FOREIGN KEY ... REFERENCES` declarations;
//! * `CREATE INDEX` (hash indexes, also auto-created for primary keys);
//! * `INSERT INTO ... VALUES`, `DELETE FROM ... [WHERE]`, `DROP TABLE`;
//! * `SELECT` with projections, `COUNT(*)`/`COUNT(col)`, multi-table
//!   `FROM` with aliases, `WHERE` with `=`, `<>`, `<`, `<=`, `>`, `>=`,
//!   `AND`/`OR`/`NOT`, `IN (...)`, `LIKE`, `IS [NOT] NULL`, and —
//!   central to the APPEL translation — arbitrarily nested *correlated*
//!   `EXISTS` subqueries;
//! * `GROUP BY`, `ORDER BY`, `LIMIT`.
//!
//! Execution is nested-loop with hash-index acceleration: equality
//! conjuncts against indexed columns (including values bound by outer
//! queries) become index probes. [`ExecOptions::indexes`] turns this
//! off for the suite's index-ablation bench.
//!
//! Tables are stored as typed columns in chunks of 1024 rows, each
//! chunk with its own validity bitmap and each shared copy-on-write,
//! with hash indexes kept in persistent hash tries ([`pmap`]), so a
//! snapshot's writer copies what it changes, not the table
//! ([`table`]). Eligible single-table SELECTs run through a
//! columnar batch-at-a-time executor ([`columnar`]): predicates
//! compile to kernels evaluated over batches of 1024 row ids with
//! packed three-valued selection vectors, falling back to the
//! row-at-a-time interpreter (rows are cheap views onto the columns)
//! for anything the kernels cannot reproduce exactly.
//! [`ExecOptions::columnar`] pins the interpreter for differential
//! testing.
//!
//! Multi-table SELECTs additionally go through a cost-based join
//! planner ([`plan`]): per-table statistics (row counts plus exact
//! distinct-key counts read off the hash indexes) drive a greedy
//! most-selective-first join-order search, and join levels whose equi-
//! join columns no index covers run as hash joins instead of nested
//! loops. [`explain()`] renders the chosen order and per-level operator;
//! [`ExecOptions::planner`] reverts to literal FROM order.
//!
//! Every execution setting lives in one [`ExecOptions`] value held by
//! the [`Database`] ([`Database::options`], [`Database::set_options`]):
//! clones, snapshots and staging forks inherit it, so a setting means
//! the same thing on every thread that runs a clone.
//!
//! ## Example
//!
//! ```
//! use p3p_minidb::Database;
//!
//! let mut db = Database::new();
//! db.execute("CREATE TABLE purpose (policy_id INT, statement_id INT, purpose VARCHAR, required VARCHAR, PRIMARY KEY (policy_id, statement_id, purpose))").unwrap();
//! db.execute("INSERT INTO purpose VALUES (1, 1, 'current', 'always')").unwrap();
//! db.execute("INSERT INTO purpose VALUES (1, 2, 'contact', 'opt-in')").unwrap();
//! let result = db.query("SELECT purpose FROM purpose WHERE required = 'opt-in'").unwrap();
//! assert_eq!(result.rows.len(), 1);
//! assert_eq!(result.rows[0][0].as_str(), Some("contact"));
//! ```

pub mod columnar;
pub mod database;
pub mod error;
pub mod exec;
pub mod explain;
pub mod lru;
pub mod plan;
pub mod pmap;
pub mod profile;
pub mod schema;
pub mod sql;
pub mod table;
pub mod value;

pub use database::{Database, ExecOutcome, QueryResult};
pub use error::DbError;
pub use exec::ExecOptions;
pub use explain::{explain, explain_analyze};
pub use lru::CacheStats;
pub use plan::{JoinOp, JoinPlan, JoinPlanCache, Prepared, PLAN_DRIFT_FACTOR};
pub use profile::{Profile, ProfileNode, OP_KINDS};
pub use schema::{ColumnDef, DataType, ForeignKey, TableSchema};
pub use table::{IndexStats, TableStats, Unshared};
pub use value::Value;
