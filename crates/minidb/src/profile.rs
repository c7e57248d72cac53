//! Per-operator execution profiling — the engine behind
//! `EXPLAIN ANALYZE`.
//!
//! When a statement runs with [`crate::ExecOptions::profile`] on (set
//! on the database, or for one statement by a `*_profiled` entry point
//! or `EXPLAIN ANALYZE`), the executor threads a `Collector`
//! through the execution and records, for every operator it
//! runs — seq scans, index and IN-list probes, hash-join builds and
//! probes, EXISTS subqueries (correlated, set-probed, or freshly
//! decorrelated), filters, and DISTINCT — the actual rows it produced,
//! how many times it looped, and its cumulative inclusive wall time.
//! `Collector::finish` folds those records into a [`Profile`] tree
//! mirroring the plan shape, which renders as the analyzed plan and
//! feeds the per-operator histograms and the actual-vs-estimated rows
//! drift signal.
//!
//! Profiling is off by default: with it off the executor's only cost
//! is one `Option` check per operator dispatch, keeping the profiled-
//! off path within noise of the unprofiled build (the bench's
//! `profile` table measures exactly this overhead).

use std::cell::RefCell;
use std::collections::{BTreeMap, HashMap};
use std::time::{Duration, Instant};

/// Every operator kind a [`ProfileNode`] can carry, excluding the
/// `plan` annotation (which records no time and feeds no histogram).
/// Consumers reading the `p3p_op_*` histograms iterate this list.
pub const OP_KINDS: &[&str] = &[
    "select",
    "seq_scan",
    "columnar_scan",
    "index_probe",
    "in_list_probe",
    "hash_join",
    "hash_build",
    "filter",
    "distinct",
    "exists",
];

/// The analyzed execution of one SELECT: an operator tree mirroring
/// the plan, annotated with actual rows, loop counts, and wall time.
#[derive(Debug, Clone, PartialEq)]
pub struct Profile {
    /// The top-level SELECT node.
    pub root: ProfileNode,
    /// Total wall time of the execution (the root node's time).
    pub total: Duration,
}

/// One operator in an analyzed plan.
#[derive(Debug, Clone, PartialEq)]
pub struct ProfileNode {
    /// Stable operator kind, used as the `op` label of the
    /// `p3p_op_*` histograms: `select`, `exists`, `seq_scan`,
    /// `index_probe`, `in_list_probe`, `hash_join`, `hash_build`,
    /// `filter`, `distinct`, or `plan` (the join-order annotation).
    pub kind: &'static str,
    /// Human-readable operator line (table, binding, columns, index).
    pub label: String,
    /// The planner's estimated rows per invocation of this operator,
    /// when it planned one (or the table size for unplanned seq scans).
    pub planned_rows: Option<u64>,
    /// Actual rows produced across all invocations.
    pub rows: u64,
    /// Number of invocations (scan restarts, filter evaluations, ...).
    pub loops: u64,
    /// Cumulative inclusive wall time across all invocations.
    pub time: Duration,
    /// Operators this one drove, in execution order.
    pub children: Vec<ProfileNode>,
}

impl ProfileNode {
    /// Time spent in this operator excluding its children (inclusive
    /// time minus the children's inclusive time, clamped at zero).
    pub fn self_time(&self) -> Duration {
        let children: Duration = self.children.iter().map(|c| c.time).sum();
        self.time.saturating_sub(children)
    }

    /// How far the planner's row estimate was off for this node, as a
    /// symmetric factor `>= 1.0` (smoothed by +1 so empty results do
    /// not divide by zero). `None` when the node carries no estimate.
    pub fn misestimation(&self) -> Option<f64> {
        let planned = self.planned_rows? as f64 + 1.0;
        let actual = self.rows as f64 / self.loops.max(1) as f64 + 1.0;
        Some((actual / planned).max(planned / actual))
    }

    fn render_into(&self, depth: usize, total: Duration, out: &mut String) {
        for _ in 0..depth {
            out.push_str("  ");
        }
        if self.kind == "plan" {
            out.push_str(&self.label);
            out.push('\n');
        } else {
            out.push_str(&self.label);
            out.push_str(" (");
            if let Some(planned) = self.planned_rows {
                out.push_str(&format!("planned={planned} "));
            }
            out.push_str(&format!("rows={} loops={})", self.rows, self.loops));
            let pct = if total.is_zero() {
                0.0
            } else {
                100.0 * self.time.as_secs_f64() / total.as_secs_f64()
            };
            out.push_str(&format!(" [{} {pct:.1}%]", fmt_time(self.time)));
            out.push('\n');
        }
        for child in &self.children {
            child.render_into(depth + 1, total, out);
        }
    }
}

fn fmt_time(d: Duration) -> String {
    let us = d.as_nanos() as f64 / 1_000.0;
    if us < 1_000.0 {
        format!("{us:.1}µs")
    } else if us < 1_000_000.0 {
        format!("{:.2}ms", us / 1_000.0)
    } else {
        format!("{:.3}s", us / 1_000_000.0)
    }
}

impl Profile {
    /// Render the analyzed plan as an indented operator tree, one line
    /// per node: deterministic counts first (`planned=`, `rows=`,
    /// `loops=`), then wall time and its share of the execution.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.root.render_into(0, self.total, &mut out);
        out
    }

    /// Walk every node depth-first, parents before children.
    pub fn visit(&self, f: &mut dyn FnMut(&ProfileNode)) {
        fn walk(node: &ProfileNode, f: &mut dyn FnMut(&ProfileNode)) {
            f(node);
            for child in &node.children {
                walk(child, f);
            }
        }
        walk(&self.root, f);
    }

    /// The largest per-node [`ProfileNode::misestimation`] factor in
    /// the tree — the execution's actual-vs-estimated rows drift
    /// signal. `None` when no node carried an estimate.
    pub fn max_misestimation(&self) -> Option<f64> {
        let mut max: Option<f64> = None;
        self.visit(&mut |node| {
            if let Some(factor) = node.misestimation() {
                max = Some(max.map_or(factor, |m| factor.max(m)));
            }
        });
        max
    }
}

/// Strategy one EXISTS evaluation took, tallied on its profile node.
#[derive(Debug, Clone, Copy)]
pub(crate) enum ExistsStrategy {
    /// Ran the correlated nested loop.
    Correlated,
    /// Answered by probing the decorrelated hash set.
    SetProbe,
    /// Built the decorrelated hash set (the switch-over evaluation).
    Build,
}

/// Per-SELECT-node raw measurements, keyed by AST node address.
#[derive(Default)]
struct NodeProf {
    label: &'static str,
    /// `Join order: ...` annotation when the node went through the
    /// cost-based planner.
    order: Option<String>,
    loops: u64,
    rows: u64,
    time: Duration,
    /// Scan-level measurements keyed by join depth.
    levels: BTreeMap<usize, LevelProf>,
    filter: OpAgg,
    distinct: OpAgg,
    correlated: u64,
    set_probes: u64,
    builds: u64,
    /// Child EXISTS nodes, in first-evaluation order.
    children: Vec<usize>,
}

struct LevelProf {
    kind: &'static str,
    label: String,
    planned_rows: Option<u64>,
    loops: u64,
    rows: u64,
    time: Duration,
    build: OpAgg,
}

/// Aggregated counts for a non-scan operator (filter, DISTINCT, hash
/// build): invocations, rows in, rows out, cumulative time.
#[derive(Default, Clone, Copy)]
struct OpAgg {
    loops: u64,
    rows_in: u64,
    rows_out: u64,
    time: Duration,
}

/// Collects one execution's operator measurements. Lives in the
/// execution's memo; the executor records into the node currently on
/// top of the stack (the SELECT or EXISTS body being scanned).
pub(crate) struct Collector {
    nodes: RefCell<HashMap<usize, NodeProf>>,
    stack: RefCell<Vec<usize>>,
}

impl Collector {
    pub(crate) fn new() -> Collector {
        Collector {
            nodes: RefCell::new(HashMap::new()),
            stack: RefCell::new(Vec::new()),
        }
    }

    /// Begin one evaluation of a SELECT/EXISTS node, linking it under
    /// the node currently on the stack. Returns the start instant the
    /// matching [`Collector::exit`] measures against.
    pub(crate) fn enter(&self, addr: usize, label: &'static str) -> Instant {
        let mut nodes = self.nodes.borrow_mut();
        let mut stack = self.stack.borrow_mut();
        if let Some(&parent) = stack.last() {
            let parent_node = nodes.entry(parent).or_default();
            if !parent_node.children.contains(&addr) {
                parent_node.children.push(addr);
            }
        }
        let node = nodes.entry(addr).or_default();
        node.label = label;
        node.loops += 1;
        stack.push(addr);
        Instant::now()
    }

    /// End the evaluation begun by [`Collector::enter`], crediting the
    /// node with `rows` output rows and the elapsed time.
    pub(crate) fn exit(&self, addr: usize, start: Instant, rows: u64) {
        let elapsed = start.elapsed();
        let mut stack = self.stack.borrow_mut();
        if stack.last() == Some(&addr) {
            stack.pop();
        }
        let mut nodes = self.nodes.borrow_mut();
        let node = nodes.entry(addr).or_default();
        node.rows += rows;
        node.time += elapsed;
    }

    /// Attach the planner's join-order line to the current node.
    pub(crate) fn set_order(&self, order: String) {
        self.with_top(|node| node.order = Some(order));
    }

    /// Record one scan invocation at `depth` of the current node:
    /// `rows` visited in `elapsed` (inclusive of deeper levels). The
    /// label is computed once, on the level's first invocation.
    pub(crate) fn record_level(
        &self,
        depth: usize,
        kind: &'static str,
        planned_rows: Option<u64>,
        rows: u64,
        elapsed: Duration,
        label: impl FnOnce() -> String,
    ) {
        self.with_top(|node| {
            let level = node.levels.entry(depth).or_insert_with(|| LevelProf {
                kind,
                label: label(),
                planned_rows,
                loops: 0,
                rows: 0,
                time: Duration::ZERO,
                build: OpAgg::default(),
            });
            level.loops += 1;
            level.rows += rows;
            level.time += elapsed;
        });
    }

    /// Record a hash-join build at `depth`: `scanned` input rows,
    /// `kept` rows keyed into the table.
    pub(crate) fn record_build(&self, depth: usize, scanned: u64, kept: u64, elapsed: Duration) {
        self.with_top(|node| {
            if let Some(level) = node.levels.get_mut(&depth) {
                level.build.loops += 1;
                level.build.rows_in += scanned;
                level.build.rows_out += kept;
                level.build.time += elapsed;
            }
        });
    }

    /// Record one residual-filter evaluation at the scan leaf.
    pub(crate) fn record_filter(&self, passed: bool, elapsed: Duration) {
        self.with_top(|node| {
            node.filter.loops += 1;
            node.filter.rows_in += 1;
            node.filter.rows_out += passed as u64;
            node.filter.time += elapsed;
        });
    }

    /// Record one batched residual-filter evaluation (the columnar
    /// engine's equivalent of `rows_in` [`Collector::record_filter`]
    /// calls): loops count rows, not batches, so the Filter node's
    /// per-row accounting matches the row engine's.
    pub(crate) fn record_filter_batch(&self, rows_in: u64, rows_out: u64, elapsed: Duration) {
        self.with_top(|node| {
            node.filter.loops += rows_in;
            node.filter.rows_in += rows_in;
            node.filter.rows_out += rows_out;
            node.filter.time += elapsed;
        });
    }

    /// Record the DISTINCT dedup pass over the projected rows.
    pub(crate) fn record_distinct(&self, rows_in: u64, rows_out: u64, elapsed: Duration) {
        self.with_top(|node| {
            node.distinct.loops += 1;
            node.distinct.rows_in += rows_in;
            node.distinct.rows_out += rows_out;
            node.distinct.time += elapsed;
        });
    }

    /// Tally which strategy the current EXISTS evaluation took.
    pub(crate) fn note_exists(&self, strategy: ExistsStrategy) {
        self.with_top(|node| match strategy {
            ExistsStrategy::Correlated => node.correlated += 1,
            ExistsStrategy::SetProbe => node.set_probes += 1,
            ExistsStrategy::Build => node.builds += 1,
        });
    }

    fn with_top(&self, f: impl FnOnce(&mut NodeProf)) {
        let Some(&top) = self.stack.borrow().last() else {
            return;
        };
        let mut nodes = self.nodes.borrow_mut();
        f(nodes.entry(top).or_default())
    }

    /// Fold the raw measurements into the [`Profile`] tree rooted at
    /// the top-level SELECT node. `None` when that node never ran.
    pub(crate) fn finish(&self, root: usize) -> Option<Profile> {
        let nodes = self.nodes.borrow();
        let root_node = build_node(&nodes, root)?;
        let total = root_node.time;
        Some(Profile {
            root: root_node,
            total,
        })
    }
}

/// Assemble the public tree for one SELECT/EXISTS node: the join-order
/// annotation, then the scan levels nested innermost-last (each level's
/// time contains its deeper levels), the hash build under its level,
/// the residual filter under the deepest level, child EXISTS nodes
/// under the filter that evaluated them, and DISTINCT last.
fn build_node(nodes: &HashMap<usize, NodeProf>, addr: usize) -> Option<ProfileNode> {
    let raw = nodes.get(&addr)?;
    let mut node = ProfileNode {
        kind: if raw.label == "Exists" {
            "exists"
        } else {
            "select"
        },
        label: if raw.label == "Exists" {
            format!(
                "Exists (correlated={} set_probes={} builds={})",
                raw.correlated, raw.set_probes, raw.builds
            )
        } else {
            raw.label.to_string()
        },
        planned_rows: None,
        rows: raw.rows,
        loops: raw.loops,
        time: raw.time,
        children: Vec::new(),
    };
    if let Some(order) = &raw.order {
        node.children.push(ProfileNode {
            kind: "plan",
            label: order.clone(),
            planned_rows: None,
            rows: 0,
            loops: 0,
            time: Duration::ZERO,
            children: Vec::new(),
        });
    }

    // Innermost operator first: filter (with EXISTS children), wrapped
    // by the scan levels from deepest to shallowest.
    let mut inner: Option<ProfileNode> = None;
    if raw.filter.loops > 0 {
        let mut filter = ProfileNode {
            kind: "filter",
            label: "Filter".to_string(),
            planned_rows: None,
            rows: raw.filter.rows_out,
            loops: raw.filter.loops,
            time: raw.filter.time,
            children: Vec::new(),
        };
        for &child in &raw.children {
            filter.children.extend(build_node(nodes, child));
        }
        inner = Some(filter);
    }
    for (_, level) in raw.levels.iter().rev() {
        let mut level_node = ProfileNode {
            kind: level.kind,
            label: level.label.clone(),
            planned_rows: level.planned_rows,
            rows: level.rows,
            loops: level.loops,
            time: level.time,
            children: Vec::new(),
        };
        if level.build.loops > 0 {
            level_node.children.push(ProfileNode {
                kind: "hash_build",
                label: format!("hash build ({} rows scanned)", level.build.rows_in),
                planned_rows: None,
                rows: level.build.rows_out,
                loops: level.build.loops,
                time: level.build.time,
                children: Vec::new(),
            });
        }
        level_node.children.extend(inner.take());
        inner = Some(level_node);
    }
    match inner {
        Some(inner) => node.children.push(inner),
        // EXISTS evaluated outside any recorded filter (e.g. in a
        // projection item): attach its node directly.
        None => {
            for &child in &raw.children {
                node.children.extend(build_node(nodes, child));
            }
        }
    }
    if raw.distinct.loops > 0 {
        node.children.push(ProfileNode {
            kind: "distinct",
            label: format!("Distinct ({} rows in)", raw.distinct.rows_in),
            planned_rows: None,
            rows: raw.distinct.rows_out,
            loops: raw.distinct.loops,
            time: raw.distinct.time,
            children: Vec::new(),
        });
    }
    Some(node)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn leaf(kind: &'static str, planned: Option<u64>, rows: u64, loops: u64) -> ProfileNode {
        ProfileNode {
            kind,
            label: format!("{kind} op"),
            planned_rows: planned,
            rows,
            loops,
            time: Duration::from_micros(10),
            children: Vec::new(),
        }
    }

    #[test]
    fn self_time_subtracts_children_and_clamps() {
        let mut parent = leaf("select", None, 1, 1);
        parent.time = Duration::from_micros(100);
        parent.children.push(leaf("seq_scan", None, 5, 1));
        assert_eq!(parent.self_time(), Duration::from_micros(90));
        // A child longer than the parent (clock skew) clamps to zero.
        parent.children[0].time = Duration::from_micros(500);
        assert_eq!(parent.self_time(), Duration::ZERO);
    }

    #[test]
    fn misestimation_is_symmetric_and_loop_normalized() {
        // 9 actual vs 4 planned: (9+1)/(4+1) = 2.
        assert_eq!(leaf("seq_scan", Some(4), 9, 1).misestimation(), Some(2.0));
        // Underestimate mirrors: 4 actual vs 9 planned is also 2.
        assert_eq!(leaf("seq_scan", Some(9), 4, 1).misestimation(), Some(2.0));
        // Rows are per loop: 18 rows over 2 loops is 9 per invocation.
        assert_eq!(leaf("seq_scan", Some(4), 18, 2).misestimation(), Some(2.0));
        assert_eq!(leaf("seq_scan", None, 9, 1).misestimation(), None);
    }

    #[test]
    fn max_misestimation_walks_the_whole_tree() {
        let mut root = leaf("select", None, 1, 1);
        root.children.push(leaf("seq_scan", Some(4), 9, 1)); // factor 2
        root.children[0]
            .children
            .push(leaf("hash_join", Some(0), 9, 1)); // factor 10
        let profile = Profile {
            total: root.time,
            root,
        };
        assert_eq!(profile.max_misestimation(), Some(10.0));
    }

    #[test]
    fn render_puts_deterministic_counts_before_time() {
        let mut root = leaf("select", None, 2, 1);
        root.label = "Select".to_string();
        root.children.push(leaf("seq_scan", Some(4), 9, 1));
        let profile = Profile {
            total: root.time,
            root,
        };
        let text = profile.render();
        assert!(text.starts_with("Select (rows=2 loops=1) ["), "{text}");
        assert!(
            text.contains("\n  seq_scan op (planned=4 rows=9 loops=1) ["),
            "{text}"
        );
        assert!(text.contains("100.0%]"), "{text}");
    }
}
