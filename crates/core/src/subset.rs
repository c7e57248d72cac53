//! Query-language subset analysis — the paper's other future-work item.
//!
//! §7: *"it would be useful to identify the minimal subsets of SQL and
//! XQuery needed"* for expressing privacy preferences directly as
//! queries. This module answers that empirically: it walks the SQL the
//! translators emit (and the XQuery ASTs) and tallies which language
//! features actually occur, so the minimal subset is read off a report
//! instead of guessed.

use crate::appel2sql::{translate_rule_generic, translate_rule_optimized, QueryForm};
use crate::appel2xquery::translate_rule_xquery;
use crate::error::ServerError;
use crate::generic::GenericSchema;
use p3p_appel::model::Ruleset;
use p3p_minidb::sql::ast::{Expr, SelectItem, SelectStmt, Statement};
use p3p_minidb::sql::parse_statement;
use p3p_xquery::ast::{Pred, Step};

/// Feature counts for the SQL subset.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SqlFeatures {
    pub queries: usize,
    pub exists: usize,
    pub not: usize,
    pub and: usize,
    pub or: usize,
    pub comparisons: usize,
    pub in_lists: usize,
    pub likes: usize,
    pub is_nulls: usize,
    pub joins: usize,
    pub aggregates: usize,
    pub order_by: usize,
    /// Deepest EXISTS nesting seen.
    pub max_nesting: usize,
}

impl SqlFeatures {
    /// The minimal-subset statement the tallies support.
    pub fn summary(&self) -> String {
        let mut needed: Vec<&str> = vec!["SELECT <literal> FROM <one-row table>"];
        if self.exists > 0 {
            needed.push("correlated EXISTS subqueries");
        }
        if self.comparisons > 0 {
            needed.push("equality comparison");
        }
        if self.and > 0 || self.or > 0 {
            needed.push("AND/OR");
        }
        if self.not > 0 {
            needed.push("NOT");
        }
        if self.in_lists > 0 {
            needed.push("IN");
        }
        if self.likes > 0 {
            needed.push("LIKE");
        }
        if self.is_nulls > 0 {
            needed.push("IS NULL");
        }
        if self.aggregates > 0 {
            needed.push("aggregation");
        }
        if self.joins > 0 {
            needed.push("multi-table FROM");
        }
        format!(
            "{} queries; features needed: {}; max EXISTS nesting {}",
            self.queries,
            needed.join(", "),
            self.max_nesting
        )
    }
}

/// Tally the SQL features used by translating every rule of every
/// preference against the chosen schema.
pub fn sql_subset(preferences: &[Ruleset], generic: bool) -> Result<SqlFeatures, ServerError> {
    let schema = GenericSchema::default();
    let mut features = SqlFeatures::default();
    for ruleset in preferences {
        for rule in &ruleset.rules {
            let sql = if generic {
                translate_rule_generic(rule, &schema, QueryForm::Staged)?
            } else {
                translate_rule_optimized(rule, QueryForm::Staged)?
            };
            let stmt = parse_statement(&sql)?;
            let Statement::Select(select) = stmt else {
                continue;
            };
            features.queries += 1;
            tally_select(&select, 0, &mut features);
        }
    }
    Ok(features)
}

fn tally_select(select: &SelectStmt, depth: usize, f: &mut SqlFeatures) {
    if select.from.len() > 1 {
        f.joins += 1;
    }
    if !select.order_by.is_empty() {
        f.order_by += 1;
    }
    if select
        .items
        .iter()
        .any(|i| matches!(i, SelectItem::Count { .. }))
        || !select.group_by.is_empty()
    {
        f.aggregates += 1;
    }
    if depth > f.max_nesting {
        f.max_nesting = depth;
    }
    if let Some(filter) = &select.filter {
        tally_expr(filter, depth, f);
    }
}

fn tally_expr(expr: &Expr, depth: usize, f: &mut SqlFeatures) {
    match expr {
        Expr::Compare { left, right, .. } => {
            f.comparisons += 1;
            tally_expr(left, depth, f);
            tally_expr(right, depth, f);
        }
        Expr::And(a, b) => {
            f.and += 1;
            tally_expr(a, depth, f);
            tally_expr(b, depth, f);
        }
        Expr::Or(a, b) => {
            f.or += 1;
            tally_expr(a, depth, f);
            tally_expr(b, depth, f);
        }
        Expr::Not(inner) => {
            f.not += 1;
            tally_expr(inner, depth, f);
        }
        Expr::Exists(sub) => {
            f.exists += 1;
            tally_select(sub, depth + 1, f);
        }
        Expr::InList { expr, list, .. } => {
            f.in_lists += 1;
            tally_expr(expr, depth, f);
            for e in list {
                tally_expr(e, depth, f);
            }
        }
        Expr::Like { expr, pattern, .. } => {
            f.likes += 1;
            tally_expr(expr, depth, f);
            tally_expr(pattern, depth, f);
        }
        Expr::IsNull { expr, .. } => {
            f.is_nulls += 1;
            tally_expr(expr, depth, f);
        }
        Expr::Literal(_) | Expr::Column { .. } | Expr::Parameter { .. } => {}
    }
}

/// Feature counts for the XQuery subset.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct XQueryFeatures {
    pub queries: usize,
    pub steps: usize,
    pub attr_tests: usize,
    pub and: usize,
    pub or: usize,
    pub not: usize,
    pub exactness: usize,
    pub max_depth: usize,
}

/// Tally the XQuery features used across preferences.
pub fn xquery_subset(preferences: &[Ruleset]) -> Result<XQueryFeatures, ServerError> {
    let mut features = XQueryFeatures::default();
    for ruleset in preferences {
        for rule in &ruleset.rules {
            if rule.pattern.is_empty() {
                continue;
            }
            let q = translate_rule_xquery(rule, "applicable-policy")?;
            features.queries += 1;
            tally_step(&q.root, 1, &mut features);
        }
    }
    Ok(features)
}

fn tally_step(step: &Step, depth: usize, f: &mut XQueryFeatures) {
    f.steps += 1;
    if depth > f.max_depth {
        f.max_depth = depth;
    }
    if let Some(p) = &step.predicate {
        tally_pred(p, depth, f);
    }
}

fn tally_pred(pred: &Pred, depth: usize, f: &mut XQueryFeatures) {
    match pred {
        Pred::And(ps) => {
            f.and += 1;
            for p in ps {
                tally_pred(p, depth, f);
            }
        }
        Pred::Or(ps) => {
            f.or += 1;
            for p in ps {
                tally_pred(p, depth, f);
            }
        }
        Pred::Not(p) => {
            f.not += 1;
            tally_pred(p, depth, f);
        }
        Pred::Exists(steps) => {
            for s in steps {
                tally_step(s, depth + 1, f);
            }
        }
        Pred::AttrEq(_, _) => f.attr_tests += 1,
        Pred::OnlyChildren(steps) => {
            f.exactness += 1;
            for s in steps {
                tally_step(s, depth + 1, f);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use p3p_appel::model::jane_preference;

    fn suite() -> Vec<Ruleset> {
        // Jane plus a preference using an exact connective.
        let exact = p3p_appel::parse::parse_ruleset_str(
            r#"<appel:RULESET><appel:RULE behavior="request">
                 <POLICY><STATEMENT>
                   <PURPOSE appel:connective="or-exact"><current/><admin/></PURPOSE>
                 </STATEMENT></POLICY>
               </appel:RULE></appel:RULESET>"#,
        )
        .unwrap();
        vec![jane_preference(), exact]
    }

    #[test]
    fn optimized_sql_subset_is_small() {
        let f = sql_subset(&suite(), false).unwrap();
        assert_eq!(f.queries, 4);
        assert!(f.exists > 0);
        assert!(f.comparisons > 0);
        // The translators never need these:
        assert_eq!(f.in_lists, 0);
        assert_eq!(f.likes, 0);
        assert_eq!(f.is_nulls, 0);
        assert_eq!(f.aggregates, 0);
        assert_eq!(f.order_by, 0);
        assert_eq!(f.joins, 0);
        // Policy → statement → purpose: three levels of EXISTS.
        assert_eq!(f.max_nesting, 3);
    }

    #[test]
    fn generic_sql_nests_deeper_than_optimized() {
        let opt = sql_subset(&suite(), false).unwrap();
        let gen = sql_subset(&suite(), true).unwrap();
        assert!(gen.max_nesting > opt.max_nesting, "{gen:?} vs {opt:?}");
        assert!(gen.exists > opt.exists);
    }

    #[test]
    fn summary_names_the_needed_features() {
        let f = sql_subset(&suite(), false).unwrap();
        let s = f.summary();
        assert!(s.contains("correlated EXISTS"), "{s}");
        assert!(s.contains("AND/OR"), "{s}");
        assert!(!s.contains("LIKE"), "{s}");
    }

    #[test]
    fn xquery_subset_tallies_connectives() {
        let f = xquery_subset(&suite()).unwrap();
        assert_eq!(f.queries, 3);
        assert!(f.or > 0);
        assert!(f.attr_tests > 0);
        assert_eq!(f.exactness, 1);
        assert!(f.max_depth >= 3);
    }

    #[test]
    fn full_jrc_suite_subset_is_stable() {
        // The whole workload's preferences stay inside the same subset.
        let prefs: Vec<Ruleset> = p3p_workload::Sensitivity::ALL
            .iter()
            .map(|s| s.ruleset())
            .collect();
        let f = sql_subset(&prefs, false).unwrap();
        assert_eq!(f.in_lists + f.likes + f.aggregates, 0);
        // Column-vocabulary tests (RETENTION/ACCESS) carry NULL-safe
        // `IS NOT NULL` guards so negated connectives stay two-valued.
        assert!(f.is_nulls > 0);
        // policy → statement → group witness → data → category.
        assert!(f.max_nesting <= 5);
        let xf = xquery_subset(&prefs).unwrap();
        assert_eq!(xf.exactness, 1, "only Medium uses exactness");
    }
}
