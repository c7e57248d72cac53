//! Translating APPEL rules into SQL (paper §5.3–5.4).
//!
//! Two translators are provided, matching the paper's two schemas:
//!
//! * [`translate_rule_generic`] — the uniform algorithm of Figure 11
//!   against the one-table-per-element schema of Figure 8. Every
//!   expression becomes an `EXISTS` subquery joined to its parent's
//!   primary key (the paper's Figure 13 shows the output shape).
//! * [`translate_rule_optimized`] — the production translator against
//!   the reduced schema of Figure 14, with the §5.4 special handling
//!   that merges a vocabulary element's subqueries into one (Figure 15)
//!   and resolves RETENTION/CONSEQUENCE/ACCESS to columns.
//!
//! Both take a [`QueryForm`]: the paper's staged text, the bound form
//! the server runs per policy, or the corpus form it runs per sweep.
//! The XTABLE compiler ([`crate::xtable`]) renders the same forms.
//!
//! Connectives: `and`, `or`, `non-and`, `non-or` translate for both
//! schemas. The `*-exact` connectives translate only in the optimized
//! schema and only on vocabulary elements (PURPOSE, RECIPIENT,
//! RETENTION, CATEGORIES), where exactness is a `NOT EXISTS` over the
//! value column; on structural elements they are reported as
//! unsupported. Rule patterns whose shape cannot occur in a policy
//! (e.g. a PURPOSE directly under POLICY) translate to the constant
//! `1 = 0`, matching the native engine's behavior of never matching
//! them.

use crate::error::ServerError;
use crate::generic::{sql_quote, GenericSchema};
use crate::meta_schema;
use p3p_appel::model::{Connective, Expr, Rule};

/// Fresh-alias supply shared by one translation.
struct Aliases {
    counter: usize,
}

impl Aliases {
    fn new() -> Aliases {
        Aliases { counter: 0 }
    }

    fn fresh(&mut self) -> String {
        self.counter += 1;
        format!("t{}", self.counter)
    }
}

/// Combine already-rendered conditions under an APPEL connective
/// (exactness must be handled by the caller).
fn combine(connective: Connective, conds: &[String]) -> String {
    debug_assert!(!conds.is_empty());
    match connective {
        Connective::And | Connective::AndExact => {
            if conds.len() == 1 {
                conds[0].clone()
            } else {
                conds.join(" AND ")
            }
        }
        Connective::Or | Connective::OrExact => {
            if conds.len() == 1 {
                conds[0].clone()
            } else {
                format!("({})", conds.join(" OR "))
            }
        }
        Connective::NonOr => format!("NOT ({})", conds.join(" OR ")),
        Connective::NonAnd => format!("NOT ({})", conds.join(" AND ")),
    }
}

const FALSE_COND: &str = "1 = 0";

/// The outer query shape a rule translates into. The inner condition
/// text is identical across forms; only the prefix differs, and every
/// form names the policy under test `applicable_policy`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum QueryForm {
    /// `SELECT '<behavior>' FROM applicable_policy …` against the
    /// one-row `ApplicablePolicy` table of the paper (§5.3.1; Figures
    /// 13 and 15). The text the paper shows; the server never runs it.
    Staged,
    /// `SELECT '<behavior>' FROM <policy> applicable_policy WHERE
    /// applicable_policy.policy_id = ? …` — one policy per execution,
    /// pinned by a bind parameter.
    Bound,
    /// `SELECT DISTINCT applicable_policy.policy_id FROM <policy>
    /// applicable_policy …` — set-at-a-time: one execution returns the
    /// id of every installed policy the rule matches.
    Corpus,
}

/// Render the outer query for `form` around the combined rule
/// condition (`None` for an unconditional rule). `policy_table` is the
/// corpus-wide policy table of the target schema.
pub(crate) fn render_form(
    form: QueryForm,
    behavior: &str,
    policy_table: &str,
    combined: Option<&str>,
) -> String {
    let mut sql = match form {
        QueryForm::Staged => format!("SELECT {} FROM applicable_policy", sql_quote(behavior)),
        QueryForm::Bound => format!(
            "SELECT {} FROM {policy_table} applicable_policy \
             WHERE applicable_policy.policy_id = ?",
            sql_quote(behavior)
        ),
        QueryForm::Corpus => format!(
            "SELECT DISTINCT applicable_policy.policy_id FROM {policy_table} applicable_policy"
        ),
    };
    if let Some(combined) = combined {
        match form {
            QueryForm::Staged => {
                sql.push_str(" WHERE ");
                sql.push_str(combined);
            }
            QueryForm::Bound => {
                sql.push_str(" AND (");
                sql.push_str(combined);
                sql.push(')');
            }
            // Parenthesized so callers can append further conjuncts
            // (e.g. `AND applicable_policy.policy_id IN (…)`).
            QueryForm::Corpus => {
                sql.push_str(" WHERE (");
                sql.push_str(combined);
                sql.push(')');
            }
        }
    }
    sql
}

// =======================================================================
// Generic translation (Figure 11)
// =======================================================================

/// Translate one APPEL rule into SQL against the generic schema, in
/// the outer `form` around the rule's condition.
pub fn translate_rule_generic(
    rule: &Rule,
    schema: &GenericSchema,
    form: QueryForm,
) -> Result<String, ServerError> {
    let mut aliases = Aliases::new();
    let behavior = rule.behavior.as_str();
    let policy_table = schema.table_for("POLICY");
    if rule.pattern.is_empty() {
        return Ok(render_form(form, behavior, &policy_table, None));
    }
    if rule.connective.is_exact() {
        return Err(ServerError::Unsupported(
            "exact connective at rule level in generic translation".to_string(),
        ));
    }
    let mut conds = Vec::new();
    for expr in &rule.pattern {
        conds.push(generic_expr(expr, None, schema, &mut aliases)?);
    }
    let combined = combine(rule.connective, &conds);
    Ok(render_form(form, behavior, &policy_table, Some(&combined)))
}

/// The `match()` of Figure 11: render the condition asserting that
/// `expr` matches some element under `parent` (alias + element name);
/// `None` means the policy root position.
fn generic_expr(
    expr: &Expr,
    parent: Option<(&str, &str)>,
    schema: &GenericSchema,
    aliases: &mut Aliases,
) -> Result<String, ServerError> {
    let Some(def) = meta_schema::find(&expr.name.local) else {
        return Ok(FALSE_COND.to_string());
    };
    // Structural plausibility: the expression must sit where the policy
    // schema puts the element.
    match (parent, def.parent) {
        (None, None) => {}
        (Some((_, pname)), Some(dparent)) if pname == dparent => {}
        _ => return Ok(FALSE_COND.to_string()),
    }
    if expr.connective.is_exact() && !is_vocab_container(def.name) {
        // Exactness over structural children would need quantification
        // over every sibling table; only the closed vocabularies are
        // supported (same surface as the optimized translator).
        return Err(ServerError::Unsupported(format!(
            "exact connective on <{}> in generic translation",
            expr.name.local
        )));
    }
    let alias = aliases.fresh();
    let table = schema.table_for(def.name);
    let mut where_parts: Vec<String> = Vec::new();
    match parent {
        Some((palias, pname)) => {
            for col in meta_schema::key_chain(pname) {
                where_parts.push(format!("{alias}.{col} = {palias}.{col}"));
            }
        }
        None => {
            where_parts.push(format!("{alias}.policy_id = applicable_policy.policy_id"));
        }
    }
    for (attr, value) in &expr.attributes {
        if def.attrs.iter().any(|a| a == attr) {
            where_parts.push(format!(
                "{alias}.{} = {}",
                meta_schema::sql_name(attr),
                sql_quote(value)
            ));
        } else {
            // Attribute not representable: the element can never match.
            return Ok(FALSE_COND.to_string());
        }
    }
    if !expr.children.is_empty() {
        let mut child_conds = Vec::new();
        for child in &expr.children {
            child_conds.push(generic_expr(
                child,
                Some((&alias, def.name)),
                schema,
                aliases,
            )?);
        }
        where_parts.push(combine(expr.connective, &child_conds));
        if expr.connective.is_exact() {
            where_parts.extend(generic_exactness(expr, &alias, def.name, schema)?);
        }
    }
    Ok(format!(
        "EXISTS (SELECT * FROM {table} {alias} WHERE {})",
        where_parts.join(" AND ")
    ))
}

/// Containers whose children form a closed vocabulary (one table per
/// value element in the generic schema).
fn is_vocab_container(name: &str) -> bool {
    matches!(
        name,
        "PURPOSE" | "RECIPIENT" | "RETENTION" | "CATEGORIES" | "ACCESS"
    )
}

/// Exactness in the generic schema: "the policy contains only elements
/// listed in the rule" means that for every *sibling value table*,
/// either no row hangs off this container, or every such row satisfies
/// one of the rule's constraints on that element name.
fn generic_exactness(
    expr: &Expr,
    alias: &str,
    container: &str,
    schema: &GenericSchema,
) -> Result<Vec<String>, ServerError> {
    let mut terms = Vec::new();
    let fk: Vec<String> = meta_schema::key_chain(container);
    for member in meta_schema::all_elements() {
        if member.parent != Some(container) {
            continue;
        }
        // Constraints the rule places on this member name. A
        // constraint-free listing admits every row of the table.
        let mut admits_all = false;
        let mut admitted: Vec<String> = Vec::new();
        for child in expr.children.iter().filter(|c| c.name.local == member.name) {
            if !child.children.is_empty() {
                return Err(ServerError::Unsupported(
                    "nested expression under exact vocabulary connective".to_string(),
                ));
            }
            if child.attributes.is_empty() {
                admits_all = true;
                break;
            }
            let mut conds = Vec::new();
            for (attr, value) in &child.attributes {
                if member.attrs.iter().any(|a| a == attr) {
                    conds.push(format!(
                        "mx.{} = {}",
                        meta_schema::sql_name(attr),
                        sql_quote(value)
                    ));
                } else {
                    conds.clear();
                    conds.push(FALSE_COND.to_string());
                    break;
                }
            }
            admitted.push(format!("({})", conds.join(" AND ")));
        }
        if admits_all {
            continue;
        }
        let mut inner: Vec<String> = fk
            .iter()
            .map(|col| format!("mx.{col} = {alias}.{col}"))
            .collect();
        if !admitted.is_empty() {
            inner.push(format!("NOT ({})", admitted.join(" OR ")));
        }
        terms.push(format!(
            "NOT EXISTS (SELECT * FROM {} mx WHERE {})",
            schema.table_for(member.name),
            inner.join(" AND ")
        ));
    }
    Ok(terms)
}

// =======================================================================
// Optimized translation (Figures 14/15)
// =======================================================================

/// Translate one APPEL rule into SQL against the optimized schema, in
/// the outer `form` around the rule's condition.
pub fn translate_rule_optimized(rule: &Rule, form: QueryForm) -> Result<String, ServerError> {
    let mut aliases = Aliases::new();
    let behavior = rule.behavior.as_str();
    if rule.pattern.is_empty() {
        return Ok(render_form(form, behavior, "policy", None));
    }
    if rule.connective.is_exact() {
        return Err(ServerError::Unsupported(
            "exact connective at rule level".to_string(),
        ));
    }
    let mut conds = Vec::new();
    for expr in &rule.pattern {
        conds.push(policy_expr(expr, &mut aliases)?);
    }
    let combined = combine(rule.connective, &conds);
    Ok(render_form(form, behavior, "policy", Some(&combined)))
}

/// A POLICY pattern expression at the root.
fn policy_expr(expr: &Expr, aliases: &mut Aliases) -> Result<String, ServerError> {
    if expr.name.local != "POLICY" {
        return Ok(FALSE_COND.to_string());
    }
    if expr.connective.is_exact() {
        return Err(ServerError::Unsupported(
            "exact connective on <POLICY>".to_string(),
        ));
    }
    let alias = aliases.fresh();
    let mut parts = vec![format!("{alias}.policy_id = applicable_policy.policy_id")];
    for (attr, value) in &expr.attributes {
        match attr.as_str() {
            "name" | "discuri" | "opturi" => {
                parts.push(format!("{alias}.{attr} = {}", sql_quote(value)))
            }
            _ => return Ok(FALSE_COND.to_string()),
        }
    }
    if !expr.children.is_empty() {
        let mut conds = Vec::new();
        for child in &expr.children {
            conds.push(policy_child(child, &alias, aliases)?);
        }
        parts.push(combine(expr.connective, &conds));
    }
    Ok(format!(
        "EXISTS (SELECT * FROM policy {alias} WHERE {})",
        parts.join(" AND ")
    ))
}

fn policy_child(
    expr: &Expr,
    policy_alias: &str,
    aliases: &mut Aliases,
) -> Result<String, ServerError> {
    match expr.name.local.as_str() {
        "STATEMENT" => statement_expr(expr, policy_alias, aliases),
        "ACCESS" => column_vocab_expr(expr, &format!("{policy_alias}.access")),
        // ENTITY / DISPUTES-GROUP / EXTENSION are not matchable in the
        // relational schemas — they never match, like unknown elements.
        _ => Ok(FALSE_COND.to_string()),
    }
}

fn statement_expr(
    expr: &Expr,
    policy_alias: &str,
    aliases: &mut Aliases,
) -> Result<String, ServerError> {
    if expr.connective.is_exact() {
        return Err(ServerError::Unsupported(
            "exact connective on <STATEMENT>".to_string(),
        ));
    }
    if !expr.attributes.is_empty() {
        return Ok(FALSE_COND.to_string());
    }
    let alias = aliases.fresh();
    let mut parts = vec![format!("{alias}.policy_id = {policy_alias}.policy_id")];
    if !expr.children.is_empty() {
        let mut conds = Vec::new();
        for child in &expr.children {
            conds.push(statement_child(child, &alias, aliases)?);
        }
        parts.push(combine(expr.connective, &conds));
    }
    Ok(format!(
        "EXISTS (SELECT * FROM statement {alias} WHERE {})",
        parts.join(" AND ")
    ))
}

fn statement_child(
    expr: &Expr,
    stmt_alias: &str,
    aliases: &mut Aliases,
) -> Result<String, ServerError> {
    match expr.name.local.as_str() {
        "PURPOSE" => vocab_table_expr(expr, "purpose", "purpose", stmt_alias, aliases),
        "RECIPIENT" => vocab_table_expr(expr, "recipient", "recipient", stmt_alias, aliases),
        "RETENTION" => column_vocab_expr(expr, &format!("{stmt_alias}.retention")),
        "NON-IDENTIFIABLE" => Ok(format!("{stmt_alias}.non_identifiable = 'yes'")),
        "DATA-GROUP" => data_group_expr(expr, stmt_alias, aliases),
        "DATA" => data_expr(expr, stmt_alias, None, aliases),
        _ => Ok(FALSE_COND.to_string()),
    }
}

/// PURPOSE/RECIPIENT: value subelements folded into one table (§5.4,
/// Figure 15). The value column carries the element name; `required`
/// is a sibling column.
fn vocab_table_expr(
    expr: &Expr,
    table: &str,
    value_column: &str,
    stmt_alias: &str,
    aliases: &mut Aliases,
) -> Result<String, ServerError> {
    if !expr.attributes.is_empty() {
        return Ok(FALSE_COND.to_string());
    }
    let fk = |alias: &str| {
        format!(
            "{alias}.policy_id = {stmt_alias}.policy_id AND {alias}.statement_id = {stmt_alias}.statement_id"
        )
    };
    // Value condition for one subexpression, against a row alias.
    let value_cond = |child: &Expr, alias: &str| -> String {
        let mut parts = vec![format!(
            "{alias}.{value_column} = {}",
            sql_quote(&child.name.local)
        )];
        for (attr, value) in &child.attributes {
            if attr == "required" {
                parts.push(format!("{alias}.required = {}", sql_quote(value)));
            } else {
                parts.clear();
                parts.push(FALSE_COND.to_string());
                break;
            }
        }
        if !child.children.is_empty() {
            // Value elements have no children in P3P.
            return FALSE_COND.to_string();
        }
        if parts.len() == 1 {
            parts.remove(0)
        } else {
            format!("({})", parts.join(" AND "))
        }
    };

    if expr.children.is_empty() {
        let alias = aliases.fresh();
        return Ok(format!(
            "EXISTS (SELECT * FROM {table} {alias} WHERE {})",
            fk(&alias)
        ));
    }

    // One merged subquery for disjunctive forms (Figure 15)...
    let merged = |aliases: &mut Aliases| {
        let alias = aliases.fresh();
        let conds: Vec<String> = expr
            .children
            .iter()
            .map(|c| value_cond(c, &alias))
            .collect();
        format!(
            "EXISTS (SELECT * FROM {table} {alias} WHERE {} AND ({}))",
            fk(&alias),
            conds.join(" OR ")
        )
    };
    // ...one subquery per value for conjunctive forms.
    let per_value = |aliases: &mut Aliases| {
        let conds: Vec<String> = expr
            .children
            .iter()
            .map(|c| {
                let alias = aliases.fresh();
                format!(
                    "EXISTS (SELECT * FROM {table} {alias} WHERE {} AND {})",
                    fk(&alias),
                    value_cond(c, &alias)
                )
            })
            .collect();
        conds.join(" AND ")
    };
    // Exactness: no row escapes the listed value conditions.
    let exactness = |aliases: &mut Aliases| {
        let alias = aliases.fresh();
        let conds: Vec<String> = expr
            .children
            .iter()
            .map(|c| value_cond(c, &alias))
            .collect();
        format!(
            "NOT EXISTS (SELECT * FROM {table} {alias} WHERE {} AND NOT ({}))",
            fk(&alias),
            conds.join(" OR ")
        )
    };

    // Negated connectives still require the container element to be
    // present in the policy (the native engine only evaluates the
    // connective against an existing element), hence the existence
    // guard in front of the NOT.
    let exists_guard = |aliases: &mut Aliases| {
        let alias = aliases.fresh();
        format!(
            "EXISTS (SELECT * FROM {table} {alias} WHERE {})",
            fk(&alias)
        )
    };
    Ok(match expr.connective {
        Connective::Or => merged(aliases),
        Connective::NonOr => format!("{} AND NOT {}", exists_guard(aliases), merged(aliases)),
        Connective::And => per_value(aliases),
        Connective::NonAnd => {
            format!("{} AND NOT ({})", exists_guard(aliases), per_value(aliases))
        }
        Connective::AndExact => format!("{} AND {}", per_value(aliases), exactness(aliases)),
        Connective::OrExact => format!("{} AND {}", merged(aliases), exactness(aliases)),
    })
}

/// RETENTION/ACCESS: the single value subelement became a column. The
/// connective combines equality tests on that column; exactness is
/// automatic (at most one value exists).
fn column_vocab_expr(expr: &Expr, column: &str) -> Result<String, ServerError> {
    if !expr.attributes.is_empty() {
        return Ok(FALSE_COND.to_string());
    }
    if expr.children.is_empty() {
        return Ok(format!("{column} IS NOT NULL"));
    }
    let mut conds = Vec::new();
    for child in &expr.children {
        if !child.attributes.is_empty() || !child.children.is_empty() {
            conds.push(FALSE_COND.to_string());
        } else {
            // NULL-safe: when the element is absent the column is NULL
            // and a bare `col = 'v'` is NULL, which stays NULL under an
            // enclosing NOT (a negated POLICY/STATEMENT connective)
            // instead of flipping to TRUE the way the native engine's
            // "element not found" does. Guarding the equality keeps the
            // condition two-valued.
            conds.push(format!(
                "({column} IS NOT NULL AND {column} = {})",
                sql_quote(&child.name.local)
            ));
        }
    }
    let connective = match expr.connective {
        Connective::AndExact => Connective::And,
        Connective::OrExact => Connective::Or,
        other => other,
    };
    let combined = combine(connective, &conds);
    if connective.is_negated() {
        // The element must exist for a negated connective to hold.
        Ok(format!("{column} IS NOT NULL AND {combined}"))
    } else {
        Ok(combined)
    }
}

/// DATA-GROUP in the optimized schema: data rows hang off the
/// statement but carry their group's `data_group_id`, because the
/// connective is evaluated *per group element* — `non-or` matches a
/// statement with two groups when any one group lacks the listed DATA,
/// and `and` needs a single group containing all of them. A witness
/// row stands in for the group: every group has at least one row
/// (`<!ELEMENT DATA-GROUP (DATA+)>`, enforced at validation), so
/// "exists a group where C holds" is "exists a data row whose group
/// satisfies C", with the child conditions correlated on the witness's
/// `data_group_id`.
fn data_group_expr(
    expr: &Expr,
    stmt_alias: &str,
    aliases: &mut Aliases,
) -> Result<String, ServerError> {
    if expr.connective.is_exact() {
        return Err(ServerError::Unsupported(
            "exact connective on <DATA-GROUP>".to_string(),
        ));
    }
    if expr.children.is_empty() {
        let alias = aliases.fresh();
        return Ok(format!(
            "EXISTS (SELECT * FROM data {alias} WHERE {alias}.policy_id = {stmt_alias}.policy_id AND {alias}.statement_id = {stmt_alias}.statement_id)"
        ));
    }
    let witness = aliases.fresh();
    let mut conds = Vec::new();
    for child in &expr.children {
        if child.name.local == "DATA" {
            conds.push(data_expr(child, stmt_alias, Some(&witness), aliases)?);
        } else {
            conds.push(FALSE_COND.to_string());
        }
    }
    let combined = combine(expr.connective, &conds);
    Ok(format!(
        "EXISTS (SELECT * FROM data {witness} WHERE {witness}.policy_id = {stmt_alias}.policy_id AND {witness}.statement_id = {stmt_alias}.statement_id AND {combined})"
    ))
}

fn data_expr(
    expr: &Expr,
    stmt_alias: &str,
    group_alias: Option<&str>,
    aliases: &mut Aliases,
) -> Result<String, ServerError> {
    if expr.connective.is_exact() {
        return Err(ServerError::Unsupported(
            "exact connective on <DATA>".to_string(),
        ));
    }
    let alias = aliases.fresh();
    let mut parts = vec![format!(
        "{alias}.policy_id = {stmt_alias}.policy_id AND {alias}.statement_id = {stmt_alias}.statement_id"
    )];
    if let Some(g) = group_alias {
        parts.push(format!("{alias}.data_group_id = {g}.data_group_id"));
    }
    for (attr, value) in &expr.attributes {
        match attr.as_str() {
            "ref" => parts.push(format!(
                "{alias}.ref = {}",
                sql_quote(value.trim_start_matches('#'))
            )),
            "optional" => parts.push(format!("{alias}.optional = {}", sql_quote(value))),
            _ => return Ok(FALSE_COND.to_string()),
        }
    }
    if !expr.children.is_empty() {
        let mut conds = Vec::new();
        for child in &expr.children {
            if child.name.local == "CATEGORIES" {
                conds.push(vocab_table_categories(child, &alias, aliases)?);
            } else {
                conds.push(FALSE_COND.to_string());
            }
        }
        parts.push(combine(expr.connective, &conds));
    }
    Ok(format!(
        "EXISTS (SELECT * FROM data {alias} WHERE {})",
        parts.join(" AND ")
    ))
}

/// CATEGORIES under a DATA row: like PURPOSE/RECIPIENT but keyed by
/// the data row's full primary key.
fn vocab_table_categories(
    expr: &Expr,
    data_alias: &str,
    aliases: &mut Aliases,
) -> Result<String, ServerError> {
    if !expr.attributes.is_empty() {
        return Ok(FALSE_COND.to_string());
    }
    let fk = |alias: &str| {
        format!(
            "{alias}.policy_id = {data_alias}.policy_id AND {alias}.statement_id = {data_alias}.statement_id AND {alias}.data_id = {data_alias}.data_id"
        )
    };
    let value_cond = |child: &Expr, alias: &str| -> String {
        if !child.attributes.is_empty() || !child.children.is_empty() {
            return FALSE_COND.to_string();
        }
        format!("{alias}.category = {}", sql_quote(&child.name.local))
    };
    if expr.children.is_empty() {
        let alias = aliases.fresh();
        return Ok(format!(
            "EXISTS (SELECT * FROM category {alias} WHERE {})",
            fk(&alias)
        ));
    }
    let merged = |aliases: &mut Aliases| {
        let alias = aliases.fresh();
        let conds: Vec<String> = expr
            .children
            .iter()
            .map(|c| value_cond(c, &alias))
            .collect();
        format!(
            "EXISTS (SELECT * FROM category {alias} WHERE {} AND ({}))",
            fk(&alias),
            conds.join(" OR ")
        )
    };
    let per_value = |aliases: &mut Aliases| {
        let conds: Vec<String> = expr
            .children
            .iter()
            .map(|c| {
                let alias = aliases.fresh();
                format!(
                    "EXISTS (SELECT * FROM category {alias} WHERE {} AND {})",
                    fk(&alias),
                    value_cond(c, &alias)
                )
            })
            .collect();
        conds.join(" AND ")
    };
    let exactness = |aliases: &mut Aliases| {
        let alias = aliases.fresh();
        let conds: Vec<String> = expr
            .children
            .iter()
            .map(|c| value_cond(c, &alias))
            .collect();
        format!(
            "NOT EXISTS (SELECT * FROM category {alias} WHERE {} AND NOT ({}))",
            fk(&alias),
            conds.join(" OR ")
        )
    };
    let exists_guard = |aliases: &mut Aliases| {
        let alias = aliases.fresh();
        format!(
            "EXISTS (SELECT * FROM category {alias} WHERE {})",
            fk(&alias)
        )
    };
    Ok(match expr.connective {
        Connective::Or => merged(aliases),
        Connective::NonOr => format!("{} AND NOT {}", exists_guard(aliases), merged(aliases)),
        Connective::And => per_value(aliases),
        Connective::NonAnd => {
            format!("{} AND NOT ({})", exists_guard(aliases), per_value(aliases))
        }
        Connective::AndExact => format!("{} AND {}", per_value(aliases), exactness(aliases)),
        Connective::OrExact => format!("{} AND {}", merged(aliases), exactness(aliases)),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generic::GenericSchema;
    use p3p_appel::model::{jane_preference, Behavior};
    use p3p_appel::parse::parse_ruleset_str;

    fn rule_from(xml: &str) -> Rule {
        parse_ruleset_str(xml).unwrap().rules.remove(0)
    }

    fn figure_12_rule() -> Rule {
        rule_from(
            r#"<appel:RULESET><appel:RULE behavior="block">
                 <POLICY><STATEMENT>
                   <PURPOSE appel:connective="or">
                     <admin/>
                     <contact required="always"/>
                   </PURPOSE>
                 </STATEMENT></POLICY>
               </appel:RULE></appel:RULESET>"#,
        )
    }

    #[test]
    fn optimized_translation_matches_figure_15_shape() {
        let sql = translate_rule_optimized(&figure_12_rule(), QueryForm::Staged).unwrap();
        assert!(sql.starts_with("SELECT 'block' FROM applicable_policy WHERE "));
        // Figure 15: a single merged purpose subquery with OR'd value
        // conditions including the required attribute.
        assert!(sql.contains("FROM policy"), "{sql}");
        assert!(sql.contains("FROM statement"), "{sql}");
        assert_eq!(sql.matches("FROM purpose").count(), 1, "{sql}");
        assert!(sql.contains(".purpose = 'admin'"), "{sql}");
        assert!(sql.contains(".purpose = 'contact'"), "{sql}");
        assert!(sql.contains(".required = 'always'"), "{sql}");
    }

    #[test]
    fn generic_translation_matches_figure_13_shape() {
        let schema = GenericSchema::default();
        let sql = translate_rule_generic(&figure_12_rule(), &schema, QueryForm::Staged).unwrap();
        // Figure 13: one subquery per element, incl. the value tables.
        for marker in [
            "FROM g_policy",
            "FROM g_statement",
            "FROM g_purpose",
            "FROM g_admin",
            "FROM g_contact",
            ".required = 'always'",
        ] {
            assert!(sql.contains(marker), "missing {marker} in:\n{sql}");
        }
        // The generic form has strictly more subqueries than Fig. 15.
        assert!(sql.matches("EXISTS").count() >= 5, "{sql}");
    }

    #[test]
    fn jane_rules_translate() {
        for rule in &jane_preference().rules {
            let sql = translate_rule_optimized(rule, QueryForm::Staged).unwrap();
            assert!(sql.contains("FROM applicable_policy"));
        }
    }

    #[test]
    fn empty_pattern_translates_to_unconditional_select() {
        let rule = Rule::unconditional(Behavior::Request);
        assert_eq!(
            translate_rule_optimized(&rule, QueryForm::Staged).unwrap(),
            "SELECT 'request' FROM applicable_policy"
        );
    }

    #[test]
    fn and_connective_emits_one_subquery_per_value() {
        let rule = rule_from(
            r#"<appel:RULESET><appel:RULE behavior="block">
                 <POLICY><STATEMENT>
                   <PURPOSE><admin/><develop/></PURPOSE>
                 </STATEMENT></POLICY>
               </appel:RULE></appel:RULESET>"#,
        );
        let sql = translate_rule_optimized(&rule, QueryForm::Staged).unwrap();
        assert_eq!(sql.matches("FROM purpose").count(), 2, "{sql}");
    }

    #[test]
    fn non_or_negates_merged_subquery() {
        let rule = rule_from(
            r#"<appel:RULESET><appel:RULE behavior="request">
                 <POLICY><STATEMENT>
                   <RECIPIENT appel:connective="non-or"><unrelated/><public/></RECIPIENT>
                 </STATEMENT></POLICY>
               </appel:RULE></appel:RULESET>"#,
        );
        let sql = translate_rule_optimized(&rule, QueryForm::Staged).unwrap();
        assert!(sql.contains("NOT EXISTS (SELECT * FROM recipient"), "{sql}");
    }

    #[test]
    fn exact_connective_emits_not_exists_guard() {
        let rule = rule_from(
            r#"<appel:RULESET><appel:RULE behavior="request">
                 <POLICY><STATEMENT>
                   <PURPOSE appel:connective="or-exact"><current/><admin/></PURPOSE>
                 </STATEMENT></POLICY>
               </appel:RULE></appel:RULESET>"#,
        );
        let sql = translate_rule_optimized(&rule, QueryForm::Staged).unwrap();
        assert!(
            sql.contains("AND NOT EXISTS (SELECT * FROM purpose"),
            "{sql}"
        );
        assert!(sql.contains("AND NOT ("), "{sql}");
    }

    #[test]
    fn exact_on_structural_elements_is_unsupported() {
        let rule = rule_from(
            r#"<appel:RULESET><appel:RULE behavior="block">
                 <POLICY appel:connective="and-exact"><STATEMENT/></POLICY>
               </appel:RULE></appel:RULESET>"#,
        );
        assert!(matches!(
            translate_rule_optimized(&rule, QueryForm::Staged),
            Err(ServerError::Unsupported(_))
        ));
        assert!(matches!(
            translate_rule_generic(&rule, &GenericSchema::default(), QueryForm::Staged),
            Err(ServerError::Unsupported(_))
        ));
    }

    #[test]
    fn retention_folds_into_statement_column() {
        let rule = rule_from(
            r#"<appel:RULESET><appel:RULE behavior="block">
                 <POLICY><STATEMENT>
                   <RETENTION appel:connective="or"><indefinitely/><business-practices/></RETENTION>
                 </STATEMENT></POLICY>
               </appel:RULE></appel:RULESET>"#,
        );
        let sql = translate_rule_optimized(&rule, QueryForm::Staged).unwrap();
        assert!(sql.contains(".retention = 'indefinitely'"), "{sql}");
        assert!(!sql.contains("FROM retention"), "{sql}");
    }

    #[test]
    fn data_and_categories_translate() {
        let rule = rule_from(
            r##"<appel:RULESET><appel:RULE behavior="block">
                 <POLICY><STATEMENT><DATA-GROUP>
                   <DATA ref="#user.bdate">
                     <CATEGORIES appel:connective="or"><demographic/></CATEGORIES>
                   </DATA>
                 </DATA-GROUP></STATEMENT></POLICY>
               </appel:RULE></appel:RULESET>"##,
        );
        let sql = translate_rule_optimized(&rule, QueryForm::Staged).unwrap();
        assert!(sql.contains(".ref = 'user.bdate'"), "{sql}");
        assert!(sql.contains(".category = 'demographic'"), "{sql}");
    }

    #[test]
    fn implausible_structure_translates_to_false() {
        // PURPOSE directly under POLICY never matches a real policy.
        let rule = rule_from(
            r#"<appel:RULESET><appel:RULE behavior="block">
                 <POLICY><PURPOSE><admin/></PURPOSE></POLICY>
               </appel:RULE></appel:RULESET>"#,
        );
        let sql = translate_rule_optimized(&rule, QueryForm::Staged).unwrap();
        assert!(sql.contains("1 = 0"), "{sql}");
        let gsql =
            translate_rule_generic(&rule, &GenericSchema::default(), QueryForm::Staged).unwrap();
        assert!(gsql.contains("1 = 0"), "{gsql}");
    }

    #[test]
    fn unknown_elements_translate_to_false() {
        let rule = rule_from(
            r#"<appel:RULESET><appel:RULE behavior="block">
                 <POLICY><WEIRD/></POLICY>
               </appel:RULE></appel:RULESET>"#,
        );
        assert!(translate_rule_optimized(&rule, QueryForm::Staged)
            .unwrap()
            .contains("1 = 0"));
    }

    #[test]
    fn access_translates_to_policy_column() {
        let rule = rule_from(
            r#"<appel:RULESET><appel:RULE behavior="block">
                 <POLICY><ACCESS><none/></ACCESS></POLICY>
               </appel:RULE></appel:RULESET>"#,
        );
        let sql = translate_rule_optimized(&rule, QueryForm::Staged).unwrap();
        assert!(sql.contains(".access = 'none'"), "{sql}");
    }

    #[test]
    fn behavior_quoting_is_safe() {
        let mut rule = Rule::unconditional(Behavior::Custom("it's".to_string()));
        rule.pattern.clear();
        let sql = translate_rule_optimized(&rule, QueryForm::Staged).unwrap();
        assert!(sql.contains("'it''s'"));
    }

    #[test]
    fn bound_translation_aliases_policy_as_applicable_policy() {
        let sql = translate_rule_optimized(&figure_12_rule(), QueryForm::Bound).unwrap();
        assert!(
            sql.starts_with(
                "SELECT 'block' FROM policy applicable_policy \
                 WHERE applicable_policy.policy_id = ? AND ("
            ),
            "{sql}"
        );
        // The inner conditions are byte-identical to the staged form.
        let staged = translate_rule_optimized(&figure_12_rule(), QueryForm::Staged).unwrap();
        let staged_conds = staged.split_once(" WHERE ").unwrap().1;
        assert!(sql.ends_with(&format!("({staged_conds})")), "{sql}");
    }

    #[test]
    fn bound_unconditional_rule_checks_policy_existence() {
        let rule = Rule::unconditional(Behavior::Request);
        assert_eq!(
            translate_rule_optimized(&rule, QueryForm::Bound).unwrap(),
            "SELECT 'request' FROM policy applicable_policy \
             WHERE applicable_policy.policy_id = ?"
        );
    }

    #[test]
    fn bound_generic_translation_uses_generic_policy_table() {
        let schema = GenericSchema::default();
        let sql = translate_rule_generic(&figure_12_rule(), &schema, QueryForm::Bound).unwrap();
        assert!(
            sql.starts_with(
                "SELECT 'block' FROM g_policy applicable_policy \
                 WHERE applicable_policy.policy_id = ? AND ("
            ),
            "{sql}"
        );
    }

    #[test]
    fn bound_sql_parses_with_one_parameter() {
        let schema = GenericSchema::default();
        for rule in &jane_preference().rules {
            for sql in [
                translate_rule_optimized(rule, QueryForm::Bound).unwrap(),
                translate_rule_generic(rule, &schema, QueryForm::Bound).unwrap(),
            ] {
                let (_, params) = p3p_minidb::sql::parse_statement_params(&sql).unwrap();
                assert_eq!(params.len(), 1, "{sql}");
            }
        }
    }

    #[test]
    fn corpus_translation_selects_distinct_policy_ids() {
        let sql = translate_rule_optimized(&figure_12_rule(), QueryForm::Corpus).unwrap();
        assert!(
            sql.starts_with(
                "SELECT DISTINCT applicable_policy.policy_id \
                 FROM policy applicable_policy WHERE ("
            ),
            "{sql}"
        );
        assert!(sql.ends_with(')'), "{sql}");
        // The inner conditions are byte-identical to the staged form.
        let staged = translate_rule_optimized(&figure_12_rule(), QueryForm::Staged).unwrap();
        let staged_conds = staged.split_once(" WHERE ").unwrap().1;
        assert!(sql.contains(staged_conds), "{sql}");
        // No bind parameters: one execution covers the whole corpus.
        let (_, params) = p3p_minidb::sql::parse_statement_params(&sql).unwrap();
        assert!(params.is_empty(), "{sql}");
    }

    #[test]
    fn corpus_unconditional_rule_scans_the_policy_table() {
        let rule = Rule::unconditional(Behavior::Request);
        assert_eq!(
            translate_rule_optimized(&rule, QueryForm::Corpus).unwrap(),
            "SELECT DISTINCT applicable_policy.policy_id FROM policy applicable_policy"
        );
        let schema = GenericSchema::default();
        assert_eq!(
            translate_rule_generic(&rule, &schema, QueryForm::Corpus).unwrap(),
            "SELECT DISTINCT applicable_policy.policy_id FROM g_policy applicable_policy"
        );
    }

    #[test]
    fn corpus_generic_translation_uses_generic_policy_table() {
        let schema = GenericSchema::default();
        let sql = translate_rule_generic(&figure_12_rule(), &schema, QueryForm::Corpus).unwrap();
        assert!(
            sql.starts_with(
                "SELECT DISTINCT applicable_policy.policy_id \
                 FROM g_policy applicable_policy WHERE ("
            ),
            "{sql}"
        );
    }

    #[test]
    fn corpus_sql_parses_for_jane_rules() {
        let schema = GenericSchema::default();
        for rule in &jane_preference().rules {
            for sql in [
                translate_rule_optimized(rule, QueryForm::Corpus).unwrap(),
                translate_rule_generic(rule, &schema, QueryForm::Corpus).unwrap(),
            ] {
                p3p_minidb::sql::parse_statement(&sql).unwrap();
            }
        }
    }

    #[test]
    fn generated_sql_parses() {
        // All of Jane's rules must be syntactically valid for minidb.
        for rule in &jane_preference().rules {
            let sql = translate_rule_optimized(rule, QueryForm::Staged).unwrap();
            p3p_minidb::sql::parse_statement(&sql).unwrap();
            let gsql =
                translate_rule_generic(rule, &GenericSchema::default(), QueryForm::Staged).unwrap();
            p3p_minidb::sql::parse_statement(&gsql).unwrap();
        }
    }
}
