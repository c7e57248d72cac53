//! The XTABLE role: compiling XQuery into SQL over the generic schema.
//!
//! The paper's second architectural variation runs APPEL-derived
//! XQueries against an XML *view* of the shredded relational tables;
//! the XTABLE/XPERANTO middleware translates each XQuery into SQL for
//! DB2 (§6.1). This module is that middleware's stand-in. Two
//! deliberate fidelity points:
//!
//! * the compiler works against the **generic** (Figure 8) schema —
//!   the reconstruction view is defined over the uniform decomposition,
//!   not the hand-optimized tables — so its SQL carries more joins
//!   than the direct APPEL→SQL translation, reproducing the measured
//!   gap between the SQL and XQuery paths (Figure 20);
//! * queries containing the exactness predicate (`only(...)`) or
//!   exceeding a size limit are rejected with
//!   [`XQueryError::TooComplex`], reproducing the missing Medium entry
//!   of Figure 21 ("The XTABLE translation of the XQuery into SQL was
//!   too complex for DB2 to execute in this case").
//!
//! The outer query is rendered in a [`QueryForm`] over `g_policy`, like
//! the generic APPEL→SQL translator's, so the server binds the policy
//! id into XTABLE's SQL (or sweeps the corpus with it) exactly as it
//! does for the SQL engines.

use crate::appel2sql::{render_form, QueryForm};
use crate::generic::{sql_quote, GenericSchema};
use crate::meta_schema;
use p3p_xquery::ast::{Pred, Step, XQuery};
use p3p_xquery::error::XQueryError;

/// The XQuery→SQL compiler.
#[derive(Debug, Clone)]
pub struct XTable {
    schema: GenericSchema,
    /// Maximum query size ([`XQuery::size`]) accepted.
    pub size_limit: usize,
}

impl XTable {
    /// A compiler over the given generic schema with the default limit.
    pub fn new(schema: GenericSchema) -> XTable {
        XTable {
            schema,
            size_limit: 96,
        }
    }

    /// Compile a query to SQL in `form`: the behavior when the path
    /// matches the policy under test, or the ids of every matching
    /// policy for [`QueryForm::Corpus`].
    pub fn compile(&self, query: &XQuery, form: QueryForm) -> Result<String, XQueryError> {
        if query.size() > self.size_limit {
            return Err(XQueryError::TooComplex {
                size: query.size(),
                limit: self.size_limit,
            });
        }
        if contains_only(&query.root) {
            // Exactness requires negated quantification over *all*
            // sibling element tables of the view — beyond this
            // compiler, as it was beyond XTABLE+DB2 in the paper.
            return Err(XQueryError::TooComplex {
                size: query.size(),
                limit: self.size_limit,
            });
        }
        let mut aliases = 0usize;
        let cond = self.step_condition(&query.root, None, &mut aliases)?;
        let policy_table = self.schema.table_for("POLICY");
        Ok(render_form(
            form,
            &query.behavior,
            &policy_table,
            Some(&cond),
        ))
    }

    fn step_condition(
        &self,
        step: &Step,
        parent: Option<(&str, &str)>,
        aliases: &mut usize,
    ) -> Result<String, XQueryError> {
        let Some(def) = meta_schema::find(&step.name) else {
            return Ok("1 = 0".to_string());
        };
        match (parent, def.parent) {
            (None, None) => {}
            (Some((_, pname)), Some(dparent)) if pname == dparent => {}
            _ => return Ok("1 = 0".to_string()),
        }
        *aliases += 1;
        let alias = format!("x{aliases}");
        let table = self.schema.table_for(def.name);
        let mut parts: Vec<String> = Vec::new();
        match parent {
            Some((palias, pname)) => {
                for col in meta_schema::key_chain(pname) {
                    parts.push(format!("{alias}.{col} = {palias}.{col}"));
                }
            }
            None => parts.push(format!("{alias}.policy_id = applicable_policy.policy_id")),
        }
        if let Some(pred) = &step.predicate {
            parts.push(self.pred_condition(pred, &alias, def.name, aliases)?);
        }
        Ok(format!(
            "EXISTS (SELECT * FROM {table} {alias} WHERE {})",
            parts.join(" AND ")
        ))
    }

    fn pred_condition(
        &self,
        pred: &Pred,
        alias: &str,
        elem: &str,
        aliases: &mut usize,
    ) -> Result<String, XQueryError> {
        match pred {
            Pred::And(ps) => {
                let parts: Vec<String> = ps
                    .iter()
                    .map(|p| self.pred_condition(p, alias, elem, aliases))
                    .collect::<Result<_, _>>()?;
                Ok(format!("({})", parts.join(" AND ")))
            }
            Pred::Or(ps) => {
                let parts: Vec<String> = ps
                    .iter()
                    .map(|p| self.pred_condition(p, alias, elem, aliases))
                    .collect::<Result<_, _>>()?;
                Ok(format!("({})", parts.join(" OR ")))
            }
            Pred::Not(p) => Ok(format!(
                "NOT ({})",
                self.pred_condition(p, alias, elem, aliases)?
            )),
            Pred::AttrEq(name, value) => {
                let def = meta_schema::find(elem).expect("caller verified");
                if def.attrs.iter().any(|a| a == name) {
                    Ok(format!(
                        "{alias}.{} = {}",
                        meta_schema::sql_name(name),
                        sql_quote(value)
                    ))
                } else {
                    Ok("1 = 0".to_string())
                }
            }
            Pred::Exists(steps) => self.path_condition(steps, alias, elem, aliases),
            Pred::OnlyChildren(_) => unreachable!("rejected in compile()"),
        }
    }

    /// A relative path becomes nested EXISTS conditions.
    fn path_condition(
        &self,
        steps: &[Step],
        parent_alias: &str,
        parent_elem: &str,
        aliases: &mut usize,
    ) -> Result<String, XQueryError> {
        let Some((first, rest)) = steps.split_first() else {
            return Ok("1 = 1".to_string());
        };
        if rest.is_empty() {
            return self.step_condition(first, Some((parent_alias, parent_elem)), aliases);
        }
        // Fold: EXISTS(first ... AND <rest under first>). Rebuild the
        // first step without its own predicate merge problems by
        // compiling first's condition with an extra conjunct.
        let Some(def) = meta_schema::find(&first.name) else {
            return Ok("1 = 0".to_string());
        };
        if def.parent != Some(meta_schema::find(parent_elem).expect("verified").name) {
            return Ok("1 = 0".to_string());
        }
        *aliases += 1;
        let alias = format!("x{aliases}");
        let table = self.schema.table_for(def.name);
        let mut parts: Vec<String> = Vec::new();
        for col in meta_schema::key_chain(parent_elem) {
            parts.push(format!("{alias}.{col} = {parent_alias}.{col}"));
        }
        if let Some(pred) = &first.predicate {
            parts.push(self.pred_condition(pred, &alias, def.name, aliases)?);
        }
        parts.push(self.path_condition(rest, &alias, def.name, aliases)?);
        Ok(format!(
            "EXISTS (SELECT * FROM {table} {alias} WHERE {})",
            parts.join(" AND ")
        ))
    }
}

/// Does the query contain an exactness predicate anywhere?
fn contains_only(step: &Step) -> bool {
    step.predicate.as_ref().is_some_and(pred_contains_only)
}

fn pred_contains_only(pred: &Pred) -> bool {
    match pred {
        Pred::OnlyChildren(_) => true,
        Pred::And(ps) | Pred::Or(ps) => ps.iter().any(pred_contains_only),
        Pred::Not(p) => pred_contains_only(p),
        Pred::Exists(steps) => steps.iter().any(contains_only),
        Pred::AttrEq(_, _) => false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use p3p_xquery::parse::parse_xquery;

    fn compiler() -> XTable {
        XTable::new(GenericSchema::default())
    }

    fn compile(q: &str) -> Result<String, XQueryError> {
        compiler().compile(&parse_xquery(q).unwrap(), QueryForm::Staged)
    }

    #[test]
    fn figure_18_compiles_to_figure_13_shape() {
        let sql = compile(
            "if (document(\"p\")/POLICY[STATEMENT[PURPOSE[admin or contact[@required = \"always\"]]]]) then <block/>",
        )
        .unwrap();
        for marker in [
            "SELECT 'block' FROM applicable_policy",
            "FROM g_policy",
            "FROM g_statement",
            "FROM g_purpose",
            "FROM g_admin",
            "FROM g_contact",
            ".required = 'always'",
        ] {
            assert!(sql.contains(marker), "missing {marker} in:\n{sql}");
        }
        p3p_minidb::sql::parse_statement(&sql).unwrap();
    }

    #[test]
    fn multi_step_paths_nest() {
        let sql = compile(
            "if (document(\"p\")/POLICY[STATEMENT/DATA-GROUP/DATA[@ref = \"#user.name\"]]) then <block/>",
        )
        .unwrap();
        assert!(sql.contains("FROM g_data_group"), "{sql}");
        assert!(sql.contains("FROM g_data "), "{sql}");
        p3p_minidb::sql::parse_statement(&sql).unwrap();
    }

    #[test]
    fn not_compiles() {
        let sql = compile(
            "if (document(\"p\")/POLICY[not(STATEMENT[RECIPIENT[unrelated]])]) then <request/>",
        )
        .unwrap();
        assert!(sql.contains("NOT (EXISTS"), "{sql}");
        p3p_minidb::sql::parse_statement(&sql).unwrap();
    }

    #[test]
    fn only_predicate_is_too_complex() {
        let err = compile(
            "if (document(\"p\")/POLICY[STATEMENT[PURPOSE[(current or admin) and only(current, admin)]]]) then <request/>",
        )
        .unwrap_err();
        assert!(matches!(err, XQueryError::TooComplex { .. }), "{err}");
    }

    #[test]
    fn size_limit_rejects_huge_queries() {
        let mut c = compiler();
        c.size_limit = 3;
        let err = c
            .compile(
                &parse_xquery(
                    "if (document(\"p\")/POLICY[STATEMENT[PURPOSE[admin or develop]]]) then <block/>",
                )
                .unwrap(),
                QueryForm::Staged,
            )
            .unwrap_err();
        assert!(matches!(err, XQueryError::TooComplex { .. }));
    }

    #[test]
    fn unknown_elements_become_false() {
        let sql = compile("if (document(\"p\")/POLICY[WEIRD]) then <block/>").unwrap();
        assert!(sql.contains("1 = 0"), "{sql}");
    }

    #[test]
    fn misplaced_elements_become_false() {
        let sql = compile("if (document(\"p\")/POLICY[PURPOSE[admin]]) then <block/>").unwrap();
        assert!(sql.contains("1 = 0"), "{sql}");
    }

    #[test]
    fn unknown_attribute_becomes_false() {
        let sql = compile(
            "if (document(\"p\")/POLICY[STATEMENT[PURPOSE[contact[@weird = \"x\"]]]]) then <block/>",
        )
        .unwrap();
        assert!(sql.contains("1 = 0"), "{sql}");
    }

    #[test]
    fn compiled_sql_runs_against_shredded_tables() {
        use p3p_minidb::Value;
        use p3p_policy::augment::augment_policy;
        use p3p_policy::model::volga_policy;
        use p3p_policy::serialize::policy_to_element;

        let mut db = p3p_minidb::Database::new();
        let schema = GenericSchema::default();
        schema.install(&mut db).unwrap();
        schema
            .shred(
                &mut db,
                1,
                &policy_to_element(&augment_policy(&volga_policy())),
            )
            .unwrap();
        // The bound form the server runs, with policy 1 as the parameter.
        let run = |q: &str| {
            let sql = compiler()
                .compile(&parse_xquery(q).unwrap(), QueryForm::Bound)
                .unwrap();
            let plan = db.prepare(&sql).unwrap();
            db.query_prepared(&plan, &[Value::Int(1)]).unwrap()
        };

        // Volga: no admin, contact only opt-in → empty result.
        assert!(run(
            "if (document(\"p\")/POLICY[STATEMENT[PURPOSE[admin or contact[@required = \"always\"]]]]) then <block/>",
        )
        .is_empty());

        // current is present → the request query returns one row.
        let r = run("if (document(\"p\")/POLICY[STATEMENT[PURPOSE[current]]]) then <request/>");
        assert_eq!(r.rows.len(), 1);
        assert_eq!(r.rows[0][0].as_str(), Some("request"));
    }
}
