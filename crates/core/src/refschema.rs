//! Reference-file tables (the paper's Figure 16) and the
//! `applicablePolicy()` resolution of §5.3.
//!
//! The META element's POLICY-REF entries are shredded into relational
//! tables; at match time a SQL query over them finds the policy whose
//! INCLUDE patterns cover the requested URI and whose EXCLUDE patterns
//! do not. The paper stores that id in a one-row temporary table
//! ("the result of this subquery has been stored in the one-row
//! temporary table ApplicablePolicy" — §5.3.1); the server instead
//! binds it as the parameter of the translated queries, which alias
//! the policy table as `applicable_policy` (see
//! [`crate::appel2sql::QueryForm`]).

use crate::error::ServerError;
use p3p_minidb::{Database, Value};
use p3p_policy::reference::ReferenceFile;

/// DDL for the reference-file tables (Figure 16).
pub fn reference_ddl() -> Vec<String> {
    let mut out = vec![
        "CREATE TABLE meta (meta_id INT NOT NULL, PRIMARY KEY (meta_id))".to_string(),
        "CREATE TABLE policyref (meta_id INT NOT NULL, policyref_id INT NOT NULL, \
         about VARCHAR NOT NULL, policy_id INT, \
         PRIMARY KEY (meta_id, policyref_id), \
         FOREIGN KEY (meta_id) REFERENCES meta (meta_id))"
            .to_string(),
    ];
    for t in ["include", "exclude", "cookie_include", "cookie_exclude"] {
        out.push(format!(
            "CREATE TABLE {t} (meta_id INT NOT NULL, policyref_id INT NOT NULL, pattern VARCHAR NOT NULL, \
             FOREIGN KEY (meta_id, policyref_id) REFERENCES policyref (meta_id, policyref_id))"
        ));
        out.push(format!(
            "CREATE INDEX idx_{t}_fk ON {t} (meta_id, policyref_id)"
        ));
    }
    out
}

/// Install the reference tables.
pub fn install(db: &mut Database) -> Result<(), ServerError> {
    for sql in reference_ddl() {
        db.execute(&sql)?;
    }
    Ok(())
}

/// Convert a P3P `*`-wildcard pattern to a SQL LIKE pattern.
pub fn wildcard_to_like(pattern: &str) -> String {
    pattern.replace('*', "%")
}

/// Shred a reference file under `meta_id`. `resolve` maps a POLICY-REF
/// `about` value to the installed policy's id (returning `None` leaves
/// the column NULL — a dangling reference). All INSERTs are
/// parameterized with fixed texts, so repeated installs reuse a small
/// set of cached plans.
pub fn shred_reference(
    db: &mut Database,
    meta_id: i64,
    file: &ReferenceFile,
    mut resolve: impl FnMut(&str) -> Option<i64>,
) -> Result<(), ServerError> {
    let exec = |db: &mut Database, sql: &str, params: &[Value]| -> Result<(), ServerError> {
        let plan = db.prepare(sql)?;
        db.execute_prepared(&plan, params)?;
        Ok(())
    };
    exec(db, "INSERT INTO meta VALUES (?)", &[Value::Int(meta_id)])?;
    for (i, pref) in file.policy_refs.iter().enumerate() {
        let policyref_id = i as i64 + 1;
        let policy_id = match resolve(pref.policy_name()) {
            Some(id) => Value::Int(id),
            None => Value::Null,
        };
        exec(
            db,
            "INSERT INTO policyref VALUES (?, ?, ?, ?)",
            &[
                Value::Int(meta_id),
                Value::Int(policyref_id),
                Value::Text(pref.about.clone()),
                policy_id,
            ],
        )?;
        let batches = [
            ("include", &pref.includes),
            ("exclude", &pref.excludes),
            ("cookie_include", &pref.cookie_includes),
            ("cookie_exclude", &pref.cookie_excludes),
        ];
        for (table, patterns) in batches {
            for pattern in patterns {
                exec(
                    db,
                    &format!("INSERT INTO {table} VALUES (?, ?, ?)"),
                    &[
                        Value::Int(meta_id),
                        Value::Int(policyref_id),
                        Value::Text(wildcard_to_like(pattern)),
                    ],
                )?;
            }
        }
    }
    Ok(())
}

/// `applicablePolicy()`: resolve the policy covering `uri` with a SQL
/// query over the reference tables — first POLICY-REF (document order)
/// with a matching INCLUDE and no matching EXCLUDE.
pub fn applicable_policy(db: &Database, uri: &str) -> Result<Option<i64>, ServerError> {
    // The URI enters as a bound parameter: one cached plan serves every
    // lookup instead of one single-use plan per distinct URI.
    let plan = db.prepare(
        "SELECT pr.policy_id FROM policyref pr \
         WHERE EXISTS (SELECT * FROM include i WHERE i.meta_id = pr.meta_id \
             AND i.policyref_id = pr.policyref_id AND :uri LIKE i.pattern) \
         AND NOT EXISTS (SELECT * FROM exclude e WHERE e.meta_id = pr.meta_id \
             AND e.policyref_id = pr.policyref_id AND :uri LIKE e.pattern) \
         ORDER BY pr.meta_id, pr.policyref_id LIMIT 1",
    )?;
    let params = plan.bind_named(&[("uri", Value::Text(uri.to_string()))])?;
    let result = db.query_prepared(&plan, &params)?;
    Ok(result.rows.first().and_then(|r| r[0].as_int()))
}

/// The cookie variant of [`applicable_policy`].
pub fn applicable_cookie_policy(db: &Database, cookie: &str) -> Result<Option<i64>, ServerError> {
    let plan = db.prepare(
        "SELECT pr.policy_id FROM policyref pr \
         WHERE EXISTS (SELECT * FROM cookie_include i WHERE i.meta_id = pr.meta_id \
             AND i.policyref_id = pr.policyref_id AND :cookie LIKE i.pattern) \
         AND NOT EXISTS (SELECT * FROM cookie_exclude e WHERE e.meta_id = pr.meta_id \
             AND e.policyref_id = pr.policyref_id AND :cookie LIKE e.pattern) \
         ORDER BY pr.meta_id, pr.policyref_id LIMIT 1",
    )?;
    let params = plan.bind_named(&[("cookie", Value::Text(cookie.to_string()))])?;
    let result = db.query_prepared(&plan, &params)?;
    Ok(result.rows.first().and_then(|r| r[0].as_int()))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn reference() -> ReferenceFile {
        ReferenceFile::parse(
            r#"<META><POLICY-REFERENCES>
                 <POLICY-REF about="/p3p/policies.xml#checkout">
                   <INCLUDE>/checkout/*</INCLUDE>
                   <EXCLUDE>/checkout/help*</EXCLUDE>
                   <COOKIE-INCLUDE>session=*</COOKIE-INCLUDE>
                 </POLICY-REF>
                 <POLICY-REF about="/p3p/policies.xml#general">
                   <INCLUDE>/*</INCLUDE>
                 </POLICY-REF>
               </POLICY-REFERENCES></META>"#,
        )
        .unwrap()
    }

    fn installed() -> Database {
        let mut db = Database::new();
        install(&mut db).unwrap();
        let ids = |name: &str| match name {
            "checkout" => Some(10),
            "general" => Some(20),
            _ => None,
        };
        shred_reference(&mut db, 1, &reference(), ids).unwrap();
        db
    }

    #[test]
    fn shreds_reference_rows() {
        let db = installed();
        assert_eq!(db.table("meta").unwrap().len(), 1);
        assert_eq!(db.table("policyref").unwrap().len(), 2);
        assert_eq!(db.table("include").unwrap().len(), 2);
        assert_eq!(db.table("exclude").unwrap().len(), 1);
        assert_eq!(db.table("cookie_include").unwrap().len(), 1);
    }

    #[test]
    fn applicable_policy_first_match_wins() {
        let db = installed();
        assert_eq!(applicable_policy(&db, "/checkout/pay").unwrap(), Some(10));
        assert_eq!(applicable_policy(&db, "/index.html").unwrap(), Some(20));
    }

    #[test]
    fn excludes_fall_through() {
        let db = installed();
        assert_eq!(
            applicable_policy(&db, "/checkout/help/faq").unwrap(),
            Some(20)
        );
    }

    #[test]
    fn no_match_when_nothing_covers() {
        let mut db = Database::new();
        install(&mut db).unwrap();
        let mut file = ReferenceFile::default();
        file.policy_refs.push({
            let mut r = p3p_policy::reference::PolicyRef::new("#only");
            r.includes.push("/only/*".to_string());
            r
        });
        shred_reference(&mut db, 1, &file, |_| Some(1)).unwrap();
        assert_eq!(applicable_policy(&db, "/other").unwrap(), None);
    }

    #[test]
    fn cookie_lookup_works() {
        let db = installed();
        assert_eq!(
            applicable_cookie_policy(&db, "session=abc").unwrap(),
            Some(10)
        );
        assert_eq!(applicable_cookie_policy(&db, "tracker=1").unwrap(), None);
    }

    #[test]
    fn sql_lookup_agrees_with_model_lookup() {
        let db = installed();
        let file = reference();
        for uri in [
            "/checkout/pay",
            "/checkout/help/faq",
            "/cart/view",
            "/index.html",
            "/checkout/",
        ] {
            let model = file.lookup(uri).map(|r| match r.policy_name() {
                "checkout" => 10i64,
                "general" => 20,
                _ => -1,
            });
            let sql = applicable_policy(&db, uri).unwrap();
            assert_eq!(model, sql, "disagreement on {uri}");
        }
    }

    #[test]
    fn dangling_reference_stores_null() {
        let mut db = Database::new();
        install(&mut db).unwrap();
        shred_reference(&mut db, 1, &reference(), |_| None).unwrap();
        let r = db.query("SELECT policy_id FROM policyref").unwrap();
        assert!(r.rows.iter().all(|row| row[0].is_null()));
    }

    #[test]
    fn wildcard_conversion() {
        assert_eq!(wildcard_to_like("/checkout/*"), "/checkout/%");
        assert_eq!(wildcard_to_like("*.html"), "%.html");
        assert_eq!(wildcard_to_like("/plain"), "/plain");
    }
}
