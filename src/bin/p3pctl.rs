//! `p3pctl` — command-line front end to the P3P suite.
//!
//! ```text
//! p3pctl validate  <policy.xml>                 check P3P conformance
//! p3pctl compact   <policy.xml>                 print the P3P compact header
//! p3pctl shred     <policy.xml>                 show the relational form
//! p3pctl translate <pref.xml> [--generic|--xquery]
//!                                               print per-rule SQL / XQuery
//! p3pctl match     <pref.xml> <policy.xml>...  [--engine sql|native|generic|xtable|xmlstore]
//!                                               verdict per policy
//! ```

use p3p_suite::appel::Ruleset;
use p3p_suite::policy::compact::CompactPolicy;
use p3p_suite::policy::model::Policy;
use p3p_suite::policy::validate;
use p3p_suite::server::appel2sql::{translate_rule_generic, translate_rule_optimized, QueryForm};
use p3p_suite::server::appel2xquery::translate_rule_xquery;
use p3p_suite::server::generic::GenericSchema;
use p3p_suite::server::{EngineKind, PolicyServer, Target};
use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some((command, rest)) = args.split_first() else {
        return usage("missing command");
    };
    let result = match command.as_str() {
        "validate" => cmd_validate(rest),
        "compact" => cmd_compact(rest),
        "shred" => cmd_shred(rest),
        "translate" => cmd_translate(rest),
        "match" => cmd_match(rest),
        "--help" | "-h" | "help" => {
            print_usage();
            Ok(())
        }
        other => Err(format!("unknown command `{other}`")),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(message) => {
            eprintln!("error: {message}");
            ExitCode::from(2)
        }
    }
}

fn usage(err: &str) -> ExitCode {
    eprintln!("error: {err}\n");
    print_usage();
    ExitCode::from(2)
}

fn print_usage() {
    eprintln!(
        "usage:\n  p3pctl validate  <policy.xml>\n  p3pctl compact   <policy.xml>\n  \
         p3pctl shred     <policy.xml>\n  p3pctl translate <pref.xml> [--generic|--xquery]\n  \
         p3pctl match     <pref.xml> <policy.xml>... [--engine sql|native|generic|xtable|xmlstore]"
    );
}

fn read(path: &str) -> Result<String, String> {
    std::fs::read_to_string(path).map_err(|e| format!("cannot read `{path}`: {e}"))
}

fn load_policy(path: &str) -> Result<Policy, String> {
    Policy::parse(&read(path)?).map_err(|e| format!("{path}: {e}"))
}

fn load_ruleset(path: &str) -> Result<Ruleset, String> {
    Ruleset::parse(&read(path)?).map_err(|e| format!("{path}: {e}"))
}

fn cmd_validate(args: &[String]) -> Result<(), String> {
    let [path] = args else {
        return Err("validate takes exactly one policy file".to_string());
    };
    let policy = load_policy(path)?;
    let violations = validate::validate(&policy);
    if violations.is_empty() {
        println!(
            "{path}: policy `{}` is conforming ({} statements, {} data elements)",
            policy.name,
            policy.statements.len(),
            policy.data_element_count()
        );
        Ok(())
    } else {
        for v in &violations {
            println!("{path}: {v}");
        }
        Err(format!("{} violation(s)", violations.len()))
    }
}

fn cmd_compact(args: &[String]) -> Result<(), String> {
    let [path] = args else {
        return Err("compact takes exactly one policy file".to_string());
    };
    let policy = load_policy(path)?;
    println!("P3P: {}", CompactPolicy::from_policy(&policy).to_header());
    Ok(())
}

fn cmd_shred(args: &[String]) -> Result<(), String> {
    let [path] = args else {
        return Err("shred takes exactly one policy file".to_string());
    };
    let policy = load_policy(path)?;
    let mut server = PolicyServer::new();
    server.install_policy(&policy).map_err(|e| e.to_string())?;
    println!("policy `{}` shredded:", policy.name);
    for table in [
        "policy",
        "statement",
        "purpose",
        "recipient",
        "data",
        "category",
    ] {
        let n = server.database().table(table).map_or(0, |t| t.len());
        println!("  {table:<10} {n:>4} rows");
        if table == "purpose" || table == "recipient" {
            let rows = server
                .database()
                .query(&format!(
                    "SELECT statement_id, {table}, required FROM {table} ORDER BY statement_id"
                ))
                .map_err(|e| e.to_string())?;
            for r in rows.rows {
                println!("             stmt {} → {} ({})", r[0], r[1], r[2]);
            }
        }
    }
    Ok(())
}

fn cmd_translate(args: &[String]) -> Result<(), String> {
    let mut path: Option<&str> = None;
    let mut mode = "optimized";
    for a in args {
        match a.as_str() {
            "--generic" => mode = "generic",
            "--xquery" => mode = "xquery",
            other if !other.starts_with("--") && path.is_none() => path = Some(other),
            other => return Err(format!("unexpected argument `{other}`")),
        }
    }
    let Some(path) = path else {
        return Err("translate takes a preference file".to_string());
    };
    let ruleset = load_ruleset(path)?;
    let schema = GenericSchema::default();
    for (i, rule) in ruleset.rules.iter().enumerate() {
        println!("-- rule {} (behavior: {})", i + 1, rule.behavior);
        let text = match mode {
            "generic" => translate_rule_generic(rule, &schema, QueryForm::Staged)
                .map_err(|e| e.to_string())?,
            "xquery" => {
                if rule.pattern.is_empty() {
                    "(unconditional rule — no query)".to_string()
                } else {
                    translate_rule_xquery(rule, "applicable-policy")
                        .map_err(|e| e.to_string())?
                        .to_string()
                }
            }
            _ => translate_rule_optimized(rule, QueryForm::Staged).map_err(|e| e.to_string())?,
        };
        println!("{text}\n");
    }
    Ok(())
}

fn cmd_match(args: &[String]) -> Result<(), String> {
    let mut engine = EngineKind::Sql;
    let mut files: Vec<&str> = Vec::new();
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--engine" => {
                i += 1;
                engine = match args.get(i).map(String::as_str) {
                    Some("sql") => EngineKind::Sql,
                    Some("native") => EngineKind::Native,
                    Some("generic") => EngineKind::SqlGeneric,
                    Some("xtable") => EngineKind::XQueryXTable,
                    Some("xmlstore") => EngineKind::XQueryNative,
                    other => return Err(format!("unknown engine {other:?}")),
                };
            }
            other => files.push(other),
        }
        i += 1;
    }
    let Some((pref_path, policy_paths)) = files.split_first() else {
        return Err("match takes a preference file and at least one policy file".to_string());
    };
    if policy_paths.is_empty() {
        return Err("match needs at least one policy file".to_string());
    }
    let ruleset = load_ruleset(pref_path)?;
    let mut server = PolicyServer::new();
    let mut names = Vec::new();
    for p in policy_paths {
        let policy = load_policy(p)?;
        names.push((p.to_string(), policy.name.clone()));
        server.install_policy(&policy).map_err(|e| e.to_string())?;
    }
    for (path, name) in &names {
        match server.match_preference(&ruleset, Target::Policy(name), engine) {
            Ok(outcome) => println!(
                "{path}: {} (rule {:?}, convert {:?}, query {:?})",
                outcome.verdict.behavior,
                outcome.verdict.fired_rule,
                outcome.convert,
                outcome.query
            ),
            Err(e) => println!("{path}: engine error: {e}"),
        }
    }
    Ok(())
}
