//! Quickstart: the paper's §2 walk-through, end to end.
//!
//! Volga the bookseller publishes the privacy policy of Figure 1; Jane
//! the privacy-conscious shopper carries the APPEL preference of
//! Figure 2. The server shreds Volga's policy into relational tables,
//! translates Jane's preference into SQL, and decides whether Jane's
//! browser should proceed.
//!
//! ```sh
//! cargo run --example quickstart
//! ```

use p3p_suite::appel::model::{jane_preference, Behavior};
use p3p_suite::policy::model::volga_policy;
use p3p_suite::server::appel2sql::{translate_rule_optimized, QueryForm};
use p3p_suite::server::{EngineKind, PolicyServer, Target};

fn main() {
    // --- the site side: install the policy --------------------------
    let policy = volga_policy();
    println!(
        "Volga's P3P policy (paper Figure 1):\n{}\n",
        policy.to_xml()
    );

    let mut server = PolicyServer::new();
    server.install_policy(&policy).expect("policy installs");
    println!(
        "Installed: {} policies, {} rows across {} relational tables\n",
        server.policy_names().len(),
        server.database().total_rows(),
        server.database().table_names().len(),
    );

    // --- the user side: the preference ------------------------------
    let jane = jane_preference();
    println!(
        "Jane's APPEL preference (paper Figure 2):\n{}\n",
        jane.to_xml()
    );

    // Show the rule's SQL in the paper's Figure 15 shape.
    println!("SQL translation of Jane's first rule:");
    println!(
        "{}\n",
        translate_rule_optimized(&jane.rules[0], QueryForm::Staged).expect("translates")
    );

    // --- the match ---------------------------------------------------
    let outcome = server
        .match_preference(&jane, Target::Policy("volga"), EngineKind::Sql)
        .expect("match runs");
    println!(
        "Verdict: {} (rule {:?} fired; convert {:?}, query {:?})",
        outcome.verdict.behavior, outcome.verdict.fired_rule, outcome.convert, outcome.query
    );
    assert_eq!(outcome.verdict.behavior, Behavior::Request);
    println!("→ Volga's policy conforms to Jane's preferences; the request proceeds.\n");

    // The paper's counterfactual: were individual-decision not opt-in,
    // Jane's first rule would fire.
    let mut aggressive = volga_policy();
    aggressive.name = "volga-no-optin".to_string();
    aggressive.statements[1].purposes[0].required = p3p_suite::policy::Required::Always;
    server.install_policy(&aggressive).expect("installs");
    let blocked = server
        .match_preference(&jane, Target::Policy("volga-no-optin"), EngineKind::Sql)
        .expect("match runs");
    println!(
        "Without the opt-in, the verdict becomes: {} (rule {:?})",
        blocked.verdict.behavior, blocked.verdict.fired_rule
    );
    assert_eq!(blocked.verdict.behavior, Behavior::Block);
}
