//! The suite's central property: every matching engine implements the
//! same preference-matching semantics.
//!
//! Random P3P policies and random APPEL rules are generated; the
//! verdicts of the native APPEL engine, the SQL path over both schemas,
//! and the XQuery-on-XML-store path must coincide — and the
//! XQuery→XTABLE→SQL path must coincide whenever it can translate the
//! preference (exact connectives defeat it, as in the paper).
//!
//! Formerly `proptest` properties; the build environment has no
//! crates.io access, so each property now runs over a deterministic
//! stream of pseudo-random cases from an inline SplitMix64 generator.

use p3p_suite::appel::model::{Behavior, Connective, Expr, Rule, Ruleset};
use p3p_suite::minidb::ExecOptions;
use p3p_suite::policy::model::{DataGroup, DataRef, Policy, PurposeUse, RecipientUse, Statement};
use p3p_suite::policy::vocab::{Category, Purpose, Recipient, Required, Retention};
use p3p_suite::server::{EngineKind, PolicyServer, Target};

struct TestRng(u64);

impl TestRng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn index(&mut self, n: usize) -> usize {
        (((self.next() as u128) * (n as u128)) >> 64) as usize
    }

    fn pick<'a, T>(&mut self, options: &'a [T]) -> &'a T {
        &options[self.index(options.len())]
    }
}

// --- policy generator ----------------------------------------------------

fn random_required(rng: &mut TestRng) -> Required {
    *rng.pick(&[Required::Always, Required::OptIn, Required::OptOut])
}

fn random_data_ref(rng: &mut TestRng) -> DataRef {
    const REFS: &[&str] = &[
        "user.name",
        "user.name.given",
        "user.bdate",
        "user.home-info.postal",
        "user.home-info.online.email",
        "dynamic.clickstream",
        "dynamic.cookies",
        "dynamic.miscdata",
    ];
    let mut d = DataRef::new(*rng.pick(REFS));
    d.optional = rng.index(2) == 1;
    let mut cats: Vec<Category> = (0..rng.index(2))
        .map(|_| *rng.pick(Category::ALL))
        .collect();
    cats.dedup();
    d.categories = cats;
    d
}

fn random_statement(rng: &mut TestRng) -> Statement {
    let mut purposes: Vec<PurposeUse> = (0..1 + rng.index(3))
        .map(|_| PurposeUse {
            purpose: *rng.pick(Purpose::ALL),
            required: random_required(rng),
        })
        .collect();
    let mut recipients: Vec<RecipientUse> = (0..1 + rng.index(2))
        .map(|_| RecipientUse {
            recipient: *rng.pick(Recipient::ALL),
            required: random_required(rng),
        })
        .collect();
    let retention = *rng.pick(Retention::ALL);
    let data: Vec<DataRef> = (0..rng.index(3)).map(|_| random_data_ref(rng)).collect();
    // P3P allows each purpose/recipient at most once per statement.
    purposes.sort_by_key(|p| p.purpose);
    purposes.dedup_by_key(|p| p.purpose);
    recipients.sort_by_key(|r| r.recipient);
    recipients.dedup_by_key(|r| r.recipient);
    Statement {
        consequence: None,
        non_identifiable: false,
        purposes,
        recipients,
        retention: vec![retention],
        data_groups: if data.is_empty() {
            vec![]
        } else {
            vec![DataGroup { base: None, data }]
        },
    }
}

fn random_policy(rng: &mut TestRng) -> Policy {
    let mut p = Policy::new("generated");
    p.statements = (0..1 + rng.index(3))
        .map(|_| random_statement(rng))
        .collect();
    p
}

// --- rule generator ------------------------------------------------------

fn random_connective(rng: &mut TestRng) -> Connective {
    *rng.pick(Connective::ALL)
}

/// A vocabulary container expression (PURPOSE/RECIPIENT/RETENTION) with
/// a random connective and random value children.
fn random_vocab_expr(rng: &mut TestRng) -> Expr {
    match rng.index(4) {
        0 => {
            let mut e = Expr::named("PURPOSE").with_connective(random_connective(rng));
            for _ in 0..1 + rng.index(3) {
                let p = *rng.pick(Purpose::ALL);
                let mut child = Expr::named(p.as_str());
                if rng.index(2) == 1 {
                    child = child.with_attr("required", random_required(rng).as_str());
                }
                e = e.with_child(child);
            }
            e
        }
        1 => {
            let mut e = Expr::named("RECIPIENT").with_connective(random_connective(rng));
            for _ in 0..1 + rng.index(2) {
                e = e.with_child(Expr::named(rng.pick(Recipient::ALL).as_str()));
            }
            e
        }
        2 => {
            let mut e = Expr::named("RETENTION").with_connective(random_connective(rng));
            for _ in 0..1 + rng.index(2) {
                e = e.with_child(Expr::named(rng.pick(Retention::ALL).as_str()));
            }
            e
        }
        _ => {
            const REFS: &[&str] = &[
                "#user.name",
                "#user.name.given",
                "#user.bdate",
                "#dynamic.cookies",
                "#dynamic.miscdata",
            ];
            let connective = random_connective(rng);
            let mut d = Expr::named("DATA").with_attr("ref", *rng.pick(REFS));
            let categories: Vec<Category> = (0..rng.index(3))
                .map(|_| *rng.pick(Category::ALL))
                .collect();
            if !categories.is_empty() {
                let mut cats = Expr::named("CATEGORIES").with_connective(connective);
                for c in categories {
                    cats = cats.with_child(Expr::named(c.as_str()));
                }
                d = d.with_child(cats);
            }
            Expr::named("DATA-GROUP").with_child(d)
        }
    }
}

fn random_rule(rng: &mut TestRng) -> Rule {
    let stmt_connective = loop {
        let c = random_connective(rng);
        if !c.is_exact() {
            break c; // rule-level exact unsupported
        }
    };
    let behavior = rng.pick(&[Behavior::Block, Behavior::Limited]).clone();
    let mut stmt = Expr::named("STATEMENT").with_connective(stmt_connective);
    for _ in 0..1 + rng.index(2) {
        stmt = stmt.with_child(random_vocab_expr(rng));
    }
    Rule::with_pattern(behavior, Expr::named("POLICY").with_child(stmt))
}

fn random_ruleset(rng: &mut TestRng) -> Ruleset {
    let mut rules: Vec<Rule> = (0..1 + rng.index(3)).map(|_| random_rule(rng)).collect();
    let mut fallback = Rule::unconditional(Behavior::Request);
    fallback.otherwise = true;
    rules.push(fallback);
    Ruleset::new(rules)
}

fn uses_exact(ruleset: &Ruleset) -> bool {
    fn expr_exact(e: &Expr) -> bool {
        e.connective.is_exact() || e.children.iter().any(expr_exact)
    }
    ruleset
        .rules
        .iter()
        .flat_map(|r| r.pattern.iter())
        .any(expr_exact)
}

/// The headline property: all engines agree on the verdict.
#[test]
fn all_engines_agree() {
    for seed in 0..64 {
        let mut rng = TestRng(seed);
        let policy = random_policy(&mut rng);
        let ruleset = random_ruleset(&mut rng);
        let mut server = PolicyServer::new();
        server.install_policy(&policy).unwrap();
        let reference = server
            .match_preference(&ruleset, Target::Policy("generated"), EngineKind::Native)
            .unwrap();
        for engine in [
            EngineKind::Sql,
            EngineKind::SqlGeneric,
            EngineKind::XQueryNative,
        ] {
            let got = server
                .match_preference(&ruleset, Target::Policy("generated"), engine)
                .unwrap();
            assert_eq!(
                &got.verdict,
                &reference.verdict,
                "seed {seed}: {:?} disagreed with native on policy:\n{}\npreference:\n{}",
                engine,
                policy.to_xml(),
                ruleset.to_xml()
            );
        }
        match server.match_preference(
            &ruleset,
            Target::Policy("generated"),
            EngineKind::XQueryXTable,
        ) {
            Ok(got) => assert_eq!(
                &got.verdict,
                &reference.verdict,
                "seed {seed}: XTABLE disagreed on policy:\n{}\npreference:\n{}",
                policy.to_xml(),
                ruleset.to_xml()
            ),
            Err(_) => assert!(
                uses_exact(&ruleset),
                "seed {seed}: XTABLE failed on a preference without exact connectives:\n{}",
                ruleset.to_xml()
            ),
        }
    }
}

/// Matching is insensitive to whether the policy was installed from the
/// model or from its XML serialization.
#[test]
fn xml_install_equals_model_install() {
    for seed in 0..64 {
        let mut rng = TestRng(seed);
        let policy = random_policy(&mut rng);
        let ruleset = random_ruleset(&mut rng);
        let mut a = PolicyServer::new();
        a.install_policy(&policy).unwrap();
        let mut b = PolicyServer::new();
        b.install_policy_xml(&policy.to_xml()).unwrap();
        let va = a
            .match_preference(&ruleset, Target::Policy("generated"), EngineKind::Sql)
            .unwrap();
        let vb = b
            .match_preference(&ruleset, Target::Policy("generated"), EngineKind::Sql)
            .unwrap();
        assert_eq!(va.verdict, vb.verdict, "seed {seed}");
    }
}

/// Warm caches never change verdicts: the full corpus × every
/// preference level, matched cold (fresh caches) and then twice more
/// against the now-warm translation and plan caches, must agree on
/// every engine.
#[test]
fn cached_plans_match_uncached_verdicts() {
    let mut server = PolicyServer::new();
    for p in p3p_suite::workload::corpus(42) {
        server.install_policy(&p).unwrap();
    }
    let names = server.policy_names();
    for sensitivity in p3p_suite::workload::Sensitivity::ALL {
        let ruleset = sensitivity.ruleset();
        for engine in EngineKind::ALL {
            for name in &names {
                let target = Target::Policy(name);
                let cold = server.match_preference(&ruleset, target, *engine);
                for pass in 0..2 {
                    let warm = server.match_preference(&ruleset, target, *engine);
                    match (&cold, &warm) {
                        (Ok(c), Ok(w)) => {
                            assert_eq!(
                                c.verdict, w.verdict,
                                "{engine:?} pass {pass} on {name} at {sensitivity:?}"
                            );
                            if matches!(engine, EngineKind::Sql | EngineKind::SqlGeneric) {
                                assert!(w.cached, "{engine:?} should reuse cached plans");
                            }
                        }
                        (Err(_), Err(_)) => {} // XTABLE on Medium, both passes
                        _ => panic!("{engine:?} cold/warm success disagreed on {name}"),
                    }
                }
            }
        }
    }
}

/// Installing a policy after the caches are warm must not serve stale
/// results: the cached bound plans see the new policy's rows, and the
/// new policy resolves through the same prepared plans.
#[test]
fn warm_caches_see_later_installs() {
    for seed in 0..16 {
        let mut rng = TestRng(seed);
        let first = random_policy(&mut rng);
        let mut second = random_policy(&mut rng);
        second.name = "second".to_string();
        let ruleset = random_ruleset(&mut rng);

        // Warm path: match `first`, install `second`, match `second`
        // through the now-warm caches.
        let mut warm = PolicyServer::new();
        warm.install_policy(&first).unwrap();
        warm.match_preference(&ruleset, Target::Policy("generated"), EngineKind::Sql)
            .unwrap();
        warm.install_policy(&second).unwrap();
        let got = warm
            .match_preference(&ruleset, Target::Policy("second"), EngineKind::Sql)
            .unwrap();
        assert!(got.cached, "seed {seed}: second match should hit the cache");

        // Cold reference: a fresh server that only ever saw `second`.
        let mut cold = PolicyServer::new();
        cold.install_policy(&second).unwrap();
        let reference = cold
            .match_preference(&ruleset, Target::Policy("second"), EngineKind::Sql)
            .unwrap();
        assert_eq!(got.verdict, reference.verdict, "seed {seed}");
    }
}

/// Every ordering of `n` indices, for the small `n` the FROM-shuffle
/// tests need.
fn permutations(n: usize) -> Vec<Vec<usize>> {
    match n {
        2 => vec![vec![0, 1], vec![1, 0]],
        3 => vec![
            vec![0, 1, 2],
            vec![0, 2, 1],
            vec![1, 0, 2],
            vec![1, 2, 0],
            vec![2, 0, 1],
            vec![2, 1, 0],
        ],
        _ => panic!("unsupported permutation size {n}"),
    }
}

/// Shuffling the FROM-clause order of representative translated join
/// queries never changes the result set — with the cost-based planner
/// on (it normalizes the order) and off (literal FROM order).
#[test]
fn join_order_permutations_agree() {
    let mut server = PolicyServer::new();
    for p in p3p_suite::workload::corpus(42) {
        server.install_policy(&p).unwrap();
    }
    let db = server.database().clone();
    let mut db_noplan = db.clone();
    db_noplan.set_options(ExecOptions {
        planner: false,
        ..ExecOptions::default()
    });
    let sorted = |mut rows: Vec<Vec<p3p_suite::minidb::Value>>| {
        rows.sort_by_key(|r| format!("{r:?}"));
        rows
    };
    // (projection, FROM entries, WHERE) — the decorrelated-join shapes
    // of the suite's translated queries.
    let cases: &[(&str, &[&str], &str)] = &[
        (
            "DISTINCT p.policy_id",
            &["policy p", "statement s"],
            "s.policy_id = p.policy_id",
        ),
        (
            "DISTINCT p.policy_id",
            &["policy p", "statement s", "purpose pu"],
            "s.policy_id = p.policy_id AND pu.policy_id = s.policy_id \
             AND pu.statement_id = s.statement_id AND pu.purpose = 'current'",
        ),
        (
            "pu.purpose, r.recipient",
            &["purpose pu", "recipient r"],
            "r.policy_id = pu.policy_id AND r.statement_id = pu.statement_id \
             AND pu.required = 'opt-in'",
        ),
    ];
    for (projection, tables, filter) in cases {
        let mut reference: Option<Vec<Vec<p3p_suite::minidb::Value>>> = None;
        for perm in permutations(tables.len()) {
            let from: Vec<&str> = perm.iter().map(|&i| tables[i]).collect();
            let sql = format!(
                "SELECT {projection} FROM {} WHERE {filter}",
                from.join(", ")
            );
            let planned = sorted(db.query(&sql).unwrap().rows);
            let unplanned = sorted(db_noplan.query(&sql).unwrap().rows);
            assert_eq!(planned, unplanned, "planner on/off disagree: {sql}");
            match &reference {
                Some(expected) => assert_eq!(expected, &planned, "order-dependent: {sql}"),
                None => reference = Some(planned),
            }
        }
    }
}

/// The cost-based planner never changes SQL verdicts (only their
/// cost), across both relational schemas.
#[test]
fn planner_does_not_change_verdicts() {
    for seed in 0..64 {
        let mut rng = TestRng(seed);
        let policy = random_policy(&mut rng);
        let ruleset = random_ruleset(&mut rng);
        let mut planned = PolicyServer::new();
        planned.install_policy(&policy).unwrap();
        let mut unplanned = PolicyServer::new();
        unplanned.install_policy(&policy).unwrap();
        unplanned.database_mut().set_options(ExecOptions {
            planner: false,
            ..ExecOptions::default()
        });
        for engine in [EngineKind::Sql, EngineKind::SqlGeneric] {
            let vp = planned
                .match_preference(&ruleset, Target::Policy("generated"), engine)
                .unwrap();
            let vu = unplanned
                .match_preference(&ruleset, Target::Policy("generated"), engine)
                .unwrap();
            assert_eq!(vp.verdict, vu.verdict, "seed {seed} {engine:?}");
        }
    }
}

/// Index use never changes SQL verdicts (only their cost).
#[test]
fn indexes_do_not_change_verdicts() {
    for seed in 0..64 {
        let mut rng = TestRng(seed);
        let policy = random_policy(&mut rng);
        let ruleset = random_ruleset(&mut rng);
        let mut fast = PolicyServer::new();
        fast.install_policy(&policy).unwrap();
        let mut slow = PolicyServer::new();
        slow.install_policy(&policy).unwrap();
        slow.database_mut().set_options(ExecOptions {
            indexes: false,
            ..ExecOptions::default()
        });
        let vf = fast
            .match_preference(&ruleset, Target::Policy("generated"), EngineKind::Sql)
            .unwrap();
        let vs = slow
            .match_preference(&ruleset, Target::Policy("generated"), EngineKind::Sql)
            .unwrap();
        assert_eq!(vf.verdict, vs.verdict, "seed {seed}");
    }
}
