//! End-to-end run over the full synthetic workload: the whole §6
//! experiment, asserted rather than timed.

use p3p_suite::appel::model::Behavior;
use p3p_suite::policy::augment::augment_policy;
use p3p_suite::policy::reference::{PolicyRef, ReferenceFile};
use p3p_suite::server::view::reconstruct_policy;
use p3p_suite::server::{EngineKind, PolicyServer, Target};
use p3p_suite::workload::{corpus, corpus_stats, Sensitivity};

fn full_server() -> PolicyServer {
    let mut server = PolicyServer::new();
    for p in corpus(42) {
        server.install_policy(&p).unwrap();
    }
    server
}

#[test]
fn corpus_installs_and_engines_agree_everywhere() {
    let server = full_server();
    let names = server.policy_names();
    assert_eq!(names.len(), 29);
    for level in Sensitivity::ALL {
        let ruleset = level.ruleset();
        for name in &names {
            let native = server
                .match_preference(&ruleset, Target::Policy(name), EngineKind::Native)
                .unwrap();
            for engine in [
                EngineKind::Sql,
                EngineKind::SqlGeneric,
                EngineKind::XQueryNative,
            ] {
                let got = server
                    .match_preference(&ruleset, Target::Policy(name), engine)
                    .unwrap();
                assert_eq!(
                    got.verdict, native.verdict,
                    "{engine:?} vs native on {name} at {level:?}"
                );
            }
            match server.match_preference(&ruleset, Target::Policy(name), EngineKind::XQueryXTable)
            {
                Ok(got) => assert_eq!(got.verdict, native.verdict, "xtable on {name} at {level:?}"),
                Err(_) => assert_eq!(
                    level,
                    Sensitivity::Medium,
                    "XTABLE must only fail on Medium"
                ),
            }
        }
    }
}

#[test]
fn verdict_counts_are_monotone_in_strictness() {
    // A stricter preference never blocks fewer policies.
    let mut server = full_server();
    let names = server.policy_names();
    let blocks = |server: &mut PolicyServer, s: Sensitivity| -> usize {
        let rs = s.ruleset();
        names
            .iter()
            .filter(|n| {
                server
                    .match_preference(&rs, Target::Policy(n), EngineKind::Sql)
                    .unwrap()
                    .verdict
                    .behavior
                    == Behavior::Block
            })
            .count()
    };
    let very_high = blocks(&mut server, Sensitivity::VeryHigh);
    let high = blocks(&mut server, Sensitivity::High);
    let medium = blocks(&mut server, Sensitivity::Medium);
    let low = blocks(&mut server, Sensitivity::Low);
    let very_low = blocks(&mut server, Sensitivity::VeryLow);
    assert!(very_high >= high, "{very_high} < {high}");
    assert!(high >= medium, "{high} < {medium}");
    assert!(medium >= low, "{medium} < {low}");
    assert!(low >= very_low, "{low} < {very_low}");
    assert_eq!(very_low, 0, "Very Low accepts everything");
    assert!(very_high > 0, "Very High must block something");
}

#[test]
fn reference_file_routes_every_site_uri() {
    let mut server = full_server();
    let policies = corpus(42);
    let mut file = ReferenceFile::default();
    for p in &policies {
        let mut r = PolicyRef::new(format!("/p3p/policies.xml#{}", p.name));
        r.includes.push(format!("/site/{}/*", p.name));
        file.policy_refs.push(r);
    }
    server.install_reference(&file).unwrap();
    for p in &policies {
        let uri = format!("/site/{}/index.html", p.name);
        let via_uri = server.resolve(Target::Uri(&uri)).unwrap();
        let via_name = server.resolve(Target::Policy(&p.name)).unwrap();
        assert_eq!(via_uri, via_name, "routing mismatch for {uri}");
    }
    assert!(server.resolve(Target::Uri("/elsewhere")).is_err());
}

#[test]
fn every_corpus_policy_reconstructs_from_its_tables() {
    let server = full_server();
    for p in corpus(42) {
        let id = server.policy_id(&p.name).unwrap();
        let rebuilt = reconstruct_policy(server.database(), id).unwrap();
        let expected = augment_policy(&p);
        assert_eq!(rebuilt.name, expected.name);
        assert_eq!(rebuilt.statements.len(), expected.statements.len());
        for (r, e) in rebuilt.statements.iter().zip(&expected.statements) {
            assert_eq!(r.purposes, e.purposes, "policy {}", p.name);
            assert_eq!(r.recipients, e.recipients, "policy {}", p.name);
            assert_eq!(r.retention, e.retention, "policy {}", p.name);
            let rd: Vec<_> = r.data_groups.iter().flat_map(|g| g.data.iter()).collect();
            let ed: Vec<_> = e.data_groups.iter().flat_map(|g| g.data.iter()).collect();
            assert_eq!(rd, ed, "policy {}", p.name);
        }
    }
}

#[test]
fn corpus_statistics_hold_for_other_seeds_too() {
    // The generator's published-statistics guarantee is seed-stable.
    for seed in [1, 7, 99] {
        let stats = corpus_stats(&corpus(seed));
        assert_eq!(stats.policies, 29, "seed {seed}");
        assert_eq!(stats.total_statements, 54, "seed {seed}");
        assert!((stats.avg_kb - 4.4).abs() < 0.5, "seed {seed}: {stats:?}");
    }
}

#[test]
fn removal_and_reinstall_are_clean_at_scale() {
    let mut server = full_server();
    let policies = corpus(42);
    let rows_before = server.database().total_rows();
    for p in policies.iter().take(10) {
        server.remove_policy(&p.name).unwrap();
    }
    for p in policies.iter().take(10) {
        server.install_policy(p).unwrap();
    }
    // Row counts return to the original level (ids differ, data equal).
    assert_eq!(server.database().total_rows(), rows_before);
    // And matching still works.
    let outcome = server
        .match_preference(
            &Sensitivity::Low.ruleset(),
            Target::Policy(&policies[0].name),
            EngineKind::Sql,
        )
        .unwrap();
    assert!(outcome.verdict.fired_rule.is_some());
}
