//! End-to-end telemetry across the matching pipeline: per-match
//! executor statistics (and their isolation between engines), spans,
//! the metrics registry, and EXPLAIN's index reporting against the
//! optimized-schema translation of a category rule.

use p3p_suite::appel::model::jane_preference;
use p3p_suite::minidb::exec::ExecStats;
use p3p_suite::minidb::explain;
use p3p_suite::policy::model::volga_policy;
use p3p_suite::server::appel2sql::{translate_rule_optimized, QueryForm};
use p3p_suite::server::{EngineKind, PolicyServer, Target};
use p3p_suite::telemetry::{metrics, span};

fn server_with_volga() -> PolicyServer {
    let mut s = PolicyServer::new();
    s.install_policy(&volga_policy()).unwrap();
    s
}

/// A SQL match leaves its executor statistics in the outcome; a
/// following match on a non-SQL engine starts from a zeroed window, so
/// nothing bleeds across engines.
#[test]
fn match_outcome_stats_do_not_leak_across_engines() {
    let server = server_with_volga();
    let jane = jane_preference();
    let sql = server
        .match_preference(&jane, Target::Policy("volga"), EngineKind::Sql)
        .unwrap();
    assert!(
        sql.db_stats.index_probes > 0 && sql.db_stats.rows_scanned > 0,
        "SQL match must show executor work: {:?}",
        sql.db_stats
    );
    let native = server
        .match_preference(&jane, Target::Policy("volga"), EngineKind::Native)
        .unwrap();
    assert_eq!(
        native.db_stats,
        ExecStats::default(),
        "native match must not inherit the SQL match's stats"
    );
    let xml_store = server
        .match_preference(&jane, Target::Policy("volga"), EngineKind::XQueryNative)
        .unwrap();
    assert_eq!(xml_store.db_stats, ExecStats::default());
}

/// One match produces a `match` span with `translate`/`execute`
/// children and populates the per-engine latency and phase histograms,
/// visible in both renderings.
#[test]
fn match_records_spans_and_metrics() {
    let server = server_with_volga();
    server
        .match_preference(
            &jane_preference(),
            Target::Policy("volga"),
            EngineKind::SqlGeneric,
        )
        .unwrap();

    let spans = span::recent();
    let parent = spans
        .iter()
        .find(|s| {
            s.name == "match"
                && s.attrs
                    .iter()
                    .any(|(k, v)| *k == "engine" && v == "sql_generic")
        })
        .expect("match span recorded");
    for child in ["translate", "execute"] {
        assert!(
            spans
                .iter()
                .any(|s| s.name == child && s.parent == Some(parent.id)),
            "missing {child} child of the match span"
        );
    }

    let latency = metrics::histogram_with("p3p_match_latency_us", &[("engine", "sql_generic")]);
    assert!(latency.count() >= 1);
    for phase in ["translate", "execute", "verdict"] {
        let h = metrics::histogram_with(
            "p3p_match_phase_us",
            &[("engine", "sql_generic"), ("phase", phase)],
        );
        assert!(h.count() >= 1, "phase {phase} not observed");
    }
    assert!(metrics::counter_with("p3p_matches_total", &[("engine", "sql_generic")]).get() >= 1);
    assert!(metrics::counter("p3p_db_statements_total").get() >= 1);

    let text = metrics::render_text();
    assert!(
        text.contains("p3p_match_latency_us_bucket{engine=\"sql_generic\""),
        "{text}"
    );
    let json = metrics::snapshot_json();
    assert!(
        json.contains("p3p_match_latency_us{engine=\\\"sql_generic\\\"}"),
        "{json}"
    );
}

/// Join-planner and hash-join counters flow from the executor through
/// the database metrics into both registry renderings.
#[test]
fn join_planner_counters_are_exported() {
    use p3p_suite::minidb::Database;
    let mut db = Database::new();
    db.execute("CREATE TABLE mbig (k INT NOT NULL, v VARCHAR)")
        .unwrap();
    db.execute("CREATE TABLE msmall (k INT NOT NULL)").unwrap();
    for i in 0..40 {
        db.execute(&format!("INSERT INTO mbig VALUES ({}, 'v{i}')", i % 4))
            .unwrap();
    }
    db.execute("INSERT INTO msmall VALUES (1), (2)").unwrap();
    // jbig is larger and its join key is unindexed: the planner
    // reorders to drive from msmall and hash-joins mbig.
    db.query("SELECT b.v FROM mbig b, msmall s WHERE b.k = s.k")
        .unwrap();

    assert!(metrics::counter("p3p_db_join_hash_builds_total").get() >= 1);
    assert!(metrics::counter("p3p_db_join_hash_probes_total").get() >= 2);
    assert!(metrics::counter("p3p_db_planner_reorders_total").get() >= 1);

    let text = metrics::render_text();
    let json = metrics::snapshot_json();
    for name in [
        "p3p_db_join_hash_builds_total",
        "p3p_db_join_hash_probes_total",
        "p3p_db_planner_reorders_total",
    ] {
        assert!(text.contains(name), "{name} missing from Prometheus text");
        assert!(json.contains(name), "{name} missing from JSON snapshot");
    }
}

/// EXISTS decorrelation counters flow from the executor through the
/// database metrics into both registry renderings, with HELP text.
#[test]
fn exists_decorrelation_counters_are_exported() {
    use p3p_suite::minidb::{Database, ExecOptions};
    // The row engine: the unindexed correlation passes break-even on its
    // second evaluation and builds on the third.
    let mut db = Database::new();
    db.set_options(ExecOptions {
        columnar: false,
        ..ExecOptions::default()
    });
    db.execute("CREATE TABLE eouter (id INT NOT NULL)").unwrap();
    db.execute("CREATE TABLE einner (oid INT NOT NULL)")
        .unwrap();
    for i in 0..20 {
        db.execute(&format!("INSERT INTO eouter VALUES ({i})"))
            .unwrap();
    }
    for i in 0..10 {
        db.execute(&format!("INSERT INTO einner VALUES ({})", i * 2))
            .unwrap();
    }
    let builds = metrics::counter("p3p_db_exists_builds_total");
    let probes = metrics::counter("p3p_db_exists_probes_total");
    let (builds_before, probes_before) = (builds.get(), probes.get());
    let r = db.query(
        "SELECT o.id FROM eouter o WHERE EXISTS (SELECT * FROM einner i WHERE i.oid = o.id)",
    );
    assert_eq!(r.unwrap().rows.len(), 10);
    assert!(builds.get() > builds_before);
    assert!(probes.get() >= probes_before + 18);

    let text = metrics::render_text();
    let json = metrics::snapshot_json();
    for (family, help) in [
        (
            "p3p_db_exists_builds_total",
            "Correlated EXISTS subqueries decorrelated into hash sets",
        ),
        (
            "p3p_db_exists_probes_total",
            "EXISTS predicates answered by probing a decorrelated hash set",
        ),
    ] {
        assert!(json.contains(family), "{family} missing from JSON snapshot");
        assert!(
            text.contains(&format!("# HELP {family} {help}\n")),
            "{family} HELP missing:\n{text}"
        );
        assert_eq!(
            text.matches(&format!("# TYPE {family} counter\n")).count(),
            1,
            "{family} must render as one counter family"
        );
    }
}

/// Installing a policy records shred timings per schema.
#[test]
fn install_records_shred_metrics() {
    let before = metrics::counter("p3p_policies_installed_total").get();
    let _server = server_with_volga();
    assert!(metrics::counter("p3p_policies_installed_total").get() > before);
    for schema in ["optimized", "generic"] {
        let h = metrics::histogram_with("p3p_shred_us", &[("schema", schema)]);
        assert!(h.count() >= 1, "schema {schema} shred not observed");
    }
}

/// The verdict cache exports hit/miss/eviction/invalidation counters
/// and the catalog epoch is a gauge, all visible in both renderings.
#[test]
fn verdict_cache_counters_and_epoch_gauge_are_exported() {
    let mut server = PolicyServer::new();
    server.set_verdict_cache_capacity(64);
    server.install_policy(&volga_policy()).unwrap();
    let jane = jane_preference();
    // Miss, then hit, then a removal-driven invalidation: every
    // counter family observes at least one event.
    let cold = server
        .match_preference(&jane, Target::Policy("volga"), EngineKind::Sql)
        .unwrap();
    assert!(!cold.verdict_cached);
    let warm = server
        .match_preference(&jane, Target::Policy("volga"), EngineKind::Sql)
        .unwrap();
    assert!(warm.verdict_cached);
    server.remove_policy("volga").unwrap();

    assert!(metrics::counter("p3p_verdict_cache_hits_total").get() >= 1);
    assert!(metrics::counter("p3p_verdict_cache_misses_total").get() >= 1);
    assert!(metrics::counter("p3p_verdict_cache_invalidations_total").get() >= 1);
    // The gauge is process-global and other tests install policies in
    // parallel, so assert it tracks *some* live epoch rather than this
    // server's exact value.
    assert!(metrics::gauge("p3p_catalog_epoch").get() >= 1);
    assert_eq!(server.catalog_epoch(), 2);

    let text = metrics::render_text();
    let json = metrics::snapshot_json();
    for name in [
        "p3p_verdict_cache_hits_total",
        "p3p_verdict_cache_misses_total",
        "p3p_verdict_cache_evictions_total",
        "p3p_verdict_cache_invalidations_total",
        "p3p_catalog_epoch",
    ] {
        assert!(text.contains(name), "{name} missing from Prometheus text");
        assert!(json.contains(name), "{name} missing from JSON snapshot");
    }
    assert!(
        text.contains("# TYPE p3p_catalog_epoch gauge"),
        "epoch must render as a gauge"
    );
}

/// The daemon's `GET /metrics` body is byte-identical to the metrics
/// registry's own Prometheus render, and every `p3p_http_*` family it
/// adds carries exactly one HELP and one TYPE header.
#[test]
fn http_metrics_endpoint_matches_registry_render() {
    use p3p_suite::serve::client::Client;
    use p3p_suite::serve::daemon::{Daemon, ServeConfig};

    let mut server = PolicyServer::new();
    server.install_policy(&volga_policy()).unwrap();
    let daemon = Daemon::bind("127.0.0.1:0", server, ServeConfig::default()).unwrap();
    let mut client = Client::connect(daemon.local_addr()).unwrap();

    // Put at least one request through a work endpoint so the
    // p3p_http_* families carry real samples, not just zeros.
    let ruleset = p3p_suite::workload::Sensitivity::Medium.ruleset().to_xml();
    let matched = client
        .request("POST", "/match?policy=volga", ruleset.as_bytes())
        .unwrap();
    assert_eq!(matched.status, 200, "{}", matched.body_string());

    // /metrics must serve exactly what the registry renders. Other
    // tests in this binary mutate the process-global registry in
    // parallel, so a fetch can race a counter increment — retry until
    // a quiet window gives byte-identity. The endpoint records no
    // metrics about itself, so repeated probes never diverge on their
    // own account.
    let mut identical = false;
    for _ in 0..100 {
        let response = client.request("GET", "/metrics", b"").unwrap();
        assert_eq!(response.status, 200);
        let rendered = metrics::render_text();
        if response.body == rendered.as_bytes() {
            identical = true;
            // The fetched page is a full registry render: check the
            // HTTP families' headers on the exact bytes served.
            for (family, kind) in [
                ("p3p_http_requests_total", "counter"),
                ("p3p_http_rejected_total", "counter"),
                ("p3p_http_parse_errors_total", "counter"),
                ("p3p_http_connections_total", "counter"),
                ("p3p_http_queue_depth", "gauge"),
                ("p3p_http_in_flight", "gauge"),
                ("p3p_http_draining", "gauge"),
                ("p3p_http_request_us", "histogram"),
                // The /match ran SQL, so the executor's EXISTS
                // families are on the page too.
                ("p3p_db_exists_builds_total", "counter"),
                ("p3p_db_exists_probes_total", "counter"),
            ] {
                assert_eq!(
                    rendered.matches(&format!("# HELP {family} ")).count(),
                    1,
                    "{family} must carry exactly one HELP line"
                );
                assert_eq!(
                    rendered
                        .matches(&format!("# TYPE {family} {kind}\n"))
                        .count(),
                    1,
                    "{family} must render as a {kind}"
                );
            }
            assert!(
                rendered.contains("p3p_http_requests_total{endpoint=\"match\",status=\"200\"}"),
                "the /match request must be visible in the served page"
            );
            break;
        }
        std::thread::sleep(std::time::Duration::from_millis(10));
    }
    assert!(
        identical,
        "/metrics body never matched metrics::render_text() byte-for-byte"
    );

    daemon.begin_drain();
    daemon.join();
}

/// EXPLAIN on the optimized-schema translation of a category rule
/// names the indexes the executor would probe (satellite of the
/// paper's §5.4 index discussion).
#[test]
fn explain_names_probed_indexes_for_a_category_rule() {
    let server = server_with_volga();
    let pref = p3p_suite::appel::parse::parse_ruleset_str(
        "<appel:RULESET><appel:RULE behavior=\"block\"><POLICY><STATEMENT><DATA-GROUP>\
         <DATA><CATEGORIES appel:connective=\"or\"><uniqueid/></CATEGORIES></DATA>\
         </DATA-GROUP></STATEMENT></POLICY></appel:RULE></appel:RULESET>",
    )
    .unwrap();
    // The bound form is the one the server runs per policy.
    let sql = translate_rule_optimized(&pref.rules[0], QueryForm::Bound).unwrap();
    let plan = explain(server.database(), &sql).unwrap();
    assert!(plan.contains("index nested loop"), "{plan}");
    assert!(plan.contains(" via "), "plan must name the index: {plan}");
    assert!(
        plan.contains("via idx_statement_fk"),
        "statement lookup probes the FK index: {plan}"
    );
}
