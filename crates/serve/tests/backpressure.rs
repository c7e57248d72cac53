//! Backpressure integration test: saturate a deliberately tiny daemon
//! from many client threads and check that overload is answered with
//! 429 + `Retry-After` (never an error, a hang, or a dropped byte),
//! that the admission metrics move, and that every accepted request
//! still answers correctly.

use p3p_policy::model::volga_policy;
use p3p_serve::client::Client;
use p3p_serve::daemon::{Daemon, ServeConfig};
use p3p_serve::EndpointLimits;
use p3p_server::PolicyServer;
use p3p_telemetry::metrics;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// Every daemon in this process writes the one global
/// `p3p_http_queue_depth` gauge, so the tests here run one at a time:
/// the gauge test must see only its own daemon's queue.
static ONE_DAEMON_AT_A_TIME: Mutex<()> = Mutex::new(());

#[test]
fn saturation_yields_429s_not_errors() {
    let _serial = ONE_DAEMON_AT_A_TIME
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner());
    let mut server = PolicyServer::new();
    server.install_policy(&volga_policy()).unwrap();
    // One slow worker, a 2-deep queue, and a /match cap of 1: with 8
    // threads hammering, most requests MUST be turned away.
    let daemon = Daemon::bind(
        "127.0.0.1:0",
        server,
        ServeConfig {
            workers: 2,
            queue_depth: 2,
            delay_ms: 40,
            limits: EndpointLimits {
                match_: 1,
                ..EndpointLimits::default()
            },
            ..ServeConfig::default()
        },
    )
    .unwrap();
    let addr = daemon.local_addr();

    let rejected_queue_before =
        metrics::counter_with("p3p_http_rejected_total", &[("reason", "queue_full")]).get();
    let rejected_conc_before =
        metrics::counter_with("p3p_http_rejected_total", &[("reason", "concurrency")]).get();

    let ruleset = Arc::new(p3p_workload::Sensitivity::Medium.ruleset().to_xml());
    let ok = Arc::new(AtomicU64::new(0));
    let rejected = Arc::new(AtomicU64::new(0));
    let retry_after_seen = Arc::new(AtomicU64::new(0));
    let max_queue_depth = Arc::new(AtomicU64::new(0));

    let threads: Vec<_> = (0..8)
        .map(|_| {
            let ruleset = ruleset.clone();
            let ok = ok.clone();
            let rejected = rejected.clone();
            let retry_after_seen = retry_after_seen.clone();
            let max_queue_depth = max_queue_depth.clone();
            std::thread::spawn(move || {
                for _ in 0..12 {
                    // Fresh connection per attempt so queue-full
                    // bounces are exercised too, not just the
                    // per-endpoint cap.
                    let Ok(mut client) = Client::connect_timeout(addr, Duration::from_secs(10))
                    else {
                        // Connect refused/reset under hard overload
                        // still counts as backpressure, not failure.
                        rejected.fetch_add(1, Ordering::Relaxed);
                        continue;
                    };
                    match client.request("POST", "/match?policy=volga", ruleset.as_bytes()) {
                        Ok(response) if response.status == 200 => {
                            let body = response.body_string();
                            assert!(
                                body.contains("\"behavior\""),
                                "accepted request must carry a verdict: {body}"
                            );
                            assert!(
                                response.header("x-p3p-epoch").is_some(),
                                "accepted request must carry its epoch"
                            );
                            ok.fetch_add(1, Ordering::Relaxed);
                        }
                        Ok(response) if response.status == 429 => {
                            if response.header("retry-after").is_some() {
                                retry_after_seen.fetch_add(1, Ordering::Relaxed);
                            }
                            rejected.fetch_add(1, Ordering::Relaxed);
                        }
                        Ok(response) => {
                            panic!(
                                "unexpected status {} under load: {}",
                                response.status,
                                response.body_string()
                            );
                        }
                        Err(_) => {
                            // A bounced connection the client raced:
                            // acceptable, counted as rejection.
                            rejected.fetch_add(1, Ordering::Relaxed);
                        }
                    }
                    let depth = metrics::gauge("p3p_http_queue_depth").get().max(0) as u64;
                    max_queue_depth.fetch_max(depth, Ordering::Relaxed);
                }
            })
        })
        .collect();
    for thread in threads {
        thread.join().unwrap();
    }

    let ok = ok.load(Ordering::Relaxed);
    let rejected = rejected.load(Ordering::Relaxed);
    assert!(ok > 0, "some requests must get through");
    assert!(
        rejected > 0,
        "8 threads against cap 1 must trip backpressure (ok={ok})"
    );
    assert!(
        retry_after_seen.load(Ordering::Relaxed) > 0,
        "429s must carry Retry-After"
    );

    // The rejection counters moved.
    let rejected_queue_after =
        metrics::counter_with("p3p_http_rejected_total", &[("reason", "queue_full")]).get();
    let rejected_conc_after =
        metrics::counter_with("p3p_http_rejected_total", &[("reason", "concurrency")]).get();
    let counted = (rejected_queue_after - rejected_queue_before)
        + (rejected_conc_after - rejected_conc_before);
    assert!(
        counted > 0,
        "p3p_http_rejected_total must move under saturation"
    );

    // After the storm the daemon is healthy and an accepted request
    // still answers correctly.
    let mut client = Client::connect(addr).unwrap();
    let health = client.request("GET", "/health", b"").unwrap();
    assert_eq!(health.status, 200);
    let stats = {
        daemon.begin_drain();
        daemon.join()
    };
    assert!(stats.served >= ok, "{stats:?}");
    assert!(stats.rejected > 0, "{stats:?}");
}

#[test]
fn queue_depth_gauge_tracks_waiting_connections() {
    let _serial = ONE_DAEMON_AT_A_TIME
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner());
    let mut server = PolicyServer::new();
    server.install_policy(&volga_policy()).unwrap();
    // A single worker stalled 200ms per request guarantees arrivals
    // pile up in the queue where the gauge can see them.
    let daemon = Daemon::bind(
        "127.0.0.1:0",
        server,
        ServeConfig {
            workers: 1,
            queue_depth: 8,
            delay_ms: 200,
            ..ServeConfig::default()
        },
    )
    .unwrap();
    let addr = daemon.local_addr();
    let ruleset = Arc::new(p3p_workload::Sensitivity::Low.ruleset().to_xml());

    let clients: Vec<_> = (0..4)
        .map(|_| {
            let ruleset = ruleset.clone();
            std::thread::spawn(move || {
                let mut client = Client::connect_timeout(addr, Duration::from_secs(10)).unwrap();
                client
                    .request("POST", "/match?policy=volga", ruleset.as_bytes())
                    .map(|r| r.status)
            })
        })
        .collect();

    // While the worker grinds, the gauge must report queued peers.
    let mut peak = 0i64;
    for _ in 0..40 {
        peak = peak.max(metrics::gauge("p3p_http_queue_depth").get());
        std::thread::sleep(Duration::from_millis(10));
    }
    assert!(peak >= 1, "queue-depth gauge never moved (peak {peak})");

    for client in clients {
        let status = client.join().unwrap().unwrap();
        assert!(
            status == 200 || status == 429,
            "queued request answered {status}"
        );
    }
    daemon.begin_drain();
    daemon.join();
}
