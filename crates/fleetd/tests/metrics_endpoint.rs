//! End-to-end scrape of the metrics endpoint. Lives in its own test
//! binary because it toggles the process-global obs registry.

use fleetd::{FleetService, FleetdConfig, MetricsServer};
use std::io::{Read, Write};
use std::net::TcpStream;

#[test]
fn serves_fleet_metrics_over_http() {
    obs::enable();
    obs::reset();
    let mut svc = FleetService::new(
        FleetdConfig {
            shards: 8,
            resident_cap: Some(16), // 2 per shard -> exactly 16 resident
            ..FleetdConfig::default()
        },
        200,
    );
    for round in 0..2 {
        svc.admit_round(round, 30);
    }

    let server = MetricsServer::bind().expect("bind loopback");
    let body = MetricsServer::scrape(server.addr()).expect("scrape");

    // The lifecycle counters and gauges of the rounds just admitted.
    assert!(
        body.contains("# TYPE fleetd_rounds counter\nfleetd_rounds 2\n"),
        "{body}"
    );
    assert!(body.contains("# TYPE fleetd_resident_homes gauge\nfleetd_resident_homes 16.0\n"));
    let samples = 200.0 * 2.0 * 30.0;
    assert!(body.contains(&format!("fleetd_samples {samples:?}\n")));
    assert!(body.contains("# TYPE fleetd_admit_seconds summary\n"));
    assert!(body.contains("fleetd_admit_seconds_count 2\n"));

    // A second scrape sees the same deterministic section.
    let again = MetricsServer::scrape(server.addr()).expect("second scrape");
    assert!(again.contains("fleetd_rounds 2\n"));

    server.shutdown();
    obs::disable();
    obs::reset();
}

#[test]
fn non_metrics_paths_get_404() {
    let server = MetricsServer::bind().expect("bind loopback");
    let mut conn = TcpStream::connect(server.addr()).expect("connect");
    write!(conn, "GET /other HTTP/1.1\r\nHost: x\r\n\r\n").unwrap();
    let mut response = String::new();
    conn.read_to_string(&mut response).unwrap();
    assert!(response.starts_with("HTTP/1.1 404"), "{response}");
    server.shutdown();
}

#[test]
fn idle_client_cannot_wedge_the_accept_loop() {
    use std::time::Duration;
    let server =
        MetricsServer::bind_with_read_timeout(Duration::from_millis(100)).expect("bind loopback");
    // A slow-loris client: connects, sends nothing, holds the socket
    // open. Before the read timeout existed this parked the
    // single-threaded accept loop forever.
    let idle = TcpStream::connect(server.addr()).expect("connect");
    // A well-behaved scrape issued afterwards must still be served —
    // succeeding at all proves the loop timed the idle client out.
    MetricsServer::scrape(server.addr()).expect("scrape past the idle client");
    drop(idle);
    server.shutdown();
}

#[test]
fn scrape_content_type_is_prometheus_text() {
    let server = MetricsServer::bind().expect("bind loopback");
    let mut conn = TcpStream::connect(server.addr()).expect("connect");
    write!(conn, "GET /metrics HTTP/1.1\r\nHost: x\r\n\r\n").unwrap();
    let mut response = String::new();
    conn.read_to_string(&mut response).unwrap();
    assert!(response.starts_with("HTTP/1.1 200 OK\r\n"), "{response}");
    assert!(response.contains("Content-Type: text/plain; version=0.0.4\r\n"));
    server.shutdown();
}
