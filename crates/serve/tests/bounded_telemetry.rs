//! Bounded telemetry under sustained load: a `regend` that has served
//! several times more requests than its event bus retains still holds
//! at most [`RETAIN`] events, counts every eviction, and exposes exact
//! counters through an exposition whose shape does not grow with
//! uptime.
//!
//! These are count gates, not timing gates: every assertion is a
//! function of the requests sent.

use std::time::Duration;

use bench::client::Connection;
use serve::{Server, ServerConfig};
use spectrebench::obs::metrics::metric_value;
use spectrebench::obs::RETAIN;

/// Requests per pipelined burst on the keep-alive connection.
const BURST: usize = 256;

/// Sends `n` cached `/artifact/table1` requests in pipelined bursts and
/// checks every answer is the cached rendering.
fn hammer(conn: &mut Connection, n: usize, expect: &[u8]) {
    let paths = vec!["/artifact/table1"; BURST];
    let mut sent = 0;
    while sent < n {
        let burst = BURST.min(n - sent);
        for r in conn.pipeline(&paths[..burst]).expect("pipelined burst") {
            assert_eq!(r.status, 200);
            assert_eq!(r.body, expect, "cached body changed");
        }
        sent += burst;
    }
}

fn scrape(conn: &mut Connection) -> String {
    let r = conn.get("/metrics").expect("scrape");
    assert_eq!(r.status, 200);
    let text = r.text();
    assert!(text.starts_with("# HELP"), "{text}");
    text
}

fn value(text: &str, name: &str) -> u64 {
    metric_value(text, name).unwrap_or_else(|| panic!("{name} missing:\n{text}")) as u64
}

#[test]
fn the_event_ring_stays_bounded_while_metrics_stay_exact() {
    let server = Server::bind(ServerConfig {
        addr: "127.0.0.1:0".to_string(),
        quick: true,
        workers: 1,
        ..ServerConfig::default()
    })
    .expect("bind to a free port");
    let addr = server.local_addr().to_string();
    let handle = server.handle();
    let join = std::thread::spawn(move || server.run().expect("event loop"));
    let mut conn = Connection::new(&addr, Duration::from_secs(300));

    // Warm-up: the cold render, then one scrape so the `metrics`
    // endpoint already has a response label before the measured scrapes.
    let cold = conn.get("/artifact/table1").expect("cold render");
    assert_eq!(cold.status, 200);
    scrape(&mut conn);
    let warm_requests = 2;

    let n = RETAIN + 1;
    hammer(&mut conn, n, &cold.body);
    let after_n = scrape(&mut conn);
    hammer(&mut conn, 3 * n, &cold.body);
    let after_4n = scrape(&mut conn);

    // A scrape is admitted after it renders, so it counts every request
    // before it on this connection but not itself.
    assert_eq!(value(&after_n, "regend_requests_total"), (warm_requests + n) as u64);
    assert_eq!(value(&after_4n, "regend_requests_total"), (warm_requests + 4 * n + 1) as u64);
    assert_eq!(value(&after_4n, "regend_artifact_cache_hits_total"), 4 * n as u64);
    assert!(value(&after_n, "regen_obs_events_dropped_total") > 0, "N requests overflow the ring");
    assert_eq!(
        after_n.lines().count(),
        after_4n.lines().count(),
        "the exposition's shape does not grow with uptime"
    );

    handle.drain();
    let summary = join.join().expect("server thread");
    assert_eq!(summary.admitted, (warm_requests + 4 * n + 2) as u64);

    let bus = handle.bus();
    assert!(bus.len() <= RETAIN);
    assert_eq!(bus.len(), RETAIN, "far more than RETAIN events were emitted");
    assert_eq!(bus.dropped(), bus.emitted() - RETAIN as u64);
    // Each cached request emits at least admission, pipeline, cache-hit
    // and completion events.
    assert!(bus.emitted() >= 4 * (4 * n) as u64, "{} events", bus.emitted());
}
