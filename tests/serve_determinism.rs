//! Serving determinism: `regend` must hand every client the exact
//! bytes an in-process sweep produces, no matter how many clients ask
//! at once, and no matter what faults the executor is absorbing
//! underneath.
//!
//! The servers here are in-process (bound to port 0) so the tests can
//! drain them deterministically via [`ServerHandle`]; the CI
//! `serve-smoke` job covers the spawned-binary path (SIGTERM drain,
//! release build, scripted overload).

use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Duration;

use bench::client::{http_get, http_get_retrying, Connection, HttpResponse};
use bench::{render_artifact_block, run_regen, Artifact, RegenOptions};
use serve::{Server, ServerConfig, ServerHandle};
use spectrebench::{FaultKind, FaultPlan};

/// Scratch directory unique to (test, process).
fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("regend-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

/// Boots a server on a free port and runs it on a background thread.
fn boot(cfg: ServerConfig) -> (String, ServerHandle, std::thread::JoinHandle<serve::RunSummary>) {
    let server = Server::bind(ServerConfig { addr: "127.0.0.1:0".to_string(), ..cfg })
        .expect("bind to a free port");
    let base = format!("http://{}", server.local_addr());
    let handle = server.handle();
    let join = std::thread::spawn(move || server.run().expect("event loop"));
    (base, handle, join)
}

/// GET that fails the test on transport errors, with a long timeout:
/// cold artifacts compute a full quick sweep behind the first request.
fn get(base: &str, path: &str) -> HttpResponse {
    http_get_retrying(&format!("{base}{path}"), Duration::from_secs(300), 10)
        .unwrap_or_else(|e| panic!("GET {path}: {e}"))
}

/// The serial oracle: one in-process sweep, rendered per artifact.
fn serial_blocks(artifacts: &[Artifact], quick: bool, opts: RegenOptions) -> Vec<String> {
    let report = run_regen(&RegenOptions {
        artifacts: artifacts.to_vec(),
        quick,
        keep_going: true,
        ..opts
    })
    .expect("serial sweep");
    assert_eq!(report.results.len(), artifacts.len());
    report.results.iter().map(render_artifact_block).collect()
}

/// Polls `/metrics` until `name` reaches `min` (or the deadline
/// passes), returning the last value seen. Close-derived counters are
/// updated when the event loop processes the close, a beat after the
/// client observes it — polling absorbs that gap without sleeps sized
/// by guesswork.
fn await_metric(base: &str, name: &str, min: f64, deadline: Duration) -> f64 {
    let start = std::time::Instant::now();
    loop {
        let v = metric(&get(base, "/metrics").text(), name);
        if v >= min || start.elapsed() > deadline {
            return v;
        }
        std::thread::sleep(Duration::from_millis(50));
    }
}

/// Reads one counter out of a Prometheus-style exposition.
fn metric(text: &str, name: &str) -> f64 {
    text.lines()
        .filter(|l| !l.starts_with('#'))
        .filter_map(|l| l.split_once(' '))
        .filter(|(k, _)| *k == name || k.starts_with(&format!("{name}{{")))
        .map(|(_, v)| v.trim().parse::<f64>().unwrap_or(0.0))
        .sum()
}

/// The tentpole guarantee: 64 concurrent clients each fetching the
/// full artifact set observe bytes identical to a serial in-process
/// sweep, the concatenated `/results` document matches too, and the
/// hot traffic is served almost entirely out of the rendered cache
/// (single-flight keeps the cold computations to one per artifact).
#[test]
fn sixty_four_parallel_clients_match_a_serial_sweep() {
    const CLIENTS: usize = 64;
    let artifacts = Artifact::ALL;
    let expect = serial_blocks(&artifacts, true, RegenOptions::default());
    let expected_results: String = expect.concat();

    let (base, handle, join) = boot(ServerConfig {
        quick: true,
        workers: 4,
        queue_capacity: 2 * CLIENTS * artifacts.len(),
        ..ServerConfig::default()
    });

    let mismatches = AtomicUsize::new(0);
    std::thread::scope(|s| {
        for client in 0..CLIENTS {
            let (base, expect, mismatches) = (&base, &expect, &mismatches);
            s.spawn(move || {
                // Stagger the artifact order per client so the cold
                // phase exercises coalescing across different flights.
                for i in 0..artifacts.len() {
                    let idx = (i + client) % artifacts.len();
                    let a = artifacts[idx];
                    let r = get(base, &format!("/artifact/{}", a.name()));
                    assert_eq!(r.status, 200, "client {client}: {}", a.name());
                    if r.text() != expect[idx] {
                        mismatches.fetch_add(1, Ordering::SeqCst);
                        eprintln!("client {client}: byte mismatch on {}", a.name());
                    }
                }
            });
        }
    });
    assert_eq!(mismatches.load(Ordering::SeqCst), 0, "every client sees the serial bytes");

    let results = get(&base, "/results");
    assert_eq!(results.status, 200);
    assert_eq!(results.text(), expected_results, "/results is the whole serial document");

    // A hot pass: every artifact again, all answered from the rendered
    // cache (>= 90% hit rate is the acceptance bar; in-process it is
    // exactly 100% because every flight already landed).
    let before = metric(&get(&base, "/metrics").text(), "regend_artifact_cache_hits_total");
    for a in artifacts {
        assert_eq!(get(&base, &format!("/artifact/{}", a.name())).status, 200);
    }
    let metrics = get(&base, "/metrics").text();
    let hot_hits = metric(&metrics, "regend_artifact_cache_hits_total") - before;
    assert!(
        hot_hits >= 0.9 * artifacts.len() as f64,
        "hot pass mostly cache hits: {hot_hits} of {}",
        artifacts.len()
    );
    // Cold-phase accounting: every artifact request beyond the first
    // computation per artifact was a rendered-cache hit or coalesced
    // into the in-flight computation.
    let requests = CLIENTS * artifacts.len();
    let deduped = metric(&metrics, "regend_artifact_cache_hits_total")
        + metric(&metrics, "regend_coalesced_total");
    assert!(
        deduped >= (requests - artifacts.len()) as f64,
        "single-flight + cache absorbed the fan-in: {deduped} of {requests}"
    );
    assert!(metric(&metrics, "regend_requests_total") >= requests as f64);
    assert_eq!(metric(&metrics, "regend_rejected_total"), 0.0, "queue was sized for the burst");

    handle.drain();
    let summary = join.join().expect("server thread");
    assert!(summary.served >= (requests + artifacts.len()) as u64);
    assert_eq!(summary.rejected, 0);
}

/// Fault tolerance is invisible on the wire: a server absorbing
/// injected compute panics and torn journal writes returns bytes
/// identical to a serial sweep under the same fault plan.
#[test]
fn faulted_server_matches_faulted_serial_sweep() {
    let dir = scratch("faults");
    // Transient faults only: two panics per matching cell (retry budget
    // is three) and torn writes on the journal append path. Both
    // recover, so the rendering must be the clean bytes.
    let plan = FaultPlan::new()
        .fail_cell("mitigations", FaultKind::PanicFault, Some(2))
        .fail_cell("table9", FaultKind::TornWrite, Some(3));
    let artifacts = [Artifact::Table1, Artifact::Table2, Artifact::Table9, Artifact::Table10];

    let expect = serial_blocks(
        &artifacts,
        true,
        RegenOptions {
            inject: Some(plan.clone()),
            resume: Some(dir.join("serial.jsonl")),
            ..RegenOptions::default()
        },
    );
    // The clean oracle: the faulted sweep must not have degraded.
    let clean = serial_blocks(&artifacts, true, RegenOptions::default());
    assert_eq!(expect, clean, "transient faults fully recovered serially");

    let (base, handle, join) = boot(ServerConfig {
        quick: true,
        workers: 2,
        inject: Some(plan),
        journal: Some(dir.join("served.jsonl")),
        ..ServerConfig::default()
    });

    std::thread::scope(|s| {
        for _ in 0..8 {
            let (base, expect) = (&base, &expect);
            s.spawn(move || {
                for (i, a) in artifacts.iter().enumerate() {
                    let r = get(base, &format!("/artifact/{}", a.name()));
                    assert_eq!(r.status, 200);
                    assert_eq!(r.text(), expect[i], "{} under faults", a.name());
                    assert!(
                        r.header("x-regend-degraded").is_none(),
                        "{} should have recovered, not degraded",
                        a.name()
                    );
                }
            });
        }
    });

    // The journal absorbed the torn writes and still recorded the rest.
    assert!(dir.join("served.jsonl").exists());

    handle.drain();
    let summary = join.join().expect("server thread");
    assert!(summary.stats.faults_injected > 0, "the plan actually fired");
    assert!(summary.stats.retries > 0, "panics cost retries");
    assert_eq!(summary.stats.cells_failed, 0, "every cell recovered");
    let _ = std::fs::remove_dir_all(&dir);
}

/// Individual cells are queryable once their artifact has been
/// computed, in the journal's JSON payload shape, and unknown names
/// are guided toward valid ones.
#[test]
fn cell_queries_and_name_suggestions() {
    let (base, handle, join) = boot(ServerConfig {
        quick: true,
        workers: 2,
        ..ServerConfig::default()
    });

    // /cell computes the owning artifact on demand (table1's cells are
    // keyed <microarch>/mitigations, without the experiment segment).
    let r = get(&base, "/cell/table1/Broadwell/mitigations?seed=0");
    assert_eq!(r.status, 200, "{}", r.text());
    assert_eq!(r.header("content-type"), Some("application/json"));
    let body = r.text();
    assert!(body.contains("\"cell\":\"Broadwell/mitigations\""), "{body}");
    assert!(body.contains("\"seed\":0"), "{body}");
    assert!(body.contains("\"kind\":"), "{body}");

    // Unknown cell under a real experiment: 404 with a hint, not 500.
    let r = get(&base, "/cell/table1/NoSuchCpu/mitigations");
    assert_eq!(r.status, 404);
    assert!(r.text().contains("no cell"), "{}", r.text());

    // Typo'd artifact names suggest the closest valid one.
    let r = get(&base, "/artifact/figre2");
    assert_eq!(r.status, 404);
    assert!(r.text().contains("did you mean: figure2?"), "{}", r.text());
    let r = get(&base, "/cell/tabel1/Broadwell/mitigations");
    assert_eq!(r.status, 404);
    assert!(r.text().contains("did you mean: table1?"), "{}", r.text());

    // Non-default seeds are refused (the golden pin is seed 0).
    let r = get(&base, "/artifact/table1?seed=7");
    assert_eq!(r.status, 400);

    // The artifact index lists every name.
    let index = get(&base, "/artifacts").text();
    for a in Artifact::ALL {
        assert!(index.contains(a.name()), "index missing {}", a.name());
    }

    let health = get(&base, "/healthz");
    assert_eq!(health.status, 200);
    assert!(health.text().contains("\"status\":\"ok\""));

    handle.drain();
    join.join().expect("server thread");
}

/// Backpressure: with one worker busy and a one-slot queue, a burst of
/// clients sees 429 + `Retry-After` — and the polite retrying client
/// eventually gets the real bytes.
#[test]
fn overload_answers_429_with_retry_after() {
    let (base, handle, join) = boot(ServerConfig {
        quick: true,
        workers: 1,
        queue_capacity: 1,
        ..ServerConfig::default()
    });

    // Occupy the single worker with a slow cold artifact, and wait until
    // the server has admitted it rather than for a fixed time.
    let slow = {
        let base = base.clone();
        std::thread::spawn(move || get(&base, "/artifact/discussion"))
    };
    let in_flight = await_metric(&base, "regend_in_flight", 1.0, Duration::from_secs(60));
    assert!(in_flight >= 1.0, "the slow request was admitted: {in_flight}");

    // Flood: plain GETs with no 429-retry, concurrently.
    let rejected = AtomicUsize::new(0);
    std::thread::scope(|s| {
        for _ in 0..8 {
            let (base, rejected) = (&base, &rejected);
            s.spawn(move || {
                let r = http_get(&format!("{base}/artifact/discussion"), Duration::from_secs(300))
                    .expect("transport");
                if r.status == 429 {
                    assert_eq!(r.header("retry-after"), Some("1"), "429 names a retry delay");
                    assert!(r.text().contains("queue full"), "{}", r.text());
                    rejected.fetch_add(1, Ordering::SeqCst);
                } else {
                    assert_eq!(r.status, 200);
                }
            });
        }
    });
    assert!(
        rejected.load(Ordering::SeqCst) >= 1,
        "a one-slot queue under an 8-client burst must shed load"
    );

    let slow = slow.join().expect("slow client");
    assert_eq!(slow.status, 200);

    handle.drain();
    let summary = join.join().expect("server thread");
    assert_eq!(summary.rejected, rejected.load(Ordering::SeqCst) as u64);
}

/// Keep-alive must change the framing, never the bytes: 64 clients
/// each holding ONE socket and sending interleaved pipelined bursts
/// see responses byte-identical to the serial sweep and to the
/// close-per-request wire pin — with transient faults injected
/// underneath, exactly as the thread-per-connection front end was
/// pinned in PR 5.
#[test]
fn keepalive_pipelined_bursts_match_serial_and_close_framing() {
    const CLIENTS: usize = 64;
    const ROUNDS: usize = 3;
    let artifacts = [Artifact::Table1, Artifact::Table2, Artifact::Table9, Artifact::Table10];
    let paths: Vec<String> =
        artifacts.iter().map(|a| format!("/artifact/{}", a.name())).collect();
    // Transient compute panics under the retry budget: the faulted
    // serial test already pins that these recover to the clean bytes,
    // so the clean sweep is the oracle here too.
    let plan = FaultPlan::new().fail_cell("mitigations", FaultKind::PanicFault, Some(2));
    let expect = serial_blocks(&artifacts, true, RegenOptions::default());

    let (base, handle, join) = boot(ServerConfig {
        quick: true,
        workers: 2,
        queue_capacity: 2 * CLIENTS * artifacts.len(),
        inject: Some(plan),
        ..ServerConfig::default()
    });

    // The close-per-request wire pin: one `Connection: close` GET per
    // artifact (this is also the cold phase — each artifact computes
    // once, through the injected faults).
    for (i, path) in paths.iter().enumerate() {
        let r = http_get(&format!("{base}{path}"), Duration::from_secs(300))
            .unwrap_or_else(|e| panic!("close-framing GET {path}: {e}"));
        assert_eq!(r.status, 200, "{path}");
        assert_eq!(r.text(), expect[i], "close framing disagrees with the serial sweep");
    }

    let mismatches = AtomicUsize::new(0);
    std::thread::scope(|s| {
        for client in 0..CLIENTS {
            let (base, paths, expect, mismatches) = (&base, &paths, &expect, &mismatches);
            s.spawn(move || {
                let mut conn =
                    Connection::to_url(base, Duration::from_secs(300)).expect("client url");
                for _ in 0..ROUNDS {
                    // Stagger the order per client so concurrent bursts
                    // interleave different artifacts on the wire.
                    let order: Vec<usize> =
                        (0..paths.len()).map(|i| (i + client) % paths.len()).collect();
                    let burst: Vec<&str> =
                        order.iter().map(|&i| paths[i].as_str()).collect();
                    let responses = conn.pipeline(&burst).expect("pipelined burst");
                    assert_eq!(responses.len(), burst.len());
                    for (r, &idx) in responses.iter().zip(&order) {
                        assert_eq!(r.status, 200, "client {client}: {}", paths[idx]);
                        if r.text() != expect[idx] {
                            mismatches.fetch_add(1, Ordering::SeqCst);
                            eprintln!("client {client}: keep-alive mismatch on {}", paths[idx]);
                        }
                    }
                }
                // The whole session rode one socket: pipelining and
                // keep-alive actually happened, this was not 768
                // reconnects that accidentally pass.
                assert_eq!(conn.sockets_opened(), 1, "client {client} reconnected");
            });
        }
    });
    assert_eq!(mismatches.load(Ordering::SeqCst), 0, "keep-alive bytes == serial bytes");

    // Keep-alive accounting (counted when the event loop processes each
    // close, so poll): every client connection closed having carried
    // ROUNDS bursts, and the loop observed pipelined reads.
    let per_client = (ROUNDS * paths.len()) as f64;
    let closed =
        await_metric(&base, "regend_keepalive_closed_total", CLIENTS as f64, Duration::from_secs(10));
    assert!(closed >= CLIENTS as f64, "clients closed: {closed}");
    let ka_requests = metric(&get(&base, "/metrics").text(), "regend_keepalive_requests_total");
    assert!(
        ka_requests >= CLIENTS as f64 * per_client,
        "requests carried over keep-alive: {ka_requests}"
    );
    let depth_samples = metric(&get(&base, "/metrics").text(), "regend_pipeline_depth_count");
    assert!(depth_samples >= 1.0, "no pipelined read was ever observed");

    handle.drain();
    let summary = join.join().expect("server thread");
    assert!(summary.stats.faults_injected > 0, "the plan actually fired");
    assert!(summary.connections >= CLIENTS as u64);
    assert!(summary.served >= (CLIENTS * ROUNDS * paths.len() + paths.len()) as u64);
    assert_eq!(summary.rejected, 0, "queue was sized for the burst");
    assert_eq!(summary.disconnects, 0, "clean keep-alive closes are not disconnects");
}

/// Connection hygiene: a client that stalls mid-request is idle-reaped
/// without touching anyone else, and a client that vanishes with a
/// response owed is detected, counted in `regend_disconnects_total`,
/// and its admitted work accounted — the event loop keeps serving
/// throughout.
#[test]
fn stalled_and_vanished_clients_are_reaped_without_poisoning_the_loop() {
    use std::io::{Read, Write};

    let (base, handle, join) = boot(ServerConfig {
        quick: true,
        workers: 1,
        idle_timeout: Duration::from_secs(2),
        ..ServerConfig::default()
    });
    let addr = base.strip_prefix("http://").expect("base url").to_string();

    // Warm the cheap artifact so its responses come from the rendered
    // cache while the single worker is busy later.
    assert_eq!(get(&base, "/artifact/table2").status, 200);

    // --- A peer that sends half a request head and stalls. ---
    let mut stall = std::net::TcpStream::connect(&addr).expect("connect");
    stall.write_all(b"GET /healthz HTT").expect("partial head");
    stall.set_read_timeout(Some(Duration::from_secs(10))).expect("read timeout");
    // The idle sweep must reap it (close, not hang): EOF within the
    // read timeout, well after the 2s idle deadline.
    let mut sink = [0u8; 64];
    match stall.read(&mut sink) {
        Ok(0) | Err(_) => {}
        Ok(n) => panic!("stalled connection got {n} unexpected byte(s)"),
    }
    let idle = await_metric(&base, "regend_idle_timeouts_total", 1.0, Duration::from_secs(10));
    assert!(idle >= 1.0, "stall reap counted: {idle}");

    // --- A peer that vanishes with a response owed. ---
    // Pipelined pair: a cached hit (whose response lands in the client
    // kernel, unread) and a slow cold artifact (admitted to the single
    // worker). Closing with unread data makes TCP send RST, so the
    // event loop sees the death immediately — while the slow slot is
    // still owed — and must free the connection without waiting for
    // the computation.
    {
        let mut doomed = std::net::TcpStream::connect(&addr).expect("connect");
        doomed
            .write_all(
                b"GET /artifact/table2 HTTP/1.1\r\nHost: x\r\n\r\n\
                  GET /artifact/discussion HTTP/1.1\r\nHost: x\r\n\r\n",
            )
            .expect("pipelined pair");
        // Wait for the cached response to reach this socket's receive
        // buffer (peek leaves it unread), and for the server to hold the
        // slow slot as admitted and still owed.
        doomed.set_read_timeout(Some(Duration::from_secs(30))).expect("read timeout");
        assert!(doomed.peek(&mut sink).expect("cached response arrives") > 0);
        let owed = await_metric(&base, "regend_in_flight", 1.0, Duration::from_secs(30));
        assert!(owed >= 1.0, "the slow slot is still owed: {owed}");
        // Drop without reading: RST.
    }
    let disconnects =
        await_metric(&base, "regend_disconnects_total", 1.0, Duration::from_secs(30));
    assert!(disconnects >= 1.0, "vanished client counted: {disconnects}");

    // Neither casualty poisoned the loop: fast and slow paths both
    // still answer (the latter also proves the worker pool survived
    // the orphaned computation).
    assert_eq!(get(&base, "/healthz").status, 200);
    assert_eq!(get(&base, "/artifact/table9").status, 200);

    handle.drain();
    let summary = join.join().expect("server thread");
    assert!(summary.idle_timeouts >= 1, "summary counts the stall reap");
    assert!(summary.disconnects >= 1, "summary counts the vanish");
    assert_eq!(summary.stats.cells_failed, 0);
}

/// Graceful drain: `POST /shutdown` answers the in-flight queue, then
/// the listener goes away; new connections are refused rather than
/// silently hung.
#[test]
fn shutdown_drains_and_stops_accepting() {
    let (base, handle, join) = boot(ServerConfig {
        quick: true,
        workers: 2,
        ..ServerConfig::default()
    });
    assert_eq!(get(&base, "/artifact/table2").status, 200);
    assert!(!handle.is_draining());

    // POST via a raw socket (the regen client only speaks GET).
    {
        use std::io::{Read, Write};
        let addr = base.strip_prefix("http://").expect("base url");
        let mut s = std::net::TcpStream::connect(addr).expect("connect");
        s.write_all(b"POST /shutdown HTTP/1.1\r\nHost: x\r\nContent-Length: 0\r\n\r\n")
            .expect("send shutdown");
        let mut reply = String::new();
        let _ = s.read_to_string(&mut reply);
        assert!(reply.starts_with("HTTP/1.1 200"), "{reply}");
        assert!(reply.ends_with("draining\n"), "{reply}");
    }
    assert!(handle.is_draining());

    let summary = join.join().expect("server thread");
    assert!(summary.served >= 2);

    // The listener is gone: connecting now fails fast.
    let addr = base.strip_prefix("http://").expect("base url");
    let refused = std::net::TcpStream::connect_timeout(
        &addr.parse().expect("socket addr"),
        Duration::from_secs(2),
    );
    assert!(refused.is_err(), "post-drain connections are refused");
}
