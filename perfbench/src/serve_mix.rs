//! The `serve_mix` workload: an in-process two-shard `regend` cluster
//! behind its proxy, loaded open-loop over keep-alive connections.
//!
//! The mix is about 80% hot `/artifact/<name>` requests (answered from
//! the proxy's rendered cache), about 20% `/cell/<exp>/<key>` requests
//! (one proxy→shard hop each), and one `/metrics` scrape per second of
//! schedule, the way a Prometheus scraper would poll. The seed picks
//! the arrival sequence; the arrival times are a fixed-rate clock.
//!
//! The generator follows `bench::loadgen`'s discipline: each arrival is
//! due at a fixed time whatever the server is doing, a connection
//! sends the next due arrival as soon as its previous response is read,
//! and latency runs from the due time, so a stall shows in the tail
//! instead of thinning the offered load. It is written out here rather
//! than calling `run_loadgen` because that binds one connection per
//! target URL and rotates targets round-robin; this mix needs a seeded
//! sequence over dozens of URLs on at most `nproc` connections.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use bench::client::Connection;
use bench::Artifact;
use serve::{
    boot_shards, percent_encode_path, proxy_config, Cluster, RequestParser, RunSummary, Server,
    ServerConfig, ServerHandle, ShardInstance,
};
use spectrebench::harness::cell_value_json;
use spectrebench::{EventBus, Executor, Harness, Journal};

use crate::golden::Golden;
use crate::spans::{self, Tracer};
use crate::stats::{self, median, percentile, sorted, Rng, Slo, Step};
use crate::{ms_since, Outcome, Params, CHEAP, JOBS};

/// Offered rate of the measured phase, requests per second.
pub const RATE: f64 = 2000.0;
/// Share of arrivals that are `/cell` requests, as 1 in N.
const CELL_ONE_IN: usize = 5;
/// The ladder's acceptance rule for `max_rps`. The p99 limit sits
/// above the 10–80 ms p99 a 2-vCPU virtual machine shows from a third
/// of its capacity upwards, so the rule binds where the backlog starts
/// to grow and p99 climbs steeply. At a lower limit the rule bound
/// where p99 climbs slowly with the rate, and a few milliseconds of
/// noise moved `max_rps` by half.
pub const SLO: Slo = Slo {
    p99_ms: 100.0,
    min_achieved: 0.95,
};
/// Length of one ladder step's schedule. A step above capacity runs
/// longer, until its backlog drains.
const STEP: Duration = Duration::from_secs(1);
const TIMEOUT: Duration = Duration::from_secs(10);
/// How long before an arrival's due time the sender stops sleeping.
/// With the timer slack at 1 ns a sleep wakes within a few
/// microseconds; a longer yield loop took the shared CPU from the
/// servers the senders are waiting on.
const SPIN: Duration = Duration::from_micros(20);

/// What an arrival asks for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// `/artifact/<name>`: index into [`Mix::hot`].
    Hot(usize),
    /// `/cell/<exp>/<key>`: index into [`Mix::cells`].
    Cell(usize),
    /// `/metrics`.
    Scrape,
}

/// One scheduled request.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Arrival {
    /// Offset of its due time from the start of the schedule.
    pub due: Duration,
    /// What it requests.
    pub kind: Kind,
}

/// The arrival sequence for `seed`: `rate` arrivals per second for
/// `secs` seconds, each a hot artifact with probability 4/5 or a cell
/// otherwise, plus one scrape in the middle of every whole second.
pub fn schedule(seed: u64, rate: f64, secs: f64, hot: usize, cells: usize) -> Vec<Arrival> {
    let mut rng = Rng::new(seed);
    let n = (rate * secs).round() as u64;
    let mut out: Vec<Arrival> = (0..n)
        .map(|i| {
            let kind = if rng.below(CELL_ONE_IN) == 0 {
                Kind::Cell(rng.below(cells))
            } else {
                Kind::Hot(rng.below(hot))
            };
            Arrival {
                due: Duration::from_secs_f64(i as f64 / rate),
                kind,
            }
        })
        .collect();
    for k in 0..secs.floor() as u64 {
        out.push(Arrival {
            due: Duration::from_millis(k * 1000 + 500),
            kind: Kind::Scrape,
        });
    }
    // Stable: a scrape due at the same instant as a request follows it.
    out.sort_by_key(|a| a.due);
    out
}

/// The request set and the bytes each request must return.
pub struct Mix {
    /// `(path, golden block)` per cheap artifact.
    pub hot: Vec<(String, Vec<u8>)>,
    /// `(path, expected JSON, content key)` per cell of the cheap
    /// artifacts.
    pub cells: Vec<(String, Vec<u8>, String)>,
}

impl Mix {
    /// Builds the mix: every cheap artifact's golden block, and every
    /// cell those artifacts compute, with its JSON from an in-process
    /// lookup on a reference executor.
    pub fn build(golden: &Golden) -> Result<Mix, String> {
        let mut hot = Vec::new();
        let mut cells = Vec::new();
        for a in CHEAP {
            hot.push((
                format!("/artifact/{}", a.name()),
                golden.artifact(a)?.as_bytes().to_vec(),
            ));
            let exec = Executor::new(Harness::new())
                .with_jobs(JOBS)
                .with_journal(Journal::in_memory());
            a.regenerate(false, &exec)
                .map_err(|e| format!("reference {}: {e}", a.name()))?;
            let journal = exec
                .journal()
                .ok_or("reference executor lost its journal")?;
            for ((key, seed), v) in journal.entries() {
                let path = format!(
                    "/cell/{}/{}?seed={seed}",
                    a.name(),
                    percent_encode_path(&key)
                );
                let body = format!("{}\n", cell_value_json(&key, seed, &v)).into_bytes();
                cells.push((path, body, key));
            }
        }
        Ok(Mix { hot, cells })
    }

    fn path(&self, kind: Kind) -> &str {
        match kind {
            Kind::Hot(i) => &self.hot[i].0,
            Kind::Cell(i) => &self.cells[i].0,
            Kind::Scrape => "/metrics",
        }
    }

    /// Whether a 200 body is the right one.
    fn body_ok(&self, kind: Kind, body: &[u8]) -> bool {
        match kind {
            Kind::Hot(i) => body == self.hot[i].1.as_slice(),
            Kind::Cell(i) => body == self.cells[i].1.as_slice(),
            Kind::Scrape => body.starts_with(b"# HELP"),
        }
    }
}

/// A running cluster: shards plus proxy, all in this process.
struct Up {
    shards: Vec<ShardInstance>,
    proxy: ServerHandle,
    proxy_join: JoinHandle<std::io::Result<RunSummary>>,
    addr: String,
}

fn base_config() -> ServerConfig {
    ServerConfig {
        addr: "127.0.0.1:0".to_string(),
        workers: JOBS,
        jobs: Some(JOBS),
        ..ServerConfig::default()
    }
}

fn boot() -> Result<Up, String> {
    let base = base_config();
    let shards = boot_shards(&base, 2).map_err(|e| format!("boot shards: {e}"))?;
    let addrs = shards.iter().map(|s| s.addr.clone()).collect();
    let server = Server::bind(proxy_config(&base, addrs)).map_err(|e| format!("proxy: {e}"))?;
    let addr = server.local_addr().to_string();
    let proxy = server.handle();
    let proxy_join = std::thread::spawn(move || server.run());
    Ok(Up {
        shards,
        proxy,
        proxy_join,
        addr,
    })
}

/// Fills every cache the measured phase hits: the proxy's rendered
/// cache (one `/artifact` each) and each owning shard's cell cache (one
/// `/cell` each), checking every body on the way.
fn warm(up: &Up, mix: &Mix) -> Result<(), String> {
    let mut conn = Connection::new(&up.addr, Duration::from_secs(120));
    let kinds = (0..mix.hot.len())
        .map(Kind::Hot)
        .chain((0..mix.cells.len()).map(Kind::Cell));
    for kind in kinds {
        let path = mix.path(kind);
        let r = conn.get(path).map_err(|e| format!("warm {path}: {e}"))?;
        if r.status != 200 || !mix.body_ok(kind, &r.body) {
            return Err(format!(
                "warm {path}: status {} or body differs from golden",
                r.status
            ));
        }
    }
    Ok(())
}

/// Boots and warms a cluster, appending the time it took to `times`.
fn setup(mix: &Mix, times: &mut Vec<f64>) -> Result<Up, String> {
    let t = Instant::now();
    let up = boot()?;
    warm(&up, mix)?;
    times.push(t.elapsed().as_secs_f64());
    Ok(up)
}

fn shutdown(up: Up) -> Result<(), String> {
    up.proxy.drain();
    for s in &up.shards {
        s.handle.drain();
    }
    let mut result = Ok(());
    let joins = std::iter::once(up.proxy_join).chain(up.shards.into_iter().map(|s| s.join));
    for j in joins {
        match j.join() {
            Ok(Ok(_)) => {}
            Ok(Err(e)) => result = Err(format!("server exited with {e}")),
            Err(_) => result = Err("server thread panicked".to_string()),
        }
    }
    result
}

/// One completed (or failed) request.
#[derive(Debug, Clone, Copy)]
struct Record {
    kind: Kind,
    /// Due time, from the start of the schedule.
    due: Duration,
    /// Due time to response read; `None` on a transport error.
    latency: Option<Duration>,
    /// Due time to send.
    lag: Duration,
    status: u16,
    /// A 200 whose body differs from the reference.
    wrong_body: bool,
    body_bytes: u64,
}

impl Record {
    fn ok(&self) -> bool {
        self.latency.is_some() && self.status == 200 && !self.wrong_body
    }
}

/// What one open-loop phase observed.
struct Phase {
    records: Vec<Record>,
    elapsed: Duration,
    sockets: u64,
}

impl Phase {
    fn failed(&self) -> u64 {
        self.records.iter().filter(|r| !r.ok()).count() as u64
    }

    fn latencies_ms(&self, keep: impl Fn(Kind) -> bool) -> Vec<f64> {
        sorted(
            self.records
                .iter()
                .filter(|r| keep(r.kind))
                .filter_map(|r| r.latency)
                .map(|l| l.as_secs_f64() * 1e3)
                .collect(),
        )
    }

    fn step(&self, offered: f64) -> Step {
        let done = self.records.iter().filter(|r| r.latency.is_some()).count();
        Step {
            offered,
            achieved: done as f64 / self.elapsed.as_secs_f64(),
            p99_ms: percentile(&self.latencies_ms(|_| true), 99.0),
            failed: self.failed(),
        }
    }
}

/// Plays `arrivals` against `addr` open-loop over `connections`
/// keep-alive connections, with an idle spinner on the CPU (see
/// [`spin_while_idle`]).
fn drive(
    addr: &str,
    mix: &Mix,
    arrivals: &[Arrival],
    connections: usize,
    tracer: Option<&Tracer>,
) -> Phase {
    let next = AtomicU64::new(0);
    let start = Instant::now() + Duration::from_millis(5);
    let stop = AtomicBool::new(false);
    let outs: Vec<(Vec<Record>, u64)> = std::thread::scope(|s| {
        s.spawn(|| spin_while_idle(&stop));
        // Stops the spinner on every way out of the scope, a panic
        // included; the scope waits for it.
        let _stop = StopOnDrop(&stop);
        let workers: Vec<_> = (0..connections)
            .map(|_| {
                let next = &next;
                s.spawn(move || {
                    let mut conn = Connection::new(addr, TIMEOUT);
                    let mut records = Vec::new();
                    set_timer_slack_1ns();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed) as usize;
                        let Some(a) = arrivals.get(i) else { break };
                        let due = start + a.due;
                        // Sleep to just short of the due time, then
                        // yield until it: a sleep's overshoot would
                        // count as latency.
                        if let Some(nap) = due.checked_duration_since(Instant::now() + SPIN) {
                            std::thread::sleep(nap);
                        }
                        while Instant::now() < due {
                            std::thread::yield_now();
                        }
                        let lag = due.elapsed();
                        let run = tracer.map_or(0, Tracer::next_id);
                        let response = spans::maybe(tracer, "serve.request", None, run, |_| {
                            conn.get(mix.path(a.kind))
                        });
                        let rec = match response {
                            Ok(r) => Record {
                                kind: a.kind,
                                due: a.due,
                                latency: Some(due.elapsed()),
                                lag,
                                status: r.status,
                                wrong_body: r.status == 200 && !mix.body_ok(a.kind, &r.body),
                                body_bytes: r.body.len() as u64,
                            },
                            Err(_) => Record {
                                kind: a.kind,
                                due: a.due,
                                latency: None,
                                lag,
                                status: 0,
                                wrong_body: false,
                                body_bytes: 0,
                            },
                        };
                        records.push(rec);
                    }
                    (records, conn.sockets_opened())
                })
            })
            .collect();
        workers
            .into_iter()
            .map(|w| w.join().expect("load worker panicked"))
            .collect()
    });
    let elapsed = start.elapsed();
    let sockets = outs.iter().map(|o| o.1).sum();
    Phase {
        records: outs.into_iter().flat_map(|o| o.0).collect(),
        elapsed,
        sockets,
    }
}

/// Sets its flag when dropped.
struct StopOnDrop<'a>(&'a AtomicBool);

impl Drop for StopOnDrop<'_> {
    fn drop(&mut self) {
        self.0.store(true, Ordering::Relaxed);
    }
}

/// Spins at `SCHED_IDLE` priority until `stop` is set, so the CPU never
/// halts while load runs: the scheduler switches to any other runnable
/// thread at once, but waking a halted virtual CPU waits on the host's
/// scheduler, and on a shared host that wait made the median latency
/// swing from run to run. If the priority cannot be lowered it returns
/// at once rather than compete with the servers.
fn spin_while_idle(stop: &AtomicBool) {
    let param = SchedParam { sched_priority: 0 };
    // SAFETY: `param` is a live, initialised sched_param; the kernel only
    // reads it. Pid 0 is the calling thread.
    if unsafe { sched_setscheduler(0, SCHED_IDLE, &param) } != 0 {
        return;
    }
    while !stop.load(Ordering::Relaxed) {
        std::hint::spin_loop();
    }
}

fn scrape_counter(addr: &str, name: &str) -> Result<u64, String> {
    let r = Connection::new(addr, TIMEOUT).get("/metrics")?;
    let text = r.text();
    Ok(text
        .lines()
        .filter(|l| l.starts_with(name))
        .filter_map(|l| l.rsplit(' ').next()?.parse::<u64>().ok())
        .sum())
}

extern "C" {
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
    fn prctl(option: i32, arg2: u64, arg3: u64, arg4: u64, arg5: u64) -> i32;
    fn sched_setscheduler(pid: i32, policy: i32, param: *const SchedParam) -> i32;
}

/// `struct sched_param` from `<sched.h>`.
#[repr(C)]
struct SchedParam {
    sched_priority: i32,
}

/// `SCHED_IDLE` from `<sched.h>`.
const SCHED_IDLE: i32 = 5;

/// `PR_SET_TIMERSLACK` from `<linux/prctl.h>`.
const PR_SET_TIMERSLACK: i32 = 29;

/// Sets the calling thread's timer slack to 1 ns, so its sleeps end on
/// time instead of up to the default 50 µs late. Best effort: on
/// failure sleeps are merely late, and the lateness shows as latency.
fn set_timer_slack_1ns() {
    // SAFETY: PR_SET_TIMERSLACK takes the slack by value and reads no
    // memory; it changes only the calling thread's timer slack.
    unsafe { prctl(PR_SET_TIMERSLACK, 1, 0, 0, 0) };
}

/// Confines the calling thread, and every thread it starts from now
/// on, to CPU 0. Servers and load generator then share one CPU: a
/// wake-up that crosses vCPUs costs an inter-processor interrupt whose
/// price depends on where the host placed the threads, which made the
/// median latency bimodal from run to run.
fn pin_to_one_cpu() -> Result<(), String> {
    let mask: u64 = 1;
    // SAFETY: `mask` is a live, initialised u64 and the size passed is
    // its size; the kernel only reads it. Pid 0 is the calling thread.
    let rc = unsafe { sched_setaffinity(0, std::mem::size_of::<u64>(), &mask) };
    if rc == 0 {
        Ok(())
    } else {
        Err(format!(
            "sched_setaffinity: {}",
            std::io::Error::last_os_error()
        ))
    }
}

/// Runs the workload.
pub fn run(p: &Params, golden: &Golden, tracer: Option<&Tracer>) -> Result<Outcome, String> {
    let mix = Mix::build(golden)?;
    pin_to_one_cpu()?;
    let arrivals = schedule(
        p.seed,
        RATE,
        p.seconds.max(2.0),
        mix.hot.len(),
        mix.cells.len(),
    );

    // Set-up: boot and warm a fresh cluster; every ladder step below
    // does the same, so set-up is timed once here and once per step.
    let mut setups = Vec::new();
    let up = setup(&mix, &mut setups)?;
    let hits_before = scrape_counter(&up.addr, "regend_artifact_cache_hits_total")?;
    let insts_before = uarch::pmc::global::snapshot();
    let rss_before = crate::rss_bytes().0;
    let main = drive(&up.addr, &mix, &arrivals, JOBS, tracer);
    let (rss_after, peak) = crate::rss_bytes();
    let insts = uarch::pmc::global::snapshot();
    let hits = scrape_counter(&up.addr, "regend_artifact_cache_hits_total")? - hits_before;

    // Percentiles per second of schedule, then summarised over the
    // seconds: one slow second of a shared host moves one window, not
    // the run's whole tail. The p99s are averaged rather than taken at
    // their median because each second's scrape replays more retained
    // events than the last, so the tail climbs through the run.
    let all = main.latencies_ms(|_| true);
    let timed: Vec<(f64, f64)> = main
        .records
        .iter()
        .filter_map(|r| Some((r.due.as_secs_f64(), r.latency?.as_secs_f64() * 1e3)))
        .collect();
    let p50s = stats::windowed(&timed, 1.0, 50.0);
    let p99s = stats::windowed(&timed, 1.0, 99.0);
    if p99s.is_empty() {
        return Err("too few samples per second for p99".into());
    }
    let p50 = median(&p50s);
    let p99 = p99s.iter().sum::<f64>() / p99s.len() as f64;
    let attempted = main.records.len() as u64;
    let failed = main.failed();
    let wrong_bodies = main.records.iter().filter(|r| r.wrong_body).count();
    let lags = sorted(
        main.records
            .iter()
            .map(|r| r.lag.as_secs_f64() * 1e3)
            .collect(),
    );
    eprintln!(
        "serve_mix: {attempted} arrivals at {RATE:.0} req/s over {JOBS} connections in {:.3}s: \
         p50 {p50:.3} ms (median of {} per-second p50s), p99 {p99:.3} ms (mean of {} \
         per-second p99s; whole run {:.3} ms over {} samples), {failed} failed \
         ({wrong_bodies} wrong bodies), generator lag p99 {:.3} ms",
        main.elapsed.as_secs_f64(),
        p50s.len(),
        p99s.len(),
        stats::tail(&all, 99.0),
        all.len(),
        stats::tail(&lags, 99.0)
    );

    let mut out = Outcome::new(attempted, failed);
    if wrong_bodies > 0 {
        out.error(format!(
            "{wrong_bodies} response bodies differ from their reference"
        ));
    }
    out.e2e("wall_s", main.elapsed.as_secs_f64(), "s");
    out.e2e("p50_ms", p50, "ms");
    out.e2e("p99_ms", p99, "ms");
    out.e2e("peak_rss_mb", peak as f64 / (1 << 20) as f64, "MB");

    let count = |k: fn(Kind) -> bool| main.records.iter().filter(|r| k(r.kind)).count() as u64;
    let is_hot = |k| matches!(k, Kind::Hot(_));
    let is_cell = |k| matches!(k, Kind::Cell(_));
    let is_scrape = |k| matches!(k, Kind::Scrape);
    let status = |s| main.records.iter().filter(|r| r.status == s).count() as u64;
    out.count("serve.requests", attempted);
    out.count("serve.requests.artifact", count(is_hot));
    out.count("serve.requests.cell", count(is_cell));
    out.count("serve.requests.metrics", count(is_scrape));
    out.count("serve.responses_200", status(200));
    out.count("serve.responses_429", status(429));
    out.count(
        "serve.body_bytes",
        main.records
            .iter()
            .filter(|r| !is_scrape(r.kind) && r.ok())
            .map(|r| r.body_bytes)
            .sum(),
    );
    out.count("serve.sockets_opened", main.sockets);
    out.count("core.cache_hits", hits);
    out.count("uarch.committed_insts", insts.0 - insts_before.0);
    out.count("uarch.transient_insts", insts.1 - insts_before.1);
    out.count("uarch.transient_windows", insts.2 - insts_before.2);

    if let Some(t) = tracer {
        let hot_ms = main.latencies_ms(is_hot);
        let scrape_ms = main.latencies_ms(is_scrape);
        out.layer(
            "serve.artifact_hit_ms_p99",
            stats::tail(&hot_ms, 99.0),
            "ms",
        );
        out.layer("obs.scrape_ms_p50", median(&scrape_ms), "ms");
        out.layer(
            "obs.scrape_ms_max",
            scrape_ms.last().copied().unwrap_or(0.0),
            "ms",
        );
        out.layer(
            "obs.rss_bytes_per_request",
            rss_after.saturating_sub(rss_before) as f64 / attempted as f64,
            "B",
        );
        out.layer("serve.loadgen_lag_ms_p99", stats::tail(&lags, 99.0), "ms");
        out.layer("trace.wall_s", main.elapsed.as_secs_f64(), "s");
        probes(t, &up, &mix, &arrivals, &mut out)?;
    }
    shutdown(up)?;
    out.e2e("setup_s", median(&setups), "s");
    if tracer.is_some() {
        // Per-layer numbers only: the ladder feeds max_rps alone.
        return Ok(out);
    }

    // The ladder replays the seeded mix at rising rates, each step on a
    // fresh cluster: scrape cost grows with the events a server has
    // retained, so a shared cluster would make every step depend on the
    // steps before it.
    let mut ladder_error = None;
    let (max_rps, ladder) = stats::max_rate(SLO, (2.0 * RATE, 250.0, 128_000.0), 2.0, 4, |rate| {
        let seed = p.seed ^ rate.to_bits();
        // Long enough for at least 1000 samples, so a p99 is reportable.
        let secs = STEP.as_secs_f64().max(1100.0 / rate);
        let a = schedule(seed, rate, secs, mix.hot.len(), mix.cells.len());
        let step = setup(&mix, &mut setups).and_then(|u| {
            let s = drive(&u.addr, &mix, &a, JOBS, None).step(rate);
            shutdown(u).map(|()| s)
        });
        step.unwrap_or_else(|e| {
            ladder_error = Some(e);
            Step {
                offered: rate,
                achieved: 0.0,
                p99_ms: None,
                failed: 1,
            }
        })
    });
    if let Some(e) = ladder_error {
        return Err(format!("ladder: {e}"));
    }
    for s in &ladder {
        eprintln!(
            "serve_mix: ladder {:>8.0} req/s: achieved {:>8.1}, p99 {}, failed {}{}",
            s.offered,
            s.achieved,
            s.p99_ms.map_or("n/a".to_string(), |v| format!("{v:.3} ms")),
            s.failed,
            if SLO.met_by(s) {
                ""
            } else {
                "  (misses the SLO)"
            }
        );
    }
    out.e2e("max_rps", max_rps, "1/s");
    out.e2e("setup_s", median(&setups), "s");
    Ok(out)
}

/// The serving layers timed directly: parse, route, the shard fetch,
/// and the proxy hop as the difference between two per-target splits.
fn probes(
    t: &Tracer,
    up: &Up,
    mix: &Mix,
    arrivals: &[Arrival],
    out: &mut Outcome,
) -> Result<(), String> {
    let run = t.next_id();
    // serve::http — the workload's request bytes through the parser.
    let wire: Vec<u8> = arrivals
        .iter()
        .flat_map(|a| {
            format!(
                "GET {} HTTP/1.1\r\nHost: {}\r\n\r\n",
                mix.path(a.kind),
                up.addr
            )
            .into_bytes()
        })
        .collect();
    let mut parsed = 0u64;
    let reps = 20;
    let ms = t.span("serve.http.parse", None, run, |_| {
        let start = Instant::now();
        for _ in 0..reps {
            let mut parser = RequestParser::new();
            for chunk in wire.chunks(4096) {
                parser.push(chunk);
                while let Ok(Some(r)) = parser.next_request() {
                    std::hint::black_box(&r);
                    parsed += 1;
                }
            }
        }
        ms_since(start)
    });
    if parsed != reps * arrivals.len() as u64 {
        return Err(format!(
            "parser returned {parsed} of {} requests",
            reps * arrivals.len() as u64
        ));
    }
    out.layer("serve.http.parse_ns", ms * 1e6 / parsed as f64, "ns");

    // serve::core — routing a hot request on a core whose rendered
    // cache holds the artifact.
    let core = serve::core::Core::new(base_config()).map_err(|e| e.to_string())?;
    let hot = Artifact::Table1;
    let path = format!("/artifact/{}", hot.name());
    let warm = core.execute(
        &serve::SlowWork::Artifact {
            artifact: hot,
            quick: false,
        },
        &path,
    );
    if warm.status != 200 {
        return Err(format!("route probe warm-up answered {}", warm.status));
    }
    let mut parser = RequestParser::new();
    parser.push(format!("GET {path} HTTP/1.1\r\nHost: x\r\n\r\n").as_bytes());
    let request = parser
        .next_request()
        .ok()
        .flatten()
        .ok_or("route probe request did not parse")?;
    let routes = 20_000;
    let route_ms = t.span("serve.core.route", None, run, |_| {
        let start = Instant::now();
        for _ in 0..routes {
            let (_, action) = core.route(std::hint::black_box(&request), 0);
            if !matches!(action, serve::core::Action::Done(_)) {
                return None;
            }
        }
        Some(ms_since(start))
    });
    let route_ms = route_ms.ok_or("a warm /artifact request did not route to the cache")?;
    out.layer(
        "serve.core.route_us",
        route_ms * 1e3 / f64::from(routes),
        "us",
    );

    // serve::shard — Cluster::fetch straight to each cell's owner.
    let addrs: Vec<String> = up.shards.iter().map(|s| s.addr.clone()).collect();
    let cluster = Cluster::new(&addrs, None, TIMEOUT, 1);
    let bus = EventBus::new();
    let mut fetch_ms = Vec::new();
    for (path, body, key) in &mix.cells {
        let shard = cluster.owner(key);
        let ms = t.span("serve.shard.fetch", None, run, |_| {
            let start = Instant::now();
            let r = cluster.fetch(&bus, shard, path)?;
            if r.status != 200 || r.body != *body {
                return Err(format!("direct fetch of {path} from shard {shard} differs"));
            }
            Ok(ms_since(start))
        })?;
        fetch_ms.push(ms);
    }
    out.layer("serve.shard.fetch_ms", median(&fetch_ms), "ms");

    // The proxy hop: every /cell request, one at a time, through the
    // proxy and straight to the owning shard in alternating order; the
    // hop is the difference of the two medians.
    let mut proxied = Vec::new();
    let mut direct = Vec::new();
    let mut via_proxy = Connection::new(&up.addr, TIMEOUT);
    let mut to_shard: Vec<Connection> = addrs.iter().map(|a| Connection::new(a, TIMEOUT)).collect();
    for round in 0..4 {
        for (path, body, key) in &mix.cells {
            let shard = cluster.owner(key);
            for through_proxy in [round % 2 == 0, round % 2 == 1] {
                let conn = if through_proxy {
                    &mut via_proxy
                } else {
                    &mut to_shard[shard]
                };
                let name = if through_proxy {
                    "serve.proxy.cell"
                } else {
                    "serve.shard.cell"
                };
                let ms = t.span(name, None, run, |_| {
                    let start = Instant::now();
                    let r = conn.get(path)?;
                    if r.status != 200 || r.body != *body {
                        return Err(format!("{path} differs ({name})"));
                    }
                    Ok(ms_since(start))
                })?;
                if through_proxy {
                    proxied.push(ms)
                } else {
                    direct.push(ms)
                }
            }
        }
    }
    out.layer(
        "serve.proxy_hop_ms",
        median(&proxied) - median(&direct),
        "ms",
    );
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_seed_alone_decides_the_arrival_sequence() {
        let a = schedule(42, 2000.0, 3.0, 14, 200);
        assert_eq!(a, schedule(42, 2000.0, 3.0, 14, 200));
        assert_ne!(a, schedule(43, 2000.0, 3.0, 14, 200));
        assert_eq!(a.len(), 6000 + 3);
        assert!(
            a.windows(2).all(|w| w[0].due <= w[1].due),
            "due times ascend"
        );
        let scrapes: Vec<Duration> = a
            .iter()
            .filter(|x| x.kind == Kind::Scrape)
            .map(|x| x.due)
            .collect();
        assert_eq!(scrapes, [500, 1500, 2500].map(Duration::from_millis));
        let cells = a.iter().filter(|x| matches!(x.kind, Kind::Cell(_))).count();
        assert!(
            (1000..1400).contains(&cells),
            "about one in five is a cell: {cells}"
        );
        assert!(a.iter().all(|x| match x.kind {
            Kind::Hot(i) => i < 14,
            Kind::Cell(i) => i < 200,
            Kind::Scrape => true,
        }));
    }

    #[test]
    fn arrival_times_follow_the_rate_not_the_seed() {
        let due = |seed| {
            schedule(seed, 500.0, 1.0, 3, 3)
                .iter()
                .filter(|a| a.kind != Kind::Scrape)
                .map(|a| a.due)
                .collect::<Vec<_>>()
        };
        assert_eq!(due(1), due(2));
        assert_eq!(due(1)[1], Duration::from_millis(2));
    }
}
