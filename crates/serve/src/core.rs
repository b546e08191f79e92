//! The serving core shared by both front ends.
//!
//! PR 8 split `regend` into a *front end* (how bytes move: the
//! event-driven keep-alive loop in [`crate::server`], or the frozen
//! thread-per-connection baseline in [`crate::baseline`]) and this
//! *core* (what the bytes say). The core owns the three deduplication
//! layers from PR 5 — rendered-artifact cache, single-flight group,
//! content-addressed executor cell cache — plus routing, validation,
//! and the run counters, so the two front ends cannot drift: byte-for-
//! byte, a response depends only on the request, never on which
//! acceptor model carried it. `tests/serve_determinism.rs` pins that.
//!
//! Routing is split by cost. [`Core::route`] answers everything that
//! is O(1) — health, metrics, index pages, validation errors, *cache
//! hits* — and classifies the rest as [`SlowWork`]. The event loop
//! runs `route` inline on the loop thread (a cache hit costs one
//! `HashMap` probe and then writes pre-rendered bytes zero-copy) and
//! ships `SlowWork` to the dispatch pool; the baseline runs both on
//! its per-connection thread.

// regend serves results; a request must never take down the process.
#![allow(clippy::result_large_err)]

use std::collections::{HashMap, HashSet};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::{Duration, Instant};

use bench::{render_artifact_block, Artifact, ArtifactResult};
use spectrebench::obs::EventKind;
use spectrebench::{
    cell_value_json, crc32, default_jobs, EventBus, Executor, FaultPlan, FlightOutcome, Harness,
    HarnessStats, Journal, NetFaultPlan, RetryPolicy, SingleFlight,
};

use crate::http::{percent_encode_path, Request, Response};
use crate::shard::Cluster;

pub(crate) fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

/// Configuration for one server (either front end).
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Bind address, e.g. `127.0.0.1:7979` (port 0 for tests).
    pub addr: String,
    /// Worker threads executing slow (cold-cache) requests.
    pub workers: usize,
    /// Dispatch-queue capacity; a full queue answers 429.
    pub queue_capacity: usize,
    /// Serve the quick workload variants (tests; the golden renderings
    /// are the full variants).
    pub quick: bool,
    /// Executor worker threads per plan (`None`: `REGEN_JOBS` / machine
    /// default).
    pub jobs: Option<usize>,
    /// Attempts per measurement cell (`None`: the standard 3).
    pub retries: Option<u32>,
    /// Deterministic fault injection on the backing executor (tests).
    pub inject: Option<FaultPlan>,
    /// Journal completed cells here (also the target of injected
    /// torn-write/journal-corrupt I/O faults).
    pub journal: Option<std::path::PathBuf>,
    /// Default per-request deadline; `None` means no deadline unless
    /// the request carries `?deadline_ms=`.
    pub default_deadline: Option<Duration>,
    /// Socket read/write timeout for the blocking baseline front end.
    pub io_timeout: Duration,
    /// How long a keep-alive connection may sit without making
    /// progress (no bytes read or written) before the event loop
    /// reaps it.
    pub idle_timeout: Duration,
    /// Shard listener addresses. Empty: this instance answers from its
    /// own executor (a plain server, or one shard of a cluster).
    /// Non-empty: this instance is the cluster proxy — slow work is
    /// routed to the owning shard and only recomputed locally on
    /// failover.
    pub shard_addrs: Vec<String>,
    /// Deterministic network-fault injection on the proxy↔shard hop
    /// (tests/campaigns; the executor-level `inject` stays separate).
    pub net_inject: Option<NetFaultPlan>,
    /// How often the proxy probes each shard's `/healthz`.
    pub probe_interval: Duration,
    /// Socket timeout for one proxy→shard fetch.
    pub fetch_timeout: Duration,
    /// Fetch attempts per shard hop before the proxy fails over to
    /// local recompute.
    pub fetch_attempts: u32,
}

impl Default for ServerConfig {
    fn default() -> ServerConfig {
        ServerConfig {
            addr: "127.0.0.1:7979".to_string(),
            workers: 4,
            queue_capacity: 128,
            quick: false,
            jobs: None,
            retries: None,
            inject: None,
            journal: None,
            default_deadline: None,
            io_timeout: Duration::from_secs(10),
            idle_timeout: Duration::from_secs(30),
            shard_addrs: Vec::new(),
            net_inject: None,
            probe_interval: Duration::from_millis(100),
            fetch_timeout: Duration::from_secs(10),
            fetch_attempts: 3,
        }
    }
}

/// A rendered artifact held in the serving cache: the exact block the
/// CLI prints (`== caption ==\n<text>\n`) as shared bytes the
/// connections write zero-copy, plus its degraded flag.
#[derive(Debug, Clone)]
pub struct Rendered {
    /// The response body (shared, immutable).
    pub body: Arc<[u8]>,
    /// Whether any attribution slice had to be bridged.
    pub degraded: bool,
}

/// Outcome of obtaining an artifact: the rendering or the error text.
type ArtifactEntry = Result<Rendered, String>;

/// End-of-run counters, reported by `regend` at exit.
#[derive(Debug, Clone, Copy, Default)]
pub struct RunSummary {
    /// Requests admitted (answered inline or dispatched).
    pub admitted: u64,
    /// Requests rejected with 429.
    pub rejected: u64,
    /// Responses written for admitted requests (any status).
    pub served: u64,
    /// Connections accepted.
    pub connections: u64,
    /// Connections that vanished mid-request or mid-response.
    pub disconnects: u64,
    /// Connections reaped by the idle/stall deadline.
    pub idle_timeouts: u64,
    /// Executor counters at drain time.
    pub stats: HarnessStats,
}

/// Work too slow for the event-loop thread: anything that may execute
/// experiment plans. Dispatched to the worker pool (event front end)
/// or run inline (baseline front end).
#[derive(Debug, Clone)]
pub enum SlowWork {
    /// `GET /artifact/<name>` missing the rendered cache.
    Artifact {
        /// The artifact to regenerate.
        artifact: Artifact,
        /// Quick-variant flag after `?quick=` resolution.
        quick: bool,
    },
    /// `GET /results` missing the whole-document cache.
    Results {
        /// Quick-variant flag after `?quick=` resolution.
        quick: bool,
    },
    /// `GET /cell/...` missing the executor cell cache.
    Cell {
        /// The artifact whose sweep owns the cell.
        artifact: Artifact,
        /// The experiment segment as the client wrote it (echoed in
        /// the not-found hint; `ablations`/`smt` both map onto the
        /// discussion artifact).
        experiment: String,
        /// The content key within that sweep.
        content_key: String,
        /// The seed (only 0 is golden-comparable, but cells accept any).
        seed: u64,
        /// Quick-variant flag after `?quick=` resolution.
        quick: bool,
    },
}

/// What `route` decided about one request.
pub enum Action {
    /// Fully answered on the routing thread (fast path / cache hit).
    Done(Response),
    /// Needs the executor: subject to admission control and dispatch.
    Slow(SlowWork),
    /// `POST /shutdown`: the front end starts draining, then writes
    /// this response.
    StartDrain(Response),
}

/// The shared serving core (see module docs).
pub struct Core {
    /// The resolved configuration.
    pub cfg: ServerConfig,
    /// The shared executor (content-addressed cell cache inside).
    pub exec: Executor,
    /// Event bus feeding `/metrics` and trace exports.
    pub bus: Arc<EventBus>,
    /// The shard cluster when this instance is the proxy front end
    /// (see [`crate::proxy`]); `None` for plain servers and shards.
    pub cluster: Option<Cluster>,
    flights: SingleFlight<ArtifactEntry>,
    pub(crate) rendered: Mutex<HashMap<(&'static str, bool), Rendered>>,
    /// `(artifact, quick)` pairs whose sweep ran on *this* executor, so
    /// its cell cache holds their values. A proxy's rendered cache can
    /// be filled from shard bytes instead, which satisfy `/artifact`
    /// and `/results` but carry no cell values — `/cell` failover must
    /// consult this, not the rendered cache.
    swept: Mutex<HashSet<(&'static str, bool)>>,
    pub(crate) results: Mutex<HashMap<bool, Arc<[u8]>>>,
    /// Drain flag (SIGTERM, `POST /shutdown`, or a handle).
    pub draining: AtomicBool,
    /// Requests admitted.
    pub admitted: AtomicU64,
    /// Requests rejected with 429.
    pub rejected: AtomicU64,
    /// Responses written for admitted requests.
    pub served: AtomicU64,
    /// Admitted requests not yet answered.
    pub in_flight: AtomicU64,
    /// Connections accepted.
    pub connections: AtomicU64,
    /// Mid-request/mid-response disconnects.
    pub disconnects: AtomicU64,
    /// Idle/stall reaps.
    pub idle_timeouts: AtomicU64,
}

impl Core {
    /// Builds the executor stack from `cfg` (no sockets, no threads).
    pub fn new(cfg: ServerConfig) -> std::io::Result<Core> {
        let bus = Arc::new(EventBus::new());
        let mut harness = Harness::new();
        if let Some(plan) = &cfg.inject {
            harness = harness.with_plan(plan.clone());
        }
        if let Some(n) = cfg.retries {
            let mut retry = RetryPolicy::standard();
            retry.max_attempts = n.max(1);
            harness = harness.with_retry(retry);
        }
        let mut exec = Executor::new(harness)
            .with_jobs(cfg.jobs.unwrap_or_else(default_jobs))
            .with_obs(Arc::clone(&bus));
        if let Some(path) = &cfg.journal {
            exec = exec.with_journal(Journal::open(path)?);
        }
        let cluster = if cfg.shard_addrs.is_empty() {
            None
        } else {
            Some(Cluster::new(
                &cfg.shard_addrs,
                cfg.net_inject.clone(),
                cfg.fetch_timeout,
                cfg.fetch_attempts,
            ))
        };
        Ok(Core {
            cfg,
            exec,
            bus,
            cluster,
            flights: SingleFlight::new(),
            rendered: Mutex::new(HashMap::new()),
            swept: Mutex::new(HashSet::new()),
            results: Mutex::new(HashMap::new()),
            draining: AtomicBool::new(false),
            admitted: AtomicU64::new(0),
            rejected: AtomicU64::new(0),
            served: AtomicU64::new(0),
            in_flight: AtomicU64::new(0),
            connections: AtomicU64::new(0),
            disconnects: AtomicU64::new(0),
            idle_timeouts: AtomicU64::new(0),
        })
    }

    /// True once drain has started.
    pub fn is_draining(&self) -> bool {
        self.draining.load(Ordering::SeqCst)
    }

    /// The run counters as of now.
    pub fn summary(&self) -> RunSummary {
        RunSummary {
            admitted: self.admitted.load(Ordering::SeqCst),
            rejected: self.rejected.load(Ordering::SeqCst),
            served: self.served.load(Ordering::SeqCst),
            connections: self.connections.load(Ordering::SeqCst),
            disconnects: self.disconnects.load(Ordering::SeqCst),
            idle_timeouts: self.idle_timeouts.load(Ordering::SeqCst),
            stats: self.exec.stats(),
        }
    }

    /// The effective deadline for one request.
    pub fn request_deadline(&self, request: &Request) -> Option<Duration> {
        if let Some(ms) = request.query_param("deadline_ms") {
            if let Ok(ms) = ms.parse::<u64>() {
                return Some(Duration::from_millis(ms));
            }
        }
        self.cfg.default_deadline
    }

    /// Routes a parsed request: answer it now, or classify the slow
    /// work. `queue_depth` is the front end's current dispatch depth
    /// (the baseline, which runs slow work inline, passes 0).
    pub fn route(&self, request: &Request, queue_depth: usize) -> (&'static str, Action) {
        let segments: Vec<&str> =
            request.path.split('/').filter(|s| !s.is_empty()).collect();
        match (request.method.as_str(), segments.as_slice()) {
            ("GET", ["healthz"]) => ("healthz", Action::Done(self.healthz(queue_depth))),
            ("GET", ["metrics"]) => ("metrics", Action::Done(self.metrics())),
            ("GET", ["artifacts"]) => ("artifacts", Action::Done(artifact_index())),
            ("GET", ["results"]) => ("results", self.route_results(request)),
            ("GET", ["artifact", name]) => ("artifact", self.route_artifact(request, name)),
            ("GET", ["cell", experiment, rest @ ..]) if !rest.is_empty() => {
                ("cell", self.route_cell(request, experiment, &rest.join("/")))
            }
            ("POST", ["shutdown"]) => {
                ("shutdown", Action::StartDrain(Response::text(200, "draining\n")))
            }
            ("GET", ["shutdown"]) => (
                "shutdown",
                Action::Done(Response::text(405, "regend: shutdown requires POST\n")),
            ),
            ("GET", _) => ("error", Action::Done(Response::text(404, endpoint_index()))),
            _ => ("error", Action::Done(Response::text(405, "regend: method not allowed\n"))),
        }
    }

    /// Runs one piece of classified slow work to completion. A proxy
    /// core routes it to the owning shard (with failover back to the
    /// local executor); a plain core runs it locally.
    pub fn execute(&self, work: &SlowWork, path: &str) -> Response {
        match &self.cluster {
            Some(cluster) => crate::proxy::execute(self, cluster, work, path),
            None => self.execute_local(work, path),
        }
    }

    /// Runs slow work on this instance's own executor.
    pub(crate) fn execute_local(&self, work: &SlowWork, path: &str) -> Response {
        match work {
            SlowWork::Artifact { artifact, quick } => match self.obtain(*artifact, *quick, path) {
                Ok(r) => artifact_response(&r, *quick),
                Err(e) => {
                    Response::text(500, format!("regend: {} failed: {e}\n", artifact.name()))
                }
            },
            SlowWork::Results { quick } => self.results_document(*quick, path),
            SlowWork::Cell { artifact, experiment, content_key, seed, quick } => {
                self.cell_response(*artifact, experiment, content_key, *seed, *quick, path)
            }
        }
    }

    fn healthz(&self, queue_depth: usize) -> Response {
        let status = if self.is_draining() { "draining" } else { "ok" };
        let mut body = format!(
            "{{\"status\":\"{}\",\"queue_depth\":{},\"in_flight\":{},\"cache_cells\":{},\"artifacts_cached\":{}",
            status,
            queue_depth,
            self.in_flight.load(Ordering::SeqCst),
            self.exec.cache_len(),
            lock(&self.rendered).len()
        );
        // A proxy also reports per-shard readiness: id, address,
        // state-machine position, and seconds since last contact.
        if let Some(cluster) = &self.cluster {
            body.push_str(",\"shards\":[");
            for (i, s) in cluster.statuses().iter().enumerate() {
                if i > 0 {
                    body.push(',');
                }
                let age = match s.last_seen_secs {
                    Some(a) => format!("{a:.3}"),
                    None => "null".to_string(),
                };
                body.push_str(&format!(
                    "{{\"shard\":{},\"addr\":\"{}\",\"state\":\"{}\",\"last_probe_age_secs\":{}}}",
                    s.shard, s.addr, s.state, age
                ));
            }
            body.push(']');
        }
        body.push_str("}\n");
        Response::json(200, body)
    }

    fn metrics(&self) -> Response {
        Response::text(200, self.bus.registry_text(&self.exec.stats()))
    }

    /// `GET /artifact/<name>[?quick=0|1][&seed=0][&deadline_ms=..]`
    fn route_artifact(&self, request: &Request, name: &str) -> Action {
        let artifact = match Artifact::parse(name) {
            Some(a) => a,
            None => return Action::Done(unknown_artifact(name)),
        };
        if let Some(seed) = request.query_param("seed") {
            if seed != "0" && seed != "default" {
                return Action::Done(Response::text(
                    400,
                    "regend: only the pinned default seed (seed=0) is served; \
                     renderings at other seeds are not golden-comparable\n",
                ));
            }
        }
        let quick = match self.quick_for(request) {
            Ok(q) => q,
            Err(resp) => return Action::Done(resp),
        };
        if let Some(r) = lock(&self.rendered).get(&(artifact.name(), quick)).cloned() {
            self.bus.emit(artifact.name(), &request.path, "", 0, EventKind::ArtifactCacheHit);
            return Action::Done(artifact_response(&r, quick));
        }
        Action::Slow(SlowWork::Artifact { artifact, quick })
    }

    /// `GET /results[?quick=0|1]`: every artifact in paper order, one
    /// document — byte-identical to `regen`'s stdout. A fully-rendered
    /// document is cached whole; a hit counts one rendered-cache hit
    /// per embedded artifact, exactly as assembling it would.
    fn route_results(&self, request: &Request) -> Action {
        let quick = match self.quick_for(request) {
            Ok(q) => q,
            Err(resp) => return Action::Done(resp),
        };
        if let Some(body) = lock(&self.results).get(&quick).cloned() {
            for artifact in Artifact::ALL {
                self.bus.emit(artifact.name(), &request.path, "", 0, EventKind::ArtifactCacheHit);
            }
            return Action::Done(Response::shared(200, body));
        }
        Action::Slow(SlowWork::Results { quick })
    }

    fn results_document(&self, quick: bool, path: &str) -> Response {
        let mut body = Vec::new();
        let mut failures = 0u32;
        for artifact in Artifact::ALL {
            match self.obtain(artifact, quick, path) {
                Ok(r) => body.extend_from_slice(&r.body),
                Err(_) => {
                    failures += 1;
                    body.extend_from_slice(
                        format!("== {} == FAILED\n\n", artifact.caption()).as_bytes(),
                    );
                }
            }
        }
        let body: Arc<[u8]> = body.into();
        if failures == 0 {
            lock(&self.results).insert(quick, Arc::clone(&body));
        }
        let mut resp = Response::shared(200, body);
        if failures > 0 {
            resp = resp.with_header("X-Regend-Failures", failures.to_string());
        }
        resp
    }

    /// `GET /cell/<experiment>/<content-key>[?seed=N]`: one lattice
    /// cell as journal-shaped JSON.
    fn route_cell(&self, request: &Request, experiment: &str, content_key: &str) -> Action {
        let artifact = match experiment_artifact(experiment) {
            Some(a) => a,
            None => return Action::Done(unknown_artifact(experiment)),
        };
        let seed = match request.query_param("seed").unwrap_or("0").parse::<u64>() {
            Ok(s) => s,
            Err(_) => {
                return Action::Done(Response::text(
                    400,
                    "regend: seed must be a non-negative integer\n",
                ))
            }
        };
        let quick = match self.quick_for(request) {
            Ok(q) => q,
            Err(resp) => return Action::Done(resp),
        };
        if let Some(v) = self.exec.cache_lookup(content_key, seed) {
            return Action::Done(cell_json_response(format!(
                "{}\n",
                cell_value_json(content_key, seed, &v)
            )));
        }
        Action::Slow(SlowWork::Cell {
            artifact,
            experiment: experiment.to_string(),
            content_key: content_key.to_string(),
            seed,
            quick,
        })
    }

    #[allow(clippy::too_many_arguments)]
    fn cell_response(
        &self,
        artifact: Artifact,
        experiment: &str,
        content_key: &str,
        seed: u64,
        quick: bool,
        path: &str,
    ) -> Response {
        if self.exec.cache_lookup(content_key, seed).is_none() {
            if let Err(e) = self.ensure_cells(artifact, quick, path) {
                return Response::text(
                    500,
                    format!("regend: computing {} for this cell failed: {e}\n", artifact.name()),
                );
            }
        }
        match self.exec.cache_lookup(content_key, seed) {
            Some(v) => {
                cell_json_response(format!("{}\n", cell_value_json(content_key, seed, &v)))
            }
            None => Response::text(
                404,
                format!(
                    "regend: no cell {:?} (seed {seed}) under {}; try\n  GET /cell/{}/{}?seed={seed}\nafter checking the key against the journal or trace output\n",
                    content_key,
                    experiment,
                    experiment,
                    percent_encode_path(content_key),
                ),
            ),
        }
    }

    /// Resolves the effective quick flag: the server default, overridden
    /// by `?quick=0|1`.
    fn quick_for(&self, request: &Request) -> Result<bool, Response> {
        match request.query_param("quick") {
            None => Ok(self.cfg.quick),
            Some("1") | Some("true") => Ok(true),
            Some("0") | Some("false") => Ok(false),
            Some(other) => Err(Response::text(
                400,
                format!("regend: bad quick value {other:?} (use 0 or 1)\n"),
            )),
        }
    }

    /// Obtains one artifact entry: rendered cache, then single-flight
    /// computation on the shared executor. Successful (including
    /// degraded) renderings are cached; failures are not, so a
    /// transiently failing artifact recovers on the next query.
    pub(crate) fn obtain(&self, artifact: Artifact, quick: bool, path: &str) -> ArtifactEntry {
        if let Some(r) = lock(&self.rendered).get(&(artifact.name(), quick)).cloned() {
            self.bus.emit(artifact.name(), path, "", 0, EventKind::ArtifactCacheHit);
            return Ok(r);
        }
        self.sweep(artifact, quick, path)
    }

    /// Guarantees this executor's cell cache holds `artifact`'s cells,
    /// running the sweep if it has not run here yet. A rendered-cache
    /// hit is *not* sufficient evidence: on a proxy the rendered body
    /// may have been filled from a shard's bytes, which answer
    /// `/artifact` and `/results` but carry no cell values.
    pub(crate) fn ensure_cells(
        &self,
        artifact: Artifact,
        quick: bool,
        path: &str,
    ) -> Result<(), String> {
        if lock(&self.swept).contains(&(artifact.name(), quick)) {
            return Ok(());
        }
        self.sweep(artifact, quick, path).map(|_| ())
    }

    /// Runs the artifact's sweep on the local executor (single-flight:
    /// concurrent callers coalesce onto one run), rendering and caching
    /// the block and marking the cells swept.
    fn sweep(&self, artifact: Artifact, quick: bool, path: &str) -> ArtifactEntry {
        let flight_key = format!("{}/{}", artifact.name(), quick);
        let (entry, outcome) = self.flights.run(&flight_key, || {
            match artifact.regenerate(quick, &self.exec) {
                Ok(out) => {
                    let block = render_artifact_block(&ArtifactResult {
                        artifact,
                        outcome: Ok(out.clone()),
                        cells: HarnessStats::default(),
                    });
                    let rendered =
                        Rendered { body: block.into_bytes().into(), degraded: out.degraded };
                    lock(&self.rendered).insert((artifact.name(), quick), rendered.clone());
                    lock(&self.swept).insert((artifact.name(), quick));
                    Ok(rendered)
                }
                Err(e) => Err(e.to_string()),
            }
        });
        if outcome == FlightOutcome::Coalesced {
            self.bus.emit(artifact.name(), path, "", 0, EventKind::FlightCoalesced);
        }
        entry
    }
}

/// Builds the 200 response for a rendered artifact (zero-copy body,
/// degraded/quick marker headers, and a body checksum so the cluster
/// proxy can detect damage on the proxy↔shard hop).
pub(crate) fn artifact_response(r: &Rendered, quick: bool) -> Response {
    let mut resp = Response::shared(200, Arc::clone(&r.body))
        .with_header("X-Regend-Crc32", format!("{:08x}", crc32(&r.body)));
    if r.degraded {
        resp = resp.with_header("X-Regend-Degraded", "true");
    }
    if quick {
        resp = resp.with_header("X-Regend-Quick", "true");
    }
    resp
}

/// Builds the 200 response for one cell's JSON, checksummed like
/// artifact bodies (the proxy verifies cross-shard cell fills).
pub(crate) fn cell_json_response(body: String) -> Response {
    let checksum = format!("{:08x}", crc32(body.as_bytes()));
    Response::json(200, body).with_header("X-Regend-Crc32", checksum)
}

/// True once `arrived + deadline` has passed.
pub fn deadline_expired(deadline: Option<Duration>, arrived: Instant) -> bool {
    deadline.is_some_and(|d| arrived.elapsed() > d)
}

/// Maps an experiment driver name onto the artifact whose sweep
/// computes its cells. Identical for every driver except the two that
/// feed the discussion artifact.
pub fn experiment_artifact(experiment: &str) -> Option<Artifact> {
    match experiment {
        "ablations" | "smt" => Some(Artifact::Discussion),
        other => Artifact::parse(other),
    }
}

fn artifact_index() -> Response {
    let mut body = String::new();
    for a in Artifact::ALL {
        body.push_str(&format!("{:14} {}\n", a.name(), a.caption()));
    }
    Response::text(200, body)
}

fn unknown_artifact(name: &str) -> Response {
    let mut body = format!("regend: unknown artifact: {name}\n");
    if let Some(suggestion) = Artifact::suggest(name) {
        body.push_str(&format!("did you mean: {suggestion}?\n"));
    }
    body.push_str("see GET /artifacts for the full list\n");
    Response::text(404, body)
}

fn endpoint_index() -> String {
    "regend endpoints:\n\
     \x20 GET  /healthz                         liveness + queue depth\n\
     \x20 GET  /metrics                         Prometheus-style exposition\n\
     \x20 GET  /artifacts                       artifact names and captions\n\
     \x20 GET  /artifact/<name>[?quick=0|1]     one artifact rendering\n\
     \x20 GET  /results[?quick=0|1]             every artifact, paper order\n\
     \x20 GET  /cell/<experiment>/<key>[?seed=N] one lattice cell as JSON\n\
     \x20 POST /shutdown                        graceful drain\n"
        .to_string()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn experiment_names_map_onto_artifacts() {
        assert_eq!(experiment_artifact("figure2"), Some(Artifact::Figure2));
        assert_eq!(experiment_artifact("table3"), Some(Artifact::Table3));
        assert_eq!(experiment_artifact("ablations"), Some(Artifact::Discussion));
        assert_eq!(experiment_artifact("smt"), Some(Artifact::Discussion));
        assert_eq!(experiment_artifact("eibrs-bimodal"), Some(Artifact::EibrsBimodal));
        assert_eq!(experiment_artifact("nope"), None);
    }

    #[test]
    fn unknown_artifact_suggests_the_closest_name() {
        let resp = unknown_artifact("figre2");
        assert_eq!(resp.status, 404);
        let body = String::from_utf8_lossy(resp.body.as_bytes()).into_owned();
        assert!(body.contains("did you mean: figure2?"), "{body}");
    }
}
