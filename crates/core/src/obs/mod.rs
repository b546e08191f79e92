//! Executor observability: a structured event bus plus export sinks.
//!
//! The paper's contribution is *measurement you can trust*; PR 2's
//! executor made measurement fast but opaque. This module makes every
//! cell's lifecycle observable without touching any measured value:
//!
//! * an [`EventBus`] collects structured [`Event`]s — cell queued /
//!   started / finished / cache-hit / journal-replay / retry /
//!   fault-injected / watchdog-fired — each carrying the experiment,
//!   cell key, content key, worker id, attempt, and a monotonic
//!   timestamp from a swappable [`Clock`];
//! * the bus folds every event into a live [`metrics::Registry`] as it
//!   is emitted, and keeps only the newest [`RETAIN`] events in a ring
//!   (counting the ones it drops), so its memory is bounded and a
//!   metrics scrape costs O(metric families) whatever the uptime;
//! * [`trace`] renders the retained events as Chrome trace-event JSON
//!   (one lane per worker, loadable in Perfetto / `chrome://tracing`);
//! * [`metrics`] renders the registry as a Prometheus-style text
//!   exposition whose counters cross-check
//!   [`crate::harness::HarnessStats`]; [`metrics::prometheus_text`]
//!   replays a recorded stream through the same fold.
//!
//! Recording is observational only: the executor emits events *after*
//! computing values, the bus never feeds back into scheduling, and the
//! same seed renders byte-identical artifacts with the bus attached or
//! not (pinned by `tests/trace_invariants.rs`).
//!
//! **Lock discipline.** Events are fully built (timestamp taken, keys
//! cloned) before the bus lock is acquired, so the critical section is
//! the ring push plus the registry fold: counter bumps, a histogram
//! observation and a few ordered-map probes, with no allocation for a
//! key the registry already holds. An event evicted from a full ring is
//! freed after the lock is released. The bus lock is never held while any
//! other lock (cache, stats, journal) is taken.

pub mod clock;
pub mod metrics;
pub mod trace;

use std::cell::Cell as StdCell;
use std::collections::VecDeque;
use std::sync::{Arc, Mutex};
use std::time::Duration;

use crate::faultplan::FaultKind;
use crate::harness::{lock, HarnessStats};

pub use clock::{Clock, SystemClock, VirtualClock};
use metrics::Registry;

/// How many of the newest events an [`EventBus`] retains for
/// [`EventBus::snapshot`] (trace export, tests). Older events are
/// evicted and counted ([`EventBus::dropped`]); every metric has
/// already folded them, so eviction never changes the exposition.
///
/// A full `regen` sweep emits about 1.3k events, so its trace is whole
/// with room to spare; a `regend` at 2000 req/s keeps its last two
/// seconds. At about 200 bytes per retained event a bus holds at most
/// about 3 MB.
pub const RETAIN: usize = 1 << 14;

thread_local! {
    /// The executor worker lane the current thread is running cells
    /// for. The scheduler / reduce path (and every thread outside the
    /// pool) reports lane 0.
    static CURRENT_WORKER: StdCell<usize> = const { StdCell::new(0) };
}

/// Tags the current thread as executor worker `worker` for subsequent
/// event emission. Called by the executor when a pool thread starts.
pub fn set_current_worker(worker: usize) {
    CURRENT_WORKER.with(|c| c.set(worker));
}

/// The worker lane recorded on events emitted from this thread.
pub fn current_worker() -> usize {
    CURRENT_WORKER.with(|c| c.get())
}

/// What happened to a cell (or a plan) at one instant.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EventKind {
    /// An [`crate::plan::ExperimentPlan`] entered the executor.
    PlanStarted {
        /// Number of cells in the plan.
        cells: usize,
    },
    /// The plan's outcomes were handed back in plan order.
    PlanFinished,
    /// A fresh cell was placed on the worker queue.
    CellQueued,
    /// A worker began simulating the cell (span open).
    CellStarted,
    /// The worker finished the cell (span close).
    CellFinished {
        /// Whether the cell produced a value (false = permanent failure).
        ok: bool,
        /// Extra attempts the harness needed.
        retries: u32,
    },
    /// The cell was served from the cross-experiment cache.
    CacheHit,
    /// The cell was replayed from a resume journal.
    JournalReplay,
    /// The harness is re-attempting the cell (attempt > 0).
    Retry,
    /// The fault plan injected a failure into this attempt.
    FaultInjected {
        /// The injected failure kind.
        fault: FaultKind,
    },
    /// The harness's wall-clock deadline killed a completed-but-late
    /// attempt.
    WatchdogFired,
    /// A compute closure panicked and the unwind was caught at the
    /// harness boundary.
    PanicCaught,
    /// A journal append/flush/fsync failed; the cell will re-run on
    /// resume.
    JournalWriteError,
    /// An experiment crossed its consecutive-panic threshold; its
    /// remaining cells degrade without burning retries.
    BreakerTripped,
    /// A cell was short-circuited (degraded unrun) by an open breaker.
    BreakerSkipped,

    // Serving-layer kinds, emitted by `regend` (crates/serve). The
    // `cell` field carries the request path; `experiment` is the
    // artifact or endpoint being served.
    /// A connection was admitted to the server's bounded request queue;
    /// `queue_depth` is the depth right after admission.
    RequestReceived {
        /// Queue depth including this request.
        queue_depth: usize,
    },
    /// A connection was rejected at admission (HTTP 429 + `Retry-After`)
    /// because the request queue was full.
    RequestRejected,
    /// A response was fully written back to the client.
    RequestCompleted {
        /// The HTTP status code sent.
        status: u16,
        /// End-to-end latency (admission to response written) in
        /// microseconds, measured by the serving worker.
        micros: u64,
    },
    /// An artifact request was served from the rendered-artifact memory
    /// cache without touching the executor.
    ArtifactCacheHit,
    /// A request was coalesced onto a concurrent identical computation
    /// (single-flight follower: it waited, computed nothing).
    FlightCoalesced,
    /// A request's deadline expired before it could be served; it was
    /// answered with an error instead of stale or partial data.
    DeadlineExpired,
    /// A client connection was accepted by the event-driven front end
    /// (keep-alive: one connection now carries many requests).
    ConnectionOpened,
    /// A connection was closed (any reason); `requests` is how many
    /// responses it carried — the keep-alive reuse factor.
    ConnectionClosed {
        /// Responses completed on this connection over its lifetime.
        requests: u64,
    },
    /// A peer vanished mid-request or mid-response (reset, or EOF with
    /// work still owed); its slot was freed immediately.
    ClientDisconnected,
    /// A connection was reaped by the idle/stall deadline while holding
    /// partial state (half a request, or an undrained response).
    IdleTimeout,
    /// One request was parsed; `depth` counts the requests outstanding
    /// on its connection including itself (1 = no pipelining).
    PipelineObserved {
        /// Outstanding requests on the connection, this one included.
        depth: usize,
    },

    // Fault-campaign kinds, emitted by the campaign driver. The
    // `experiment` field carries the campaign label; `cell` carries the
    // coordinate id for per-coordinate kinds.
    /// A fault campaign began; `coordinates` is the number it will
    /// explore (after sampling and resume-skipping).
    CampaignStarted {
        /// Coordinates left to execute in this run.
        coordinates: usize,
    },
    /// One coordinate's perturbed sweep was executed and classified.
    CampaignCoordinate {
        /// The fault kind that was injected.
        fault: FaultKind,
        /// The survivability verdict.
        class: crate::campaign::SurvivalClass,
    },
    /// A coordinate was skipped because the campaign journal already
    /// had its verdict (resume).
    CampaignReplayed,
    /// The campaign reduced its outcomes into the survivability report.
    CampaignFinished,

    // Cluster kinds, emitted by the sharded-serving proxy. The `cell`
    // field carries the request path of the hop (or probe).
    /// The proxy completed one fetch attempt against a shard.
    ShardFetch {
        /// Index of the shard the hop targeted.
        shard: usize,
        /// Whether the fetch returned a verified response.
        ok: bool,
    },
    /// A shard's health state machine moved to a new state.
    ShardStateChanged {
        /// Index of the shard whose state changed.
        shard: usize,
        /// The state it moved to.
        state: ShardState,
    },
    /// The proxy gave up on a shard for one request and recomputed the
    /// answer locally (failover; bytes stay identical by construction).
    ShardFailover {
        /// Index of the shard that was failed over.
        shard: usize,
    },
    /// The proxy's network fault plan injected a failure into a hop.
    NetFaultInjected {
        /// The injected network failure kind.
        fault: crate::faultplan::NetFaultKind,
    },

    // Branch-analysis kinds, emitted by the `targeted` experiment
    // driver. The `experiment` field carries the driver name.
    /// The spec-taint branch-attackability analysis classified a
    /// program set; counts are summed over every program analysed.
    SpecTaintAnalyzed {
        /// Conditional branches the analysis classified.
        scanned: usize,
        /// Branches flagged attackable (hardened under `targeted`).
        flagged: usize,
    },
}

impl EventKind {
    /// Short stable name, used by the sinks.
    pub fn name(&self) -> &'static str {
        match self {
            EventKind::PlanStarted { .. } => "plan_started",
            EventKind::PlanFinished => "plan_finished",
            EventKind::CellQueued => "cell_queued",
            EventKind::CellStarted => "cell_started",
            EventKind::CellFinished { .. } => "cell_finished",
            EventKind::CacheHit => "cache_hit",
            EventKind::JournalReplay => "journal_replay",
            EventKind::Retry => "retry",
            EventKind::FaultInjected { .. } => "fault_injected",
            EventKind::WatchdogFired => "watchdog_fired",
            EventKind::PanicCaught => "panic_caught",
            EventKind::JournalWriteError => "journal_write_error",
            EventKind::BreakerTripped => "breaker_tripped",
            EventKind::BreakerSkipped => "breaker_skipped",
            EventKind::RequestReceived { .. } => "request_received",
            EventKind::RequestRejected => "request_rejected",
            EventKind::RequestCompleted { .. } => "request_completed",
            EventKind::ArtifactCacheHit => "artifact_cache_hit",
            EventKind::FlightCoalesced => "flight_coalesced",
            EventKind::DeadlineExpired => "deadline_expired",
            EventKind::ConnectionOpened => "connection_opened",
            EventKind::ConnectionClosed { .. } => "connection_closed",
            EventKind::ClientDisconnected => "client_disconnected",
            EventKind::IdleTimeout => "idle_timeout",
            EventKind::PipelineObserved { .. } => "pipeline_observed",
            EventKind::CampaignStarted { .. } => "campaign_started",
            EventKind::CampaignCoordinate { .. } => "campaign_coordinate",
            EventKind::CampaignReplayed => "campaign_replayed",
            EventKind::CampaignFinished => "campaign_finished",
            EventKind::ShardFetch { .. } => "shard_fetch",
            EventKind::ShardStateChanged { .. } => "shard_state_changed",
            EventKind::ShardFailover { .. } => "shard_failover",
            EventKind::NetFaultInjected { .. } => "net_fault_injected",
            EventKind::SpecTaintAnalyzed { .. } => "spec_taint_analyzed",
        }
    }
}

/// The health state of one shard, as judged by the proxy's probe loop
/// plus passive fetch outcomes. The machine is deliberately small:
/// one failure makes a shard *suspect* (still routed to, retried
/// harder), three consecutive failures make it *down* (skipped —
/// requests fail over to local recompute immediately), and any success
/// snaps it back to *healthy*.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ShardState {
    /// Last probe/fetch succeeded; routed to normally.
    Healthy,
    /// At least one recent failure; routed to, but treated warily.
    Suspect,
    /// Consecutive-failure threshold crossed; fail over without trying.
    Down,
}

impl ShardState {
    /// Every state, in escalation order.
    pub const ALL: [ShardState; 3] = [ShardState::Healthy, ShardState::Suspect, ShardState::Down];

    /// Stable name, used by `/healthz` JSON and metric labels.
    pub fn name(self) -> &'static str {
        match self {
            ShardState::Healthy => "healthy",
            ShardState::Suspect => "suspect",
            ShardState::Down => "down",
        }
    }

    /// Numeric gauge value for the Prometheus exposition
    /// (0 = healthy, 1 = suspect, 2 = down).
    pub fn gauge(self) -> u64 {
        match self {
            ShardState::Healthy => 0,
            ShardState::Suspect => 1,
            ShardState::Down => 2,
        }
    }
}

impl std::fmt::Display for ShardState {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// One structured observation. Plan-level events leave `cell` and
/// `content_key` empty.
#[derive(Debug, Clone, PartialEq)]
pub struct Event {
    /// Monotonic timestamp from the bus's [`Clock`].
    pub ts: Duration,
    /// Experiment driver name (e.g. `"figure2"`).
    pub experiment: String,
    /// Full cell key (`experiment/cpu/workload/[config]`).
    pub cell: String,
    /// Content-addressed key (`cpu/workload/[config]`).
    pub content_key: String,
    /// Executor worker lane the event was emitted from.
    pub worker: usize,
    /// 0-based attempt index the event refers to.
    pub attempt: u32,
    /// What happened.
    pub kind: EventKind,
}

/// Collects [`Event`]s from the executor and harness.
///
/// Shared by `Arc` between the executor, its harness, and whoever wants
/// to export the stream afterwards. `Sync`; see the module docs for the
/// lock discipline that keeps recording cheap.
#[derive(Debug)]
pub struct EventBus {
    clock: Arc<dyn Clock>,
    state: Mutex<BusState>,
}

/// What the bus lock guards: the live registry and the bounded ring.
#[derive(Debug, Default)]
struct BusState {
    registry: Registry,
    ring: VecDeque<Event>,
    emitted: u64,
}

impl Default for EventBus {
    fn default() -> EventBus {
        EventBus::new()
    }
}

impl EventBus {
    /// A bus over the [`SystemClock`].
    pub fn new() -> EventBus {
        EventBus::with_clock(Arc::new(SystemClock::new()))
    }

    /// A bus over an explicit clock (tests pass a [`VirtualClock`]).
    pub fn with_clock(clock: Arc<dyn Clock>) -> EventBus {
        EventBus { clock, state: Mutex::new(BusState::default()) }
    }

    /// A reading of the bus clock (what event timestamps are relative
    /// to).
    pub fn now(&self) -> Duration {
        self.clock.now()
    }

    /// Records one event: folds it into the registry and appends it to
    /// the ring, evicting the oldest retained event once [`RETAIN`] are
    /// held. The worker lane is taken from the calling thread's tag
    /// (see [`set_current_worker`]).
    pub fn emit(
        &self,
        experiment: &str,
        cell: &str,
        content_key: &str,
        attempt: u32,
        kind: EventKind,
    ) {
        let event = Event {
            ts: self.clock.now(),
            experiment: experiment.to_string(),
            cell: cell.to_string(),
            content_key: content_key.to_string(),
            worker: current_worker(),
            attempt,
            kind,
        };
        // An evicted event is freed after the guard is released.
        let _evicted = {
            let mut state = lock(&self.state);
            state.registry.fold(&event);
            state.emitted += 1;
            let evicted = if state.ring.len() == RETAIN { state.ring.pop_front() } else { None };
            state.ring.push_back(event);
            evicted
        };
    }

    /// A snapshot of the retained events (the newest [`RETAIN`]), in
    /// emission order.
    pub fn snapshot(&self) -> Vec<Event> {
        lock(&self.state).ring.iter().cloned().collect()
    }

    /// Number of events retained (at most [`RETAIN`]).
    pub fn len(&self) -> usize {
        lock(&self.state).ring.len()
    }

    /// True if nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        lock(&self.state).ring.is_empty()
    }

    /// Number of events ever emitted on this bus.
    pub fn emitted(&self) -> u64 {
        lock(&self.state).emitted
    }

    /// Number of events evicted from the ring (`emitted - len`).
    pub fn dropped(&self) -> u64 {
        lock(&self.state).dropped()
    }

    /// The Prometheus exposition of every event ever emitted, rendered
    /// from the live registry in O(metric families). While
    /// [`EventBus::dropped`] is 0 it is byte-equal to
    /// [`metrics::prometheus_text`] over [`EventBus::snapshot`].
    pub fn registry_text(&self, stats: &HarnessStats) -> String {
        let state = lock(&self.state);
        state.registry.render(stats, state.dropped())
    }
}

impl BusState {
    fn dropped(&self) -> u64 {
        self.emitted - self.ring.len() as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn events_carry_worker_and_virtual_timestamps() {
        let bus = EventBus::with_clock(Arc::new(VirtualClock::new()));
        set_current_worker(3);
        bus.emit("exp", "exp/c/w", "c/w", 0, EventKind::CellStarted);
        bus.emit("exp", "exp/c/w", "c/w", 0, EventKind::CellFinished { ok: true, retries: 0 });
        set_current_worker(0);
        let events = bus.snapshot();
        assert_eq!(events.len(), 2);
        assert_eq!(events[0].worker, 3);
        assert_eq!(events[0].kind, EventKind::CellStarted);
        assert!(events[1].ts > events[0].ts, "virtual clock ticks every read");
    }

    #[test]
    fn the_ring_keeps_the_newest_events_and_counts_the_rest() {
        let bus = EventBus::with_clock(Arc::new(VirtualClock::new()));
        for i in 0..RETAIN + 3 {
            bus.emit("exp", &format!("exp/{i}"), "", 0, EventKind::CacheHit);
        }
        assert_eq!(bus.len(), RETAIN);
        assert_eq!(bus.emitted(), RETAIN as u64 + 3);
        assert_eq!(bus.dropped(), 3);
        let events = bus.snapshot();
        assert_eq!(events[0].cell, "exp/3", "the three oldest were evicted");
        assert_eq!(events[RETAIN - 1].cell, format!("exp/{}", RETAIN + 2));
        // The registry folded every event, evicted ones included.
        let text = bus.registry_text(&HarnessStats::default());
        let value = |name| metrics::metric_value(&text, name);
        assert_eq!(value("regen_cells_cached_total"), Some((RETAIN + 3) as f64));
        assert_eq!(value("regen_obs_events_dropped_total"), Some(3.0));
    }

    #[test]
    fn kind_names_are_stable() {
        assert_eq!(EventKind::CellQueued.name(), "cell_queued");
        assert_eq!(
            EventKind::FaultInjected { fault: FaultKind::Timeout }.name(),
            "fault_injected"
        );
    }
}
