//! The event-driven `regend` front end: one epoll readiness loop,
//! keep-alive connections, pipelined requests, zero-copy cache hits.
//!
//! ```text
//!                       ┌────────────── readiness loop ──────────────┐
//!  clients ── accept ──▶│ epoll_wait ─▶ read ─▶ incremental parser   │
//!   (keep-alive,        │     ▲                  │ requests          │
//!    pipelined)         │     │        fast path │     slow path     │
//!                       │     │    (cache hits,  ▼         ▼         │
//!                       │     │     /metrics) response   bounded     │
//!                       │     │         slots ◀─────┐   dispatch q   │
//!                       │     │           │          │ full? 429     │
//!                       │  wakeup fd      ▼          │     │         │
//!                       └─────┼─── ordered flush ◀───┼─────┼─────────┘
//!                             │                      ▼     ▼
//!                         completions ◀── worker pool (Core::execute:
//!                                          single-flight ▸ Executor)
//! ```
//!
//! The PR 5 server spent a TCP handshake and a dedicated thread on
//! every request. Here one thread owns every socket through raw
//! `epoll` syscalls ([`crate::sys`]); each connection is a small state
//! machine — an incremental [`RequestParser`], an ordered queue of
//! response *slots*, and a write cursor. Requests that only need a
//! `HashMap` probe (rendered-cache hits, `/healthz`, `/metrics`) are
//! answered on the loop thread, bodies written zero-copy from shared
//! `Arc<[u8]>` buffers. Cold work is classified by [`Core::route`]
//! into [`SlowWork`], admission-checked against the bounded dispatch
//! queue (full ⇒ immediate 429 + `Retry-After`), and executed on the
//! worker pool; completions come back over a mutex queue plus an
//! `eventfd` wakeup, and are flushed strictly in request order so
//! pipelined clients see HTTP/1.1 ordering.
//!
//! Hygiene: a connection that stops making progress — half a request
//! then silence, or a reader that never drains its responses — is
//! reaped at `idle_timeout` without touching any other connection; a
//! peer that vanishes mid-response is counted in
//! `regend_disconnects_total` and its slot freed immediately. Drain
//! (SIGTERM, `POST /shutdown`, [`ServerHandle::drain`]) closes the
//! listener, finishes every admitted request, flushes, and returns
//! from [`Server::run`] with the run's counters.

use std::collections::{HashMap, VecDeque};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::os::fd::AsRawFd;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

use spectrebench::obs::EventKind;
use spectrebench::EventBus;

use crate::core::{deadline_expired, lock, Action, Core, RunSummary, ServerConfig, SlowWork};
use crate::http::{Body, HttpError, Request, RequestParser, Response};
use crate::sys::{Epoll, EpollEvent, WakeFd, EPOLLERR, EPOLLHUP, EPOLLIN, EPOLLOUT, EPOLLRDHUP};

/// epoll token of the listening socket.
const TOKEN_LISTENER: u64 = 0;
/// epoll token of the wakeup eventfd.
const TOKEN_WAKE: u64 = 1;
/// First connection token.
const TOKEN_CONN0: u64 = 2;

// SIGTERM handling without a libc crate: libc itself is always linked
// on the targets std supports, so declaring `signal` suffices. The
// handler only stores to an atomic, which is async-signal-safe.
static SIGTERM: AtomicBool = AtomicBool::new(false);

#[cfg(unix)]
extern "C" {
    fn signal(signum: i32, handler: usize) -> usize;
}

#[cfg(unix)]
extern "C" fn on_sigterm(_sig: i32) {
    SIGTERM.store(true, Ordering::SeqCst);
}

/// Installs the SIGTERM hook (no-op off unix). Called by the `regend`
/// binary; in-process tests drain via [`ServerHandle`] instead.
pub fn install_sigterm_hook() {
    #[cfg(unix)]
    {
        const SIGTERM_NUM: i32 = 15;
        unsafe {
            signal(SIGTERM_NUM, on_sigterm as extern "C" fn(i32) as *const () as usize);
        }
    }
}

/// One slow request handed to the worker pool.
struct Job {
    conn: u64,
    slot: u64,
    work: SlowWork,
    path: String,
    arrived: Instant,
    deadline: Option<Duration>,
}

/// The bounded dispatch queue between the loop and the workers.
struct Dispatch {
    jobs: Mutex<(VecDeque<Job>, bool)>,
    cv: Condvar,
}

impl Dispatch {
    fn new() -> Dispatch {
        Dispatch { jobs: Mutex::new((VecDeque::new(), false)), cv: Condvar::new() }
    }

    fn depth(&self) -> usize {
        lock(&self.jobs).0.len()
    }

    fn push(&self, job: Job) {
        lock(&self.jobs).0.push_back(job);
        self.cv.notify_one();
    }

    fn shutdown(&self) {
        lock(&self.jobs).1 = true;
        self.cv.notify_all();
    }
}

/// A finished slow job, traveling back to the loop.
struct Completion {
    conn: u64,
    slot: u64,
    response: Response,
}

/// Bookkeeping for one request occupying a response slot.
struct SlotMeta {
    id: u64,
    endpoint: &'static str,
    path: String,
    arrived: Instant,
    keep_alive: bool,
    /// Admitted requests carry completion accounting (`served`,
    /// in-flight gauge, `RequestCompleted`); 429 rejections do not,
    /// matching the PR 5 counters.
    counted: bool,
}

/// One response slot: pipelined requests each get a slot in arrival
/// order, and slots flush strictly in that order.
enum Slot {
    /// Dispatched to the worker pool; the response is on its way.
    Waiting(SlotMeta),
    /// Response known, waiting its turn on the wire.
    Ready(SlotMeta, Response),
}

impl Slot {
    fn meta(&self) -> &SlotMeta {
        match self {
            Slot::Waiting(m) | Slot::Ready(m, _) => m,
        }
    }
}

/// The response currently being written: serialized head (plus any
/// owned body), then an optional shared body written zero-copy.
struct Writing {
    meta: SlotMeta,
    status: u16,
    head: Vec<u8>,
    pos: usize,
    body: Option<Arc<[u8]>>,
    body_pos: usize,
}

fn start_writing(meta: SlotMeta, response: Response) -> Writing {
    let status = response.status;
    let head = {
        let mut head = response.render_head(meta.keep_alive);
        if let Body::Text(s) = &response.body {
            head.extend_from_slice(s.as_bytes());
        }
        head
    };
    let body = match response.body {
        Body::Text(_) => None,
        Body::Shared(b) => Some(b),
    };
    Writing { meta, status, head, pos: 0, body, body_pos: 0 }
}

/// Why a connection is being closed (decides the hygiene counters).
#[derive(Clone, Copy, PartialEq)]
enum CloseReason {
    /// Clean close: peer finished, drain, or quiet idle reap.
    Normal,
    /// Peer vanished mid-request or mid-response.
    Disconnect,
    /// Reaped by the idle deadline while holding partial state.
    IdleStall,
}

/// Per-connection state machine.
struct Conn {
    stream: TcpStream,
    fd: i32,
    parser: RequestParser,
    slots: VecDeque<Slot>,
    writing: Option<Writing>,
    next_slot: u64,
    /// Responses completed on this connection.
    requests: u64,
    last_activity: Instant,
    close_after_flush: bool,
    /// Peer half-closed its sending side (we may still owe responses).
    peer_eof: bool,
    /// Sticky parse failure: stop reading, flush the 400, close.
    stop_reading: bool,
    /// Interest bits currently registered with epoll.
    registered: u32,
}

impl Conn {
    fn new(stream: TcpStream, fd: i32) -> Conn {
        Conn {
            stream,
            fd,
            parser: RequestParser::new(),
            slots: VecDeque::new(),
            writing: None,
            next_slot: 0,
            requests: 0,
            last_activity: Instant::now(),
            close_after_flush: false,
            peer_eof: false,
            stop_reading: false,
            registered: EPOLLIN | EPOLLRDHUP,
        }
    }

    fn has_waiting(&self) -> bool {
        self.slots.iter().any(|s| matches!(s, Slot::Waiting(_)))
    }

    fn write_pending(&self) -> bool {
        self.writing.is_some() || matches!(self.slots.front(), Some(Slot::Ready(..)))
    }

    /// Once everything owed is flushed, should this connection close —
    /// and how should the close be classified?
    fn finished(&self) -> Option<CloseReason> {
        if self.writing.is_some() || !self.slots.is_empty() {
            return None;
        }
        if self.close_after_flush {
            return Some(CloseReason::Normal);
        }
        if self.peer_eof {
            // EOF with half a request buffered means the peer gave up
            // mid-send; a clean EOF between requests is a normal close.
            return Some(if self.parser.buffered() > 0 {
                CloseReason::Disconnect
            } else {
                CloseReason::Normal
            });
        }
        None
    }
}

/// Outcome of a flush attempt.
enum FlushOutcome {
    /// Wrote all it could; nothing pending or socket still writable.
    Progress,
    /// Peer gone (write error).
    Dead,
}

/// The event-driven `regend` server. [`Server::bind`], then
/// [`Server::run`] (which blocks until drained). [`Server::handle`]
/// gives a clonable handle for triggering drain from tests or signal
/// handlers.
pub struct Server {
    core: Arc<Core>,
    wake: Arc<WakeFd>,
    listener: TcpListener,
    local_addr: SocketAddr,
}

/// Clonable handle onto a running server.
#[derive(Clone)]
pub struct ServerHandle {
    core: Arc<Core>,
    wake: Arc<WakeFd>,
}

impl ServerHandle {
    /// Initiates graceful drain: stop accepting, finish everything
    /// admitted, flush, then let [`Server::run`] return.
    pub fn drain(&self) {
        self.core.draining.store(true, Ordering::SeqCst);
        self.wake.wake();
    }

    /// True once drain has started.
    pub fn is_draining(&self) -> bool {
        self.core.is_draining()
    }

    /// The event bus behind the server's `/metrics`.
    pub fn bus(&self) -> &Arc<EventBus> {
        &self.core.bus
    }
}

impl Server {
    /// Binds the listener and builds the shared core. No thread is
    /// spawned until [`Server::run`].
    pub fn bind(cfg: ServerConfig) -> std::io::Result<Server> {
        let listener = TcpListener::bind(&cfg.addr)?;
        let local_addr = listener.local_addr()?;
        listener.set_nonblocking(true)?;
        let core = Arc::new(Core::new(cfg)?);
        let wake = Arc::new(WakeFd::new()?);
        Ok(Server { core, wake, listener, local_addr })
    }

    /// The bound address (resolves port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// A handle for triggering drain.
    pub fn handle(&self) -> ServerHandle {
        ServerHandle { core: Arc::clone(&self.core), wake: Arc::clone(&self.wake) }
    }

    /// Serves until drained, then returns the run's counters.
    /// Everything admitted before drain began is answered.
    pub fn run(self) -> std::io::Result<RunSummary> {
        let core = &*self.core;
        let dispatch = Dispatch::new();
        let completions: Mutex<Vec<Completion>> = Mutex::new(Vec::new());
        let epoll = Epoll::new()?;
        epoll.add(self.listener.as_raw_fd(), EPOLLIN, TOKEN_LISTENER)?;
        epoll.add(self.wake.fd(), EPOLLIN, TOKEN_WAKE)?;
        std::thread::scope(|s| {
            for _ in 0..core.cfg.workers.max(1) {
                s.spawn(|| worker_loop(core, &dispatch, &completions, &self.wake));
            }
            if core.cluster.is_some() {
                s.spawn(|| prober_loop(core));
            }
            let mut event_loop = EventLoop {
                core,
                dispatch: &dispatch,
                completions: &completions,
                wake: &self.wake,
                epoll,
                listener: Some(&self.listener),
                conns: HashMap::new(),
                next_conn: TOKEN_CONN0,
                jobs_in_flight: 0,
            };
            event_loop.run();
            dispatch.shutdown();
        });
        Ok(core.summary())
    }
}

/// The health prober on a cluster proxy: walks every shard's
/// `/healthz` each probe interval, feeding the per-shard state
/// machines so fetch paths skip straight to failover on down shards
/// and resumed shards are noticed without a client request. Sleeps in
/// short steps so drain is honored within ~50ms.
fn prober_loop(core: &Core) {
    let Some(cluster) = &core.cluster else { return };
    while !core.is_draining() {
        cluster.probe_all(&core.bus);
        let mut remaining = core.cfg.probe_interval;
        while !remaining.is_zero() && !core.is_draining() {
            let step = remaining.min(std::time::Duration::from_millis(50));
            std::thread::sleep(step);
            remaining = remaining.saturating_sub(step);
        }
    }
}

/// A worker: pops slow jobs, applies the deadline policy around
/// [`Core::execute`], posts the completion, wakes the loop.
fn worker_loop(
    core: &Core,
    dispatch: &Dispatch,
    completions: &Mutex<Vec<Completion>>,
    wake: &WakeFd,
) {
    loop {
        let job = {
            let mut g = lock(&dispatch.jobs);
            loop {
                if let Some(job) = g.0.pop_front() {
                    break Some(job);
                }
                if g.1 {
                    break None;
                }
                g = dispatch.cv.wait(g).unwrap_or_else(|e| e.into_inner());
            }
        };
        let Some(job) = job else { return };
        let response = run_job(core, &job);
        lock(completions).push(Completion { conn: job.conn, slot: job.slot, response });
        wake.wake();
    }
}

fn run_job(core: &Core, job: &Job) -> Response {
    if deadline_expired(job.deadline, job.arrived) {
        core.bus.emit("regend", &job.path, "", 0, EventKind::DeadlineExpired);
        return Response::text(504, "regend: deadline expired in queue\n");
    }
    let mut response = core.execute(&job.work, &job.path);
    if deadline_expired(job.deadline, job.arrived) && response.status == 200 {
        // Computed, but too late to promise freshness bounds: the
        // client asked for a deadline, honor it.
        core.bus.emit("regend", &job.path, "", 0, EventKind::DeadlineExpired);
        response = Response::text(504, "regend: deadline expired while computing\n");
    }
    response
}

/// The readiness loop: owns every socket, the parser states, and the
/// ordered response slots. Runs on the thread that called
/// [`Server::run`].
struct EventLoop<'a> {
    core: &'a Core,
    dispatch: &'a Dispatch,
    completions: &'a Mutex<Vec<Completion>>,
    wake: &'a WakeFd,
    epoll: Epoll,
    listener: Option<&'a TcpListener>,
    conns: HashMap<u64, Conn>,
    next_conn: u64,
    /// Jobs pushed but whose completions the loop has not consumed.
    jobs_in_flight: u64,
}

impl EventLoop<'_> {
    fn run(&mut self) {
        let mut events = [EpollEvent::default(); 64];
        loop {
            if SIGTERM.load(Ordering::SeqCst) {
                self.core.draining.store(true, Ordering::SeqCst);
            }
            if self.core.is_draining() {
                self.begin_drain();
                if self.conns.is_empty() && self.jobs_in_flight == 0 {
                    return;
                }
            }
            let n = match self.epoll.wait(&mut events, 50) {
                Ok(n) => n,
                Err(_) => {
                    // An unusable epoll fd is unrecoverable; drain so
                    // the process exits cleanly instead of spinning.
                    self.core.draining.store(true, Ordering::SeqCst);
                    0
                }
            };
            let mut touched: Vec<u64> = Vec::with_capacity(n);
            for ev in events.iter().take(n) {
                let (bits, token) = (ev.events, ev.data);
                match token {
                    TOKEN_LISTENER => self.accept_ready(),
                    TOKEN_WAKE => self.wake.drain(),
                    id => {
                        self.conn_ready(id, bits);
                        touched.push(id);
                    }
                }
            }
            let delivered = self.deliver_completions();
            for id in touched.into_iter().chain(delivered) {
                self.settle(id);
            }
            self.sweep_idle();
        }
    }

    /// First pass after drain is requested: stop accepting and mark
    /// every connection close-after-flush. Idempotent.
    fn begin_drain(&mut self) {
        if let Some(listener) = self.listener.take() {
            let _ = self.epoll.delete(listener.as_raw_fd());
            for conn in self.conns.values_mut() {
                conn.close_after_flush = true;
            }
            let ids: Vec<u64> = self.conns.keys().copied().collect();
            for id in ids {
                self.settle(id);
            }
        }
    }

    fn accept_ready(&mut self) {
        let Some(listener) = self.listener else { return };
        loop {
            match listener.accept() {
                Ok((stream, _peer)) => {
                    if stream.set_nonblocking(true).is_err() {
                        continue;
                    }
                    let _ = stream.set_nodelay(true);
                    let fd = stream.as_raw_fd();
                    let id = self.next_conn;
                    self.next_conn += 1;
                    if self.epoll.add(fd, EPOLLIN | EPOLLRDHUP, id).is_err() {
                        continue;
                    }
                    self.conns.insert(id, Conn::new(stream, fd));
                    self.core.connections.fetch_add(1, Ordering::SeqCst);
                    self.core.bus.emit("regend", "", "", 0, EventKind::ConnectionOpened);
                }
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(_) => break,
            }
        }
    }

    /// Handles readiness on one connection: read newly arrived bytes
    /// through the parser (admitting / rejecting / answering each
    /// request), then push pending response bytes.
    fn conn_ready(&mut self, id: u64, bits: u32) {
        let Self { core, dispatch, conns, jobs_in_flight, .. } = self;
        let Some(conn) = conns.get_mut(&id) else { return };
        if bits & (EPOLLERR | EPOLLHUP) != 0 {
            mark_dead(conn);
            return;
        }
        if bits & (EPOLLIN | EPOLLRDHUP) != 0 && !conn.stop_reading && !conn.close_after_flush {
            read_ready(core, dispatch, jobs_in_flight, id, conn);
        }
        if conn.write_pending() {
            if let FlushOutcome::Dead = try_flush(core, conn) {
                mark_dead(conn);
            }
        }
    }

    /// Consumes completed slow jobs; returns the connections touched.
    fn deliver_completions(&mut self) -> Vec<u64> {
        let done: Vec<Completion> = std::mem::take(&mut *lock(self.completions));
        let mut touched = Vec::with_capacity(done.len());
        for c in done {
            self.jobs_in_flight -= 1;
            let Some(conn) = self.conns.get_mut(&c.conn) else {
                // The connection died while the job ran; its 499 was
                // accounted at close time.
                continue;
            };
            let pos = conn
                .slots
                .iter()
                .position(|s| s.meta().id == c.slot && matches!(s, Slot::Waiting(_)));
            if let Some(pos) = pos {
                if let Some(Slot::Waiting(meta)) = conn.slots.remove(pos) {
                    conn.slots.insert(pos, Slot::Ready(meta, c.response));
                }
            }
            conn.last_activity = Instant::now();
            if let FlushOutcome::Dead = try_flush(self.core, conn) {
                mark_dead(conn);
            }
            touched.push(c.conn);
        }
        touched
    }

    /// Re-registers interest for one connection, or closes it if it is
    /// finished or dead.
    fn settle(&mut self, id: u64) {
        let Some(conn) = self.conns.get_mut(&id) else { return };
        if conn.stop_reading && conn.registered == u32::MAX {
            // Marked dead by an earlier phase this iteration.
            self.close_conn(id, CloseReason::Disconnect);
            return;
        }
        if let Some(reason) = conn.finished() {
            self.close_conn(id, reason);
            return;
        }
        let mut want = EPOLLRDHUP;
        if !conn.stop_reading && !conn.close_after_flush && !conn.peer_eof {
            want |= EPOLLIN;
        }
        if conn.write_pending() {
            want |= EPOLLOUT;
        }
        if want != conn.registered {
            if self.epoll.modify(conn.fd, want, id).is_ok() {
                conn.registered = want;
            } else {
                self.close_conn(id, CloseReason::Disconnect);
            }
        }
    }

    /// Removes a connection: deregisters the fd, accounts unanswered
    /// admitted requests as 499, and emits the close-reason events the
    /// hygiene metrics are derived from.
    fn close_conn(&mut self, id: u64, reason: CloseReason) {
        let Some(conn) = self.conns.remove(&id) else { return };
        let _ = self.epoll.delete(conn.fd);
        let unanswered = conn
            .writing
            .iter()
            .map(|w| &w.meta)
            .chain(conn.slots.iter().map(|s| s.meta()));
        for meta in unanswered {
            finish(self.core, meta, 499);
        }
        match reason {
            CloseReason::Normal => {}
            CloseReason::Disconnect => {
                self.core.disconnects.fetch_add(1, Ordering::SeqCst);
                self.core.bus.emit("regend", "", "", 0, EventKind::ClientDisconnected);
            }
            CloseReason::IdleStall => {
                self.core.idle_timeouts.fetch_add(1, Ordering::SeqCst);
                self.core.bus.emit("regend", "", "", 0, EventKind::IdleTimeout);
            }
        }
        self.core
            .bus
            .emit("regend", "", "", 0, EventKind::ConnectionClosed { requests: conn.requests });
    }

    /// Reaps connections that stopped making progress. A connection
    /// merely waiting on slow server-side work is exempt — the stall
    /// deadline measures the *peer*, not the executor.
    fn sweep_idle(&mut self) {
        let timeout = self.core.cfg.idle_timeout;
        let now = Instant::now();
        let mut reap: Vec<(u64, CloseReason)> = Vec::new();
        for (id, conn) in &self.conns {
            if conn.has_waiting() {
                continue;
            }
            if now.saturating_duration_since(conn.last_activity) <= timeout {
                continue;
            }
            let stalled =
                conn.write_pending() || conn.parser.buffered() > 0 || conn.close_after_flush;
            let reason =
                if stalled { CloseReason::IdleStall } else { CloseReason::Normal };
            reap.push((*id, reason));
        }
        for (id, reason) in reap {
            self.close_conn(id, reason);
        }
    }
}

/// Marks a connection for closure as a disconnect at settle time.
fn mark_dead(conn: &mut Conn) {
    conn.stop_reading = true;
    conn.registered = u32::MAX;
}

/// Records a finished admitted request: counters, gauge, and the
/// completion event carrying the measured end-to-end latency.
fn finish(core: &Core, meta: &SlotMeta, status: u16) {
    if !meta.counted {
        return;
    }
    core.served.fetch_add(1, Ordering::SeqCst);
    core.in_flight.fetch_sub(1, Ordering::SeqCst);
    let micros = meta.arrived.elapsed().as_micros() as u64;
    core.bus.emit(meta.endpoint, &meta.path, "", 0, EventKind::RequestCompleted {
        status,
        micros,
    });
}

/// Reads everything available, feeding the incremental parser and
/// handling each complete request as it surfaces.
fn read_ready(
    core: &Core,
    dispatch: &Dispatch,
    jobs_in_flight: &mut u64,
    conn_id: u64,
    conn: &mut Conn,
) {
    let mut buf = [0u8; 16 * 1024];
    loop {
        match (&conn.stream).read(&mut buf) {
            Ok(0) => {
                conn.peer_eof = true;
                break;
            }
            Ok(n) => {
                conn.last_activity = Instant::now();
                conn.parser.push(&buf[..n]);
                loop {
                    match conn.parser.next_request() {
                        Ok(Some(request)) => {
                            handle_request(core, dispatch, jobs_in_flight, conn_id, conn, request);
                        }
                        Ok(None) => break,
                        Err(HttpError::Malformed(m)) => {
                            reject_malformed(core, dispatch, conn, &m);
                            return;
                        }
                        Err(HttpError::Io(_)) => break,
                    }
                }
                if conn.stop_reading || conn.close_after_flush {
                    return;
                }
                if n < buf.len() {
                    break;
                }
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(_) => {
                mark_dead(conn);
                return;
            }
        }
    }
}

/// A sticky parse failure: answer 400 once (accounted like any other
/// admitted request, as PR 5 did), stop reading, close after flush.
fn reject_malformed(core: &Core, dispatch: &Dispatch, conn: &mut Conn, message: &str) {
    admit(core, dispatch.depth());
    let meta = new_slot_meta(conn, "error", String::new(), false, true);
    conn.slots
        .push_back(Slot::Ready(meta, Response::text(400, format!("regend: {message}\n"))));
    conn.stop_reading = true;
    conn.close_after_flush = true;
}

fn admit(core: &Core, queue_depth: usize) {
    core.admitted.fetch_add(1, Ordering::SeqCst);
    core.in_flight.fetch_add(1, Ordering::SeqCst);
    core.bus.emit("regend", "", "", 0, EventKind::RequestReceived { queue_depth });
}

fn new_slot_meta(
    conn: &mut Conn,
    endpoint: &'static str,
    path: String,
    keep_alive: bool,
    counted: bool,
) -> SlotMeta {
    let id = conn.next_slot;
    conn.next_slot += 1;
    SlotMeta { id, endpoint, path, arrived: Instant::now(), keep_alive, counted }
}

/// Routes one parsed request: fast-path answers become Ready slots on
/// the spot; slow work is admission-checked and dispatched; `POST
/// /shutdown` flips the drain flag.
fn handle_request(
    core: &Core,
    dispatch: &Dispatch,
    jobs_in_flight: &mut u64,
    conn_id: u64,
    conn: &mut Conn,
    request: Request,
) {
    let arrived = Instant::now();
    let depth = conn.slots.len() + usize::from(conn.writing.is_some()) + 1;
    core.bus.emit("regend", &request.path, "", 0, EventKind::PipelineObserved { depth });

    if core.is_draining() {
        admit(core, dispatch.depth());
        let meta = new_slot_meta(conn, "error", request.path.clone(), false, true);
        conn.slots.push_back(Slot::Ready(
            meta,
            Response::text(503, "regend: draining, connection closing\n"),
        ));
        conn.close_after_flush = true;
        return;
    }

    let keep_alive = request.keep_alive;
    let deadline = core.request_deadline(&request);
    let (endpoint, action) = core.route(&request, dispatch.depth());
    match action {
        Action::Done(response) => {
            admit(core, dispatch.depth());
            let meta = new_slot_meta(conn, endpoint, request.path.clone(), keep_alive, true);
            let response = if deadline_expired(deadline, arrived) {
                core.bus.emit("regend", &request.path, "", 0, EventKind::DeadlineExpired);
                Response::text(504, "regend: deadline expired in queue\n")
            } else {
                response
            };
            conn.slots.push_back(Slot::Ready(meta, response));
            if !keep_alive {
                conn.close_after_flush = true;
            }
        }
        Action::StartDrain(response) => {
            core.draining.store(true, Ordering::SeqCst);
            admit(core, dispatch.depth());
            let meta = new_slot_meta(conn, endpoint, request.path.clone(), false, true);
            conn.slots.push_back(Slot::Ready(meta, response));
            conn.close_after_flush = true;
        }
        Action::Slow(work) => {
            let queue_depth = dispatch.depth();
            if queue_depth >= core.cfg.queue_capacity.max(1) {
                core.rejected.fetch_add(1, Ordering::SeqCst);
                core.bus.emit("regend", "", "", 0, EventKind::RequestRejected);
                let meta =
                    new_slot_meta(conn, endpoint, request.path.clone(), keep_alive, false);
                conn.slots.push_back(Slot::Ready(
                    meta,
                    Response::text(429, "regend: admission queue full, retry shortly\n")
                        .with_header("Retry-After", "1"),
                ));
                if !keep_alive {
                    conn.close_after_flush = true;
                }
                return;
            }
            admit(core, queue_depth + 1);
            let meta = new_slot_meta(conn, endpoint, request.path.clone(), keep_alive, true);
            let job = Job {
                conn: conn_id,
                slot: meta.id,
                work,
                path: request.path.clone(),
                arrived,
                deadline,
            };
            conn.slots.push_back(Slot::Waiting(meta));
            *jobs_in_flight += 1;
            dispatch.push(job);
            if !keep_alive {
                conn.close_after_flush = true;
            }
        }
    }
}

/// Pushes response bytes: the front Ready slot's serialized head, then
/// its shared body zero-copy, strictly in slot order. Stops at
/// `WouldBlock` (EPOLLOUT takes over) or a dead peer.
fn try_flush(core: &Core, conn: &mut Conn) -> FlushOutcome {
    loop {
        if conn.writing.is_none() {
            match conn.slots.front() {
                Some(Slot::Ready(..)) => {
                    let Some(Slot::Ready(meta, response)) = conn.slots.pop_front() else {
                        unreachable!()
                    };
                    conn.writing = Some(start_writing(meta, response));
                }
                _ => return FlushOutcome::Progress,
            }
        }
        let Some(w) = conn.writing.as_mut() else { return FlushOutcome::Progress };
        while w.pos < w.head.len() {
            match (&conn.stream).write(&w.head[w.pos..]) {
                Ok(0) => return FlushOutcome::Dead,
                Ok(n) => {
                    w.pos += n;
                    conn.last_activity = Instant::now();
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                    return FlushOutcome::Progress
                }
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(_) => return FlushOutcome::Dead,
            }
        }
        if let Some(body) = &w.body {
            while w.body_pos < body.len() {
                match (&conn.stream).write(&body[w.body_pos..]) {
                    Ok(0) => return FlushOutcome::Dead,
                    Ok(n) => {
                        w.body_pos += n;
                        conn.last_activity = Instant::now();
                    }
                    Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                        return FlushOutcome::Progress
                    }
                    Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                    Err(_) => return FlushOutcome::Dead,
                }
            }
        }
        let w = conn.writing.take().unwrap_or_else(|| unreachable!());
        conn.requests += 1;
        finish(core, &w.meta, w.status);
        if !w.meta.keep_alive {
            conn.close_after_flush = true;
            return FlushOutcome::Progress;
        }
    }
}
