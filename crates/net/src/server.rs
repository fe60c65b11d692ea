//! The TCP front end: accept thread, per-connection reader and writer
//! threads, and the deficit-round-robin dispatcher feeding the sharded
//! [`SimService`].
//!
//! ```text
//!  TCP clients      ┌────────────────────────── NetServer ─────────────────────────┐
//!  Hello{tenant} ───┤ reader thread        DRR scheduler          dispatcher       │
//!  Request ─────────┼▶ decode → route      [tenant 1  ████░]      try_submit_tagged│
//!  Request ─────────┤  → arity → quota  ─▶ [tenant 2  █░░░░] ──▶  → SimService     │
//!   └─ Error ◀──┐   │  (token bucket)      quantum per turn        shards          │
//!  Reply ◀──────┴───┴── writer thread ◀── outbox ◀── scatter ◀── batcher flush ────┘
//! ```
//!
//! Each connection authenticates one [`TenantId`] in its hello frame,
//! then streams requests; admission control (unknown sim, arity, quota)
//! happens on the connection's reader thread, fair scheduling across
//! tenants happens in the internal scheduler (deficit round robin, one
//! queue per tenant), and a single dispatcher thread drains scheduled
//! batches into the sharded service. Replies are streamed out of order,
//! correlated by `req_id`.
//!
//! Everything is plain blocking `std::net` — no async runtime exists in
//! the offline build environment — and every thread with nothing to do
//! is blocked in exactly one wait, so an idle server costs no CPU:
//!
//! * **accept thread** — blocks in `accept`; each connection gets a
//!   reader thread, registered with a clone of its stream.
//! * **reader** (one per connection) — blocks in `read`, then decodes,
//!   admits and enqueues. Before the hello it is the connection's only
//!   thread; the hello spawns the writer.
//! * **writer** (one per authenticated connection) — blocks on its
//!   connection's outbox, the one place every outbound frame lands:
//!   `HelloOk`, the service's replies (the outbox is the connection's
//!   [`ReplyTarget`]), the reader's admission errors (`UnknownSim`,
//!   `BadArity`, `QuotaExceeded`, scheduler spill-back `QueueFull`) and
//!   the dispatcher's `QueueFull`. It encodes under the outbox lock and
//!   writes after releasing it.
//! * **dispatcher** — blocks on the scheduler's condition variable.
//!
//! A connection ends when its reader sees EOF, an I/O error or a
//! protocol violation, or when its writer's write fails (the writer
//! then shuts the socket down, which ends the reader's `read`). The
//! reader closes the outbox, which wakes and ends the writer, joins it,
//! and removes the connection from the registry. Shutdown wakes every
//! blocked thread directly: a self-connect unblocks `accept`,
//! `shutdown(Both)` on each registered stream unblocks its reader, the
//! reader's exit unblocks its writer, and the stopped scheduler
//! unblocks the dispatcher once the admitted work is drained.

use std::collections::{HashMap, VecDeque};
use std::io::{ErrorKind, Read, Write};
use std::net::{Ipv4Addr, Ipv6Addr, Shutdown, SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicU32, Ordering};
use std::sync::{Arc, Condvar, Mutex, PoisonError, RwLock};
use std::thread::JoinHandle;
use std::time::Duration;

use ambipla_obs::{monotonic_ns, Event, EventKind, MetricFamily, MetricKind, Recorder, Sample};
use ambipla_serve::{ReplySink, ReplyTarget, SharedSim, SimId, SimKey, SimReply, SimService};

use crate::protocol::{encode_frame, ErrorCode, Frame, FrameReader};
use crate::tenant::{QuotaConfig, TenantId, TenantRegistry, TenantSnapshot, TenantState};

/// Front-end configuration (the service itself is configured by
/// `ambipla_serve::ServeConfig`).
#[derive(Debug, Clone, Copy)]
pub struct NetConfig {
    /// Quota handed to tenants on first hello (default: unlimited).
    pub default_quota: QuotaConfig,
    /// Deficit-round-robin quantum: how many requests one tenant may
    /// dispatch per scheduling turn before the next tenant runs.
    pub quantum: usize,
    /// Per-tenant cap on requests waiting in the scheduler; admissions
    /// beyond it are rejected as `QueueFull` before reaching the
    /// service.
    pub tenant_pending: usize,
}

impl Default for NetConfig {
    fn default() -> NetConfig {
        NetConfig {
            default_quota: QuotaConfig::unlimited(),
            quantum: 64,
            tenant_pending: 4096,
        }
    }
}

/// An exposed registration: service id plus its input mask.
#[derive(Debug, Clone, Copy)]
struct Route {
    id: SimId,
    /// Bits a request may legally set: `(1 << n_inputs) - 1`.
    mask: u64,
}

/// A connection's outbox: every frame owed to the client is pushed
/// here, and the connection's writer thread blocks on `wake` until
/// there is something to send.
#[derive(Debug, Default)]
struct ConnShared {
    out: Mutex<Outbox>,
    wake: Condvar,
}

#[derive(Debug, Default)]
struct Outbox {
    frames: Vec<Frame>,
    /// The writer is blocked on `wake`: only then does a push pay for a
    /// notify.
    parked: bool,
    /// The connection has ended: the writer exits and later pushes are
    /// dropped.
    closed: bool,
}

impl ConnShared {
    /// Queue frames (appended by `add`) for the writer and wake it if it
    /// is parked. Lock poisoning is recovered as in the scheduler: the
    /// outbox is a frame list plus two flags, consistent after every
    /// mutation.
    fn push(&self, add: impl FnOnce(&mut Vec<Frame>)) {
        let mut out = self.out.lock().unwrap_or_else(PoisonError::into_inner);
        if out.closed {
            return;
        }
        add(&mut out.frames);
        let wake = std::mem::take(&mut out.parked);
        drop(out);
        if wake {
            self.wake.notify_one();
        }
    }

    /// End the connection's output: drop what is queued and release the
    /// writer.
    fn close(&self) {
        let mut out = self.out.lock().unwrap_or_else(PoisonError::into_inner);
        out.closed = true;
        out.frames.clear();
        drop(out);
        self.wake.notify_one();
    }
}

impl ReplyTarget for ConnShared {
    fn deliver(&self, r: SimReply) {
        self.push(|frames| {
            frames.push(Frame::Reply {
                req_id: r.tag,
                epoch: r.epoch,
                outputs: r.outputs,
            })
        });
    }
}

/// One admitted request waiting for dispatch.
struct Pending {
    route: Route,
    bits: u64,
    req_id: u64,
    sink: ReplySink,
    tenant: Arc<TenantState>,
    conn: Arc<ConnShared>,
}

/// One tenant's scheduler queue.
struct TenantQueue {
    deficit: usize,
    q: VecDeque<Pending>,
    /// Whether this queue currently sits in the active rotation.
    active: bool,
}

struct SchedInner {
    queues: Vec<TenantQueue>,
    /// Tenant raw id → index into `queues`.
    slot_of: HashMap<u64, usize>,
    /// Round-robin rotation of queues with work.
    rotation: VecDeque<usize>,
    stopping: bool,
}

/// Deficit-round-robin scheduler: per-tenant FIFO queues, each granted
/// `quantum` dispatch credits per rotation turn, so a firehose tenant
/// cannot starve a trickle tenant however deep its backlog.
struct Scheduler {
    inner: Mutex<SchedInner>,
    cv: Condvar,
    quantum: usize,
    tenant_pending: usize,
}

impl Scheduler {
    fn new(quantum: usize, tenant_pending: usize) -> Scheduler {
        Scheduler {
            inner: Mutex::new(SchedInner {
                queues: Vec::new(),
                slot_of: HashMap::new(),
                rotation: VecDeque::new(),
                stopping: false,
            }),
            cv: Condvar::new(),
            quantum: quantum.max(1),
            tenant_pending: tenant_pending.max(1),
        }
    }

    /// The queue slot for a tenant, created on first use.
    ///
    /// Lock poisoning throughout the scheduler is recovered with
    /// `PoisonError::into_inner`: queue state is a set of independent
    /// FIFOs plus counters, every mutation leaves it consistent, and a
    /// panicking dispatcher must not take the whole listener down.
    fn tenant_slot(&self, raw: u64) -> usize {
        let mut inner = self
            .inner
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        if let Some(&slot) = inner.slot_of.get(&raw) {
            return slot;
        }
        let slot = inner.queues.len();
        inner.queues.push(TenantQueue {
            deficit: 0,
            q: VecDeque::new(),
            active: false,
        });
        inner.slot_of.insert(raw, slot);
        slot
    }

    /// Queue a batch of admitted requests for `slot`; returns the ones
    /// rejected by the per-tenant pending cap.
    fn enqueue(&self, slot: usize, batch: Vec<Pending>) -> Vec<Pending> {
        let mut rejected = Vec::new();
        let mut inner = self
            .inner
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        for p in batch {
            let tq = &mut inner.queues[slot];
            if tq.q.len() >= self.tenant_pending {
                rejected.push(p);
            } else {
                tq.q.push_back(p);
            }
        }
        let tq = &mut inner.queues[slot];
        if !tq.q.is_empty() && !tq.active {
            tq.active = true;
            inner.rotation.push_back(slot);
        }
        drop(inner);
        self.cv.notify_one();
        rejected
    }

    /// Block for the next DRR batch; `None` only after [`stop`] once
    /// every queue has drained, so shutdown never drops admitted work.
    fn next_batch(&self) -> Option<Vec<Pending>> {
        let mut inner = self
            .inner
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        loop {
            if let Some(slot) = inner.rotation.pop_front() {
                let quantum = self.quantum;
                let tq = &mut inner.queues[slot];
                tq.deficit += quantum;
                let take = tq.deficit.min(tq.q.len());
                let batch: Vec<Pending> = tq.q.drain(..take).collect();
                tq.deficit -= take;
                if tq.q.is_empty() {
                    tq.active = false;
                    tq.deficit = 0;
                } else {
                    inner.rotation.push_back(slot);
                }
                if !batch.is_empty() {
                    return Some(batch);
                }
                continue;
            }
            if inner.stopping {
                return None;
            }
            inner = self
                .cv
                .wait(inner)
                .unwrap_or_else(std::sync::PoisonError::into_inner);
        }
    }

    fn stop(&self) {
        self.inner
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .stopping = true;
        self.cv.notify_all();
    }
}

/// A live connection in the registry: the reader thread's handle and a
/// clone of the stream, kept so shutdown can unblock the reader.
struct ConnEntry {
    stream: Arc<TcpStream>,
    handle: JoinHandle<()>,
}

#[derive(Default)]
struct ConnRegistry {
    live: HashMap<u32, ConnEntry>,
    /// The reader thread of the connection that ended last. A thread
    /// cannot join itself, so each ending connection joins the one
    /// before it: at most one finished thread is ever left unjoined.
    finished: Option<JoinHandle<()>>,
}

/// Shared state between accept loop, connection threads and dispatcher.
struct ServerCtx {
    service: Arc<SimService>,
    /// Raw `SimKey` → route, for the request hot path.
    routes: RwLock<HashMap<u64, Route>>,
    tenants: TenantRegistry,
    sched: Scheduler,
    recorder: Option<Arc<dyn Recorder>>,
    stop: AtomicBool,
    conns: Mutex<ConnRegistry>,
    conn_seq: AtomicU32,
}

impl ServerCtx {
    fn record(&self, kind: EventKind) {
        if let Some(r) = &self.recorder {
            r.record(Event::now(kind));
        }
    }

    /// Remove an ended connection from the registry and join the
    /// connection that ended before it.
    fn retire(&self, slot: u32) {
        let previous = {
            let mut conns = self.conns.lock().unwrap_or_else(PoisonError::into_inner);
            match conns.live.remove(&slot) {
                Some(entry) => conns.finished.replace(entry.handle),
                // Shutdown already took the entry and joins it.
                None => None,
            }
        };
        if let Some(h) = previous {
            let _ = h.join();
        }
    }
}

/// The multi-tenant TCP front end over a (typically sharded)
/// [`SimService`].
///
/// ```no_run
/// use ambipla_net::{NetClient, NetConfig, NetServer, TenantId};
/// use ambipla_serve::{SimKey, SimService};
/// use logic::Cover;
/// use std::sync::Arc;
///
/// let service = Arc::new(SimService::with_defaults());
/// let server =
///     NetServer::bind("127.0.0.1:0", Arc::clone(&service), NetConfig::default()).unwrap();
/// let xor = Cover::parse("10 1\n01 1", 2, 1).unwrap();
/// let key = SimKey::of_cover(&xor);
/// server.register_sim(Arc::new(xor), key);
///
/// let mut client = NetClient::connect(server.local_addr(), TenantId::new(1)).unwrap();
/// match client.call(key, 7, 0b01).unwrap() {
///     ambipla_net::Frame::Reply { req_id, outputs, .. } => {
///         assert_eq!((req_id, outputs), (7, vec![true]));
///     }
///     other => panic!("unexpected frame {other:?}"),
/// }
/// ```
pub struct NetServer {
    ctx: Arc<ServerCtx>,
    accept: Option<JoinHandle<()>>,
    dispatcher: Option<JoinHandle<()>>,
    addr: SocketAddr,
}

impl NetServer {
    /// Bind `addr` (use port 0 for an ephemeral port) and start the
    /// accept loop and dispatcher over `service`.
    pub fn bind<A: ToSocketAddrs>(
        addr: A,
        service: Arc<SimService>,
        config: NetConfig,
    ) -> std::io::Result<NetServer> {
        NetServer::bind_inner(addr, service, config, None)
    }

    /// [`bind`](NetServer::bind), with connection-lifecycle and
    /// quota-reject events flowing to `recorder`.
    pub fn bind_with_recorder<A: ToSocketAddrs>(
        addr: A,
        service: Arc<SimService>,
        config: NetConfig,
        recorder: Arc<dyn Recorder>,
    ) -> std::io::Result<NetServer> {
        NetServer::bind_inner(addr, service, config, Some(recorder))
    }

    fn bind_inner<A: ToSocketAddrs>(
        addr: A,
        service: Arc<SimService>,
        config: NetConfig,
        recorder: Option<Arc<dyn Recorder>>,
    ) -> std::io::Result<NetServer> {
        let listener = TcpListener::bind(addr)?;
        let addr = listener.local_addr()?;
        let ctx = Arc::new(ServerCtx {
            service,
            routes: RwLock::new(HashMap::new()),
            tenants: TenantRegistry::new(config.default_quota),
            sched: Scheduler::new(config.quantum, config.tenant_pending),
            recorder,
            stop: AtomicBool::new(false),
            conns: Mutex::new(ConnRegistry::default()),
            conn_seq: AtomicU32::new(0),
        });
        let accept_ctx = Arc::clone(&ctx);
        // Thread spawning can fail under resource exhaustion; bind
        // already returns io::Result, so surface it instead of panicking.
        let accept = std::thread::Builder::new()
            .name("ambipla-net-accept".into())
            .spawn(move || accept_loop(listener, accept_ctx))?;
        let mut server = NetServer {
            ctx,
            accept: Some(accept),
            dispatcher: None,
            addr,
        };
        let disp_ctx = Arc::clone(&server.ctx);
        // On failure `server` drops here, which stops and reaps the
        // accept thread before the error is reported.
        server.dispatcher = Some(
            std::thread::Builder::new()
                .name("ambipla-net-dispatch".into())
                .spawn(move || dispatch_loop(disp_ctx))?,
        );
        Ok(server)
    }

    /// The bound address (with the real port when bound to port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Expose an already-registered service id under `key` so network
    /// requests can reach it.
    pub fn expose(&self, key: SimKey, id: SimId) {
        let (n_inputs, _) = self.ctx.service.arity(id);
        let mask = if n_inputs >= 64 {
            !0
        } else {
            (1u64 << n_inputs) - 1
        };
        self.ctx
            .routes
            .write()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .insert(key.raw(), Route { id, mask });
    }

    /// Register `sim` on the service under `key` and expose it in one
    /// step.
    pub fn register_sim(&self, sim: SharedSim, key: SimKey) -> SimId {
        let id = self.ctx.service.register_sim(sim, key);
        self.expose(key, id);
        id
    }

    /// Set (or reset) `tenant`'s quota; the new token bucket starts
    /// full.
    pub fn set_quota(&self, tenant: TenantId, quota: QuotaConfig) {
        self.ctx.tenants.set_quota(tenant, quota, monotonic_ns());
    }

    /// Per-tenant counter snapshots, sorted by tenant id.
    pub fn tenant_stats(&self) -> Vec<TenantSnapshot> {
        self.ctx.tenants.snapshots()
    }

    /// Front-end metric families, every sample labeled by `tenant`.
    ///
    /// Seven families: requests, quota rejects, queue-full rejects, bad
    /// requests (labeled by `kind`), replies, live connections (gauge)
    /// and lifetime accepts. Service-side families come from
    /// `SimService::metric_families` — concatenate for a full scrape.
    pub fn metric_families(&self) -> Vec<MetricFamily> {
        let snaps = self.ctx.tenants.snapshots();
        let tl = |s: &TenantSnapshot| vec![("tenant".to_string(), s.id.raw().to_string())];
        let counter = |name: &'static str, help: &'static str, pick: fn(&TenantSnapshot) -> u64| {
            MetricFamily::new(
                name,
                help,
                MetricKind::Counter,
                snaps
                    .iter()
                    .map(|s| Sample::new(tl(s), pick(s) as f64))
                    .collect(),
            )
        };
        let mut bad = Vec::new();
        for s in &snaps {
            let mut labels = tl(s);
            labels.push(("kind".to_string(), "unknown_sim".to_string()));
            bad.push(Sample::new(labels, s.unknown_sim as f64));
            let mut labels = tl(s);
            labels.push(("kind".to_string(), "bad_arity".to_string()));
            bad.push(Sample::new(labels, s.bad_arity as f64));
        }
        vec![
            counter(
                "ambipla_net_requests_total",
                "Requests admitted past quota into the scheduler",
                |s| s.accepted,
            ),
            counter(
                "ambipla_net_quota_rejects_total",
                "Requests rejected by the tenant token bucket",
                |s| s.quota_rejected,
            ),
            counter(
                "ambipla_net_queue_full_total",
                "Requests rejected by scheduler or service backpressure",
                |s| s.queue_full,
            ),
            MetricFamily::new(
                "ambipla_net_bad_requests_total",
                "Malformed requests (unknown sim key or out-of-arity bits)",
                MetricKind::Counter,
                bad,
            ),
            counter(
                "ambipla_net_replies_total",
                "Replies streamed back to clients",
                |s| s.replies,
            ),
            MetricFamily::new(
                "ambipla_net_connections",
                "Currently open authenticated connections",
                MetricKind::Gauge,
                snaps
                    .iter()
                    .map(|s| Sample::new(tl(s), s.connections as f64))
                    .collect(),
            ),
            counter(
                "ambipla_net_accepts_total",
                "Lifetime authenticated connections",
                |s| s.accepts,
            ),
        ]
    }

    fn stop_threads(&mut self) {
        // Relaxed store/load on the stop flag: it is a standalone
        // shutdown bit guarding no other data, and the thread joins
        // below provide the synchronization for everything the loops
        // touched. SeqCst would buy nothing here.
        self.ctx.stop.store(true, Ordering::Relaxed);
        if let Some(h) = self.accept.take() {
            // If the listener cannot be reached the accept thread stays
            // blocked; leave it detached rather than hang shutdown.
            if wake_listener(self.addr) || h.is_finished() {
                let _ = h.join();
            }
        }
        // No connection registers after the accept thread is gone.
        let (live, finished) = {
            let mut conns = self
                .ctx
                .conns
                .lock()
                .unwrap_or_else(PoisonError::into_inner);
            (std::mem::take(&mut conns.live), conns.finished.take())
        };
        for entry in live.values() {
            let _ = entry.stream.shutdown(Shutdown::Both);
        }
        for (_, entry) in live {
            let _ = entry.handle.join();
        }
        if let Some(h) = finished {
            let _ = h.join();
        }
        // Connections are gone; drain whatever they admitted, then stop.
        self.ctx.sched.stop();
        if let Some(h) = self.dispatcher.take() {
            let _ = h.join();
        }
    }

    /// Stop accepting, close every connection, drain the scheduler and
    /// join all threads. The underlying service keeps running.
    pub fn shutdown(mut self) {
        self.stop_threads();
    }
}

impl Drop for NetServer {
    fn drop(&mut self) {
        self.stop_threads();
    }
}

/// Bound on the shutdown self-connect; a loopback connect to a live
/// listener completes at once.
const WAKE_TIMEOUT: Duration = Duration::from_secs(1);

/// Unblock the accept thread's `accept` with a throwaway connection to
/// the listener; the thread then sees the stop flag and exits.
fn wake_listener(addr: SocketAddr) -> bool {
    let mut to = addr;
    if to.ip().is_unspecified() {
        to.set_ip(if to.is_ipv4() {
            Ipv4Addr::LOCALHOST.into()
        } else {
            Ipv6Addr::LOCALHOST.into()
        });
    }
    TcpStream::connect_timeout(&to, WAKE_TIMEOUT).is_ok()
}

fn accept_loop(listener: TcpListener, ctx: Arc<ServerCtx>) {
    loop {
        let stream = match listener.accept() {
            Ok((stream, _)) => stream,
            Err(e)
                if matches!(
                    e.kind(),
                    ErrorKind::Interrupted | ErrorKind::ConnectionAborted
                ) =>
            {
                continue
            }
            Err(_) => break,
        };
        // Relaxed load: stop flag, synchronized by join (see
        // stop_threads).
        if ctx.stop.load(Ordering::Relaxed) {
            break;
        }
        // Relaxed: monotonic connection-id allocator; ids only need
        // uniqueness, not ordering against other data.
        let slot = ctx.conn_seq.fetch_add(1, Ordering::Relaxed);
        let stream = Arc::new(stream);
        let conn_stream = Arc::clone(&stream);
        let conn_ctx = Arc::clone(&ctx);
        let run = move || {
            serve_conn(&conn_stream, slot, &conn_ctx);
            conn_ctx.retire(slot);
        };
        let builder = std::thread::Builder::new().name(format!("ambipla-net-conn-{slot}"));
        // Spawn under the registry lock, so the connection cannot retire
        // before its entry exists.
        let mut conns = ctx.conns.lock().unwrap_or_else(PoisonError::into_inner);
        // Spawn failure (fd/thread exhaustion) drops the stream, refusing
        // this connection; the ones we have keep being served.
        if let Ok(handle) = builder.spawn(run) {
            conns.live.insert(slot, ConnEntry { stream, handle });
        }
    }
}

fn dispatch_loop(ctx: Arc<ServerCtx>) {
    while let Some(batch) = ctx.sched.next_batch() {
        for p in batch {
            if ctx
                .service
                .try_submit_tagged(p.route.id, p.bits, p.req_id, &p.sink)
                .is_err()
            {
                p.tenant.record_queue_full();
                p.conn.push(|frames| {
                    frames.push(Frame::Error {
                        req_id: p.req_id,
                        code: ErrorCode::QueueFull,
                    })
                });
            }
        }
    }
}

/// Block until more bytes arrive and append them to `frames`; `false`
/// on EOF (including a shutdown socket) or a hard error.
fn fill(stream: &TcpStream, frames: &mut FrameReader, rbuf: &mut [u8]) -> bool {
    loop {
        match (&*stream).read(rbuf) {
            Ok(0) => return false,
            Ok(n) => {
                frames.extend(&rbuf[..n]);
                return true;
            }
            Err(e) if e.kind() == ErrorKind::Interrupted => {}
            Err(_) => return false,
        }
    }
}

/// Wait for the client's `Hello`. Returns the tenant it names, or
/// `None` if the stream ended, sent garbage or opened with any other
/// frame.
fn hello_phase(stream: &TcpStream, frames: &mut FrameReader, rbuf: &mut [u8]) -> Option<TenantId> {
    loop {
        match frames.next_frame() {
            Ok(Some(Frame::Hello { tenant })) => return Some(tenant),
            Ok(Some(_)) | Err(_) => return None,
            Ok(None) => {}
        }
        if !fill(stream, frames, rbuf) {
            return None;
        }
    }
}

/// The writer: send whatever the outbox holds, then block until it
/// holds more. Exits when the outbox closes or a write fails.
fn write_loop(stream: &TcpStream, conn: &ConnShared, tenant: &TenantState) {
    let mut buf = Vec::new();
    loop {
        {
            let mut out = conn.out.lock().unwrap_or_else(PoisonError::into_inner);
            while out.frames.is_empty() && !out.closed {
                out.parked = true;
                out = conn.wake.wait(out).unwrap_or_else(PoisonError::into_inner);
            }
            out.parked = false;
            if out.closed {
                return;
            }
            for frame in out.frames.drain(..) {
                if matches!(frame, Frame::Reply { .. }) {
                    tenant.record_reply();
                }
                encode_frame(&frame, &mut buf);
            }
        }
        if (&*stream).write_all(&buf).is_err() {
            // The client is gone or stopped reading: end the connection,
            // which also ends the reader's blocked `read`.
            let _ = stream.shutdown(Shutdown::Both);
            conn.close();
            return;
        }
        buf.clear();
    }
}

/// One connection's reader: hello, then decode → route → arity → quota
/// → scheduler until the stream ends.
fn serve_conn(stream: &Arc<TcpStream>, conn_slot: u32, ctx: &ServerCtx) {
    if stream.set_nodelay(true).is_err() {
        return;
    }
    let mut frames = FrameReader::new();
    let mut rbuf = vec![0u8; 16 * 1024];
    let Some(tenant_id) = hello_phase(stream, &mut frames, &mut rbuf) else {
        return;
    };
    let tenant = ctx.tenants.get_or_create(tenant_id, monotonic_ns());
    let shared = Arc::new(ConnShared::default());
    shared.push(|out| out.push(Frame::HelloOk));
    let writer = {
        let stream = Arc::clone(stream);
        let shared = Arc::clone(&shared);
        let tenant = Arc::clone(&tenant);
        std::thread::Builder::new()
            .name(format!("ambipla-net-conn-{conn_slot}w"))
            .spawn(move || write_loop(&stream, &shared, &tenant))
    };
    let Ok(writer) = writer else {
        return;
    };
    tenant.record_connect();
    ctx.record(EventKind::Accept {
        tenant: tenant_id.raw(),
        slot: conn_slot,
    });
    let slot = ctx.sched.tenant_slot(tenant_id.raw());
    let sink = ReplySink::new(Arc::clone(&shared) as Arc<dyn ReplyTarget>);
    let mut admitted: Vec<Pending> = Vec::new();
    let mut rejects: Vec<Frame> = Vec::new();
    let mut alive = true;

    // Frames that arrived with the hello are decoded before the first
    // blocking read.
    loop {
        loop {
            match frames.next_frame() {
                Ok(Some(Frame::Request { req_id, sim, bits })) => {
                    let route = ctx
                        .routes
                        .read()
                        .unwrap_or_else(PoisonError::into_inner)
                        .get(&sim.raw())
                        .copied();
                    let code = match route {
                        None => {
                            tenant.record_unknown_sim();
                            ErrorCode::UnknownSim
                        }
                        Some(route) if bits & !route.mask != 0 => {
                            tenant.record_bad_arity();
                            ErrorCode::BadArity
                        }
                        Some(route) if tenant.try_take_token(monotonic_ns()) => {
                            tenant.record_accepted();
                            admitted.push(Pending {
                                route,
                                bits,
                                req_id,
                                sink: sink.clone(),
                                tenant: Arc::clone(&tenant),
                                conn: Arc::clone(&shared),
                            });
                            continue;
                        }
                        Some(route) => {
                            tenant.record_quota_reject();
                            ctx.record(EventKind::QuotaReject {
                                tenant: tenant_id.raw(),
                                slot: route.id.slot_index(),
                            });
                            ErrorCode::QuotaExceeded
                        }
                    };
                    rejects.push(Frame::Error { req_id, code });
                }
                // Anything else post-hello is a protocol violation.
                Ok(Some(_)) | Err(_) => {
                    alive = false;
                    break;
                }
                Ok(None) => break,
            }
        }

        // Hand admitted requests to the fair scheduler; over-cap
        // spill-back becomes QueueFull errors right here.
        if !admitted.is_empty() {
            for p in ctx.sched.enqueue(slot, std::mem::take(&mut admitted)) {
                p.tenant.record_queue_full();
                rejects.push(Frame::Error {
                    req_id: p.req_id,
                    code: ErrorCode::QueueFull,
                });
            }
        }
        if !rejects.is_empty() {
            shared.push(|out| out.append(&mut rejects));
            rejects.clear();
        }
        if !alive || !fill(stream, &mut frames, &mut rbuf) {
            break;
        }
    }

    shared.close();
    // Unblock a writer stuck in `write_all` to a client that stopped
    // reading.
    let _ = stream.shutdown(Shutdown::Both);
    let _ = writer.join();
    tenant.record_disconnect();
    ctx.record(EventKind::Disconnect {
        tenant: tenant_id.raw(),
        slot: conn_slot,
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use ambipla_serve::{reply_channel, ServeConfig};
    use logic::Cover;

    fn xor() -> Cover {
        Cover::parse("10 1\n01 1", 2, 1).expect("xor cover")
    }

    fn service(shards: usize) -> Arc<SimService> {
        Arc::new(
            SimService::start(ServeConfig {
                shards,
                max_wait: Duration::from_micros(100),
                ..ServeConfig::default()
            })
            .expect("valid config"),
        )
    }

    #[test]
    fn drr_scheduler_is_fair_across_tenants() {
        let sched = Scheduler::new(4, 1024);
        let (sink, _stream) = reply_channel();
        let service = service(1);
        let id = service.register_sim(Arc::new(xor()), SimKey::new(1));
        let route = Route { id, mask: 0b11 };
        let tenants = TenantRegistry::new(QuotaConfig::unlimited());
        let mk = |tenant: u64, n: usize| -> Vec<Pending> {
            let state = tenants.get_or_create(TenantId::new(tenant), 0);
            (0..n)
                .map(|i| Pending {
                    route,
                    bits: 0,
                    req_id: tenant * 1000 + i as u64,
                    sink: sink.clone(),
                    tenant: Arc::clone(&state),
                    conn: Arc::new(ConnShared::default()),
                })
                .collect()
        };
        // Tenant 1 floods 40 requests, tenant 2 queues 4.
        let s1 = sched.tenant_slot(1);
        let s2 = sched.tenant_slot(2);
        assert!(sched.enqueue(s1, mk(1, 40)).is_empty());
        assert!(sched.enqueue(s2, mk(2, 4)).is_empty());
        sched.stop();
        // With quantum 4, tenant 2's requests must all dispatch within
        // the first two turns — fairness despite tenant 1's backlog.
        let mut order = Vec::new();
        while let Some(batch) = sched.next_batch() {
            for p in batch {
                order.push(p.req_id);
            }
        }
        assert_eq!(order.len(), 44);
        let t2_last = order
            .iter()
            .rposition(|&id| id / 1000 == 2)
            .expect("tenant 2 dispatched");
        assert!(
            t2_last < 12,
            "tenant 2 finished at position {t2_last}, starved by tenant 1"
        );
    }

    #[test]
    fn scheduler_enforces_tenant_pending_cap() {
        let sched = Scheduler::new(4, 2);
        let (sink, _stream) = reply_channel();
        let service = service(1);
        let id = service.register_sim(Arc::new(xor()), SimKey::new(1));
        let route = Route { id, mask: 0b11 };
        let tenants = TenantRegistry::new(QuotaConfig::unlimited());
        let state = tenants.get_or_create(TenantId::new(1), 0);
        let slot = sched.tenant_slot(1);
        let batch: Vec<Pending> = (0..5)
            .map(|i| Pending {
                route,
                bits: 0,
                req_id: i,
                sink: sink.clone(),
                tenant: Arc::clone(&state),
                conn: Arc::new(ConnShared::default()),
            })
            .collect();
        let rejected = sched.enqueue(slot, batch);
        assert_eq!(
            rejected.iter().map(|p| p.req_id).collect::<Vec<_>>(),
            vec![2, 3, 4]
        );
    }

    #[test]
    fn loopback_round_trip_and_counters() {
        let service = service(2);
        let server = NetServer::bind("127.0.0.1:0", Arc::clone(&service), NetConfig::default())
            .expect("bind");
        let key = SimKey::new(77);
        server.register_sim(Arc::new(xor()), key);

        let mut client = crate::client::NetClient::connect(server.local_addr(), TenantId::new(5))
            .expect("connect");
        for (bits, want) in [(0b00u64, false), (0b01, true), (0b10, true), (0b11, false)] {
            let reply = client.call(key, bits, bits).expect("call");
            match reply {
                Frame::Reply {
                    req_id, outputs, ..
                } => {
                    assert_eq!(req_id, bits);
                    assert_eq!(outputs, vec![want]);
                }
                other => panic!("unexpected frame {other:?}"),
            }
        }

        // Unknown sim and out-of-arity bits come back as typed errors.
        let err = client.call(SimKey::new(999), 50, 0).expect("call");
        assert_eq!(
            err,
            Frame::Error {
                req_id: 50,
                code: ErrorCode::UnknownSim
            }
        );
        let err = client.call(key, 51, 0b100).expect("call");
        assert_eq!(
            err,
            Frame::Error {
                req_id: 51,
                code: ErrorCode::BadArity
            }
        );

        let stats = server.tenant_stats();
        assert_eq!(stats.len(), 1);
        assert_eq!(stats[0].id, TenantId::new(5));
        assert_eq!(stats[0].accepted, 4);
        assert_eq!(stats[0].replies, 4);
        assert_eq!(stats[0].unknown_sim, 1);
        assert_eq!(stats[0].bad_arity, 1);
        assert_eq!(stats[0].connections, 1);

        let families = server.metric_families();
        assert_eq!(families.len(), 7);
        server.shutdown();
    }

    #[test]
    fn quota_rejects_surface_as_typed_errors() {
        let service = service(1);
        let server = NetServer::bind("127.0.0.1:0", Arc::clone(&service), NetConfig::default())
            .expect("bind");
        let key = SimKey::new(8);
        server.register_sim(Arc::new(xor()), key);
        // Burst of 3, no refill: the 4th request must be rejected.
        server.set_quota(
            TenantId::new(2),
            QuotaConfig {
                rate_per_sec: 0,
                burst: 3,
            },
        );
        let mut client = crate::client::NetClient::connect(server.local_addr(), TenantId::new(2))
            .expect("connect");
        let mut ok = 0;
        let mut rejected = 0;
        for i in 0..5u64 {
            match client.call(key, i, 0b01).expect("call") {
                Frame::Reply { outputs, .. } => {
                    assert_eq!(outputs, vec![true]);
                    ok += 1;
                }
                Frame::Error { code, .. } => {
                    assert_eq!(code, ErrorCode::QuotaExceeded);
                    rejected += 1;
                }
                other => panic!("unexpected frame {other:?}"),
            }
        }
        assert_eq!((ok, rejected), (3, 2));
        let stats = server.tenant_stats();
        assert_eq!(stats[0].quota_rejected, 2);
        server.shutdown();
    }

    /// How long a wake-path test waits before declaring the server hung.
    const HANG: Duration = Duration::from_secs(5);

    /// Run `f` on its own thread and fail the test if it has not
    /// finished within [`HANG`].
    fn within_deadline<T: Send + 'static>(what: &str, f: impl FnOnce() -> T + Send + 'static) -> T {
        let (tx, rx) = std::sync::mpsc::channel();
        std::thread::spawn(move || {
            let _ = tx.send(f());
        });
        rx.recv_timeout(HANG)
            .unwrap_or_else(|_| panic!("{what} did not finish within {HANG:?}"))
    }

    fn xor_server(config: ServeConfig) -> (Arc<SimService>, NetServer, SimKey) {
        let service = Arc::new(SimService::start(config).expect("valid config"));
        let server = NetServer::bind("127.0.0.1:0", Arc::clone(&service), NetConfig::default())
            .expect("bind");
        let key = SimKey::new(3);
        server.register_sim(Arc::new(xor()), key);
        (service, server, key)
    }

    fn hello_bytes(tenant: u64) -> Vec<u8> {
        let mut buf = Vec::new();
        encode_frame(
            &Frame::Hello {
                tenant: TenantId::new(tenant),
            },
            &mut buf,
        );
        buf
    }

    #[test]
    fn dispatcher_queue_full_reaches_an_idle_connection() {
        // Depth 1 and a deadline far beyond the test: the first request
        // parks in the batcher, the second is refused by the service
        // after the scheduler accepted it.
        let (_service, server, key) = xor_server(ServeConfig {
            queue_depth: 1,
            max_wait: Duration::from_secs(60),
            ..ServeConfig::default()
        });
        let mut client = crate::client::NetClient::connect(server.local_addr(), TenantId::new(1))
            .expect("connect");
        client.queue_request(key, 1, 0b01);
        client.queue_request(key, 2, 0b10);
        client.flush().expect("flush");
        // The client writes nothing more; only the dispatcher's push can
        // wake the writer.
        let frame = within_deadline("QueueFull delivery", move || client.recv().expect("recv"));
        assert_eq!(
            frame,
            Frame::Error {
                req_id: 2,
                code: ErrorCode::QueueFull
            }
        );
        assert_eq!(server.tenant_stats()[0].queue_full, 1);
        server.shutdown();
    }

    #[test]
    fn pipelined_burst_gets_every_reply_without_further_writes() {
        const BURST: u64 = 1000;
        let (_service, server, key) = xor_server(ServeConfig {
            max_wait: Duration::from_micros(100),
            queue_depth: BURST as usize,
            ..ServeConfig::default()
        });
        let mut client = crate::client::NetClient::connect(server.local_addr(), TenantId::new(1))
            .expect("connect");
        for req_id in 0..BURST {
            client.queue_request(key, req_id, req_id % 4);
        }
        client.flush().expect("flush");
        let frames = within_deadline("pipelined burst", move || {
            (0..BURST)
                .map(|_| client.recv().expect("recv"))
                .collect::<Vec<_>>()
        });
        let mut seen = vec![false; BURST as usize];
        for frame in frames {
            match frame {
                Frame::Reply {
                    req_id, outputs, ..
                } => {
                    let bits = req_id % 4;
                    assert_eq!(outputs, vec![bits == 0b01 || bits == 0b10]);
                    assert!(!std::mem::replace(&mut seen[req_id as usize], true));
                }
                other => panic!("unexpected frame {other:?}"),
            }
        }
        assert_eq!(server.tenant_stats()[0].replies, BURST);
        server.shutdown();
    }

    #[test]
    fn shutdown_unblocks_silent_idle_and_mid_frame_connections() {
        let (_service, server, _key) = xor_server(ServeConfig::default());
        let addr = server.local_addr();
        // A socket that never says hello.
        let silent = TcpStream::connect(addr).expect("connect silent");
        // An authenticated connection with nothing in flight.
        let idle = crate::client::NetClient::connect(addr, TenantId::new(1)).expect("connect");
        // A client that stops halfway through its first request.
        let mut partial = TcpStream::connect(addr).expect("connect partial");
        let mut bytes = hello_bytes(2);
        let hello_len = bytes.len();
        encode_frame(
            &Frame::Request {
                req_id: 1,
                sim: SimKey::new(3),
                bits: 0,
            },
            &mut bytes,
        );
        partial
            .write_all(&bytes[..hello_len + 5])
            .expect("write partial");
        // Wait until both hellos were served, so the three connections
        // are in their three states when shutdown begins.
        let mut ok = [0u8; 64];
        let mut got = 0;
        while got == 0 {
            got = partial.read(&mut ok).expect("read HelloOk");
        }
        let ctx = Arc::clone(&server.ctx);
        assert_eq!(
            ctx.conns
                .lock()
                .unwrap_or_else(PoisonError::into_inner)
                .live
                .len(),
            3
        );
        within_deadline("shutdown", move || server.shutdown());
        // Every server thread has exited and dropped its context handle.
        assert_eq!(Arc::strong_count(&ctx), 1);
        let conns = ctx.conns.lock().unwrap_or_else(PoisonError::into_inner);
        assert!(conns.live.is_empty() && conns.finished.is_none());
        drop((silent, idle, partial));
    }

    #[test]
    fn closed_connections_leave_the_registry() {
        let (_service, server, key) = xor_server(ServeConfig {
            max_wait: Duration::from_micros(100),
            ..ServeConfig::default()
        });
        let ctx = Arc::clone(&server.ctx);
        let registry = || {
            let conns = ctx.conns.lock().unwrap_or_else(PoisonError::into_inner);
            (conns.live.len(), usize::from(conns.finished.is_some()))
        };
        for cycle in 0..300u64 {
            let mut client =
                crate::client::NetClient::connect(server.local_addr(), TenantId::new(1))
                    .expect("connect");
            let reply = client.call(key, cycle, 0b01).expect("call");
            assert!(matches!(reply, Frame::Reply { .. }), "{reply:?}");
            drop(client);
        }
        // Closing is seen asynchronously: spin until the last readers
        // have noticed their EOF (microseconds on loopback).
        let deadline = std::time::Instant::now() + HANG;
        while registry().0 > 0 {
            assert!(std::time::Instant::now() < deadline, "{:?}", registry());
            std::hint::spin_loop();
        }
        // Nothing is open: no live entry, and of the 300 ended reader
        // threads only the very last is still unjoined.
        assert!(registry().1 <= 1);
        assert_eq!(server.tenant_stats()[0].connections, 0);
        // One open connection is one live entry.
        let _open = crate::client::NetClient::connect(server.local_addr(), TenantId::new(1))
            .expect("connect");
        assert_eq!(registry().0, 1);
        server.shutdown();
    }
}
