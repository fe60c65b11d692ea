//! `wire_lockstep`: a loopback `NetServer` over a one-shard
//! `SimService`. One client thread drives two connections, one per
//! tenant, in lockstep windows: queue [`PER_CONN`] requests on each,
//! flush both, read every reply. One op is one request.
//!
//! The functions are tiny — the 3-input full adder and a seeded 8-input
//! function, both materialized during set-up — and a window puts fewer
//! requests on each registration than one 64-lane block holds, so every
//! batch flushes on the `max_wait` deadline. Time goes to the codec,
//! the connection poll loops, the DRR scheduler, the dispatcher and the
//! reply path; `logic` is bypassed in the timed phase.

use crate::stats::{median, mix, SplitMix64};
use crate::synth::{flow, Circuit, FlowTrace};
use crate::{
    cycled_run, pack_outputs, timed_phase, truth_vector, Args, EventLog, LatencySamples, Outcome,
    Slices, Tally, Timed, WallTime, TRACE_BASELINE_SHARE,
};
use ambipla_net::{Frame, NetClient, NetConfig, NetServer, TenantId};
use ambipla_serve::{ServeConfig, SharedSim, SimKey, SimService, Tier};
use logic::Cover;
use mcnc::RandomPla;
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Requests per connection per window, alternating the two functions:
/// 2 × 24 = 48 lanes per registration per window, below one 64-lane
/// block.
pub const PER_CONN: usize = 48;
/// The two tenants, one connection each.
pub const TENANTS: [u64; 2] = [1, 2];
/// Requests per lockstep window over both connections.
const WINDOW_OPS: usize = PER_CONN * TENANTS.len();
/// Set-up windows: 256 × 48 lanes per registration, well past the
/// default 4096-lane promotion floor.
const WARM_WINDOWS: u64 = 256;
const SLICE_WINDOWS: u64 = 96;
const LATENCY_EVERY: u64 = 4;
const F8: (usize, usize, usize) = (8, 3, 24);
const PROMOTE_TIMEOUT: Duration = Duration::from_secs(10);

fn adder() -> Cover {
    Cover::parse(
        "110 01\n101 01\n011 01\n111 01\n100 10\n010 10\n001 10\n111 10",
        3,
        2,
    )
    .expect("valid full-adder cover")
}

/// Request `j` of a connection targets function `j % 2`.
const INPUTS: [usize; 2] = [3, F8.0];

/// The seeded request stream: per window, the input bits of every
/// request on each connection.
#[derive(Debug, Clone)]
pub struct WireStream {
    rng: SplitMix64,
}

pub type WireWindow = [[u64; PER_CONN]; 2];

impl WireStream {
    pub fn new(seed: u64) -> WireStream {
        WireStream {
            rng: SplitMix64::new(mix(seed, 300)),
        }
    }

    pub fn next_window(&mut self, w: &mut WireWindow) {
        for conn in w.iter_mut() {
            for (j, bits) in conn.iter_mut().enumerate() {
                *bits = self.rng.next_u64() & ((1 << INPUTS[j % 2]) - 1);
            }
        }
    }
}

#[derive(Default)]
struct WireTrace {
    flow: FlowTrace,
    events: EventLog,
    rtt_us: Vec<f64>,
}

// Field order is drop order: connections close before the server
// stops, and the server stops before the service.
struct WireRun {
    clients: Vec<NetClient>,
    server: NetServer,
    service: Arc<SimService>,
    keys: [SimKey; 2],
    expect: [Vec<u64>; 2],
    stream: WireStream,
    win: WireWindow,
    window_no: u64,
    sent: u64,
    broken: bool,
    trace: Option<WireTrace>,
    problems: Vec<String>,
}

/// Set-up: minimize, map and verify both functions, start the service
/// and the server, connect both tenants, and warm until both
/// registrations are materialized.
fn start(seed: u64, traced: bool, tally: &mut Tally) -> WireRun {
    let mut trace = traced.then(WireTrace::default);
    let covers = [
        adder(),
        RandomPla::new(F8.0, F8.1, F8.2)
            .seed(mix(seed, 301))
            .build(),
    ];
    let mut sims: Vec<SharedSim> = Vec::new();
    let mut expect = Vec::new();
    for (i, on) in covers.into_iter().enumerate() {
        let c = Circuit {
            name: format!("wire{i}"),
            dc: Cover::new(on.n_inputs(), on.n_outputs()),
            on,
        };
        let out = flow(&c, trace.as_mut().map(|t| &mut t.flow));
        tally.record(out.equivalent);
        expect.push(truth_vector(&c.on));
        sims.push(match &trace {
            Some(t) => Arc::new(Timed::new(out.pla, Arc::clone(&t.flow.eval))),
            None => Arc::new(out.pla),
        });
    }
    let config = ServeConfig {
        shards: 1,
        ..ServeConfig::default()
    };
    let service = Arc::new(
        match &trace {
            Some(t) => SimService::start_with_recorder(config, t.events.ring.clone()),
            None => SimService::start(config),
        }
        .expect("valid serve config"),
    );
    let addr = "127.0.0.1:0";
    let server = match &trace {
        Some(t) => NetServer::bind_with_recorder(
            addr,
            Arc::clone(&service),
            NetConfig::default(),
            t.events.ring.clone(),
        ),
        None => NetServer::bind(addr, Arc::clone(&service), NetConfig::default()),
    }
    .expect("bind loopback server");
    let keys = [SimKey::new(10), SimKey::new(11)];
    for (sim, key) in sims.into_iter().zip(keys) {
        server.register_sim(sim, key);
    }
    let clients = TENANTS
        .iter()
        .map(|&t| {
            NetClient::connect(server.local_addr(), TenantId::new(t)).expect("connect tenant")
        })
        .collect();
    let [e0, e1]: [Vec<u64>; 2] = expect.try_into().expect("two functions");
    let mut run = WireRun {
        clients,
        server,
        service,
        keys,
        expect: [e0, e1],
        stream: WireStream::new(seed),
        win: [[0; PER_CONN]; 2],
        window_no: 0,
        sent: 0,
        broken: false,
        trace,
        problems: Vec::new(),
    };
    for _ in 0..WARM_WINDOWS {
        run.window(tally, None);
    }
    let t0 = Instant::now();
    while run
        .service
        .stats_per_registration()
        .iter()
        .any(|r| r.tier != Tier::Materialized)
    {
        if t0.elapsed() > PROMOTE_TIMEOUT {
            run.problems
                .push("wire registrations did not promote during set-up".into());
            break;
        }
        std::thread::yield_now();
    }
    run
}

impl WireRun {
    /// One lockstep window: queue on both connections, flush both, then
    /// read and verify every reply.
    fn window(&mut self, tally: &mut Tally, mut latency: Option<&mut LatencySamples>) {
        if self.broken {
            return;
        }
        self.stream.next_window(&mut self.win);
        let base = self.window_no << 8;
        for (c, client) in self.clients.iter_mut().enumerate() {
            for (j, &bits) in self.win[c].iter().enumerate() {
                client.queue_request(self.keys[j % 2], base | (c as u64) << 6 | j as u64, bits);
            }
        }
        let t0 = Instant::now();
        for client in &mut self.clients {
            if let Err(e) = client.flush() {
                self.problems.push(format!("flush failed: {e}"));
                self.broken = true;
                return;
            }
        }
        self.sent += WINDOW_OPS as u64;
        for c in 0..self.clients.len() {
            for _ in 0..PER_CONN {
                let ok = match self.clients[c].recv() {
                    Ok(Frame::Reply {
                        req_id, outputs, ..
                    }) => {
                        let j = (req_id & 63) as usize;
                        if let Some(l) = latency.as_deref_mut() {
                            l.record_ns(t0.elapsed().as_nanos() as u64);
                        }
                        req_id >> 8 == self.window_no
                            && (req_id >> 6 & 1) as usize == c
                            && j < PER_CONN
                            && pack_outputs(&outputs) == self.expect[j % 2][self.win[c][j] as usize]
                    }
                    // An Error frame (QueueFull, quota, ...) is a failed op.
                    Ok(_) => false,
                    Err(e) => {
                        self.problems.push(format!("recv failed: {e}"));
                        self.broken = true;
                        tally.record(false);
                        return;
                    }
                };
                tally.record(ok);
            }
        }
        if let Some(t) = &mut self.trace {
            t.rtt_us.push(t0.elapsed().as_nanos() as f64 / 1e3);
            if self.window_no.is_multiple_of(SLICE_WINDOWS) {
                t.events.drain();
            }
        }
        self.window_no += 1;
    }

    /// Tenant accounting must balance: every request accepted and
    /// answered, nothing rejected. Returns min/max replies per tenant.
    fn check(&mut self) -> f64 {
        let stats = self.server.tenant_stats();
        let replies: Vec<u64> = stats.iter().map(|s| s.replies).collect();
        for s in &stats {
            let rejected = s.quota_rejected + s.queue_full + s.unknown_sim + s.bad_arity;
            if s.accepted != s.replies || rejected != 0 {
                self.problems.push(format!(
                    "tenant {}: accepted {} replies {} rejected {rejected}",
                    s.id.raw(),
                    s.accepted,
                    s.replies
                ));
            }
        }
        if stats.len() != TENANTS.len() || replies.iter().sum::<u64>() != self.sent {
            self.problems.push(format!(
                "{} replies accounted over {} tenants, {} requests sent",
                replies.iter().sum::<u64>(),
                stats.len(),
                self.sent
            ));
        }
        let max = replies.iter().copied().max().unwrap_or(0);
        let min = replies.iter().copied().min().unwrap_or(0);
        min as f64 / max.max(1) as f64
    }
}

/// Lockstep windows until `seconds` pass; returns the ops completed.
fn load(
    run: &mut WireRun,
    seconds: f64,
    slices: &mut Slices,
    latency: &mut LatencySamples,
    tally: &mut Tally,
) -> u64 {
    let start = Instant::now();
    let sent0 = run.sent;
    while start.elapsed().as_secs_f64() < seconds && !run.broken {
        run.window(tally, Some(&mut *latency));
        slices.tick(WINDOW_OPS as u64, latency);
    }
    run.sent - sent0
}

pub fn run(args: &Args) -> Outcome {
    let mut tally = Tally::default();
    let mut problems = Vec::new();
    let slice = SLICE_WINDOWS * WINDOW_OPS as u64;
    if !args.trace {
        let (setups, phase) = cycled_run(
            slice,
            LATENCY_EVERY,
            args.seconds,
            &mut tally,
            |t| start(args.seed, false, t),
            load,
            |mut run| {
                run.check();
                problems.append(&mut run.problems);
            },
        );
        // Every batch waits out the `max_wait` deadline, so wall times
        // follow that timer more than the host's speed.
        return Outcome::untraced(tally, problems, &setups, &phase, WallTime::TimerBound);
    }
    let mut base_run = start(args.seed, false, &mut tally);
    let baseline = timed_phase(
        slice,
        LATENCY_EVERY,
        args.seconds * TRACE_BASELINE_SHARE,
        |secs, sl, la| load(&mut base_run, secs, sl, la, &mut tally),
    );
    base_run.check();
    problems.append(&mut base_run.problems);
    drop(base_run);

    let mut run = start(args.seed, true, &mut tally);
    if let Some(t) = &mut run.trace {
        t.events.start_phase();
    }
    let before = run.service.stats();
    let traced = timed_phase(
        slice,
        LATENCY_EVERY,
        args.seconds * (1.0 - TRACE_BASELINE_SHARE),
        |secs, sl, la| load(&mut run, secs, sl, la, &mut tally),
    );
    if let Some(t) = &mut run.trace {
        t.events.drain();
    }
    let fairness = run.check();
    problems.append(&mut run.problems);
    let after = run.service.stats();
    let t = run.trace.as_ref().expect("traced run");
    let mut layer = BTreeMap::new();
    t.flow.report(&mut layer);
    layer.insert("net.rtt_us", median(&t.rtt_us));
    layer.insert("net.fairness_ratio", fairness);
    layer.insert(
        "serve.lane_occupancy",
        (after.lanes_filled - before.lanes_filled) as f64
            / (after.lane_capacity - before.lane_capacity).max(1) as f64,
    );
    layer.insert(
        "serve.full_flushes",
        (after.full_flushes - before.full_flushes) as f64,
    );
    layer.insert(
        "serve.deadline_flushes",
        (after.deadline_flushes - before.deadline_flushes) as f64,
    );
    t.events.report(&mut layer);
    Outcome::traced(tally, problems, &baseline, &traced, layer)
}
