//! `serve_mix`: an in-process `SimService` (one shard, four-word blocks,
//! cache on, automatic tiering) fed by one client thread in windows of
//! whole lane blocks through `submit_tagged`. One op is one request.
//!
//! Each window holds [`WIDE_BLOCKS`] 64-lane blocks for a 32-input,
//! 256-product, 16-output `GnorPla` (too wide to materialize, so always
//! batched) and [`NARROW_LANES`] requests for a 12-input `GnorPla` that
//! auto-promotes to a truth table during set-up. Wide blocks are drawn
//! Zipf-style from [`ZIPF_RANKS`] ranks: the first [`HOT_BLOCKS`] are
//! fixed blocks replayed verbatim, so the sub-block cache can hit them;
//! the rest are fresh unique blocks. Every [`SWAP_EVERY`] windows,
//! `swap_sim` alternates the 12-input registration between two
//! functions, and the new epoch re-materializes. `logic` and net are
//! bypassed in the timed phase.

use crate::stats::{median, mix, SplitMix64, Zipf};
use crate::synth::{flow, Circuit, FlowTrace};
use crate::{
    cycled_run, pack_outputs, timed_phase, truth_vector, Args, EventLog, LatencySamples, Outcome,
    Slices, Tally, Timed, WallTime, TRACE_BASELINE_SHARE,
};
use ambipla_core::{pack_vectors, unpack_lane, GnorPla, LANES};
use ambipla_serve::{
    reply_channel, ReplySink, ReplyStream, ServeConfig, SharedSim, SimId, SimKey, SimService, Tier,
    TierPolicy,
};
use logic::Cover;
use mcnc::RandomPla;
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

pub const BLOCK_WORDS: usize = 4;
/// Wide blocks per window: one full flush of `BLOCK_WORDS × 64` lanes.
pub const WIDE_BLOCKS: usize = BLOCK_WORDS;
/// Narrow requests per window: one full flush.
pub const NARROW_LANES: usize = BLOCK_WORDS * LANES;
pub const WINDOW_OPS: usize = WIDE_BLOCKS * LANES + NARROW_LANES;
pub const HOT_BLOCKS: usize = 16;
pub const ZIPF_RANKS: usize = 128;
pub const SWAP_EVERY: u64 = 64;
/// Set-up windows: they warm the cache's hot blocks and carry the narrow
/// registration past the default 4096-lane promotion floor (after 16).
const WARM_WINDOWS: u64 = 128;
/// Two swap cycles per slice, so every slice holds the same mix.
const SLICE_WINDOWS: u64 = 2 * SWAP_EVERY;
/// Every `LATENCY_EVERY`-th request of a window is timed.
const LATENCY_EVERY: usize = 16;
/// Unique wide blocks are checked on every `WIDE_SAMPLE`-th lane.
const WIDE_SAMPLE: usize = 8;
const WIDE: (usize, usize, usize) = (32, 16, 256);
const NARROW: (usize, usize, usize) = (12, 4, 40);
const PROMOTE_TIMEOUT: Duration = Duration::from_secs(10);

/// One window of requests.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Window {
    /// Per wide block: the hot block it replays, or `None` if unique.
    pub hot: [Option<usize>; WIDE_BLOCKS],
    /// Wide request inputs, block after block.
    pub wide: Vec<u64>,
    /// Narrow request inputs.
    pub narrow: Vec<u64>,
}

impl Default for Window {
    fn default() -> Window {
        Window {
            hot: [None; WIDE_BLOCKS],
            wide: vec![0; WIDE_BLOCKS * LANES],
            narrow: vec![0; NARROW_LANES],
        }
    }
}

/// The seeded request stream.
#[derive(Debug, Clone)]
pub struct ServeStream {
    rng: SplitMix64,
    zipf: Zipf,
    hot: Vec<Vec<u64>>,
}

fn wide_mask() -> u64 {
    (1u64 << WIDE.0) - 1
}

impl ServeStream {
    pub fn new(seed: u64) -> ServeStream {
        let mut hot_rng = SplitMix64::new(mix(seed, 101));
        let hot = (0..HOT_BLOCKS)
            .map(|_| {
                (0..LANES)
                    .map(|_| hot_rng.next_u64() & wide_mask())
                    .collect()
            })
            .collect();
        ServeStream {
            rng: SplitMix64::new(mix(seed, 100)),
            zipf: Zipf::new(ZIPF_RANKS, 1.0),
            hot,
        }
    }

    pub fn hot_blocks(&self) -> &[Vec<u64>] {
        &self.hot
    }

    /// Share of wide blocks that replay a hot block.
    pub fn hot_share(&self) -> f64 {
        self.zipf.mass_below(HOT_BLOCKS)
    }

    pub fn next_window(&mut self, w: &mut Window) {
        for (b, block) in w.wide.chunks_mut(LANES).enumerate() {
            let rank = self.zipf.sample(&mut self.rng);
            if rank < HOT_BLOCKS {
                w.hot[b] = Some(rank);
                block.copy_from_slice(&self.hot[rank]);
            } else {
                w.hot[b] = None;
                for v in block {
                    *v = self.rng.next_u64() & wide_mask();
                }
            }
        }
        for v in &mut w.narrow {
            *v = self.rng.next_u64() & ((1 << NARROW.0) - 1);
        }
    }
}

/// The served functions and their reference answers.
struct Functions {
    wide_cover: Cover,
    /// Packed expected outputs of every hot block lane.
    hot_expect: Vec<Vec<u64>>,
    /// Packed expected outputs of both narrow functions, by assignment.
    narrow_expect: [Vec<u64>; 2],
}

/// Per-layer accumulators of a traced run.
#[derive(Default)]
struct ServeTrace {
    flow: FlowTrace,
    events: EventLog,
    submit_ns: Vec<f64>,
    wait_us: Vec<f64>,
    swap_ms: Vec<f64>,
}

struct ServeRun {
    f: Functions,
    stream: ServeStream,
    win: Window,
    service: SimService,
    wide_id: SimId,
    narrow_id: SimId,
    narrow_sims: [SharedSim; 2],
    narrow_epoch: u64,
    sink: ReplySink,
    replies: ReplyStream,
    window_no: u64,
    stamps: Vec<Instant>,
    trace: Option<ServeTrace>,
    problems: Vec<String>,
}

/// Set-up: build, minimize, map and verify the functions, start the
/// service, register, and warm it until the narrow registration has
/// promoted to the truth-table tier.
fn start(seed: u64, traced: bool, tally: &mut Tally) -> ServeRun {
    let stream = ServeStream::new(seed);
    let mut trace = traced.then(ServeTrace::default);
    let wide_cover = RandomPla::new(WIDE.0, WIDE.1, WIDE.2)
        .seed(mix(seed, 200))
        .build();
    let hot_expect = stream
        .hot_blocks()
        .iter()
        .map(|block| {
            let mut out = vec![0u64; WIDE.1];
            wide_cover.eval_words(&pack_vectors(block, WIDE.0), &mut out, 1);
            (0..LANES)
                .map(|l| pack_outputs(&unpack_lane(&out, l)))
                .collect()
        })
        .collect();
    let mut narrow_plas = Vec::new();
    let mut narrow_expect = Vec::new();
    for i in 0..2 {
        let on = RandomPla::new(NARROW.0, NARROW.1, NARROW.2)
            .seed(mix(seed, 201 + i))
            .build();
        let c = Circuit {
            name: format!("narrow{i}"),
            dc: Cover::new(NARROW.0, NARROW.1),
            on,
        };
        let out = flow(&c, trace.as_mut().map(|t| &mut t.flow));
        tally.record(out.equivalent);
        narrow_expect.push(truth_vector(&c.on));
        narrow_plas.push(out.pla);
    }
    let wrap = |pla: GnorPla| -> SharedSim {
        match &trace {
            Some(t) => Arc::new(Timed::new(pla, Arc::clone(&t.flow.eval))),
            None => Arc::new(pla),
        }
    };
    let wide = wrap(GnorPla::from_cover(&wide_cover));
    let narrow_sims: [SharedSim; 2] = [wrap(narrow_plas.remove(0)), wrap(narrow_plas.remove(0))];
    let config = ServeConfig {
        shards: 1,
        block_words: BLOCK_WORDS,
        tier_policy: TierPolicy::Auto,
        ..ServeConfig::default()
    };
    let service = match &trace {
        Some(t) => SimService::start_with_recorder(config, t.events.ring.clone()),
        None => SimService::start(config),
    }
    .expect("valid serve config");
    let wide_id = service.register_sim(wide, SimKey::new(1));
    let narrow_id = service.register_sim(Arc::clone(&narrow_sims[0]), SimKey::new(2));
    let (sink, replies) = reply_channel();
    let [e0, e1]: [Vec<u64>; 2] = narrow_expect.try_into().expect("two narrow functions");
    let mut run = ServeRun {
        f: Functions {
            wide_cover,
            hot_expect,
            narrow_expect: [e0, e1],
        },
        stream,
        win: Window::default(),
        service,
        wide_id,
        narrow_id,
        narrow_sims,
        narrow_epoch: 0,
        sink,
        replies,
        window_no: 0,
        stamps: vec![Instant::now(); WINDOW_OPS / LATENCY_EVERY],
        trace,
        problems: Vec::new(),
    };
    for _ in 0..WARM_WINDOWS {
        run.window(tally, None);
    }
    let t0 = Instant::now();
    while run.service.stats_for(run.narrow_id).tier != Tier::Materialized {
        if t0.elapsed() > PROMOTE_TIMEOUT {
            run.problems
                .push("12-input registration did not promote during set-up".into());
            break;
        }
        std::thread::yield_now();
    }
    run
}

impl ServeRun {
    /// Submit one window, collect and verify all of its replies, and
    /// swap the narrow function when the window count calls for it.
    fn window(&mut self, tally: &mut Tally, mut latency: Option<&mut LatencySamples>) {
        self.stream.next_window(&mut self.win);
        let base = self.window_no << 10;
        let wide_ops = WIDE_BLOCKS * LANES;
        let t0 = Instant::now();
        for i in 0..WINDOW_OPS {
            let (id, bits) = if i < wide_ops {
                (self.wide_id, self.win.wide[i])
            } else {
                (self.narrow_id, self.win.narrow[i - wide_ops])
            };
            if i.is_multiple_of(LATENCY_EVERY) {
                self.stamps[i / LATENCY_EVERY] = Instant::now();
            }
            self.service
                .submit_tagged(id, bits, base | i as u64, &self.sink);
        }
        let t1 = Instant::now();
        for _ in 0..WINDOW_OPS {
            let r = self.replies.recv();
            let i = (r.tag & 1023) as usize;
            let mine = r.tag >> 10 == self.window_no && i < WINDOW_OPS;
            if mine && i.is_multiple_of(LATENCY_EVERY) {
                if let Some(l) = latency.as_deref_mut() {
                    l.record_ns(self.stamps[i / LATENCY_EVERY].elapsed().as_nanos() as u64);
                }
            }
            let got = pack_outputs(&r.outputs);
            let ok = mine
                && if i < wide_ops {
                    let (b, lane) = (i / LANES, i % LANES);
                    r.epoch == 0
                        && match self.win.hot[b] {
                            Some(h) => got == self.f.hot_expect[h][lane],
                            None => {
                                lane % WIDE_SAMPLE != 0
                                    || got
                                        == pack_outputs(
                                            &self.f.wide_cover.eval_bits(self.win.wide[i]),
                                        )
                            }
                        }
                } else {
                    let bits = self.win.narrow[i - wide_ops] as usize;
                    r.epoch == self.narrow_epoch
                        && got == self.f.narrow_expect[(r.epoch % 2) as usize][bits]
                };
            tally.record(ok);
        }
        let t2 = Instant::now();
        self.window_no += 1;
        let swap = self.window_no.is_multiple_of(SWAP_EVERY);
        if swap {
            let next = Arc::clone(&self.narrow_sims[((self.narrow_epoch + 1) % 2) as usize]);
            self.narrow_epoch = self.service.swap_sim(self.narrow_id, next);
        }
        if let Some(t) = &mut self.trace {
            t.submit_ns
                .push((t1 - t0).as_nanos() as f64 / WINDOW_OPS as f64);
            t.wait_us.push((t2 - t1).as_nanos() as f64 / 1e3);
            if swap {
                t.swap_ms.push(t2.elapsed().as_nanos() as f64 / 1e6);
            }
            if self.window_no.is_multiple_of(SLICE_WINDOWS) {
                t.events.drain();
            }
        }
    }

    /// Gates that are not single replies: every swap landed, and the
    /// unbounded submit path never reported backpressure.
    fn check(&mut self) {
        let stats = self.service.stats();
        if stats.swaps != self.window_no / SWAP_EVERY {
            self.problems.push(format!(
                "{} swaps recorded, {} issued",
                stats.swaps,
                self.window_no / SWAP_EVERY
            ));
        }
        if stats.queue_full != 0 {
            self.problems
                .push(format!("{} queue-full rejections", stats.queue_full));
        }
    }
}

/// Windows until `seconds` pass; returns the ops completed.
fn load(
    run: &mut ServeRun,
    seconds: f64,
    slices: &mut Slices,
    latency: &mut LatencySamples,
    tally: &mut Tally,
) -> u64 {
    let start = Instant::now();
    let mut ops = 0u64;
    while start.elapsed().as_secs_f64() < seconds {
        run.window(tally, Some(&mut *latency));
        ops += WINDOW_OPS as u64;
        slices.tick(WINDOW_OPS as u64, latency);
    }
    ops
}

pub fn run(args: &Args) -> Outcome {
    let mut tally = Tally::default();
    let mut problems = Vec::new();
    let slice = SLICE_WINDOWS * WINDOW_OPS as u64;
    if !args.trace {
        let (setups, phase) = cycled_run(
            slice,
            1,
            args.seconds,
            &mut tally,
            |t| start(args.seed, false, t),
            load,
            |mut run| {
                run.check();
                problems.append(&mut run.problems);
            },
        );
        let mut out = Outcome::untraced(tally, problems, &setups, &phase, WallTime::CpuBound);
        out.diag("serve.hot_share", ServeStream::new(args.seed).hot_share());
        return out;
    }
    let mut base_run = start(args.seed, false, &mut tally);
    let baseline = timed_phase(
        slice,
        1,
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
        1,
        args.seconds * (1.0 - TRACE_BASELINE_SHARE),
        |secs, sl, la| load(&mut run, secs, sl, la, &mut tally),
    );
    if let Some(t) = &mut run.trace {
        t.events.drain();
    }
    run.check();
    problems.append(&mut run.problems);
    let after = run.service.stats();
    let t = run.trace.as_ref().expect("traced run");
    let mut layer = BTreeMap::new();
    t.flow.report(&mut layer);
    let hits = after.cache_hits - before.cache_hits;
    let lookups = hits + after.cache_misses - before.cache_misses;
    layer.insert("serve.cache_hit_rate", hits as f64 / lookups.max(1) as f64);
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
    layer.insert("serve.submit_ns", median(&t.submit_ns));
    layer.insert("serve.window_wait_us", median(&t.wait_us));
    layer.insert("serve.swap_ms", median(&t.swap_ms));
    Outcome::traced(tally, problems, &baseline, &traced, layer)
}
