//! End-to-end benchmark of the ambipla flow.
//!
//! Three workloads, each run as its own process from one `--seed`:
//!
//! * [`synth`] (`synth_flow`): ESPRESSO → `GnorPla` mapping → exhaustive
//!   equivalence check → area, in a closed loop over a seeded circuit set;
//! * [`serve`] (`serve_mix`): an in-process `SimService` fed windows of
//!   Zipf-replayed and unique lane blocks, with periodic hot swaps;
//! * [`wire`] (`wire_lockstep`): a loopback `NetServer` driven by two
//!   tenants in lockstep windows smaller than one block.
//!
//! Every wall-clock metric has a CPU-time counterpart from per-thread
//! `schedstat` accounting ([`procfs`]), which leaves out hypervisor
//! steal, and every run records the steal it suffered. Contention that
//! steal does not show is measured with a reference loop, and the
//! end-to-end times are reported at a nominal host speed ([`host_speed`]).
//! See `perfbench/README.md` for the metric catalogue and the layer →
//! end-to-end mapping.

pub mod procfs;
pub mod serve;
pub mod stats;
pub mod synth;
pub mod wire;

use ambipla_core::Simulator;
use ambipla_obs::{EventKind, EventRing};
use logic::Cover;
use procfs::{attribute, cpu_delta, CpuByRole, CpuSnapshot, StealClock};
use stats::{median, percentile};
use std::collections::BTreeMap;
use std::sync::{Arc, Mutex, PoisonError};
use std::time::Instant;

/// The end-to-end metrics every untraced run prints, `(name, unit)`,
/// at the nominal host's speed (see [`host_speed`]).
pub const END_TO_END: [(&str, &str); 6] = [
    ("throughput_ops", "1/s"),
    ("cpu_us_per_op", "us"),
    ("latency_p50_us", "us"),
    ("setup_s", "s"),
    ("setup_cpu_s", "s"),
    ("peak_rss_mb", "MB"),
];

/// The per-layer metrics every traced run prints, `(name, unit)`. A
/// workload that bypasses a layer reports 0 for that layer's metrics.
pub const PER_LAYER: [(&str, &str); 31] = [
    ("logic.urp_ms", "ms"),
    ("logic.expand_ms", "ms"),
    ("logic.irredundant_ms", "ms"),
    ("logic.reduce_ms", "ms"),
    ("logic.multi_out_us_per_op", "us"),
    ("logic.single_out_us_per_op", "us"),
    ("logic.cubes_out", "count"),
    ("logic.espresso_iters", "count"),
    ("core.map_us_per_op", "us"),
    ("core.verify_us_per_op", "us"),
    ("core.eval_ns_per_lane", "ns"),
    ("core.eval_calls", "count"),
    ("serve.submit_ns", "ns"),
    ("serve.window_wait_us", "us"),
    ("serve.cache_hit_rate", "ratio"),
    ("serve.lane_occupancy", "ratio"),
    ("serve.full_flushes", "count"),
    ("serve.deadline_flushes", "count"),
    ("serve.flush_p50_us", "us"),
    ("serve.swap_ms", "ms"),
    ("serve.tier_build_ms", "ms"),
    ("serve.batcher_cpu_us_per_op", "us"),
    ("net.conn_cpu_us_per_op", "us"),
    ("net.dispatch_cpu_us_per_op", "us"),
    ("net.rtt_us", "us"),
    ("net.fairness_ratio", "ratio"),
    ("client.cpu_us_per_op", "us"),
    ("tail.latency_p99_us", "us"),
    ("tail.samples", "count"),
    ("host.steal_frac", "ratio"),
    ("trace.overhead_frac", "ratio"),
];

/// How many times an untraced run sets up a fresh instance (each
/// followed by an equal share of the timed load); `setup_s` and
/// `setup_cpu_s` are the medians.
pub const SETUP_REPS: usize = 15;

/// Share of a traced run's time spent on the untraced reference phase
/// that `trace.overhead_frac` compares against.
pub const TRACE_BASELINE_SHARE: f64 = 1.0 / 3.0;

/// Command-line arguments of one run.
#[derive(Debug, Clone, PartialEq)]
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

/// Wall and CPU time of one set-up repetition, and the host's speed
/// just before it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SetupSample {
    pub wall_s: f64,
    pub cpu_s: f64,
    /// CPU ms of [`host_reference_ms`], run while no instance is up.
    pub host_ref_ms: f64,
}

/// Process CPU ms of a fixed integer loop that touches none of the
/// program's code. It slows when the host's other tenants contend for
/// the physical core, which steal does not show.
pub fn host_reference_ms() -> f64 {
    let c0 = procfs::process_cpu_ns();
    let mut rng = stats::SplitMix64::new(1);
    let mut acc = 0u64;
    for _ in 0..1 << 21 {
        acc = acc.wrapping_add(rng.next_u64());
    }
    std::hint::black_box(acc);
    procfs::process_cpu_ns().saturating_sub(c0) as f64 / 1e6
}

/// CPU ms of [`host_reference_ms`] on the host the bounds in
/// `BENCHMARK.json` were set on, a 2-vCPU Xeon guest, at quiet times.
pub const HOST_REF_NOMINAL_MS: f64 = 3.5;

/// What sets a workload's wall times, and so whether they follow the
/// host's speed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WallTime {
    /// Computation on the critical path: wall times scale with speed.
    CpuBound,
    /// Waits on a fixed timer (the batcher's `max_wait` deadline): wall
    /// times barely move with speed, so only CPU times are scaled.
    TimerBound,
}

/// The host's speed relative to the nominal one, from the reference
/// loop's CPU times in a run: above 1 on a faster host. 1 if the loop
/// was never timed.
pub fn host_speed(ref_ms: &[f64]) -> f64 {
    let m = median(ref_ms);
    if m > 0.0 {
        HOST_REF_NOMINAL_MS / m
    } else {
        1.0
    }
}

/// One timed phase on one instance: `load(seconds, slices, latency)`
/// drives the load for `seconds` and returns the ops it completed.
pub fn timed_phase(
    ops_per_slice: u64,
    latency_every: u64,
    seconds: f64,
    load: impl FnOnce(f64, &mut Slices, &mut LatencySamples) -> u64,
) -> Phase {
    let clock = PhaseClock::start();
    let mut slices = Slices::new(ops_per_slice);
    let mut latency = LatencySamples::new(latency_every);
    let ops = load(seconds, &mut slices, &mut latency);
    clock.finish(ops, slices, latency)
}

/// The untraced run: [`SETUP_REPS`] cycles, each a timed set-up of a
/// fresh instance followed by `seconds / SETUP_REPS` of load on it, and
/// then `close`. Set-up samples and throughput slices are thus drawn
/// from across the whole run, so both medians see the same host
/// conditions. The phase's wall time covers the load segments only;
/// its per-role CPU covers the whole run.
pub fn cycled_run<T>(
    ops_per_slice: u64,
    latency_every: u64,
    seconds: f64,
    tally: &mut Tally,
    mut setup: impl FnMut(&mut Tally) -> T,
    mut load: impl FnMut(&mut T, f64, &mut Slices, &mut LatencySamples, &mut Tally) -> u64,
    mut close: impl FnMut(T),
) -> (Vec<SetupSample>, Phase) {
    let clock = PhaseClock::start();
    let mut slices = Slices::new(ops_per_slice);
    let mut latency = LatencySamples::new(latency_every);
    let mut setups = Vec::with_capacity(SETUP_REPS);
    let (mut ops, mut wall_s) = (0, 0.0);
    for _ in 0..SETUP_REPS {
        let host_ref_ms = host_reference_ms();
        let c0 = procfs::process_cpu_ns();
        let t0 = Instant::now();
        let mut instance = setup(tally);
        setups.push(SetupSample {
            wall_s: t0.elapsed().as_secs_f64(),
            cpu_s: procfs::process_cpu_ns().saturating_sub(c0) as f64 / 1e9,
            host_ref_ms,
        });
        slices.restart(&mut latency);
        let t1 = Instant::now();
        ops += load(
            &mut instance,
            seconds / SETUP_REPS as f64,
            &mut slices,
            &mut latency,
            tally,
        );
        wall_s += t1.elapsed().as_secs_f64();
        close(instance);
    }
    let mut phase = clock.finish(ops, slices, latency);
    phase.wall_s = wall_s;
    (setups, phase)
}

/// Verified-operation tally: every op the run checks, set-up included.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
}

impl Tally {
    pub fn record(&mut self, ok: bool) {
        self.attempted += 1;
        self.failed += u64::from(!ok);
    }
}

/// Fixed-size latency sample store: keeps every `every`-th op, up to a
/// capacity allocated and touched up front so the store adds the same
/// resident memory to every run; once full it overwrites the oldest.
#[derive(Debug)]
pub struct LatencySamples {
    every: u64,
    seen: u64,
    len: usize,
    /// `len` when the current slice began.
    slice_from: usize,
    ns: Vec<u32>,
}

impl LatencySamples {
    pub const CAPACITY: usize = 1 << 20;

    pub fn new(every: u64) -> LatencySamples {
        LatencySamples {
            every: every.max(1),
            seen: 0,
            len: 0,
            slice_from: 0,
            ns: vec![u32::MAX; Self::CAPACITY],
        }
    }

    /// Whether the next op will be kept (so its start needs a stamp).
    pub fn wants_next(&self) -> bool {
        self.seen.is_multiple_of(self.every)
    }

    /// Account one op; keep its latency if it is a sampled one.
    pub fn record(&mut self, started: Instant) {
        if self.wants_next() {
            self.push_ns(started.elapsed().as_nanos() as u64);
        }
        self.seen += 1;
    }

    /// Account one op whose latency the caller measured.
    pub fn record_ns(&mut self, ns: u64) {
        if self.wants_next() {
            self.push_ns(ns);
        }
        self.seen += 1;
    }

    fn push_ns(&mut self, ns: u64) {
        let at = self.len % Self::CAPACITY;
        self.ns[at] = ns.min(u32::MAX as u64) as u32;
        self.len += 1;
    }

    /// Median of the samples kept since the current slice began (NaN if
    /// none), and begin the next slice.
    pub fn close_slice(&mut self) -> f64 {
        let n = (self.len - self.slice_from).min(Self::CAPACITY);
        let v: Vec<f64> = (self.len - n..self.len)
            .map(|i| self.ns[i % Self::CAPACITY] as f64)
            .collect();
        self.slice_from = self.len;
        percentile(&v, 50.0).unwrap_or(f64::NAN)
    }

    /// The kept samples in ns.
    pub fn values(&self) -> Vec<f64> {
        self.ns[..self.len.min(Self::CAPACITY)]
            .iter()
            .map(|&v| v as f64)
            .collect()
    }
}

/// Wall time, whole-process CPU time, median latency and host steal of
/// consecutive fixed-size slices of a phase. The end-to-end metrics are
/// medians over the slices the host stole no time from: on a shared
/// host, steal comes with contention that slows the guest while it does
/// run, and a slice-level filter keeps both out of the program's numbers.
#[derive(Debug)]
pub struct Slices {
    ops_per_slice: u64,
    in_slice: u64,
    started: Instant,
    cpu_started: u64,
    steal_started: Option<(u64, u64)>,
    walls_s: Vec<f64>,
    cpu_ns_per_op: Vec<f64>,
    /// Median sampled latency of each slice, NaN if it kept none.
    latency_p50_ns: Vec<f64>,
    /// Whether the host stole any time from this guest's vCPUs during
    /// each slice.
    stolen: Vec<bool>,
}

impl Slices {
    /// Start the first slice now.
    pub fn new(ops_per_slice: u64) -> Slices {
        Slices {
            ops_per_slice: ops_per_slice.max(1),
            in_slice: 0,
            started: Instant::now(),
            cpu_started: procfs::process_cpu_ns(),
            steal_started: procfs::read_proc_stat(),
            walls_s: Vec::new(),
            cpu_ns_per_op: Vec::new(),
            latency_p50_ns: Vec::new(),
            stolen: Vec::new(),
        }
    }

    /// Drop the open partial slice and start a new one now.
    pub fn restart(&mut self, latency: &mut LatencySamples) {
        latency.close_slice();
        self.in_slice = 0;
        self.started = Instant::now();
        self.cpu_started = procfs::process_cpu_ns();
        self.steal_started = procfs::read_proc_stat();
    }

    /// Account `ops` completed ops; close the slice once it is full.
    pub fn tick(&mut self, ops: u64, latency: &mut LatencySamples) {
        self.in_slice += ops;
        if self.in_slice >= self.ops_per_slice {
            let now = Instant::now();
            let cpu = procfs::process_cpu_ns();
            let steal = procfs::read_proc_stat();
            let n = self.in_slice as f64;
            self.walls_s.push(
                now.duration_since(self.started).as_secs_f64() * self.ops_per_slice as f64 / n,
            );
            self.cpu_ns_per_op
                .push(cpu.saturating_sub(self.cpu_started) as f64 / n);
            self.latency_p50_ns.push(latency.close_slice());
            self.stolen.push(match (self.steal_started, steal) {
                (Some((s0, _)), Some((s1, _))) => s1 > s0,
                _ => false,
            });
            self.in_slice = 0;
            self.started = now;
            self.cpu_started = cpu;
            self.steal_started = steal;
        }
    }

    /// Number of completed slices.
    pub fn len(&self) -> usize {
        self.walls_s.len()
    }

    pub fn is_empty(&self) -> bool {
        self.walls_s.is_empty()
    }
}

/// Process-wide accounting of one timed phase.
pub struct PhaseClock {
    cpu0: CpuSnapshot,
    cpu0_total: u64,
    steal: StealClock,
    t0: Instant,
}

impl PhaseClock {
    pub fn start() -> PhaseClock {
        PhaseClock {
            cpu0: CpuSnapshot::take(),
            cpu0_total: procfs::process_cpu_ns(),
            steal: StealClock::start(),
            t0: Instant::now(),
        }
    }

    /// Seconds since [`start`](Self::start).
    pub fn elapsed_s(&self) -> f64 {
        self.t0.elapsed().as_secs_f64()
    }

    /// Close the phase that completed `ops` ops. CPU of threads that
    /// exited during the phase is counted as other.
    pub fn finish(&self, ops: u64, slices: Slices, latency: LatencySamples) -> Phase {
        let wall_s = self.elapsed_s();
        let total = procfs::process_cpu_ns().saturating_sub(self.cpu0_total);
        let mut cpu = attribute(&cpu_delta(&self.cpu0, &CpuSnapshot::take()));
        cpu.other += total.saturating_sub(cpu.total());
        Phase {
            ops,
            slices,
            latency,
            wall_s,
            cpu,
            steal_frac: self.steal.frac_since(),
        }
    }
}

/// What a timed phase measured.
#[derive(Debug)]
pub struct Phase {
    /// Ops completed in the phase.
    pub ops: u64,
    pub slices: Slices,
    pub latency: LatencySamples,
    /// Wall time under load.
    pub wall_s: f64,
    /// Process CPU by thread role; in a [`cycled_run`] it also covers
    /// the set-ups between load segments.
    pub cpu: CpuByRole,
    pub steal_frac: f64,
}

impl Phase {
    /// The per-slice values of the slices the host stole no time from —
    /// of every slice if it stole from all of them — without NaNs.
    fn steady(&self, per_slice: &[f64]) -> Vec<f64> {
        let s = &self.slices;
        let any_quiet = s.stolen.iter().any(|&stolen| !stolen);
        per_slice
            .iter()
            .zip(&s.stolen)
            .filter(|&(v, &stolen)| !(v.is_nan() || any_quiet && stolen))
            .map(|(&v, _)| v)
            .collect()
    }

    /// Share of slices the host stole no time from.
    pub fn quiet_share(&self) -> f64 {
        let s = &self.slices;
        s.stolen.iter().filter(|&&stolen| !stolen).count() as f64 / s.len().max(1) as f64
    }

    /// Whole-process CPU µs per op of the median steady slice (of the
    /// whole phase if it completed no slice).
    pub fn cpu_us_per_op(&self) -> f64 {
        if self.slices.is_empty() {
            self.per_op_us(self.cpu.total())
        } else {
            median(&self.steady(&self.slices.cpu_ns_per_op)) / 1e3
        }
    }

    /// `ns` spread over the phase's ops, in µs per op.
    pub fn per_op_us(&self, ns: u64) -> f64 {
        ns as f64 / 1e3 / self.ops.max(1) as f64
    }

    /// Ops per second of the median steady slice (of the whole phase if
    /// it completed no slice).
    pub fn throughput(&self) -> f64 {
        if self.slices.is_empty() {
            self.ops as f64 / self.wall_s
        } else {
            self.slices.ops_per_slice as f64 / median(&self.steady(&self.slices.walls_s))
        }
    }

    /// Diagnostic: `(throughput, CPU µs per op)` over every slice, steal
    /// or not.
    pub fn all_slices(&self) -> (f64, f64) {
        let s = &self.slices;
        (
            s.ops_per_slice as f64 / median(&s.walls_s),
            median(&s.cpu_ns_per_op) / 1e3,
        )
    }

    /// `(p50 µs, p99 µs, sample count)`: the p50 is the median of the
    /// steady slices' medians; the p99 and count cover every kept sample.
    pub fn latency_us(&self) -> (f64, f64, usize) {
        let v = self.latency.values();
        let q = |p| percentile(&v, p).unwrap_or(0.0) / 1e3;
        let steady = self.steady(&self.slices.latency_p50_ns);
        let p50 = if steady.is_empty() {
            q(50.0)
        } else {
            median(&steady) / 1e3
        };
        (p50, q(99.0), v.len())
    }
}

/// A metric value with its unit.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub value: f64,
}

/// The result of one run.
#[derive(Debug, Default)]
pub struct Outcome {
    pub tally: Tally,
    /// Failed checks that are not single ops (accounting, determinism).
    pub problems: Vec<String>,
    pub metrics: Vec<Metric>,
    /// Run-health and diagnostic values printed beside the result.
    pub health: Vec<(String, String)>,
}

impl Outcome {
    pub fn correct(&self) -> bool {
        self.tally.failed == 0 && self.problems.is_empty() && self.tally.attempted > 0
    }

    /// The untraced result: every end-to-end metric, plus diagnostics.
    pub fn untraced(
        tally: Tally,
        problems: Vec<String>,
        setups: &[SetupSample],
        phase: &Phase,
        wall: WallTime,
    ) -> Outcome {
        let walls: Vec<f64> = setups.iter().map(|s| s.wall_s).collect();
        let cpus: Vec<f64> = setups.iter().map(|s| s.cpu_s).collect();
        let refs: Vec<f64> = setups.iter().map(|s| s.host_ref_ms).collect();
        let speed = host_speed(&refs);
        let (p50, p99, n) = phase.latency_us();
        let raw = [
            phase.throughput(),
            phase.cpu_us_per_op(),
            p50,
            median(&walls),
            median(&cpus),
            procfs::peak_rss_mb(),
        ];
        // Reported at the nominal host's speed: times scale with the
        // speed, throughput against it, memory not at all.
        let w = match wall {
            WallTime::CpuBound => speed,
            WallTime::TimerBound => 1.0,
        };
        let scale = [1.0 / w, speed, w, w, speed, 1.0];
        let mut out = Outcome {
            tally,
            problems,
            metrics: END_TO_END
                .iter()
                .zip(raw.iter().zip(scale))
                .map(|(&(name, unit), (value, k))| Metric {
                    name,
                    unit,
                    value: value * k,
                })
                .collect(),
            health: Vec::new(),
        };
        for ((name, _), value) in END_TO_END.iter().zip(raw) {
            out.diag(&format!("raw.{name}"), value);
        }
        out.diag("host.speed", speed);
        out.diag("host.ref_ms", median(&refs));
        out.diag("host.steal_frac", phase.steal_frac);
        out.diag("tail.latency_p99_us", p99);
        out.diag("tail.samples", n as f64);
        out.diag("phase.ops", phase.ops as f64);
        out.diag("phase.wall_s", phase.wall_s);
        out.diag("phase.slices", phase.slices.len() as f64);
        let (all_throughput, all_cpu) = phase.all_slices();
        out.diag("slices.quiet_share", phase.quiet_share());
        out.diag("all_slices.throughput_ops", all_throughput);
        out.diag("all_slices.cpu_us_per_op", all_cpu);
        out.note("setup.walls_s", &format!("{walls:?}"));
        out.note("setup.cpus_s", &format!("{cpus:?}"));
        out
    }

    /// The traced result: every [`PER_LAYER`] metric, taken from
    /// `layer` (missing ones — layers the workload bypasses — read 0).
    pub fn traced(
        tally: Tally,
        problems: Vec<String>,
        baseline: &Phase,
        traced: &Phase,
        mut layer: BTreeMap<&'static str, f64>,
    ) -> Outcome {
        let (_, p99, n) = traced.latency_us();
        let cpu = &traced.cpu;
        layer.insert("serve.batcher_cpu_us_per_op", traced.per_op_us(cpu.batcher));
        layer.insert("net.conn_cpu_us_per_op", traced.per_op_us(cpu.net_conn));
        layer.insert(
            "net.dispatch_cpu_us_per_op",
            traced.per_op_us(cpu.net_dispatch),
        );
        layer.insert("client.cpu_us_per_op", traced.per_op_us(cpu.client));
        layer.insert("tail.latency_p99_us", p99);
        layer.insert("tail.samples", n as f64);
        layer.insert("host.steal_frac", traced.steal_frac);
        layer.insert(
            "trace.overhead_frac",
            traced.cpu_us_per_op() / baseline.cpu_us_per_op() - 1.0,
        );
        let mut out = Outcome {
            tally,
            problems,
            metrics: PER_LAYER
                .iter()
                .map(|&(name, unit)| Metric {
                    name,
                    unit,
                    value: layer.get(name).copied().unwrap_or(0.0),
                })
                .collect(),
            health: Vec::new(),
        };
        out.diag("baseline.cpu_us_per_op", baseline.cpu_us_per_op());
        out.diag("traced.cpu_us_per_op", traced.cpu_us_per_op());
        out
    }

    /// Add a numeric health or diagnostic field.
    pub fn diag(&mut self, name: &str, value: f64) {
        self.health.push((name.into(), json_num(value)));
    }

    /// The final stdout line: `correct`, `attempted`, `failed`, `metrics`.
    pub fn result_json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!(
                    "{}: {{\"value\": {}, \"unit\": {}}}",
                    json_str(m.name),
                    json_num(m.value),
                    json_str(m.unit)
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.tally.attempted,
            self.tally.failed,
            metrics.join(", ")
        )
    }

    /// The run-health line printed before the result.
    pub fn health_json(&self) -> String {
        let fields: Vec<String> = self
            .health
            .iter()
            .map(|(k, v)| format!("{}: {v}", json_str(k)))
            .collect();
        format!("{{\"run_health\": {{{}}}}}", fields.join(", "))
    }

    /// Add a string-valued health field.
    pub fn note(&mut self, name: &str, value: &str) {
        self.health.push((name.into(), json_str(value)));
    }
}

/// A JSON number; non-finite values (never expected) become 0.
pub fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".into()
    }
}

/// A JSON string literal.
pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Counters of a [`Timed`] backend: `eval_words` calls, lanes and ns.
#[derive(Debug, Default)]
pub struct EvalCounters(Mutex<EvalTotals>);

#[derive(Debug, Default, Clone, Copy)]
struct EvalTotals {
    calls: u64,
    lanes: u64,
    ns: u64,
}

impl EvalCounters {
    /// `(calls, ns per lane)` so far.
    pub fn read(&self) -> (u64, f64) {
        // Poison recovery: every update is a whole set of field adds
        // under the lock, so the totals stay well-formed.
        let t = *self.0.lock().unwrap_or_else(PoisonError::into_inner);
        (t.calls, t.ns as f64 / t.lanes.max(1) as f64)
    }

    /// Fill `core.eval_ns_per_lane` and `core.eval_calls`.
    pub fn report(&self, layer: &mut BTreeMap<&'static str, f64>) {
        let (calls, ns_per_lane) = self.read();
        layer.insert("core.eval_calls", calls as f64);
        layer.insert("core.eval_ns_per_lane", ns_per_lane);
    }
}

/// A [`Simulator`] that times every `eval_words` call into the real
/// backend — how traced runs see core evaluation cost from outside the
/// service.
pub struct Timed<S> {
    inner: S,
    counters: Arc<EvalCounters>,
}

impl<S> Timed<S> {
    pub fn new(inner: S, counters: Arc<EvalCounters>) -> Timed<S> {
        Timed { inner, counters }
    }

    pub fn into_inner(self) -> S {
        self.inner
    }
}

impl<S: Simulator> Simulator for Timed<S> {
    fn n_inputs(&self) -> usize {
        self.inner.n_inputs()
    }

    fn n_outputs(&self) -> usize {
        self.inner.n_outputs()
    }

    fn eval_words(&self, inputs: &[u64], out: &mut [u64], words: usize) {
        let t0 = Instant::now();
        self.inner.eval_words(inputs, out, words);
        let ns = t0.elapsed().as_nanos() as u64;
        // Poison recovery: see `EvalCounters::read`.
        let mut t = self
            .counters
            .0
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        t.calls += 1;
        t.lanes += (words * ambipla_core::LANES) as u64;
        t.ns += ns;
    }
}

/// The recorder a traced serving run installs, and the samples the
/// benchmark takes from it: truth-table build times and flush latencies.
pub struct EventLog {
    pub ring: Arc<EventRing>,
    promote_ms: Vec<f64>,
    flush_us: Vec<f64>,
}

impl Default for EventLog {
    fn default() -> EventLog {
        EventLog {
            ring: Arc::new(EventRing::with_capacity(1 << 16)),
            promote_ms: Vec::new(),
            flush_us: Vec::new(),
        }
    }
}

impl EventLog {
    /// Move every recorded event into the samples. Called often enough
    /// that the ring never fills.
    pub fn drain(&mut self) {
        for ev in self.ring.drain() {
            match ev.kind {
                EventKind::TierPromote { build_ns, .. } => {
                    self.promote_ms.push(build_ns as f64 / 1e6)
                }
                EventKind::Flush { latency_ns, .. } => self.flush_us.push(latency_ns as f64 / 1e3),
                _ => {}
            }
        }
    }

    /// Drain, then forget the flushes so far: flush latency is reported
    /// for the timed phase only.
    pub fn start_phase(&mut self) {
        self.drain();
        self.flush_us.clear();
    }

    /// Fill `serve.flush_p50_us` and `serve.tier_build_ms`.
    pub fn report(&self, layer: &mut BTreeMap<&'static str, f64>) {
        layer.insert("serve.flush_p50_us", median(&self.flush_us));
        layer.insert("serve.tier_build_ms", median(&self.promote_ms));
    }
}

/// Pack a reply's output bits (`outputs[i]` → bit `i`).
pub fn pack_outputs(outputs: &[bool]) -> u64 {
    outputs
        .iter()
        .enumerate()
        .fold(0, |acc, (i, &b)| acc | (u64::from(b) << i))
}

/// Expected packed outputs of `cover` for every assignment of its (at
/// most 16) inputs, from the scalar cover evaluator of `logic` — a
/// reference independent of the core backends and tables under test.
pub fn truth_vector(cover: &Cover) -> Vec<u64> {
    (0..1u64 << cover.n_inputs())
        .map(|bits| pack_outputs(&cover.eval_bits(bits)))
        .collect()
}

/// Run one workload to completion.
pub fn run(args: &Args) -> Result<Outcome, String> {
    match args.workload.as_str() {
        "synth_flow" => Ok(synth::run(args)),
        "serve_mix" => Ok(serve::run(args)),
        "wire_lockstep" => Ok(wire::run(args)),
        other => Err(format!(
            "unknown workload {other:?} (expected synth_flow, serve_mix or wire_lockstep)"
        )),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn phase(walls_s: &[f64], latency_p50_ns: &[f64], stolen: &[bool]) -> Phase {
        let mut slices = Slices::new(10);
        slices.walls_s = walls_s.to_vec();
        slices.cpu_ns_per_op = walls_s.iter().map(|w| w * 1e6).collect();
        slices.latency_p50_ns = latency_p50_ns.to_vec();
        slices.stolen = stolen.to_vec();
        Phase {
            ops: 10 * walls_s.len() as u64,
            slices,
            latency: LatencySamples::new(1),
            wall_s: walls_s.iter().sum(),
            cpu: CpuByRole::default(),
            steal_frac: 0.0,
        }
    }

    #[test]
    fn medians_skip_stolen_slices_unless_every_slice_was_stolen() {
        let p = phase(
            &[1.0, 2.0, 9.0, 9.0, 3.0],
            &[100.0, 200.0, 900.0, f64::NAN, 300.0],
            &[false, false, true, true, false],
        );
        assert_eq!(p.throughput(), 10.0 / 2.0);
        assert_eq!(p.cpu_us_per_op(), 2.0e3);
        assert_eq!(p.latency_us().0, 0.2);
        assert_eq!(p.quiet_share(), 0.6);
        assert_eq!(p.all_slices(), (10.0 / 3.0, 3.0e3));
        let all_stolen = phase(&[1.0, 2.0, 9.0], &[100.0, f64::NAN, 900.0], &[true; 3]);
        assert_eq!(all_stolen.throughput(), 10.0 / 2.0);
        assert_eq!(all_stolen.latency_us().0, 0.5);
    }

    #[test]
    fn end_to_end_metrics_are_reported_at_the_nominal_host_speed() {
        assert_eq!(host_speed(&[]), 1.0);
        assert_eq!(host_speed(&[7.0, 1.0, 9.0]), HOST_REF_NOMINAL_MS / 7.0);
        // A host at half the nominal speed: the reference loop takes twice
        // as long, so times halve and throughput doubles.
        let setups = [SetupSample {
            wall_s: 0.4,
            cpu_s: 0.6,
            host_ref_ms: 2.0 * HOST_REF_NOMINAL_MS,
        }];
        let p = phase(&[1.0, 1.0], &[100.0, 100.0], &[false, false]);
        let untraced = |wall| Outcome::untraced(Tally::default(), Vec::new(), &setups, &p, wall);
        let values = |out: &Outcome| out.metrics.iter().map(|m| m.value).collect::<Vec<_>>();
        let out = untraced(WallTime::CpuBound);
        let rss = values(&out)[5];
        assert_eq!(values(&out), [20.0, 500.0, 0.1 * 0.5, 0.2, 0.3, rss]);
        // Timer-bound wall times stay as measured; CPU times still scale.
        let timer = values(&untraced(WallTime::TimerBound));
        assert_eq!(timer, [10.0, 500.0, 0.1, 0.4, 0.3, timer[5]]);
        let health = |k: &str| {
            out.health
                .iter()
                .find(|(n, _)| n == k)
                .map(|(_, v)| v.clone())
        };
        assert_eq!(health("raw.throughput_ops").as_deref(), Some("10"));
        assert_eq!(health("raw.setup_s").as_deref(), Some("0.4"));
        assert_eq!(health("host.speed").as_deref(), Some("0.5"));
    }

    #[test]
    fn slice_latency_medians_cover_only_their_own_slice() {
        let mut l = LatencySamples::new(1);
        for ns in [5, 1, 3] {
            l.record_ns(ns);
        }
        assert_eq!(l.close_slice(), 3.0);
        assert!(l.close_slice().is_nan());
        l.record_ns(40);
        l.record_ns(20);
        assert_eq!(l.close_slice(), 30.0);
        assert_eq!(l.values().len(), 5);
    }
}
