//! `synth_flow`: the paper's synthesis flow — `espresso_with_dc` →
//! `GnorPla::from_cover` → exhaustive `sim::equivalent_to_cover` →
//! `Technology::pla_area` — as a closed loop over a seeded circuit set.
//! One op is one circuit through the whole flow. Serve and net are
//! bypassed.

use crate::stats::mix;
use crate::{
    cycled_run, timed_phase, Args, EvalCounters, LatencySamples, Outcome, Slices, Tally, Timed,
    WallTime, TRACE_BASELINE_SHARE,
};
use ambipla_core::sim::equivalent_to_cover;
use ambipla_core::{GnorPla, Technology};
use logic::espresso::Pass;
use logic::{espresso_with_dc, espresso_with_dc_traced, Cover};
use mcnc::RandomPla;
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Instant;

/// Random covers per half of the set (few-output and many-output).
pub const RANDOM_PER_HALF: usize = 48;

/// Circuits in the set: the three Table-1 stand-ins and both halves.
pub const SET_LEN: usize = 3 + 2 * RANDOM_PER_HALF;

/// One circuit of the set: ON-set and don't-care cover.
#[derive(Debug, Clone, PartialEq)]
pub struct Circuit {
    pub name: String,
    pub on: Cover,
    pub dc: Cover,
}

impl Circuit {
    /// More than two outputs: the half multi-output URP would speed up.
    pub fn multi_output(&self) -> bool {
        self.on.n_outputs() > 2
    }
}

/// The seeded circuit set: the Table-1 stand-ins (`max46`, `apla`,
/// `t2`), then [`RANDOM_PER_HALF`] `RandomPla` covers with 1–2 outputs
/// and as many with 8–16. Dimensions are fixed per slot and the seed
/// only draws cover contents, so every seed costs about the same.
pub fn circuit_set(seed: u64) -> Vec<Circuit> {
    let mut set: Vec<Circuit> = mcnc::table1_benchmarks()
        .into_iter()
        .map(|b| Circuit {
            name: b.name.to_string(),
            on: b.on,
            dc: b.dc,
        })
        .collect();
    for k in 0..RANDOM_PER_HALF {
        for (half, (inputs, outputs, products)) in [
            (11 + k % 4, 1 + k % 2, 28 + 4 * (k % 3)),
            (10 + k % 4, 8 + (k * 5) % 9, 20 + 4 * (k % 3)),
        ]
        .into_iter()
        .enumerate()
        {
            let on = RandomPla::new(inputs, outputs, products)
                .seed(mix(seed, (2 * k + half) as u64))
                .build();
            set.push(Circuit {
                name: format!("rand{inputs}i{outputs}o{products}p_{k}"),
                dc: Cover::new(inputs, outputs),
                on,
            });
        }
    }
    set
}

/// What one pass of the flow produced for a circuit.
#[derive(Debug)]
pub struct FlowOutput {
    /// Cubes in the minimized cover.
    pub cubes: usize,
    /// ESPRESSO improvement iterations.
    pub iterations: usize,
    /// The mapped PLA matches the input cover on every assignment.
    pub equivalent: bool,
    /// CNFET GNOR-PLA area in L².
    pub area: f64,
    pub pla: GnorPla,
}

/// Per-layer accumulators of traced flow runs.
#[derive(Debug, Default)]
pub struct FlowTrace {
    ops: u64,
    pass_ns: [u64; 4],
    multi: (u64, u64),
    single: (u64, u64),
    map_ns: u64,
    verify_ns: u64,
    cubes: u64,
    iterations: u64,
    pub eval: Arc<EvalCounters>,
}

const PASSES: [(Pass, &str); 4] = [
    (Pass::Urp, "logic.urp_ms"),
    (Pass::Expand, "logic.expand_ms"),
    (Pass::Irredundant, "logic.irredundant_ms"),
    (Pass::Reduce, "logic.reduce_ms"),
];

impl FlowTrace {
    /// Fill the `logic.*` and `core.*` per-layer metrics.
    pub fn report(&self, layer: &mut BTreeMap<&'static str, f64>) {
        let ops = self.ops.max(1) as f64;
        for ((_, name), ns) in PASSES.iter().zip(self.pass_ns) {
            layer.insert(name, ns as f64 / 1e6 / ops);
        }
        let per = |(ns, n): (u64, u64)| ns as f64 / 1e3 / n.max(1) as f64;
        layer.insert("logic.multi_out_us_per_op", per(self.multi));
        layer.insert("logic.single_out_us_per_op", per(self.single));
        layer.insert("logic.cubes_out", self.cubes as f64);
        layer.insert("logic.espresso_iters", self.iterations as f64);
        layer.insert("core.map_us_per_op", self.map_ns as f64 / 1e3 / ops);
        layer.insert("core.verify_us_per_op", self.verify_ns as f64 / 1e3 / ops);
        self.eval.report(layer);
    }
}

/// Run one circuit through the flow; with a trace, time every stage
/// and evaluate through a [`Timed`] backend.
pub fn flow(c: &Circuit, trace: Option<&mut FlowTrace>) -> FlowOutput {
    let n = c.on.n_inputs();
    let Some(t) = trace else {
        let (min, stats) = espresso_with_dc(&c.on, &c.dc);
        let pla = GnorPla::from_cover(&min);
        return FlowOutput {
            cubes: min.len(),
            iterations: stats.iterations,
            equivalent: equivalent_to_cover(&pla, &c.on, n),
            area: Technology::CnfetGnor.pla_area(pla.dimensions()),
            pla,
        };
    };
    let t0 = Instant::now();
    let (min, stats, passes) = espresso_with_dc_traced(&c.on, &c.dc);
    let t1 = Instant::now();
    let pla = GnorPla::from_cover(&min);
    let t2 = Instant::now();
    let timed = Timed::new(pla, Arc::clone(&t.eval));
    let equivalent = equivalent_to_cover(&timed, &c.on, n);
    let t3 = Instant::now();
    let pla = timed.into_inner();
    for ((pass, _), acc) in PASSES.iter().zip(&mut t.pass_ns) {
        *acc += passes.pass_totals(*pass).1;
    }
    let espresso_ns = (t1 - t0).as_nanos() as u64;
    let half = if c.multi_output() {
        &mut t.multi
    } else {
        &mut t.single
    };
    half.0 += espresso_ns;
    half.1 += 1;
    t.map_ns += (t2 - t1).as_nanos() as u64;
    t.verify_ns += (t3 - t2).as_nanos() as u64;
    t.ops += 1;
    t.cubes += min.len() as u64;
    t.iterations += stats.iterations as u64;
    FlowOutput {
        cubes: min.len(),
        iterations: stats.iterations,
        equivalent,
        area: Technology::CnfetGnor.pla_area(pla.dimensions()),
        pla,
    }
}

/// A prepared run: the circuit set and its cold-pass cube counts.
struct Prepared {
    set: Vec<Circuit>,
    cubes: Vec<usize>,
    iterations: usize,
}

/// Set-up: generate the set and make the cold first pass, which fixes
/// the cube count every later pass of each circuit must repeat.
fn prepare(seed: u64, tally: &mut Tally) -> Prepared {
    let set = circuit_set(seed);
    let mut cubes = Vec::with_capacity(set.len());
    let mut iterations = 0;
    for c in &set {
        let out = flow(c, None);
        tally.record(out.equivalent);
        cubes.push(out.cubes);
        iterations += out.iterations;
        std::hint::black_box(out.area);
    }
    Prepared {
        set,
        cubes,
        iterations,
    }
}

/// The closed loop: pass after pass over the set until `seconds` pass.
/// Returns the ops completed.
fn load(
    p: &Prepared,
    seconds: f64,
    slices: &mut Slices,
    latency: &mut LatencySamples,
    mut trace: Option<&mut FlowTrace>,
    tally: &mut Tally,
) -> u64 {
    let start = Instant::now();
    let mut ops = 0u64;
    let mut area = 0.0;
    'run: loop {
        for (c, &cubes) in p.set.iter().zip(&p.cubes) {
            let t0 = Instant::now();
            let out = flow(c, trace.as_deref_mut());
            latency.record(t0);
            // A pass must reproduce the cold pass's cover size exactly.
            tally.record(out.equivalent && out.cubes == cubes);
            area += out.area;
            ops += 1;
            slices.tick(1, latency);
            if start.elapsed().as_secs_f64() >= seconds {
                break 'run;
            }
        }
    }
    std::hint::black_box(area);
    ops
}

pub fn run(args: &Args) -> Outcome {
    let mut tally = Tally::default();
    let pass = SET_LEN as u64;
    if !args.trace {
        let (setups, phase) = cycled_run(
            pass,
            1,
            args.seconds,
            &mut tally,
            |t| prepare(args.seed, t),
            |p, secs, slices, latency, t| load(p, secs, slices, latency, None, t),
            drop,
        );
        return Outcome::untraced(tally, Vec::new(), &setups, &phase, WallTime::CpuBound);
    }
    let p = prepare(args.seed, &mut tally);
    let baseline = timed_phase(
        pass,
        1,
        args.seconds * TRACE_BASELINE_SHARE,
        |secs, sl, la| load(&p, secs, sl, la, None, &mut tally),
    );
    let mut trace = FlowTrace::default();
    let traced = timed_phase(
        pass,
        1,
        args.seconds * (1.0 - TRACE_BASELINE_SHARE),
        |secs, sl, la| load(&p, secs, sl, la, Some(&mut trace), &mut tally),
    );
    let mut layer = BTreeMap::new();
    trace.report(&mut layer);
    // The exact counts are those of one pass over the set.
    layer.insert("logic.cubes_out", p.cubes.iter().sum::<usize>() as f64);
    layer.insert("logic.espresso_iters", p.iterations as f64);
    Outcome::traced(tally, Vec::new(), &baseline, &traced, layer)
}
