//! Run one benchmark workload:
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <synth_flow|serve_mix|wire_lockstep> --seed <n> --seconds <n> --trace <0|1>
//! ```
//!
//! Prints a run-health line, then, as the last line, one JSON object with
//! `correct`, `attempted`, `failed` and `metrics` (the end-to-end metrics
//! with `--trace 0`, the per-layer metrics with `--trace 1`). Exits 1 if
//! any output was wrong, 2 on bad arguments, 3 if the run did not finish.

use ambipla_perfbench::{procfs, run, Args, Outcome};
use std::process::{Command, ExitCode};
use std::sync::mpsc;
use std::time::Duration;

/// A run that has not finished by then is abandoned, so that a hung run
/// still exits, with code 3, within three minutes.
const WATCHDOG: Duration = Duration::from_secs(170);

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value:?}: {e}");
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| bad(&e))?),
            "--seconds" => seconds = Some(value.parse::<f64>().map_err(|e| bad(&e))?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"expected 0 or 1")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let seconds = seconds.ok_or("--seconds is required")?;
    if !(seconds > 0.0 && seconds <= 120.0) {
        return Err(format!("--seconds {seconds} out of range (0, 120]"));
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace: trace.unwrap_or(false),
    })
}

/// First line of a command's stdout, or "unknown".
fn command_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .and_then(|s| s.lines().next().map(str::to_string))
        .unwrap_or_else(|| "unknown".into())
}

fn add_health(out: &mut Outcome, args: &Args) {
    out.note("workload", &args.workload);
    out.diag("seed", args.seed as f64);
    out.diag("trace", f64::from(u8::from(args.trace)));
    out.diag(
        "hw_threads",
        std::thread::available_parallelism().map_or(0, |n| n.get()) as f64,
    );
    out.note("cpu_model", &procfs::cpu_model());
    out.note("rustc", &command_line("rustc", &["--version"]));
    out.note("git_rev", &command_line("git", &["rev-parse", "HEAD"]));
    out.diag("ops_attempted", out.tally.attempted as f64);
    out.diag("ops_failed", out.tally.failed as f64);
    out.note("problems", &out.problems.join("; "));
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <synth_flow|serve_mix|wire_lockstep> \
                 --seed <n> --seconds <n> --trace <0|1>"
            );
            return ExitCode::from(2);
        }
    };
    // The workload runs on the named client thread (so its CPU is
    // attributed as the load generator's); main only waits for it.
    let (tx, rx) = mpsc::channel();
    let worker_args = args.clone();
    let spawned = std::thread::Builder::new()
        .name(procfs::CLIENT_THREAD.into())
        .spawn(move || {
            let _ = tx.send(run(&worker_args));
        });
    let worker = match spawned {
        Ok(handle) => handle,
        Err(e) => {
            eprintln!("perfbench: cannot spawn the client thread: {e}");
            return ExitCode::from(3);
        }
    };
    let mut out = match rx.recv_timeout(WATCHDOG) {
        Ok(Ok(out)) => {
            let _ = worker.join();
            out
        }
        Ok(Err(e)) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
        Err(e) => {
            eprintln!("perfbench: run did not finish ({e})");
            return ExitCode::from(3);
        }
    };
    add_health(&mut out, &args);
    println!("{}", out.health_json());
    println!("{}", out.result_json());
    if out.correct() {
        ExitCode::SUCCESS
    } else {
        eprintln!(
            "perfbench: {} of {} ops failed; {}",
            out.tally.failed,
            out.tally.attempted,
            out.problems.join("; ")
        );
        ExitCode::from(1)
    }
}
