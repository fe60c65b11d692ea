//! Readers for the Linux accounting the benchmark measures with:
//! per-thread CPU run time (`/proc/self/task/*/schedstat`), host steal
//! (`/proc/stat`) and peak resident memory (`VmHWM`).
//!
//! `schedstat` run time is the scheduler's `sum_exec_runtime`, which a
//! guest kernel with paravirtual steal accounting charges without the
//! time the hypervisor gave the vCPU to someone else. That is why every
//! wall-clock metric gets a CPU-time counterpart built from it.

use std::collections::BTreeMap;
use std::path::Path;

/// Name of the benchmark's load-generating thread (the only thread the
/// benchmark itself runs work on).
pub const CLIENT_THREAD: &str = "pb-client";

/// Run time in ns from a `schedstat` line (`run_ns wait_ns timeslices`).
pub fn parse_schedstat(text: &str) -> Option<u64> {
    text.split_whitespace().next()?.parse().ok()
}

/// One thread's accounting: its `comm` name (truncated by the kernel to
/// 15 bytes) and CPU run time in ns.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TaskSample {
    pub name: String,
    pub run_ns: u64,
}

/// CPU accounting of every thread alive at one scan, keyed by tid.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CpuSnapshot {
    pub tasks: BTreeMap<u64, TaskSample>,
}

impl CpuSnapshot {
    /// Scan this process's threads.
    pub fn take() -> CpuSnapshot {
        scan_tasks(Path::new("/proc/self/task"))
    }
}

/// Scan a `task` directory laid out like `/proc/<pid>/task`. A thread
/// that exits between the listing and the read of its files has no
/// entry left to read; it is skipped, not reported as an error.
pub fn scan_tasks(dir: &Path) -> CpuSnapshot {
    let mut tasks = BTreeMap::new();
    let Ok(entries) = std::fs::read_dir(dir) else {
        return CpuSnapshot::default();
    };
    for entry in entries.flatten() {
        let Some(tid) = entry.file_name().to_str().and_then(|s| s.parse().ok()) else {
            continue;
        };
        let path = entry.path();
        let Some(run_ns) = std::fs::read_to_string(path.join("schedstat"))
            .ok()
            .and_then(|t| parse_schedstat(&t))
        else {
            continue;
        };
        let name = std::fs::read_to_string(path.join("comm"))
            .map(|s| s.trim_end().to_string())
            .unwrap_or_default();
        tasks.insert(tid, TaskSample { name, run_ns });
    }
    CpuSnapshot { tasks }
}

/// CPU time of the whole process in ns, exited threads included.
///
/// This is `CLOCK_PROCESS_CPUTIME_ID`, the same scheduler run-time
/// accounting `schedstat` reports per thread, summed by the kernel over
/// live and exited threads alike. A scan of the live tasks would miss
/// short-lived workers, such as the scoped threads the minimizer forks
/// for its per-output complements. Returns 0 if the clock is unreadable.
pub fn process_cpu_ns() -> u64 {
    // `struct timespec` on Linux: `time_t` is a C `long` on every
    // target this benchmark builds for.
    #[repr(C)]
    struct Timespec {
        tv_sec: std::os::raw::c_long,
        tv_nsec: std::os::raw::c_long,
    }
    extern "C" {
        fn clock_gettime(clock: std::os::raw::c_int, tp: *mut Timespec) -> std::os::raw::c_int;
    }
    const CLOCK_PROCESS_CPUTIME_ID: std::os::raw::c_int = 2;
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `clock_gettime` is the C library's; it writes one
    // `timespec` through a pointer to a live, aligned local and keeps no
    // reference to it after returning.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    if rc != 0 {
        return 0;
    }
    ts.tv_sec as u64 * 1_000_000_000 + ts.tv_nsec as u64
}

/// CPU each thread of `after` spent since `before`. A thread born in
/// between (or a recycled tid under a new name) counts from zero; a
/// thread gone by `after` contributes nothing, so phases are measured
/// while the threads that do their work are alive.
pub fn cpu_delta(before: &CpuSnapshot, after: &CpuSnapshot) -> Vec<TaskSample> {
    after
        .tasks
        .iter()
        .map(|(tid, s)| {
            let base = match before.tasks.get(tid) {
                Some(b) if b.name == s.name => b.run_ns,
                _ => 0,
            };
            TaskSample {
                name: s.name.clone(),
                run_ns: s.run_ns.saturating_sub(base),
            }
        })
        .collect()
}

/// CPU time in ns split by the role a thread's name gives it.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CpuByRole {
    /// The benchmark's own load generator ([`CLIENT_THREAD`]).
    pub client: u64,
    /// `ambipla-batcher-*` service shards.
    pub batcher: u64,
    /// `ambipla-net-conn-*` connection poll loops.
    pub net_conn: u64,
    /// `ambipla-net-dispatch`.
    pub net_dispatch: u64,
    /// Everything else: the main thread, the accept loop, and threads
    /// that exited during the phase.
    pub other: u64,
}

impl CpuByRole {
    /// Whole-process CPU.
    pub fn total(&self) -> u64 {
        self.client + self.batcher + self.net_conn + self.net_dispatch + self.other
    }
}

/// Attribute per-thread CPU by name. Names are matched on the
/// kernel-truncated 15-byte `comm`, so `ambipla-net-conn-12` arrives as
/// `ambipla-net-con`.
pub fn attribute(tasks: &[TaskSample]) -> CpuByRole {
    let mut by = CpuByRole::default();
    for t in tasks {
        let slot = match t.name.as_str() {
            n if n.starts_with("ambipla-batcher") => &mut by.batcher,
            n if n.starts_with("ambipla-net-con") => &mut by.net_conn,
            n if n.starts_with("ambipla-net-dis") => &mut by.net_dispatch,
            CLIENT_THREAD => &mut by.client,
            _ => &mut by.other,
        };
        *slot += t.run_ns;
    }
    by
}

/// `(steal, total)` jiffies of the aggregate `cpu` line of `/proc/stat`.
/// The total sums user through steal; guest time is already inside
/// user/nice, so it is not added again.
pub fn parse_proc_stat(text: &str) -> Option<(u64, u64)> {
    let line = text.lines().find(|l| l.starts_with("cpu "))?;
    let fields = line
        .split_whitespace()
        .skip(1)
        .map(|f| f.parse::<u64>().ok())
        .collect::<Option<Vec<_>>>()?;
    let head = fields.get(..8)?;
    Some((head[7], head.iter().sum()))
}

/// Host steal over an interval, from two `/proc/stat` readings.
#[derive(Debug, Clone, Copy)]
pub struct StealClock(Option<(u64, u64)>);

impl StealClock {
    pub fn start() -> StealClock {
        StealClock(read_proc_stat())
    }

    /// Share of host CPU time stolen since [`start`](Self::start); 0
    /// when `/proc/stat` is unreadable or no time passed.
    pub fn frac_since(&self) -> f64 {
        match (self.0, read_proc_stat()) {
            (Some((s0, t0)), Some((s1, t1))) if t1 > t0 => {
                s1.saturating_sub(s0) as f64 / (t1 - t0) as f64
            }
            _ => 0.0,
        }
    }
}

/// `(steal, total)` jiffies of the host right now.
pub fn read_proc_stat() -> Option<(u64, u64)> {
    parse_proc_stat(&std::fs::read_to_string("/proc/stat").ok()?)
}

/// `VmHWM` (peak resident set) in kB from a `/proc/<pid>/status` text.
pub fn parse_vm_hwm_kb(status: &str) -> Option<u64> {
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    line.split_whitespace().nth(1)?.parse().ok()
}

/// This process's peak resident set in MB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| parse_vm_hwm_kb(&s))
        .map_or(0.0, |kb| kb as f64 / 1024.0)
}

/// The first `model name` of `/proc/cpuinfo`.
pub fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, v)| v.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into())
}
