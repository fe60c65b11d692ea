//! Tests of the benchmark's own machinery: order statistics, the
//! `/proc` parsers, CPU attribution by thread name, seed determinism of
//! every workload's inputs, and agreement with `BENCHMARK.json`.

use ambipla_perfbench::procfs::{
    attribute, cpu_delta, parse_proc_stat, parse_schedstat, parse_vm_hwm_kb, process_cpu_ns,
    scan_tasks, CpuSnapshot, TaskSample, CLIENT_THREAD,
};
use ambipla_perfbench::serve::{ServeStream, Window};
use ambipla_perfbench::stats::{median, percentile, SplitMix64, Zipf};
use ambipla_perfbench::synth::{circuit_set, SET_LEN};
use ambipla_perfbench::wire::{WireStream, WireWindow, PER_CONN};
use ambipla_perfbench::{LatencySamples, Metric, Outcome, Tally, END_TO_END, PER_LAYER};
use std::path::PathBuf;

#[test]
fn percentile_interpolates_between_closest_ranks() {
    let v = [4.0, 1.0, 3.0, 2.0];
    assert_eq!(percentile(&v, 0.0), Some(1.0));
    assert_eq!(percentile(&v, 100.0), Some(4.0));
    assert_eq!(percentile(&v, 50.0), Some(2.5));
    assert_eq!(percentile(&[1.0, 2.0, 3.0, 4.0, 5.0], 25.0), Some(2.0));
    assert_eq!(percentile(&[10.0, 20.0], 75.0), Some(17.5));
    assert_eq!(percentile(&[7.0], 99.0), Some(7.0));
    assert_eq!(percentile(&[], 50.0), None);
    assert_eq!(median(&[3.0, 9.0, 1.0]), 3.0);
    assert_eq!(median(&[]), 0.0);
}

#[test]
fn schedstat_parser_reads_run_time() {
    assert_eq!(parse_schedstat("123456789 4242 17\n"), Some(123_456_789));
    assert_eq!(parse_schedstat("0 0 1"), Some(0));
    assert_eq!(parse_schedstat(""), None);
    assert_eq!(parse_schedstat("garbage 1 2"), None);
}

#[test]
fn proc_stat_parser_reads_steal_and_total() {
    let text = "cpu  100 5 50 800 10 1 4 30 7 0\n\
                cpu0 50 2 25 400 5 0 2 15 3 0\n\
                intr 12345\n";
    // user..steal = 100+5+50+800+10+1+4+30; guest is inside user.
    assert_eq!(parse_proc_stat(text), Some((30, 1000)));
    assert_eq!(parse_proc_stat("cpu0 1 2 3 4 5 6 7 8\n"), None);
    assert_eq!(parse_proc_stat("cpu  1 2 3\n"), None);
    assert_eq!(parse_proc_stat("cpu  1 2 x 4 5 6 7 8\n"), None);
}

#[test]
fn vm_hwm_parser_reads_peak_rss() {
    let status = "Name:\tperfbench\nVmPeak:\t  9000 kB\nVmHWM:\t    1804 kB\nVmRSS:\t 1700 kB\n";
    assert_eq!(parse_vm_hwm_kb(status), Some(1804));
    assert_eq!(parse_vm_hwm_kb("VmRSS:\t1 kB\n"), None);
}

fn scratch_dir(name: &str) -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(name);
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

#[test]
fn task_scan_skips_a_thread_that_exited_mid_scan() {
    let dir = scratch_dir("task_scan");
    let live = dir.join("100");
    std::fs::create_dir(&live).unwrap();
    std::fs::write(live.join("schedstat"), "5000 10 2\n").unwrap();
    std::fs::write(live.join("comm"), "ambipla-batcher\n").unwrap();
    // Listed, but its files are gone by the time they are read.
    std::fs::create_dir(dir.join("101")).unwrap();
    // Not a tid.
    std::fs::create_dir(dir.join("self")).unwrap();
    let snap = scan_tasks(&dir);
    assert_eq!(snap.tasks.len(), 1);
    assert_eq!(
        snap.tasks[&100],
        TaskSample {
            name: "ambipla-batcher".into(),
            run_ns: 5000
        }
    );
    assert!(scan_tasks(&dir.join("missing")).tasks.is_empty());
}

#[test]
fn live_scans_survive_threads_exiting_concurrently() {
    let stop = std::sync::atomic::AtomicBool::new(false);
    std::thread::scope(|s| {
        s.spawn(|| {
            while !stop.load(std::sync::atomic::Ordering::Relaxed) {
                std::thread::spawn(|| std::hint::black_box(0))
                    .join()
                    .unwrap();
            }
        });
        for _ in 0..200 {
            let snap = CpuSnapshot::take();
            assert!(!snap.tasks.is_empty(), "the scanning thread is always live");
        }
        stop.store(true, std::sync::atomic::Ordering::Relaxed);
    });
}

#[test]
fn cpu_is_attributed_by_thread_name() {
    let t = |name: &str, run_ns| TaskSample {
        name: name.into(),
        run_ns,
    };
    let by = attribute(&[
        t("ambipla-batcher", 10),
        t("ambipla-batcher", 5),
        t("ambipla-net-con", 20),
        t("ambipla-net-con", 1),
        t("ambipla-net-dis", 30),
        t("ambipla-net-acc", 2),
        t(CLIENT_THREAD, 40),
        t("ambipla-perfben", 3),
    ]);
    assert_eq!(
        (
            by.batcher,
            by.net_conn,
            by.net_dispatch,
            by.client,
            by.other
        ),
        (15, 21, 30, 40, 5)
    );
    assert_eq!(by.total(), 111);
}

#[test]
fn live_threads_are_attributed_by_their_kernel_names() {
    let before = CpuSnapshot::take();
    let p0 = process_cpu_ns();
    let by = std::thread::Builder::new()
        // The kernel truncates this to "ambipla-batcher".
        .name("ambipla-batcher-7".into())
        .spawn(move || {
            // Spin until the kernel has charged this thread 30 ms of CPU,
            // however much of the machine the other tests are using.
            let own = || {
                std::fs::read_to_string("/proc/thread-self/schedstat")
                    .ok()
                    .and_then(|t| parse_schedstat(&t))
                    .unwrap_or(u64::MAX)
            };
            while own() < 30_000_000 {}
            // Scanned while this thread is still alive.
            attribute(&cpu_delta(&before, &CpuSnapshot::take()))
        })
        .expect("spawn")
        .join()
        .expect("join");
    assert!(by.batcher >= 30_000_000, "batcher CPU {} ns", by.batcher);
    // The process clock keeps the exited thread's time.
    assert!(process_cpu_ns() - p0 >= 30_000_000);
}

#[test]
fn cpu_delta_counts_new_and_recycled_threads_from_zero() {
    let snap = |entries: &[(u64, &str, u64)]| CpuSnapshot {
        tasks: entries
            .iter()
            .map(|&(tid, name, run_ns)| {
                (
                    tid,
                    TaskSample {
                        name: name.into(),
                        run_ns,
                    },
                )
            })
            .collect(),
    };
    let before = snap(&[(1, "main", 100), (2, "old", 50), (3, "gone", 9)]);
    let after = snap(&[(1, "main", 130), (2, "new", 20), (4, "born", 7)]);
    let mut d = cpu_delta(&before, &after);
    d.sort_by(|a, b| a.name.cmp(&b.name));
    let got: Vec<(&str, u64)> = d.iter().map(|t| (t.name.as_str(), t.run_ns)).collect();
    assert_eq!(got, vec![("born", 7), ("main", 30), ("new", 20)]);
}

#[test]
fn the_circuit_set_is_a_function_of_the_seed() {
    let a = circuit_set(7);
    assert_eq!(a.len(), SET_LEN);
    assert_eq!(a, circuit_set(7));
    let b = circuit_set(8);
    assert_eq!(a.len(), b.len());
    assert_ne!(a, b);
    // Only contents move with the seed: names carry the fixed dimensions.
    let names = |s: &[ambipla_perfbench::synth::Circuit]| {
        s.iter().map(|c| c.name.clone()).collect::<Vec<_>>()
    };
    assert_eq!(names(&a), names(&b));
    let multi = a.iter().filter(|c| c.multi_output()).count();
    assert!(multi > 0 && multi < a.len());
}

#[test]
fn the_serve_request_stream_is_a_function_of_the_seed() {
    let windows = |seed| {
        let mut s = ServeStream::new(seed);
        let mut w = Window::default();
        (0..64)
            .map(|_| {
                s.next_window(&mut w);
                w.clone()
            })
            .collect::<Vec<_>>()
    };
    let a = windows(7);
    assert_eq!(a, windows(7));
    assert_ne!(a, windows(8));
    assert_eq!(
        ServeStream::new(7).hot_blocks(),
        ServeStream::new(7).hot_blocks()
    );
    assert_ne!(
        ServeStream::new(7).hot_blocks(),
        ServeStream::new(8).hot_blocks()
    );
    // Hot blocks are replayed verbatim.
    let s = ServeStream::new(7);
    for w in &a {
        for (b, hot) in w.hot.iter().enumerate() {
            if let Some(h) = hot {
                assert_eq!(&w.wide[b * 64..(b + 1) * 64], &s.hot_blocks()[*h][..]);
            }
        }
    }
}

#[test]
fn the_wire_request_stream_is_a_function_of_the_seed() {
    let windows = |seed| {
        let mut s = WireStream::new(seed);
        let mut w: WireWindow = [[0; PER_CONN]; 2];
        (0..64)
            .map(|_| {
                s.next_window(&mut w);
                w
            })
            .collect::<Vec<_>>()
    };
    let a = windows(7);
    assert_eq!(a, windows(7));
    assert_ne!(a, windows(8));
    // Even slots address the 3-input adder, odd ones the 8-input function.
    for w in &a {
        for conn in w {
            for (j, &bits) in conn.iter().enumerate() {
                assert!(bits < if j % 2 == 0 { 8 } else { 256 });
            }
        }
    }
}

#[test]
fn zipf_ranks_follow_their_mass() {
    let z = Zipf::new(128, 1.0);
    assert_eq!(z.mass_below(0), 0.0);
    assert!((z.mass_below(128) - 1.0).abs() < 1e-12);
    let mut rng = SplitMix64::new(1);
    let n = 200_000;
    let hot = (0..n).filter(|_| z.sample(&mut rng) < 16).count();
    let share = hot as f64 / n as f64;
    assert!((share - z.mass_below(16)).abs() < 0.01, "hot share {share}");
}

#[test]
fn latency_samples_keep_every_nth_op() {
    let mut l = LatencySamples::new(4);
    for i in 0..10u64 {
        assert_eq!(l.wants_next(), i % 4 == 0);
        l.record_ns(i * 100);
    }
    assert_eq!(l.values(), vec![0.0, 400.0, 800.0]);
}

#[test]
fn the_result_line_has_exactly_the_contract_keys() {
    let out = Outcome {
        tally: Tally {
            attempted: 3,
            failed: 0,
        },
        metrics: vec![Metric {
            name: "setup_s",
            unit: "s",
            value: 0.25,
        }],
        ..Outcome::default()
    };
    assert_eq!(
        out.result_json(),
        "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \
         \"metrics\": {\"setup_s\": {\"value\": 0.25, \"unit\": \"s\"}}}"
    );
    let failing = Outcome {
        tally: Tally {
            attempted: 3,
            failed: 1,
        },
        ..Outcome::default()
    };
    assert!(!failing.correct());
}

/// Every `"name": "..."` value of `BENCHMARK.json`, in file order.
fn benchmark_json_names() -> Vec<String> {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    text.split("\"name\": \"")
        .skip(1)
        .map(|rest| rest.split('"').next().unwrap_or_default().to_string())
        .collect()
}

#[test]
fn benchmark_json_lists_what_the_runs_print() {
    let expected: Vec<String> = ["synth_flow", "serve_mix", "wire_lockstep"]
        .iter()
        .map(|s| s.to_string())
        .chain(END_TO_END.iter().map(|(n, _)| n.to_string()))
        .chain(PER_LAYER.iter().map(|(n, _)| n.to_string()))
        .collect();
    assert_eq!(benchmark_json_names(), expected);
}
