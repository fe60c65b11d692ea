//! Chaos harness: epoch-versioned hot swaps under sustained concurrent
//! load.
//!
//! Issue 6's acceptance scenario, end to end: a [`SimService`] serves a
//! PLA while client threads hammer it and a mutator thread keeps
//! replacing the backend — injecting fresh defects into a
//! [`FaultyGnorPla`], applying `fault::repair_with_columns` and serving
//! the repaired view, and swapping in re-minimized covers — for at least
//! 50 hot swaps. The harness asserts the full epoch contract:
//!
//! * **(a)** every reply bit-matches the scalar truth of the epoch it was
//!   served under (checked against an [`EpochOracle`] that records every
//!   generation *before* its swap lands),
//! * **(b)** a superseded epoch's cache entries never serve a reply after
//!   the swap — instrumented with counting backends that observe every
//!   real evaluation,
//! * **(c)** the service's `stats()` swap/epoch counters reconcile
//!   exactly with the driver's own swap log,
//! * **(d)** the structured event log is consistent: an [`EventRing`]
//!   recorder drained by a concurrent collector thread sees every swap
//!   in the driver's log exactly once, with the correct
//!   `(from_epoch, to_epoch)` pair, and — the ring being drained faster
//!   than it fills — loses nothing (`dropped() == 0`).
//!
//! Zero requests may be dropped: every submission must produce exactly
//! one reply. `AMBIPLA_CHAOS_ITERS` overrides the default 60 swaps (CI
//! runs a bounded smoke with it; soak locally with a larger value).
//!
//! The network-mode run repeats the scenario through the full TCP stack
//! (`ambipla::net`): two tenants over loopback connections against a
//! two-shard service, with the mutator swapping both registrations and
//! every wire reply checked against its serving epoch's oracle truth.
//!
//! The tiered-evaluation run puts the same contract under the
//! materialized truth-table tier: a small (12-input) registration
//! auto-promotes *mid-run* under concurrent load, is hot-swapped after
//! promotion (dropping and rebuilding its table under each new epoch),
//! and every reply still matches its serving epoch's oracle with zero
//! drops — the tier must be invisible in the results, before, during
//! and after promotion.

use ambipla::core::{EpochOracle, GnorPla, Simulator};
use ambipla::fault::{repair_with_columns, ColumnRepairOutcome, DefectMap, FaultyGnorPla};
use ambipla::logic::espresso::espresso;
use ambipla::logic::Cover;
use ambipla::obs::{Event, EventKind, EventRing};
use ambipla::serve::{reply_channel, ServeConfig, SharedSim, SimKey, SimService};
use proptest::prelude::*;
use rand::{rngs::StdRng, Rng, SeedableRng};
use std::collections::BTreeSet;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// The harness's specification: the 3-input full adder (sum, carry).
fn spec() -> Cover {
    Cover::parse(
        "110 01\n101 01\n011 01\n111 01\n100 10\n010 10\n001 10\n111 10",
        3,
        2,
    )
    .expect("valid cover")
}

/// Number of hot swaps the chaos runs drive (`AMBIPLA_CHAOS_ITERS`
/// overrides; the acceptance floor is 50).
fn chaos_iters() -> u64 {
    std::env::var("AMBIPLA_CHAOS_ITERS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(60)
}

/// A pass-through backend that counts how many lane words it actually
/// evaluated — the probe for assertion (b): a cache hit never reaches
/// the backend, so the counter separates real evaluations from replays.
struct Counting {
    inner: SharedSim,
    words: AtomicUsize,
}

impl Counting {
    fn over(inner: SharedSim) -> Arc<Counting> {
        Arc::new(Counting {
            inner,
            words: AtomicUsize::new(0),
        })
    }

    fn words_evaluated(&self) -> usize {
        self.words.load(Ordering::Relaxed)
    }
}

impl Simulator for Counting {
    fn n_inputs(&self) -> usize {
        self.inner.n_inputs()
    }

    fn n_outputs(&self) -> usize {
        self.inner.n_outputs()
    }

    fn eval_words(&self, inputs: &[u64], out: &mut [u64], words: usize) {
        self.words.fetch_add(words, Ordering::Relaxed);
        self.inner.eval_words(inputs, out, words);
    }
}

/// Build swap candidate number `k` (all share the spec's 3×2 arity):
/// cycling through a re-minimized cover, a freshly defect-injected
/// faulty array, and a column-repaired view of a defective array —
/// the three reconfiguration shapes the issue's mutator must exercise.
fn swap_candidate(k: u64, spec: &Cover, base_faulty: &FaultyGnorPla) -> SharedSim {
    let d = base_faulty.shared_pla().dimensions();
    match k % 3 {
        0 => Arc::new(espresso(spec).0),
        1 => Arc::new(base_faulty.with_defects(DefectMap::sample(
            d.products,
            d.inputs,
            d.outputs,
            0.08,
            0.7,
            0x9e37 ^ k,
        ))),
        _ => {
            // Two spare rows and two spare columns; if this particular
            // defect draw is unrepairable, fall back to a clean ideal
            // array — the harness cares that swaps keep landing, not
            // that every draw is repairable.
            let defects = DefectMap::sample(
                spec.len() + 2,
                spec.n_inputs() + 2,
                2,
                0.05,
                0.8,
                0xc0de ^ k,
            );
            match repair_with_columns(spec, &defects) {
                ColumnRepairOutcome::Repaired(r) => Arc::new(r.faulty_view(&defects)),
                ColumnRepairOutcome::Unrepairable { .. } => Arc::new(GnorPla::from_cover(spec)),
            }
        }
    }
}

/// The tentpole scenario: ≥ `chaos_iters()` hot swaps under sustained
/// multi-threaded load, with every reply verified against the epoch that
/// served it, zero drops, exact cache invalidation and reconciled
/// counters.
#[test]
fn chaos_hot_swaps_under_load_keep_every_reply_epoch_consistent() {
    const CLIENTS: u64 = 4;
    const BURST: u64 = 32;
    let swaps = chaos_iters();
    assert!(swaps >= 50, "acceptance floor: at least 50 hot swaps");

    let spec = spec();
    let nominal = GnorPla::from_cover(&spec);
    let dims = nominal.dimensions();
    let base_faulty = FaultyGnorPla::new(
        nominal.clone(),
        DefectMap::clean(dims.products, dims.inputs, dims.outputs),
    );

    // (d) the event recorder: a lock-free ring drained by a concurrent
    // collector thread, so the producers never see a full ring and the
    // chaos run's complete structured-event history is available for the
    // consistency checks at the end.
    let ring = Arc::new(EventRing::with_capacity(1 << 14));
    let collector_stop = Arc::new(AtomicBool::new(false));
    let collector = {
        let ring = Arc::clone(&ring);
        let stop = Arc::clone(&collector_stop);
        std::thread::spawn(move || {
            let mut events: Vec<Event> = Vec::new();
            while !stop.load(Ordering::Relaxed) {
                match ring.pop() {
                    Some(e) => events.push(e),
                    None => std::thread::yield_now(),
                }
            }
            events.extend(ring.drain());
            events
        })
    };

    let service = SimService::start_with_recorder(
        ServeConfig {
            max_wait: Duration::from_micros(100),
            cache_capacity: 256,
            cache_shards: 4,
            block_words: 2,
            ..ServeConfig::default()
        },
        Arc::clone(&ring) as Arc<dyn ambipla::obs::Recorder>,
    )
    .expect("valid config");
    let initial: SharedSim = Arc::new(nominal);
    let oracle = EpochOracle::new(Arc::clone(&initial));
    let fid = service.register_sim(initial, SimKey::new(0xfad));

    let running = AtomicBool::new(true);
    let mut swap_log = Vec::new();
    let (client_submitted, epochs_seen) = std::thread::scope(|s| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|c| {
                let service = &service;
                let oracle = &oracle;
                let running = &running;
                s.spawn(move || {
                    let mut rng = StdRng::seed_from_u64(0xabad1dea ^ c);
                    let (sink, stream) = reply_channel();
                    let mut submitted = 0u64;
                    let mut epochs = BTreeSet::new();
                    loop {
                        // One more burst after the mutator stops: its
                        // last swap returned before `running` cleared,
                        // so this burst is served under the final epoch.
                        // Acquire pairs with the mutator's Release store.
                        let last = !running.load(Ordering::Acquire);
                        // Burst-submit, then drain the burst: the input
                        // bits ride in the tag, so each reply is
                        // self-describing and order never matters.
                        for _ in 0..BURST {
                            let bits = rng.gen_range(0..8u64);
                            service.submit_tagged(fid, bits, submitted << 3 | bits, &sink);
                            submitted += 1;
                        }
                        for _ in 0..BURST {
                            let reply = stream.recv();
                            let bits = reply.tag & 0b111;
                            assert!(
                                oracle.matches(reply.epoch, bits, &reply.outputs),
                                "client {c}: reply for bits {bits:03b} does not match \
                                 the truth of epoch {} that served it",
                                reply.epoch
                            );
                            epochs.insert(reply.epoch);
                        }
                        if last {
                            break;
                        }
                    }
                    (submitted, epochs)
                })
            })
            .collect();

        // The mutator: push each generation into the oracle *before* its
        // swap lands, so a concurrent client can always resolve whatever
        // epoch its reply names.
        for k in 1..=swaps {
            let candidate = swap_candidate(k, &spec, &base_faulty);
            let promised = oracle.push(Arc::clone(&candidate));
            let installed = service.swap_sim(fid, candidate);
            assert_eq!(installed, promised, "oracle and service disagree on epochs");
            assert_eq!(installed, k, "epochs count completed swaps");
            swap_log.push(installed);
        }
        // Release: a client that sees the flag cleared submits after
        // the final swap was installed.
        running.store(false, Ordering::Release);

        let mut total = 0u64;
        let mut seen = BTreeSet::new();
        for h in handles {
            let (submitted, epochs) = h.join().expect("client thread panicked");
            total += submitted;
            seen.extend(epochs);
        }
        (total, seen)
    });

    // Traffic genuinely straddled swaps: replies were served under many
    // generations, starting at 0 (pre-first-swap) and reaching the final
    // epoch (clients keep submitting after the mutator stops).
    assert!(
        epochs_seen.len() >= 2,
        "chaos run never interleaved a swap with traffic: {epochs_seen:?}"
    );
    assert_eq!(*epochs_seen.last().expect("some epoch"), swaps);
    assert!(epochs_seen.iter().all(|&e| e <= swaps));

    // (b) instrumented: after quiesce, swap in a counting probe. The
    // chaos run cached plenty of blocks under epochs 0..=swaps, yet none
    // of them may serve the probe's epoch: its traffic must reach the
    // probe backend for real, and every answer must be the probe's truth
    // under the probe's epoch. (The *exact* per-block evaluation count is
    // proven by the deterministic regression test below — here deadline
    // flushes may legitimately split blocks, so only the reach-through
    // and correctness are asserted.)
    let probe = Counting::over(Arc::new(spec.clone()));
    let probe_epoch = oracle.push(Arc::clone(&probe) as SharedSim);
    assert_eq!(
        service.swap_sim(fid, Arc::clone(&probe) as SharedSim),
        probe_epoch
    );
    let (sink, stream) = reply_channel();
    let mut probed = 0u64;
    for tag in 0..128u64 {
        service.submit_tagged(fid, tag % 8, tag, &sink);
        probed += 1;
    }
    for _ in 0..128 {
        let reply = stream.recv();
        assert_eq!(reply.epoch, probe_epoch, "no reply predates the probe swap");
        assert_eq!(reply.outputs, spec.eval_bits(reply.tag % 8));
    }
    assert!(
        probe.words_evaluated() >= 1,
        "post-swap traffic must evaluate on the new backend — a superseded \
         epoch's cache entry can never serve it"
    );

    // (c) the service's counters reconcile with the driver's log.
    let snap = service.shutdown();
    assert_eq!(swap_log.len() as u64, swaps);
    assert_eq!(
        snap.swaps,
        swaps + 1,
        "every logged swap plus the counting probe bumped an epoch"
    );
    assert!(snap.swap_flushes <= snap.swaps);
    let submitted = client_submitted + probed;
    assert_eq!(snap.requests, submitted, "every submission was counted");
    assert_eq!(
        snap.lanes_filled, submitted,
        "zero dropped requests: every submission left through a flush"
    );

    // (d) event-log consistency. The shutdown above flushed the final
    // events, so the collector now holds the complete history.
    collector_stop.store(true, Ordering::Relaxed);
    let events = collector.join().expect("collector thread panicked");
    assert_eq!(
        ring.dropped(),
        0,
        "the drained ring never filled: no event may be lost below capacity"
    );
    assert_eq!(ring.pushed(), events.len() as u64);

    // Exactly one Register for the chaos registration.
    let registers = events
        .iter()
        .filter(|e| matches!(e.kind, EventKind::Register { slot: 0 }))
        .count();
    assert_eq!(registers, 1);

    // Every swap in the driver's log — plus the counting-probe swap —
    // appears in the ring exactly once, with the correct epoch pair.
    let mut swap_pairs: Vec<(u64, u64)> = events
        .iter()
        .filter_map(|e| match e.kind {
            EventKind::Swap {
                slot: 0,
                from_epoch,
                to_epoch,
                ..
            } => Some((from_epoch, to_epoch)),
            _ => None,
        })
        .collect();
    // Swap events are emitted by the single batcher thread in order, so
    // the ring preserves their sequence — but sort anyway so the check
    // only relies on "exactly once", not on FIFO.
    swap_pairs.sort_unstable();
    let expected: Vec<(u64, u64)> = (1..=swaps + 1).map(|k| (k - 1, k)).collect();
    assert_eq!(
        swap_pairs, expected,
        "each driver-logged swap k must appear exactly once as (k-1, k)"
    );

    // Flush events reconcile with the counter fold: same lane total,
    // every flush stamped with an epoch the driver actually created.
    let mut flush_lanes = 0u64;
    for e in &events {
        if let EventKind::Flush {
            slot, epoch, lanes, ..
        } = e.kind
        {
            assert_eq!(slot, 0);
            assert!(epoch <= swaps + 1);
            flush_lanes += lanes as u64;
        }
    }
    assert_eq!(
        flush_lanes, snap.lanes_filled,
        "the event log and the counters tell the same lane story"
    );
}

/// Satellite (b) regression, fully deterministic: a swap invalidates
/// exactly the swapped registration's cache entries. The swapped slot's
/// next identical block re-evaluates (its counting probe fires), while a
/// bystander registration — same function, same traffic, different
/// [`SimKey`] — keeps replaying its warm entries untouched.
#[test]
fn swap_invalidates_exactly_the_swapped_registrations_entries() {
    let spec = spec();
    let service = SimService::start(ServeConfig {
        max_wait: Duration::from_secs(10), // only full blocks flush
        ..ServeConfig::default()
    })
    .expect("valid config");
    let swapped_gen0 = Counting::over(Arc::new(spec.clone()));
    let bystander_gen = Counting::over(Arc::new(spec.clone()));
    let sid = service.register_sim(Arc::clone(&swapped_gen0) as SharedSim, SimKey::new(1));
    let bid = service.register_sim(Arc::clone(&bystander_gen) as SharedSim, SimKey::new(2));

    let (sink, stream) = reply_channel();
    let fill = |id| {
        for tag in 0..64u64 {
            service.submit_tagged(id, tag % 8, tag, &sink);
        }
        for _ in 0..64 {
            let reply = stream.recv();
            assert_eq!(reply.outputs, spec.eval_bits(reply.tag % 8));
        }
    };

    // Warm both registrations and prove the pattern is warm: the second
    // identical block replays from cache, the probes never fire again.
    for _ in 0..2 {
        fill(sid);
        fill(bid);
    }
    assert_eq!(swapped_gen0.words_evaluated(), 1);
    assert_eq!(bystander_gen.words_evaluated(), 1);

    // Swap one registration. Its next identical block must be a real
    // evaluation on the *new* backend; the old generation's probe stays
    // quiet forever, and the bystander's warm entry still replays.
    let swapped_gen1 = Counting::over(Arc::new(spec.clone()));
    assert_eq!(
        service.swap_sim(sid, Arc::clone(&swapped_gen1) as SharedSim),
        1
    );
    fill(sid);
    fill(bid);
    assert_eq!(
        swapped_gen1.words_evaluated(),
        1,
        "the swapped slot's first post-swap block is a real evaluation"
    );
    assert_eq!(
        swapped_gen0.words_evaluated(),
        1,
        "the superseded backend is never consulted again"
    );
    assert_eq!(
        bystander_gen.words_evaluated(),
        1,
        "the bystander's warm entries survived the other slot's swap"
    );
    // And the new epoch's own entry is warm from here on.
    fill(sid);
    assert_eq!(swapped_gen1.words_evaluated(), 1);

    let snap = service.shutdown();
    assert_eq!(snap.swaps, 1);
    assert_eq!(snap.cache_misses, 3, "gen0, bystander, gen1 — one each");
    assert_eq!(snap.cache_hits, 4);
}

/// Tiered-evaluation chaos: a 12-input registration under the *auto*
/// policy promotes to the materialized truth-table tier mid-run, while
/// client threads hammer it with unique-pattern bursts, and is then
/// hot-swapped twice — through a different function and a different
/// backend type — after promotion. Asserts:
///
/// * every reply bit-matches its serving epoch's oracle truth, across
///   the batched phase, the promotion, and both post-promotion swaps,
/// * zero drops (`requests == lanes_filled`),
/// * each swap drops and rebuilds the table (the registration is
///   materialized again after every swap), and the event ring carries
///   exactly one `TierPromote` per build — the mid-run promotion plus
///   one re-materialization per swap.
#[test]
fn promotion_mid_run_and_post_promotion_swaps_stay_epoch_consistent() {
    use ambipla::benchmarks::RandomPla;
    use ambipla::serve::{Tier, TierPolicy};

    const CLIENTS: u64 = 2;
    const BURST: u64 = 32;
    const N: usize = 12;

    let gen0_cover = RandomPla::new(N, 4, 48)
        .seed(21)
        .literal_density(0.4)
        .build();
    let gen1_cover = RandomPla::new(N, 4, 48)
        .seed(22)
        .literal_density(0.4)
        .build();

    let ring = Arc::new(EventRing::with_capacity(1 << 16));
    let service = SimService::start_with_recorder(
        ServeConfig {
            max_wait: Duration::from_micros(100),
            // A low traffic floor so the run promotes quickly; the eval
            // floor (observed spend ≥ the 2^12-lane build cost) still
            // applies and is what the unique-pattern bursts must earn.
            tier_min_requests: 256,
            tier_policy: TierPolicy::Auto,
            ..ServeConfig::default()
        },
        Arc::clone(&ring) as Arc<dyn ambipla::obs::Recorder>,
    )
    .expect("valid config");

    let initial: SharedSim = Arc::new(GnorPla::from_cover(&gen0_cover));
    let oracle = EpochOracle::new(Arc::clone(&initial));
    let tid = service.register_sim(initial, SimKey::new(0x71e5));

    let running = AtomicBool::new(true);
    let client_submitted = std::thread::scope(|s| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|c| {
                let service = &service;
                let oracle = &oracle;
                let running = &running;
                s.spawn(move || {
                    let mut rng = StdRng::seed_from_u64(0x7ab1e ^ c);
                    let (sink, stream) = reply_channel();
                    let mut submitted = 0u64;
                    while running.load(Ordering::Relaxed) {
                        // Fresh 12-bit patterns every burst: the block
                        // cache cannot absorb them, so the batched phase
                        // pays real evaluations and earns the promotion.
                        for _ in 0..BURST {
                            let bits = rng.gen_range(0..1u64 << N);
                            service.submit_tagged(tid, bits, submitted << N | bits, &sink);
                            submitted += 1;
                        }
                        for _ in 0..BURST {
                            let reply = stream.recv();
                            let bits = reply.tag & ((1 << N) - 1);
                            assert!(
                                oracle.matches(reply.epoch, bits, &reply.outputs),
                                "client {c}: reply for bits {bits:012b} does not match \
                                 the truth of epoch {} that served it",
                                reply.epoch
                            );
                        }
                    }
                    submitted
                })
            })
            .collect();

        // Wait for the mid-run promotion under live traffic.
        let deadline = std::time::Instant::now() + Duration::from_secs(60);
        while service.stats_for(tid).tier != Tier::Materialized {
            assert!(
                std::time::Instant::now() < deadline,
                "the 12-input registration never promoted under sustained load"
            );
            std::thread::sleep(Duration::from_millis(1));
        }

        // Two post-promotion hot swaps: a different function, then a
        // different backend type (the raw cover, same function as gen1).
        // Auto policy re-materializes a previously-promoted registration
        // as part of the swap, so the tier must read Materialized as
        // soon as swap_sim acks.
        let candidates: [SharedSim; 2] = [
            Arc::new(GnorPla::from_cover(&gen1_cover)),
            Arc::new(gen1_cover.clone()),
        ];
        for (k, candidate) in candidates.into_iter().enumerate() {
            let promised = oracle.push(Arc::clone(&candidate));
            assert_eq!(service.swap_sim(tid, candidate), promised);
            assert_eq!(promised, k as u64 + 1);
            assert_eq!(
                service.stats_for(tid).tier,
                Tier::Materialized,
                "swap {promised} must rebuild the table under the new epoch"
            );
        }
        running.store(false, Ordering::Relaxed);
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .sum::<u64>()
    });

    let snap = service.shutdown();
    assert_eq!(snap.swaps, 2);
    assert_eq!(snap.materialized, 1);
    assert_eq!(snap.requests, client_submitted, "every submission counted");
    assert_eq!(
        snap.lanes_filled, client_submitted,
        "zero dropped requests across promotion and both swaps"
    );

    // Exactly one table build per generation that earned one: the
    // mid-run promotion plus one re-materialization per swap.
    let events = ring.drain();
    assert_eq!(ring.dropped(), 0, "the ring never filled");
    let promotes: Vec<(u64, u32)> = events
        .iter()
        .filter_map(|e| match e.kind {
            EventKind::TierPromote {
                slot: 0,
                epoch,
                inputs,
                ..
            } => Some((epoch, inputs)),
            _ => None,
        })
        .collect();
    assert_eq!(
        promotes,
        vec![(0, N as u32), (1, N as u32), (2, N as u32)],
        "one TierPromote per build, stamped with its epoch"
    );
}

/// Network-mode chaos: the same mutator pressure, but through the full
/// TCP stack — wire codec, hello authentication, per-tenant admission,
/// DRR scheduling, dispatch into a **two-shard** service — with two
/// tenants on separate loopback connections and the two target
/// registrations pinned to *different* batcher shards. Asserts:
///
/// * every wire reply bit-matches the scalar truth of the epoch that
///   served it (per-registration [`EpochOracle`]s),
/// * zero drops and zero error frames: each tenant gets exactly one
///   `Reply` per request, and the service counters agree,
/// * per-tenant counters reconcile with the driver's own log
///   (accepted == submitted == replies, no quota/queue rejects),
/// * the server's event recorder saw exactly one `Accept` and one
///   `Disconnect` per tenant and no `QuotaReject`.
#[test]
fn chaos_over_tcp_two_tenants_two_shards_stays_epoch_consistent() {
    use ambipla::net::{Frame, NetClient, NetConfig, NetServer, TenantId};
    use ambipla::serve::shard_for_key;

    const TENANTS: u64 = 2;
    const BURST: u64 = 32;
    let swaps = chaos_iters();

    let spec = spec();
    let nominal = GnorPla::from_cover(&spec);
    let dims = nominal.dimensions();
    let base_faulty = FaultyGnorPla::new(
        nominal.clone(),
        DefectMap::clean(dims.products, dims.inputs, dims.outputs),
    );

    let service = Arc::new(
        SimService::start(ServeConfig {
            shards: 2,
            max_wait: Duration::from_micros(100),
            cache_capacity: 256,
            cache_shards: 4,
            block_words: 2,
            ..ServeConfig::default()
        })
        .expect("valid config"),
    );

    // Pick one key per shard so the chaos provably spans both batcher
    // threads.
    let key_a = (0..64u64)
        .map(SimKey::new)
        .find(|&k| shard_for_key(k, 2) == 0)
        .expect("a key hashing to shard 0");
    let key_b = (0..64u64)
        .map(SimKey::new)
        .find(|&k| shard_for_key(k, 2) == 1)
        .expect("a key hashing to shard 1");

    // The server's recorder only sees connection-lifecycle events here
    // (the service itself runs unrecorded), so the ring stays tiny.
    let ring = Arc::new(EventRing::with_capacity(1024));
    let server = NetServer::bind_with_recorder(
        "127.0.0.1:0",
        Arc::clone(&service),
        NetConfig::default(),
        Arc::clone(&ring) as Arc<dyn ambipla::obs::Recorder>,
    )
    .expect("bind loopback");

    let initial_a: SharedSim = Arc::new(nominal.clone());
    let initial_b: SharedSim = Arc::new(nominal.clone());
    let oracle_a = EpochOracle::new(Arc::clone(&initial_a));
    let oracle_b = EpochOracle::new(Arc::clone(&initial_b));
    let id_a = server.register_sim(initial_a, key_a);
    let id_b = server.register_sim(initial_b, key_b);
    assert_ne!(
        service.shard_of(id_a),
        service.shard_of(id_b),
        "the two chaos registrations must live on different shards"
    );

    let addr = server.local_addr();
    let running = AtomicBool::new(true);
    let mut swap_log: Vec<(u64, u64)> = Vec::new(); // (registration index, epoch)
    let per_tenant_submitted = std::thread::scope(|s| {
        let handles: Vec<_> = (0..TENANTS)
            .map(|t| {
                let oracle_a = &oracle_a;
                let oracle_b = &oracle_b;
                let running = &running;
                s.spawn(move || {
                    let mut client =
                        NetClient::connect(addr, TenantId::new(t)).expect("connect tenant");
                    let mut rng = StdRng::seed_from_u64(0x7cb ^ t);
                    let mut submitted = 0u64;
                    let mut epochs = BTreeSet::new();
                    while running.load(Ordering::Relaxed) {
                        // Pipeline a burst across BOTH registrations, then
                        // drain it. The request id encodes (serial, bits,
                        // sim), so out-of-order replies self-describe.
                        for _ in 0..BURST {
                            let bits = rng.gen_range(0..8u64);
                            let sim_idx = submitted & 1;
                            let key = if sim_idx == 0 { key_a } else { key_b };
                            client.queue_request(key, submitted << 4 | bits << 1 | sim_idx, bits);
                            submitted += 1;
                        }
                        client.flush().expect("flush burst");
                        for _ in 0..BURST {
                            match client.recv().expect("recv reply") {
                                Frame::Reply {
                                    req_id,
                                    epoch,
                                    outputs,
                                } => {
                                    let bits = req_id >> 1 & 0b111;
                                    let oracle = if req_id & 1 == 0 { oracle_a } else { oracle_b };
                                    assert!(
                                        oracle.matches(epoch, bits, &outputs),
                                        "tenant {t}: wire reply for bits {bits:03b} does \
                                         not match the truth of epoch {epoch}"
                                    );
                                    epochs.insert(epoch);
                                }
                                other => panic!("tenant {t}: unexpected frame {other:?}"),
                            }
                        }
                    }
                    assert!(
                        epochs.len() >= 2,
                        "tenant {t} never saw a swap straddle its traffic"
                    );
                    submitted
                })
            })
            .collect();

        // The mutator alternates between the two registrations, pushing
        // each generation into its oracle before the swap lands.
        for k in 1..=swaps {
            let candidate = swap_candidate(k, &spec, &base_faulty);
            let (idx, id, oracle) = if k % 2 == 0 {
                (0, id_a, &oracle_a)
            } else {
                (1, id_b, &oracle_b)
            };
            let promised = oracle.push(Arc::clone(&candidate));
            let installed = service.swap_sim(id, candidate);
            assert_eq!(installed, promised, "oracle and service disagree on epochs");
            swap_log.push((idx, installed));
        }
        running.store(false, Ordering::Relaxed);
        handles
            .into_iter()
            .map(|h| h.join().expect("tenant thread panicked"))
            .collect::<Vec<u64>>()
    });

    // Per-tenant counters reconcile exactly with the driver's log: every
    // submission was admitted, dispatched and answered — zero drops, no
    // quota or backpressure rejects, no malformed requests.
    let stats = server.tenant_stats();
    assert_eq!(stats.len() as u64, TENANTS);
    for (t, snap) in stats.iter().enumerate() {
        let submitted = per_tenant_submitted[t];
        assert_eq!(snap.id, TenantId::new(t as u64));
        assert_eq!(snap.accepted, submitted, "tenant {t}: admissions");
        assert_eq!(snap.replies, submitted, "tenant {t}: zero drops");
        assert_eq!(snap.quota_rejected, 0);
        assert_eq!(snap.queue_full, 0);
        assert_eq!(snap.unknown_sim + snap.bad_arity, 0);
    }
    server.shutdown();

    // Connection lifecycle in the event log: one Accept and one
    // Disconnect per tenant, and never a QuotaReject.
    let events = ring.drain();
    assert_eq!(ring.dropped(), 0);
    for t in 0..TENANTS {
        let accepts = events
            .iter()
            .filter(|e| matches!(e.kind, EventKind::Accept { tenant, .. } if tenant == t))
            .count();
        let disconnects = events
            .iter()
            .filter(|e| matches!(e.kind, EventKind::Disconnect { tenant, .. } if tenant == t))
            .count();
        assert_eq!((accepts, disconnects), (1, 1), "tenant {t} lifecycle");
    }
    assert!(!events
        .iter()
        .any(|e| matches!(e.kind, EventKind::QuotaReject { .. })));

    // Service-side reconciliation across both shards.
    let total: u64 = per_tenant_submitted.iter().sum();
    let snap = Arc::try_unwrap(service)
        .unwrap_or_else(|_| panic!("all service handles released"))
        .shutdown();
    assert_eq!(snap.swaps, swaps, "every driver-logged swap landed");
    assert_eq!(swap_log.len() as u64, swaps);
    assert_eq!(snap.requests, total, "every wire request reached a shard");
    assert_eq!(snap.lanes_filled, total, "zero dropped requests");
}

/// One step of the proptest chaos driver: submit a request or hot-swap
/// the backend.
#[derive(Debug, Clone)]
enum ChaosOp {
    Submit { bits: u64 },
    Swap { seed: u64 },
}

fn arb_chaos_op() -> impl Strategy<Value = ChaosOp> {
    prop_oneof![
        4 => (0..8u64).prop_map(|bits| ChaosOp::Submit { bits }),
        1 => any::<u64>().prop_map(|seed| ChaosOp::Swap { seed }),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Satellite (1): deterministic single-threaded chaos. For arbitrary
    /// submit/swap interleavings (defect draws seeded through the rand
    /// shim, so every failure replays exactly), every reply must match
    /// the truth of the epoch that served it, requests after the final
    /// swap must be served by the final epoch, and nothing is dropped.
    #[test]
    fn arbitrary_submit_swap_interleavings_stay_epoch_consistent(
        ops in proptest::collection::vec(arb_chaos_op(), 1..120),
    ) {
        let spec = spec();
        let nominal = GnorPla::from_cover(&spec);
        let dims = nominal.dimensions();
        let base_faulty = FaultyGnorPla::new(
            nominal.clone(),
            DefectMap::clean(dims.products, dims.inputs, dims.outputs),
        );
        // A huge deadline makes flush points deterministic: full blocks,
        // swap drains and the shutdown drain — nothing else.
        let service = SimService::start(ServeConfig {
            max_wait: Duration::from_secs(10),
            cache_capacity: 8,
            cache_shards: 2,
            ..ServeConfig::default()
        })
    .expect("valid config");
        let initial: SharedSim = Arc::new(nominal);
        let oracle = EpochOracle::new(Arc::clone(&initial));
        let fid = service.register_sim(initial, SimKey::new(0xfad));

        let mut pending = Vec::new();
        let mut n_swaps = 0u64;
        let mut last_swap_at = 0usize;
        for (i, op) in ops.iter().enumerate() {
            match *op {
                ChaosOp::Submit { bits } => {
                    pending.push((i, bits, service.submit(fid, bits)));
                }
                ChaosOp::Swap { seed } => {
                    let candidate = swap_candidate(seed, &spec, &base_faulty);
                    let promised = oracle.push(Arc::clone(&candidate));
                    prop_assert_eq!(service.swap_sim(fid, candidate), promised);
                    n_swaps += 1;
                    last_swap_at = i;
                    prop_assert_eq!(promised, n_swaps);
                }
            }
        }
        let submitted = pending.len() as u64;
        // Shut down *first*: the drain answers every still-queued ticket
        // immediately instead of making them sit out the 10 s deadline.
        let snap = service.shutdown();
        for (i, bits, ticket) in pending {
            let reply = ticket.wait_reply();
            prop_assert!(
                oracle.matches(reply.epoch, bits, &reply.outputs),
                "op {}: reply for bits {:03b} does not match epoch {}",
                i, bits, reply.epoch
            );
            prop_assert!(reply.epoch <= n_swaps);
            if i > last_swap_at {
                // Deterministically: nothing flushes a post-final-swap
                // request except a full block or the shutdown drain, both
                // under the final epoch.
                prop_assert_eq!(reply.epoch, n_swaps);
            }
        }
        prop_assert_eq!(snap.swaps, n_swaps);
        prop_assert_eq!(snap.requests, submitted);
        prop_assert_eq!(snap.lanes_filled, submitted, "zero drops");
        prop_assert!(snap.swap_flushes <= snap.swaps);
    }
}
