//! Runtime chaos harness for the self-healing serve layer: deterministic
//! writer-thread faults ([`ChaosSchedule`]) driven through kill/heal sweeps
//! against a sequential oracle.
//!
//! * **every transient fault heals** — the ≥50-point sweep (panic×1,
//!   panic×2, stalled publish, slow fsync × uniform/skewed/burst streams)
//!   must leave every shard `Healthy` and accepting writes, with **zero
//!   acked-op loss**: the final answers equal the oracle replay of every
//!   acked op (WAL-before-ack makes even a twice-panicking batch
//!   recoverable in place);
//! * **determinism** — the same fault-schedule seed against the same ingest
//!   sequence reproduces the identical fault log and heal counters;
//! * **reads during recovery** — while a shard is `Recovering`, snapshots
//!   keep serving, and each one equals the oracle replay of its own
//!   generation's op prefix;
//! * **degradation is bounded and explicit** — a stalled publication trips
//!   [`TreeServer::read_with_deadline`], a wedged queue sheds at
//!   [`ServeConfig::shed_depth`] and is retriable via [`RetryPolicy`], and a
//!   non-durable shard that must drop a poison batch reports it as
//!   [`ServeError::Degraded`] **before** any ack.
//!
//! The sweep writes `target/chaos-heal-report.txt` (one line per fault
//! point), which CI uploads as an artifact.

use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;
use treenum::automata::queries;
use treenum::core::{QueryPlan, TreeEnumerator};
use treenum::serve::{
    ChaosFault, ChaosSchedule, DurabilityConfig, RetryPolicy, ServeConfig, ServeError, ShardHealth,
    SyncPolicy, TreeServer,
};
use treenum::trees::generate::{random_tree, TreeShape};
use treenum::trees::valuation::Assignment;
use treenum::trees::{Alphabet, EditFeed, EditOp, EditStream, Label, Var};
use treenum::wal::{DiskFs, FailpointFs, Storage};

/// Silences the panic hook for injected chaos panics (their payloads carry
/// the `"chaos: "` prefix); real panics keep the default backtrace.
fn quiet_chaos_panics() {
    use std::sync::Once;
    static ONCE: Once = Once::new();
    ONCE.call_once(|| {
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            let injected = info
                .payload()
                .downcast_ref::<String>()
                .is_some_and(|s| s.starts_with("chaos: "));
            if !injected {
                prev(info);
            }
        }));
    });
}

fn sorted(mut v: Vec<Assignment>) -> Vec<Assignment> {
    v.sort();
    v
}

fn select_b(sigma: &Alphabet) -> treenum::automata::StepwiseTva {
    queries::select_label(sigma.len(), sigma.get("b").unwrap(), Var(0))
}

fn temp_dir(tag: &str) -> PathBuf {
    static SEQ: AtomicU64 = AtomicU64::new(0);
    let n = SEQ.fetch_add(1, Ordering::Relaxed);
    std::env::temp_dir().join(format!("treenum-chaos-{tag}-{}-{n}", std::process::id()))
}

type StreamCtor = fn(Vec<Label>, u64) -> EditStream;

fn strategies() -> [(&'static str, StreamCtor); 3] {
    [
        ("uniform", EditStream::balanced_mix),
        ("skewed", EditStream::skewed),
        ("burst", EditStream::burst),
    ]
}

/// Sequential-oracle answers after applying `ops` to `tree` in order.
fn oracle_answers(
    tree: &treenum::trees::UnrankedTree,
    ops: &[EditOp],
    plan: &Arc<QueryPlan>,
) -> Vec<Assignment> {
    let mut t = tree.clone();
    for op in ops {
        t.apply(op);
    }
    sorted(TreeEnumerator::with_plan(t, Arc::clone(plan)).assignments())
}

/// The acceptance sweep: 57 deterministic fault points — {panic×1, panic×2,
/// stalled publish} × 6 batch positions × 3 stream strategies, plus a
/// slow-fsync arm per strategy.  Flush-per-op ingest makes batch numbers
/// deterministic (batch *k* is exactly op *k*), every barrier must ack `Ok`
/// (WAL-before-ack: even the twice-panicking batch is already durable, so
/// the heal recovers it and **nothing acked is lost**), and every shard must
/// end `Healthy` and accepting writes.
#[test]
fn chaos_sweep_every_transient_fault_heals_with_zero_acked_loss() {
    quiet_chaos_panics();
    let mut sigma = Alphabet::from_names(["a", "b", "c"]);
    let labels: Vec<Label> = sigma.labels().collect();
    let query = select_b(&sigma);
    let plan = QueryPlan::for_query(&query, sigma.len());
    let mut report_lines = vec![
        "chaos heal sweep: SyncPolicy::Always, flush-per-op, snapshot every 5 generations"
            .to_owned(),
        "strategy fault batch acked generation panics heals dropped health".to_owned(),
    ];
    let mut points = 0usize;
    for (si, (sname, make)) in strategies().into_iter().enumerate() {
        let tree = random_tree(&mut sigma, 60, TreeShape::Random, 101 + si as u64);
        let mut feed = EditFeed::new(&tree, make(labels.clone(), 113 + si as u64));
        let ops: Vec<EditOp> = (0..23).map(|_| feed.next_op()).collect();
        type FaultKind = (&'static str, fn(u64) -> ChaosFault);
        let kinds: [FaultKind; 3] = [
            ("panic-x1", |b| ChaosFault::PanicOnApply {
                batch: b,
                times: 1,
            }),
            ("panic-x2", |b| ChaosFault::PanicOnApply {
                batch: b,
                times: 2,
            }),
            ("stall", |b| ChaosFault::StallPublish {
                batch: b,
                stall: Duration::from_millis(20),
            }),
        ];
        for (kname, fault) in kinds {
            for batch in [1u64, 2, 5, 9, 14, 20] {
                points += 1;
                let dir = temp_dir(&format!("sweep-{sname}-{kname}-{batch}"));
                let durability = DurabilityConfig {
                    sync: SyncPolicy::Always,
                    snapshot_every: 5,
                    ..DurabilityConfig::new(&dir)
                };
                let sched = Arc::new(ChaosSchedule::new().with(fault(batch)));
                let server = TreeServer::with_options(
                    vec![tree.clone()],
                    Arc::clone(&plan),
                    ServeConfig::default(),
                    Some((&durability, Arc::new(DiskFs) as Arc<dyn Storage>)),
                    Some(Arc::clone(&sched)),
                )
                .unwrap();
                let tag = format!("{sname}/{kname}/batch={batch}");
                let mut acked = 0u64;
                for &op in &ops[..20] {
                    server
                        .ingest(0, op)
                        .unwrap_or_else(|e| panic!("{tag}: ingest {e}"));
                    server
                        .flush(0)
                        .unwrap_or_else(|e| panic!("{tag}: flush acked {e}"));
                    acked += 1;
                }
                assert!(sched.fired() >= 1, "{tag}: the armed fault must fire");
                let stats = server.shard_stats(0);
                assert_eq!(stats.health, ShardHealth::Healthy, "{tag}");
                assert_eq!(
                    stats.ops_dropped_unacked, 0,
                    "{tag}: a durable shard never drops (WAL-before-ack)"
                );
                match kname {
                    "panic-x1" => {
                        assert_eq!(stats.panics_caught, 1, "{tag}");
                        assert_eq!(stats.heals, 0, "{tag}: the in-place retry suffices");
                    }
                    "panic-x2" => {
                        assert_eq!(stats.panics_caught, 2, "{tag}");
                        assert_eq!(stats.heals, 1, "{tag}: the second panic heals from storage");
                    }
                    _ => {
                        assert_eq!(stats.panics_caught, 0, "{tag}");
                        assert_eq!(stats.heals, 0, "{tag}");
                    }
                }
                assert_eq!(
                    sorted(server.snapshot(0).assignments()),
                    oracle_answers(&tree, &ops[..20], &plan),
                    "{tag}: answers must equal the oracle replay of every acked op"
                );
                // The healed shard keeps accepting (and making durable) writes.
                for &op in &ops[20..] {
                    server
                        .ingest(0, op)
                        .unwrap_or_else(|e| panic!("{tag}: post-heal ingest {e}"));
                }
                server
                    .flush(0)
                    .unwrap_or_else(|e| panic!("{tag}: post-heal flush {e}"));
                assert_eq!(
                    sorted(server.snapshot(0).assignments()),
                    oracle_answers(&tree, &ops, &plan),
                    "{tag}: post-heal writes"
                );
                let fin = server.shard_stats(0);
                report_lines.push(format!(
                    "{sname} {kname} {batch} {acked} {} {} {} {} {:?}",
                    fin.generation,
                    fin.panics_caught,
                    fin.heals,
                    fin.ops_dropped_unacked,
                    fin.health
                ));
                drop(server);
                std::fs::remove_dir_all(&dir).ok();
            }
        }
        // Slow-fsync arm: the disk crawls but nothing fails — every ack
        // arrives, just later.  One point per strategy.
        points += 1;
        let dir = temp_dir(&format!("sweep-{sname}-slowfsync"));
        let durability = DurabilityConfig {
            sync: SyncPolicy::Always,
            snapshot_every: 5,
            ..DurabilityConfig::new(&dir)
        };
        let fs = FailpointFs::counting().with_slow_sync(Duration::from_millis(2));
        let server = TreeServer::with_options(
            vec![tree.clone()],
            Arc::clone(&plan),
            ServeConfig::default(),
            Some((&durability, Arc::new(fs) as Arc<dyn Storage>)),
            None,
        )
        .unwrap();
        for &op in &ops[..20] {
            server.ingest(0, op).unwrap();
            server.flush(0).unwrap();
        }
        let stats = server.shard_stats(0);
        assert_eq!(stats.health, ShardHealth::Healthy, "{sname}/slow-fsync");
        assert_eq!(stats.ops_dropped_unacked, 0, "{sname}/slow-fsync");
        assert_eq!(
            sorted(server.snapshot(0).assignments()),
            oracle_answers(&tree, &ops[..20], &plan),
            "{sname}/slow-fsync"
        );
        report_lines.push(format!(
            "{sname} slow-fsync - 20 {} 0 0 0 Healthy",
            stats.generation
        ));
        drop(server);
        std::fs::remove_dir_all(&dir).ok();
    }
    assert!(points >= 50, "acceptance floor: got {points} fault points");
    report_lines.push(format!("total fault points: {points}"));
    std::fs::create_dir_all("target").ok();
    std::fs::write(
        "target/chaos-heal-report.txt",
        report_lines.join("\n") + "\n",
    )
    .expect("write chaos heal report");
}

/// A panic inside the off-path catch-up (the lag replay into the retired
/// copy after an ack) is contained where it happens: the writer discards
/// that copy and rebuilds its writable copy from the published tree, which
/// already holds every batch the lag carried.  No op is dropped, the durable
/// shard does **not** heal from storage, and the answers equal the
/// sequential oracle replay of every acked op.
#[test]
fn catch_up_panic_rebuilds_without_healing_or_losing_an_acked_op() {
    quiet_chaos_panics();
    let mut sigma = Alphabet::from_names(["a", "b", "c"]);
    let labels: Vec<Label> = sigma.labels().collect();
    let query = select_b(&sigma);
    let plan = QueryPlan::for_query(&query, sigma.len());
    for (si, (sname, make)) in strategies().into_iter().enumerate() {
        let tree = random_tree(&mut sigma, 60, TreeShape::Random, 131 + si as u64);
        let mut feed = EditFeed::new(&tree, make(labels.clone(), 137 + si as u64));
        let ops: Vec<EditOp> = (0..23).map(|_| feed.next_op()).collect();
        for batch in [1u64, 2, 5, 9, 14] {
            let tag = format!("{sname}/catch-up/batch={batch}");
            let dir = temp_dir(&format!("catch-up-{sname}-{batch}"));
            let durability = DurabilityConfig {
                sync: SyncPolicy::Always,
                snapshot_every: 5,
                ..DurabilityConfig::new(&dir)
            };
            let sched = Arc::new(ChaosSchedule::new().with(ChaosFault::PanicOnCatchUp { batch }));
            let server = TreeServer::with_options(
                vec![tree.clone()],
                Arc::clone(&plan),
                ServeConfig::default(),
                Some((&durability, Arc::new(DiskFs) as Arc<dyn Storage>)),
                Some(Arc::clone(&sched)),
            )
            .unwrap();
            for &op in &ops[..20] {
                server.ingest(0, op).unwrap();
                server
                    .flush(0)
                    .unwrap_or_else(|e| panic!("{tag}: flush acked {e}"));
            }
            assert_eq!(sched.fired(), 1, "{tag}: the armed fault must fire once");
            let stats = server.shard_stats(0);
            assert_eq!(stats.health, ShardHealth::Healthy, "{tag}");
            assert_eq!(stats.panics_caught, 1, "{tag}");
            assert_eq!(stats.heals, 0, "{tag}: a catch-up panic must not heal");
            assert_eq!(
                stats.rebuild_fallbacks, 1,
                "{tag}: one rebuild from the front"
            );
            assert_eq!(stats.ops_dropped_unacked, 0, "{tag}");
            assert_eq!(stats.edits_applied, 20, "{tag}");
            assert!(
                stats.off_path_catch_ups >= 18,
                "{tag}: every other ack is followed by an off-path catch-up, got {}",
                stats.off_path_catch_ups
            );
            let snap = server.snapshot(0);
            snap.check_consistency();
            assert_eq!(
                sorted(snap.assignments()),
                oracle_answers(&tree, &ops[..20], &plan),
                "{tag}: answers must equal the oracle replay of every acked op"
            );
            drop(snap);
            // The rebuilt copy keeps taking writes.
            server.ingest_batch(0, &ops[20..]).unwrap();
            server.flush(0).unwrap();
            assert_eq!(
                sorted(server.snapshot(0).assignments()),
                oracle_answers(&tree, &ops, &plan),
                "{tag}: writes after the rebuild"
            );
            assert_eq!(server.shard_stats(0).heals, 0, "{tag}");
            drop(server);
            std::fs::remove_dir_all(&dir).ok();
        }
    }
}

/// Chaos determinism: the same fault-schedule seed against the same
/// flush-per-op ingest sequence yields the identical fault event log, heal
/// counters and final answers; a different seed yields a different log.
#[test]
fn same_seed_reproduces_an_identical_heal_report() {
    quiet_chaos_panics();
    let mut sigma = Alphabet::from_names(["a", "b", "c"]);
    let labels: Vec<Label> = sigma.labels().collect();
    let query = select_b(&sigma);
    let plan = QueryPlan::for_query(&query, sigma.len());
    let tree = random_tree(&mut sigma, 50, TreeShape::Random, 131);

    let run_once = |seed: u64| {
        let mut feed = EditFeed::new(&tree, EditStream::skewed(labels.clone(), 137));
        let ops: Vec<EditOp> = (0..15).map(|_| feed.next_op()).collect();
        let dir = temp_dir(&format!("determinism-{seed}"));
        let durability = DurabilityConfig {
            sync: SyncPolicy::Always,
            snapshot_every: 4,
            ..DurabilityConfig::new(&dir)
        };
        let sched = Arc::new(ChaosSchedule::seeded(seed, 6, 15, Duration::from_millis(2)));
        let server = TreeServer::with_options(
            vec![tree.clone()],
            Arc::clone(&plan),
            ServeConfig::default(),
            Some((&durability, Arc::new(DiskFs) as Arc<dyn Storage>)),
            Some(Arc::clone(&sched)),
        )
        .unwrap();
        for &op in &ops {
            server.ingest(0, op).unwrap();
            server.flush(0).unwrap();
        }
        let stats = server.shard_stats(0);
        let out = (
            sched.events(),
            stats.panics_caught,
            stats.heals,
            stats.ops_dropped_unacked,
            stats.generation,
            sorted(server.snapshot(0).assignments()),
        );
        drop(server);
        std::fs::remove_dir_all(&dir).ok();
        out
    };

    let a = run_once(0xC4A05);
    let b = run_once(0xC4A05);
    let c = run_once(0x0DDBA11);
    assert!(
        !a.0.is_empty(),
        "the seeded schedule must fire at least once"
    );
    assert_eq!(a, b, "same seed, same ingest => identical heal report");
    assert_ne!(
        a.0, c.0,
        "a different seed must produce a different fault log"
    );
}

/// Reads never stop during an in-process heal: with snapshot persistence
/// slowed to widen the recovery window, a reader observes the shard in
/// `Recovering` while its snapshots keep serving — and each snapshot equals
/// the sequential oracle of its own generation's op prefix (flush-per-op:
/// generation *g* ↔ the first *g* ops).
#[test]
fn reads_during_recovery_serve_the_generation_prefix() {
    quiet_chaos_panics();
    let mut sigma = Alphabet::from_names(["a", "b", "c"]);
    let labels: Vec<Label> = sigma.labels().collect();
    let query = select_b(&sigma);
    let plan = QueryPlan::for_query(&query, sigma.len());
    let tree = random_tree(&mut sigma, 60, TreeShape::Random, 149);
    let mut feed = EditFeed::new(&tree, EditStream::burst(labels, 151));
    let ops: Vec<EditOp> = (0..6).map(|_| feed.next_op()).collect();
    let dir = temp_dir("reads-during-heal");
    let durability = DurabilityConfig {
        sync: SyncPolicy::Always,
        snapshot_every: 1000, // regular flushes never snapshot
        ..DurabilityConfig::new(&dir)
    };
    // Heal persists a fresh snapshot (two write_atomic steps), so slowing
    // those steps widens the `Recovering` window to ~300ms without touching
    // the WAL append path.
    let fs = FailpointFs::counting().with_slow_atomic(Duration::from_millis(150));
    let sched =
        Arc::new(ChaosSchedule::new().with(ChaosFault::PanicOnApply { batch: 6, times: 2 }));
    let server = Arc::new(
        TreeServer::with_options(
            vec![tree.clone()],
            Arc::clone(&plan),
            ServeConfig::default(),
            Some((&durability, Arc::new(fs) as Arc<dyn Storage>)),
            Some(sched),
        )
        .unwrap(),
    );
    for &op in &ops[..5] {
        server.ingest(0, op).unwrap();
        server.flush(0).unwrap();
    }
    // Reader: watch for the Recovering window and sample snapshots inside it.
    let watcher = {
        let server = Arc::clone(&server);
        std::thread::spawn(move || {
            let mut saw_recovering = false;
            let mut sampled = Vec::new();
            for _ in 0..4000 {
                let health = server.shard_stats(0).health;
                if health == ShardHealth::Recovering {
                    saw_recovering = true;
                    let snap = server.snapshot(0);
                    sampled.push((snap.generation(), sorted(snap.assignments())));
                }
                if saw_recovering && health == ShardHealth::Healthy {
                    break;
                }
                std::thread::sleep(Duration::from_millis(1));
            }
            (saw_recovering, sampled)
        })
    };
    // Op 6 is the twice-panicking batch: its barrier ack rides through the
    // whole heal and must still come back Ok (the op was durable pre-panic).
    server.ingest(0, ops[5]).unwrap();
    let generation = server.flush(0).unwrap();
    assert_eq!(generation, 6);
    let (saw_recovering, sampled) = watcher.join().unwrap();
    assert!(
        saw_recovering,
        "the watcher must catch the shard in Recovering (300ms window)"
    );
    assert!(!sampled.is_empty());
    for (generation, answers) in &sampled {
        // Samples race the tail of the heal: generation 5 is the pre-fault
        // state served throughout recovery; generation 6 is the healed
        // publish (which lands just before the Healthy flip).  Both must be
        // exact generation prefixes.
        let g = *generation as usize;
        assert!(g <= 6, "impossible generation {g} observed mid-heal");
        assert_eq!(
            answers,
            &oracle_answers(&tree, &ops[..g], &plan),
            "mid-heal snapshot at generation {g} must equal its own op prefix"
        );
    }
    let stats = server.shard_stats(0);
    assert_eq!(stats.heals, 1);
    assert_eq!(stats.ops_dropped_unacked, 0);
    assert_eq!(stats.health, ShardHealth::Healthy);
    assert_eq!(
        sorted(server.snapshot(0).assignments()),
        oracle_answers(&tree, &ops, &plan)
    );
    drop(server);
    std::fs::remove_dir_all(&dir).ok();
}

/// A stalled publication (writer asleep holding the front lock) bounds
/// *deadline* reads — [`ServeError::DeadlineExceeded`], counted — without
/// affecting correctness: once the stall clears, reads serve the published
/// generation as usual.
#[test]
fn stalled_publication_trips_deadline_reads_only() {
    quiet_chaos_panics();
    let mut sigma = Alphabet::from_names(["a", "b", "c"]);
    let labels: Vec<Label> = sigma.labels().collect();
    let query = select_b(&sigma);
    let plan = QueryPlan::for_query(&query, sigma.len());
    let tree = random_tree(&mut sigma, 40, TreeShape::Random, 163);
    let mut feed = EditFeed::new(&tree, EditStream::skewed(labels, 167));
    let sched = Arc::new(ChaosSchedule::new().with(ChaosFault::StallPublish {
        batch: 1,
        stall: Duration::from_millis(400),
    }));
    let server = TreeServer::with_options(
        vec![tree.clone()],
        Arc::clone(&plan),
        ServeConfig::default(),
        None,
        Some(Arc::clone(&sched)),
    )
    .unwrap();
    let op = feed.next_op();
    server.ingest(0, op).unwrap();
    // Poll with zero-deadline reads until one lands inside the stall window
    // (the writer picks the op up within max_latency and then sleeps 400ms
    // holding the front write lock).
    let mut tripped = false;
    for _ in 0..2000 {
        if server.read_with_deadline(0, Duration::ZERO).is_err() {
            tripped = true;
            break;
        }
        std::thread::sleep(Duration::from_micros(200));
    }
    assert!(
        tripped,
        "a zero-deadline read must fail while the publish is stalled"
    );
    assert!(server.shard_stats(0).deadline_reads_timed_out >= 1);
    // The barrier drains the stall; afterwards deadline reads succeed and
    // the published state is exactly the oracle's.
    server.flush(0).unwrap();
    assert_eq!(sched.fired(), 1);
    let snap = server
        .read_with_deadline(0, Duration::from_secs(5))
        .expect("healthy shard serves within any reasonable deadline");
    assert_eq!(snap.generation(), 1);
    assert_eq!(
        sorted(snap.assignments()),
        oracle_answers(&tree, &[op], &plan)
    );
    assert_eq!(server.shard_stats(0).health, ShardHealth::Healthy);
}

/// Without a WAL there is nowhere to replay a twice-panicking batch from:
/// the supervisor drops it **before any ack**, counts it, and reports the
/// loss to the covering barrier as [`ServeError::Degraded`] — then keeps
/// serving, with the dropped op absent from the state (= oracle without it).
#[test]
fn non_durable_double_panic_degrades_explicitly_and_recovers() {
    quiet_chaos_panics();
    let mut sigma = Alphabet::from_names(["a", "b", "c"]);
    let labels: Vec<Label> = sigma.labels().collect();
    let query = select_b(&sigma);
    let plan = QueryPlan::for_query(&query, sigma.len());
    let tree = random_tree(&mut sigma, 40, TreeShape::Random, 173);
    let mut feed = EditFeed::new(&tree, EditStream::balanced_mix(labels, 179));
    let ops: Vec<EditOp> = (0..5).map(|_| feed.next_op()).collect();
    let sched =
        Arc::new(ChaosSchedule::new().with(ChaosFault::PanicOnApply { batch: 3, times: 2 }));
    let server = TreeServer::with_options(
        vec![tree.clone()],
        Arc::clone(&plan),
        ServeConfig::default(),
        None,
        Some(sched),
    )
    .unwrap();
    let mut applied = Vec::new();
    for (i, &op) in ops.iter().enumerate() {
        server.ingest(0, op).unwrap();
        match server.flush(0) {
            Ok(_) => applied.push(op),
            Err(ServeError::Degraded) => {
                assert_eq!(i, 2, "exactly batch 3 is the poison batch");
            }
            Err(e) => panic!("unexpected ack: {e}"),
        }
    }
    let stats = server.shard_stats(0);
    assert_eq!(stats.ops_dropped_unacked, 1, "the poison op is counted");
    assert_eq!(stats.panics_caught, 2);
    assert_eq!(stats.heals, 0, "nothing to heal from without a WAL");
    assert_eq!(
        stats.health,
        ShardHealth::Healthy,
        "degraded, then back to healthy"
    );
    assert_eq!(applied.len(), 4);
    assert_eq!(
        sorted(server.snapshot(0).assignments()),
        oracle_answers(&tree, &applied, &plan),
        "state = oracle over exactly the Ok-acked ops"
    );
}

/// Load shedding and caller-side retry under a wedged writer: once the
/// queue depth reaches [`ServeConfig::shed_depth`], ingest fails at the
/// door (counted in `load_shed`); after the wedge clears, a [`RetryPolicy`]
/// drives the same ops through and the final state matches the oracle over
/// every op that was ever `Ok`-acked into the queue.
#[test]
fn load_shed_at_the_door_and_retry_policy_recover_the_stream() {
    quiet_chaos_panics();
    let mut sigma = Alphabet::from_names(["a", "b", "c"]);
    let labels: Vec<Label> = sigma.labels().collect();
    let query = select_b(&sigma);
    let plan = QueryPlan::for_query(&query, sigma.len());
    let tree = random_tree(&mut sigma, 40, TreeShape::Random, 191);
    let mut feed = EditFeed::new(&tree, EditStream::burst(labels, 193));
    let ops: Vec<EditOp> = (0..40).map(|_| feed.next_op()).collect();
    let cfg = ServeConfig {
        queue_capacity: 1,
        shed_depth: 1,
        ingest_timeout: Duration::ZERO, // fail-fast: shed or full, never wait
        reclaim_patience: Duration::from_millis(500),
        // Flushes of at most 8 ops: the writer publishes within the first
        // 8 ops and wedges on the second flush's reclaim, long before all
        // 40 ops are in.  A larger batch could absorb the whole stream into
        // one flush that never needs the held copy.
        ..ServeConfig::fixed(8)
    };
    let server = TreeServer::with_plan(vec![tree.clone()], Arc::clone(&plan), cfg);
    // Wedge the writer: hold generation 0 so the first publish retires a
    // copy that can never be reclaimed until the handle drops.
    let held = server.snapshot(0);
    let mut accepted = Vec::new();
    let mut idx = 0;
    let mut rejections = 0u32;
    while idx < ops.len() && rejections < 10 {
        match server.ingest(0, ops[idx]) {
            Ok(()) => {
                accepted.push(ops[idx]);
                idx += 1;
            }
            Err(ServeError::Backpressure) => rejections += 1,
            Err(e) => panic!("unexpected ingest error {e}"),
        }
    }
    assert!(rejections >= 1, "the wedged queue must reject");
    let wedged = server.shard_stats(0);
    assert!(
        wedged.load_shed >= 1,
        "with shed_depth=1 a standing queue occupant sheds the next ingest \
         (load_shed={}, backpressure_timeouts={})",
        wedged.load_shed,
        wedged.backpressure_timeouts
    );
    // Release the wedge; a jittered retry policy pushes the rest through.
    drop(held);
    let retry = RetryPolicy {
        budget: Duration::from_secs(10),
        ..RetryPolicy::default()
    };
    while idx < ops.len() {
        retry
            .run(|| server.ingest(0, ops[idx]))
            .expect("retry within budget once the wedge is gone");
        accepted.push(ops[idx]);
        idx += 1;
    }
    server.flush(0).unwrap();
    assert_eq!(
        sorted(server.snapshot(0).assignments()),
        oracle_answers(&tree, &accepted, &plan),
        "shed + retry preserves exact order of the accepted stream"
    );
    assert_eq!(server.shard_stats(0).health, ShardHealth::Healthy);
}
