//! Kill-and-recover invariants of the durable serving layer
//! (`treenum_serve` + `treenum_wal`):
//!
//! * **clean restart** — a durable server shut down cleanly and recovered
//!   serves exactly the state a sequential oracle predicts from the full op
//!   stream, for every edit-stream strategy, and keeps accepting writes;
//! * **no acked op is ever lost** — with [`SyncPolicy::Always`], whatever
//!   write step a crash fault (kill or torn write) lands on — mid-WAL-append
//!   or mid-snapshot-write — recovery reproduces at least the acked op
//!   prefix, and its answers equal the oracle replay of the recovered
//!   prefix;
//! * **graceful quarantine** — silent corruption that recovery cannot
//!   repair (an intact record *after* a damaged one) yields a read-only
//!   quarantined shard with a reported reason, never a panic;
//! * **explicit backpressure** — a full ingest queue surfaces
//!   [`ServeError::Backpressure`] to the caller within the configured
//!   timeout instead of blocking unboundedly, and a retry succeeds.
//!
//! The fault-injection sweep writes `target/fault-injection-report.txt`
//! (one line per kill point), which CI uploads as an artifact.

use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;
use treenum::automata::queries;
use treenum::core::{QueryPlan, TreeEnumerator};
use treenum::serve::{
    DurabilityConfig, ServeConfig, ServeError, ShardHealth, SyncPolicy, TreeServer,
};
use treenum::trees::generate::{random_tree, TreeShape};
use treenum::trees::valuation::Assignment;
use treenum::trees::{Alphabet, EditFeed, EditOp, EditStream, Label, Var};
use treenum::wal::{DiskFs, FailpointFs, FaultKind};

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
    std::env::temp_dir().join(format!("treenum-durable-{tag}-{}-{n}", std::process::id()))
}

/// An `EditStream` constructor (uniform/skewed/burst) keyed by labels + seed.
type StreamCtor = fn(Vec<Label>, u64) -> EditStream;

/// The three edit-stream strategies of the acceptance criterion.
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

/// A durable server survives a clean shutdown: recovery reproduces the full
/// op stream for every strategy, reports no quarantine, and the recovered
/// server keeps accepting (and making durable) new writes.
#[test]
fn clean_restart_recovers_every_op_across_strategies() {
    let mut sigma = Alphabet::from_names(["a", "b", "c"]);
    let labels: Vec<Label> = sigma.labels().collect();
    let query = select_b(&sigma);
    let plan = QueryPlan::for_query(&query, sigma.len());
    for (si, (sname, make)) in strategies().into_iter().enumerate() {
        let tree = random_tree(&mut sigma, 120, TreeShape::Random, 31 + si as u64);
        let mut feed = EditFeed::new(&tree, make(labels.clone(), 71 + si as u64));
        let ops: Vec<EditOp> = (0..250).map(|_| feed.next_op()).collect();
        let dir = temp_dir(&format!("clean-{sname}"));
        let durability = DurabilityConfig {
            snapshot_every: 4,
            segment_bytes: 512, // force frequent segment rollover
            ..DurabilityConfig::new(&dir)
        };
        {
            let server = TreeServer::with_durability_on(
                vec![tree.clone()],
                Arc::clone(&plan),
                ServeConfig::default(),
                &durability,
                Arc::new(DiskFs),
            )
            .unwrap();
            for chunk in ops.chunks(25) {
                server.ingest_batch(0, chunk).unwrap();
                server.flush(0).unwrap();
            }
            let stats = server.shard_stats(0);
            assert_eq!(stats.wal_records, 250, "{sname}: every op must hit the WAL");
            assert_eq!(
                stats.wal_bytes,
                250 * 25, // RECORD_HEADER (16) + encoded op (9) per record
                "{sname}: framed WAL byte accounting"
            );
            assert!(
                stats.snapshots_persisted >= 1,
                "{sname}: generation boundaries must persist snapshots"
            );
            assert_eq!(stats.wal_errors, 0, "{sname}");
            assert_eq!(stats.snapshot_errors, 0, "{sname}");
            assert_ne!(stats.health, ShardHealth::Quarantined, "{sname}");
        }
        let (server, outcome) = TreeServer::recover_with_storage(
            Arc::clone(&plan),
            ServeConfig::default(),
            &durability,
            Arc::new(DiskFs),
        )
        .unwrap();
        assert_eq!(outcome.quarantined(), 0, "{sname}: clean lineage");
        let report = &outcome.shards[0];
        assert_eq!(
            report.ops_recovered, 250,
            "{sname}: the full stream is the durable prefix"
        );
        assert!(report.quarantined.is_none(), "{sname}");
        assert!(
            !report.torn_tail,
            "{sname}: clean shutdown leaves no torn tail"
        );
        assert_eq!(
            sorted(server.snapshot(0).assignments()),
            oracle_answers(&tree, &ops, &plan),
            "{sname}: recovered answers must equal the sequential oracle"
        );
        // The recovered incarnation keeps working — and stays durable.
        let more: Vec<EditOp> = (0..20).map(|_| feed.next_op()).collect();
        server.ingest_batch(0, &more).unwrap();
        server.flush(0).unwrap();
        let mut all = ops.clone();
        all.extend_from_slice(&more);
        assert_eq!(
            sorted(server.snapshot(0).assignments()),
            oracle_answers(&tree, &all, &plan),
            "{sname}: post-recovery ingest"
        );
        assert_eq!(server.shard_stats(0).wal_records, 20, "{sname}");
        std::fs::remove_dir_all(&dir).ok();
    }
}

/// The acceptance-criterion sweep: crash faults (lost write, torn write) at
/// spread-out write steps — landing on WAL appends, snapshot temp-writes and
/// snapshot renames — across ≥200-op streams of all three strategies.  After
/// every crash, recovery must come back un-quarantined with the acked op
/// prefix intact and answers equal to the oracle replay of the recovered
/// prefix.  Writes the per-kill-point report CI uploads.
#[test]
fn randomized_kill_points_never_lose_an_acked_op() {
    let mut sigma = Alphabet::from_names(["a", "b", "c"]);
    let labels: Vec<Label> = sigma.labels().collect();
    let query = select_b(&sigma);
    let plan = QueryPlan::for_query(&query, sigma.len());
    let mut report_lines = vec![
        "fault-injection sweep: SyncPolicy::Always, flush-per-op, snapshot every 3 generations"
            .to_owned(),
        "strategy kind kill_step ops_acked ops_recovered torn_tail bytes_dropped".to_owned(),
    ];
    let mut snapshot_kills = 0u32;
    for (si, (sname, make)) in strategies().into_iter().enumerate() {
        let tree = random_tree(&mut sigma, 80, TreeShape::Random, 43 + si as u64);
        let mut feed = EditFeed::new(&tree, make(labels.clone(), 83 + si as u64));
        let ops: Vec<EditOp> = (0..220).map(|_| feed.next_op()).collect();
        for kind in [FaultKind::Kill, FaultKind::Truncate] {
            // Deterministic spread of kill points: early, the whole
            // append/temp-write/rename phase pattern, and deep into the
            // stream (the per-3-generations snapshot cadence means
            // consecutive k values land on different step kinds).
            for k in [2u64, 3, 5, 8, 12, 17, 23, 30, 38, 47, 57, 68, 80, 120, 200] {
                let dir = temp_dir(&format!("kill-{sname}-{k}"));
                let durability = DurabilityConfig {
                    sync: SyncPolicy::Always,
                    snapshot_every: 3,
                    segment_bytes: 256,
                    ..DurabilityConfig::new(&dir)
                };
                let fs = FailpointFs::armed(kind, k);
                let server = TreeServer::with_durability_on(
                    vec![tree.clone()],
                    Arc::clone(&plan),
                    ServeConfig::default(),
                    &durability,
                    Arc::new(fs.clone()),
                )
                .unwrap();
                let mut acked = 0u64;
                for &op in &ops {
                    match server.ingest(0, op) {
                        Ok(()) => {}
                        Err(ServeError::Quarantined) => break,
                        Err(e) => panic!("{sname}/{kind:?}/k={k}: unexpected ingest error {e}"),
                    }
                    match server.flush(0) {
                        Ok(_) => acked += 1,
                        Err(ServeError::Quarantined) => break,
                        Err(e) => panic!("{sname}/{kind:?}/k={k}: unexpected flush error {e}"),
                    }
                }
                if fs.triggered() {
                    let crashed = server.shard_stats(0);
                    assert_eq!(
                        crashed.health,
                        ShardHealth::Quarantined,
                        "{sname}/{kind:?}/k={k}: a dead disk must quarantine the shard"
                    );
                    assert!(
                        crashed.wal_errors >= 1,
                        "{sname}/{kind:?}/k={k}: the failed append must be counted"
                    );
                    snapshot_kills += u32::from(crashed.snapshot_errors >= 1);
                    assert_eq!(
                        server.ingest(0, ops[0]),
                        Err(ServeError::Quarantined),
                        "{sname}/{kind:?}/k={k}: quarantine must reject ingest"
                    );
                } else {
                    assert_eq!(acked, 220, "{sname}/{kind:?}/k={k}: fault never fired");
                }
                drop(server); // the simulated kill -9

                let (recovered, outcome) = TreeServer::recover_with_storage(
                    Arc::clone(&plan),
                    ServeConfig::default(),
                    &durability,
                    Arc::new(DiskFs),
                )
                .unwrap();
                let rep = &outcome.shards[0];
                assert!(
                    rep.quarantined.is_none(),
                    "{sname}/{kind:?}/k={k}: a crash fault is always recoverable, got {:?}",
                    rep.quarantined
                );
                assert!(
                    rep.ops_recovered >= acked,
                    "{sname}/{kind:?}/k={k}: acked prefix lost — acked {acked}, recovered {}",
                    rep.ops_recovered
                );
                assert!(
                    rep.ops_recovered <= 220,
                    "{sname}/{kind:?}/k={k}: recovered ops that were never ingested"
                );
                assert_eq!(
                    sorted(recovered.snapshot(0).assignments()),
                    oracle_answers(&tree, &ops[..rep.ops_recovered as usize], &plan),
                    "{sname}/{kind:?}/k={k}: recovered state must equal the oracle replay \
                     of the durable prefix"
                );
                assert_ne!(recovered.shard_stats(0).health, ShardHealth::Quarantined);
                report_lines.push(format!(
                    "{sname} {kind:?} {k} {acked} {} {} {}",
                    rep.ops_recovered, rep.torn_tail, rep.wal_bytes_dropped
                ));
                drop(recovered);
                std::fs::remove_dir_all(&dir).ok();
            }
        }
    }
    assert!(
        snapshot_kills > 0,
        "some kill point must land on a snapshot write and be counted in snapshot_errors"
    );
    std::fs::create_dir_all("target").ok();
    std::fs::write(
        "target/fault-injection-report.txt",
        report_lines.join("\n") + "\n",
    )
    .expect("write fault-injection report");
}

/// Silent corruption recovery cannot repair — an intact record *after* a
/// bit-flipped one, so the damage is provably not a torn tail — degrades to
/// a reported, quarantined shard: reads still serve the best recovered
/// state, writes are rejected, nothing panics.
#[test]
fn unrecoverable_corruption_quarantines_instead_of_panicking() {
    let mut sigma = Alphabet::from_names(["a", "b", "c"]);
    let labels: Vec<Label> = sigma.labels().collect();
    let query = select_b(&sigma);
    let plan = QueryPlan::for_query(&query, sigma.len());
    let tree = random_tree(&mut sigma, 60, TreeShape::Random, 53);
    let mut feed = EditFeed::new(&tree, EditStream::skewed(labels, 97));
    let ops: Vec<EditOp> = (0..30).map(|_| feed.next_op()).collect();
    let dir = temp_dir("bitflip");
    let durability = DurabilityConfig {
        snapshot_every: 1000, // keep the whole stream in the WAL tail
        ..DurabilityConfig::new(&dir)
    };
    // Step 0/1 is the initial snapshot; step 2 + 10 is the 11th op's append.
    let fs = FailpointFs::armed(FaultKind::BitFlip, 12);
    let server = TreeServer::with_durability_on(
        vec![tree.clone()],
        Arc::clone(&plan),
        ServeConfig::default(),
        &durability,
        Arc::new(fs.clone()),
    )
    .unwrap();
    for &op in &ops {
        server.ingest(0, op).unwrap();
        server.flush(0).unwrap();
    }
    // The corruption is silent: the running server noticed nothing.
    let stats = server.shard_stats(0);
    assert!(fs.triggered());
    assert_ne!(stats.health, ShardHealth::Quarantined);
    assert_eq!(stats.wal_errors, 0);
    assert_eq!(stats.backpressure_timeouts, 0);
    drop(server);

    let (recovered, outcome) = TreeServer::recover_with_storage(
        Arc::clone(&plan),
        ServeConfig::default(),
        &durability,
        Arc::new(DiskFs),
    )
    .unwrap();
    assert_eq!(outcome.quarantined(), 1);
    let rep = &outcome.shards[0];
    let reason = rep.quarantined.as_deref().expect("must carry a reason");
    assert!(
        reason.contains("corrupt beyond recovery"),
        "unexpected quarantine reason: {reason}"
    );
    // Reads serve the best recovered state (here: the initial snapshot,
    // since the damaged record precedes every replayable one) …
    assert_eq!(
        sorted(recovered.snapshot(0).assignments()),
        oracle_answers(&tree, &[], &plan),
    );
    recovered.snapshot(0).check_consistency();
    // … while writes are rejected without touching the dead lineage.
    assert_eq!(recovered.ingest(0, ops[0]), Err(ServeError::Quarantined));
    assert_eq!(recovered.flush(0), Err(ServeError::Quarantined));
    assert_eq!(recovered.shard_stats(0).health, ShardHealth::Quarantined);
    std::fs::remove_dir_all(&dir).ok();
}

/// A full ingest queue is explicit backpressure, not a silent block: while
/// the writer is deliberately wedged (reclaim patience against a held
/// snapshot), `ingest` returns [`ServeError::Backpressure`] within the
/// configured timeout, counts it, drops nothing — and a later retry of the
/// *same* op succeeds and preserves stream order.
#[test]
fn full_queue_surfaces_backpressure_and_retry_succeeds() {
    let mut sigma = Alphabet::from_names(["a", "b", "c"]);
    let labels: Vec<Label> = sigma.labels().collect();
    let query = select_b(&sigma);
    let plan = QueryPlan::for_query(&query, sigma.len());
    let tree = random_tree(&mut sigma, 50, TreeShape::Random, 59);
    let mut feed = EditFeed::new(&tree, EditStream::burst(labels, 61));
    let ops: Vec<EditOp> = (0..200).map(|_| feed.next_op()).collect();
    let cfg = ServeConfig {
        queue_capacity: 1,
        ingest_timeout: Duration::from_millis(10),
        reclaim_patience: Duration::from_secs(1),
        ..ServeConfig::default()
    };
    let server = TreeServer::with_plan(vec![tree.clone()], Arc::clone(&plan), cfg);
    // Wedge the writer: hold generation 0, force one publish so the held
    // copy is the retired one, and the next flush spins in reclaim patience.
    let held = server.snapshot(0);
    let mut sent = 0usize;
    let mut backpressured = false;
    while sent < ops.len() {
        match server.ingest(0, ops[sent]) {
            Ok(()) => sent += 1,
            Err(ServeError::Backpressure) => {
                backpressured = true;
                break;
            }
            Err(e) => panic!("unexpected ingest error {e}"),
        }
    }
    assert!(
        backpressured,
        "a capacity-1 queue against a wedged writer must backpressure \
         (sent all {sent} ops without one)"
    );
    assert!(server.shard_stats(0).backpressure_timeouts >= 1);
    // Release the wedge; the same op retried now goes through.
    drop(held);
    while sent < ops.len() {
        match server.ingest(0, ops[sent]) {
            Ok(()) => sent += 1,
            Err(ServeError::Backpressure) => std::thread::sleep(Duration::from_millis(1)),
            Err(e) => panic!("unexpected ingest error {e}"),
        }
    }
    server.flush(0).unwrap();
    assert_eq!(
        sorted(server.snapshot(0).assignments()),
        oracle_answers(&tree, &ops, &plan),
        "backpressure + retry must preserve exact stream order"
    );
    assert_eq!(server.shard_stats(0).edits_applied, 200);
}
