//! Concurrency invariants of the serving layer (`treenum_serve`):
//!
//! * **snapshot consistency** — reader threads enumerating while the ingest
//!   queue flushes skewed/burst streams only ever observe states that equal a
//!   sequential oracle replay of the exact op prefix behind their snapshot's
//!   generation (no torn enumeration can observe a partially applied batch);
//! * **flush ordering** — coalesced batches preserve per-edit order end to
//!   end: a write-behind stream containing delete-runs whose freed term
//!   slots are reused by later inserts (the PR 4 invariant) converges to the
//!   exact tree the feeder's shadow predicts, whatever the flush
//!   partitioning was;
//! * **one coalescing rule** — every flush fills to `max_batch`, a barrier
//!   or the `max_latency` deadline, whether or not its edits share a spine;
//! * **liveness** — a snapshot held across many flushes stays immutable and
//!   never stops the writer from publishing new generations.

use std::ops::ControlFlow;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use treenum::automata::queries;
use treenum::core::TreeEnumerator;
use treenum::serve::{ServeConfig, TreeServer};
use treenum::trees::generate::{random_tree, TreeShape};
use treenum::trees::valuation::Assignment;
use treenum::trees::{Alphabet, EditFeed, EditOp, EditStream, Label, NodeSampler, Var};

fn sorted(mut v: Vec<Assignment>) -> Vec<Assignment> {
    v.sort();
    v
}

fn select_b(sigma: &Alphabet) -> treenum::automata::StepwiseTva {
    queries::select_label(sigma.len(), sigma.get("b").unwrap(), Var(0))
}

/// The acceptance-criterion stress test: N readers enumerate concurrently
/// with a feeder pushing a skewed or burst stream through the write-behind
/// queue; every `(generation, answers)` observation must match a sequential
/// oracle replay of the first `sum(flush sizes[..generation])` ops.
#[test]
fn concurrent_snapshots_match_sequential_oracle_replay() {
    let mut sigma = Alphabet::from_names(["a", "b", "c"]);
    let labels: Vec<Label> = sigma.labels().collect();
    let query = select_b(&sigma);
    for (sname, make) in [
        (
            "skewed",
            EditStream::skewed as fn(Vec<Label>, u64) -> EditStream,
        ),
        ("burst", EditStream::burst),
    ] {
        let tree = random_tree(&mut sigma, 120, TreeShape::Random, 29);
        // Pre-generate the whole op sequence so the oracle can replay exact
        // prefixes later.
        let mut feed = EditFeed::new(&tree, make(labels.clone(), 61));
        let ops: Vec<EditOp> = (0..600).map(|_| feed.next_op()).collect();

        let server = Arc::new(TreeServer::new(
            vec![tree.clone()],
            &query,
            sigma.len(),
            ServeConfig::default(),
        ));
        let stop = Arc::new(AtomicBool::new(false));
        let mut readers = Vec::new();
        for _ in 0..3 {
            let server = Arc::clone(&server);
            let stop = Arc::clone(&stop);
            readers.push(std::thread::spawn(move || {
                let mut seen: Vec<(u64, Vec<Assignment>)> = Vec::new();
                let mut last_gen = u64::MAX;
                while !stop.load(Ordering::Relaxed) {
                    let snap = server.snapshot(0);
                    if snap.generation() != last_gen {
                        last_gen = snap.generation();
                        seen.push((last_gen, sorted(snap.assignments())));
                    }
                    std::thread::yield_now();
                }
                seen
            }));
        }
        for (i, op) in ops.iter().enumerate() {
            server.ingest(0, *op).unwrap();
            if i % 40 == 39 {
                // Give readers scheduling room so observations spread over
                // many intermediate generations (single-core CI runners).
                std::thread::sleep(std::time::Duration::from_micros(300));
            }
        }
        server.flush(0).unwrap();
        stop.store(true, Ordering::Relaxed);
        let mut observations: Vec<(u64, Vec<Assignment>)> = Vec::new();
        for r in readers {
            observations.extend(r.join().expect("reader thread"));
        }

        // The flush log partitions the op stream; generation g covers the
        // first sum(sizes[..g]) ops.
        let log = server.flush_log(0);
        assert_eq!(
            log.iter().map(|r| r.size).sum::<usize>(),
            ops.len(),
            "{sname}: flush log must account for every op exactly once"
        );
        // The catch-up stage (reclaim wait, lag replay, reconcile) is a part
        // of the timed flush cycle, never more than all of it.
        for (i, rec) in log.iter().enumerate() {
            assert!(
                rec.catch_up_nanos <= rec.nanos,
                "{sname}: flush {i} catch-up {} ns exceeds its cycle {} ns",
                rec.catch_up_nanos,
                rec.nanos
            );
        }
        let mut prefix_of = vec![0usize];
        for rec in &log {
            prefix_of.push(prefix_of.last().unwrap() + rec.size);
        }

        observations.sort_by_key(|(g, _)| *g);
        observations.dedup_by(|a, b| {
            if a.0 == b.0 {
                // Two readers at one generation must agree with each other.
                assert_eq!(a.1, b.1, "{sname}: readers disagree at generation {}", a.0);
                true
            } else {
                false
            }
        });
        assert!(
            observations.iter().any(|(g, _)| *g > 0),
            "{sname}: stress run never observed a post-ingest generation"
        );
        // One oracle engine advanced through the op list, checked at every
        // observed generation.
        let mut oracle = TreeEnumerator::new(tree.clone(), &query, sigma.len());
        let mut cursor = 0usize;
        for (generation, answers) in &observations {
            let prefix = prefix_of[*generation as usize];
            while cursor < prefix {
                oracle.apply(&ops[cursor]);
                cursor += 1;
            }
            assert_eq!(
                answers,
                &sorted(oracle.assignments()),
                "{sname}: snapshot at generation {generation} does not match \
                 the sequential replay of its {prefix}-op prefix"
            );
        }
        // Final state: full replay, structural identity with the feeder's
        // shadow, and a clean consistency check.
        while cursor < ops.len() {
            oracle.apply(&ops[cursor]);
            cursor += 1;
        }
        let final_snap = server.snapshot(0);
        assert_eq!(final_snap.generation() as usize, log.len());
        assert_eq!(
            sorted(final_snap.assignments()),
            sorted(oracle.assignments())
        );
        assert!(final_snap.tree().structurally_equal(feed.tree()));
        final_snap.check_consistency();
    }
}

/// Coalesced flushes must preserve per-edit order: burst streams interleave
/// delete-runs (freeing term arena slots) with insert floods (reusing them),
/// so any reordering inside a batch would either panic on an invalid op or
/// produce a structurally different tree than the feeder's shadow.
#[test]
fn coalesced_flushes_preserve_edit_order_across_freed_slot_reuse() {
    let mut sigma = Alphabet::from_names(["a", "b", "c"]);
    let labels: Vec<Label> = sigma.labels().collect();
    let query = select_b(&sigma);
    let tree = random_tree(&mut sigma, 60, TreeShape::Random, 5);
    // Force heavy coalescing: 64-op flushes, generous latency budget.
    let config = ServeConfig {
        max_latency: std::time::Duration::from_millis(20),
        ..ServeConfig::fixed(64)
    };
    let server = TreeServer::new(vec![tree.clone()], &query, sigma.len(), config);
    let mut feed = EditFeed::new(&tree, EditStream::burst(labels, 83));
    let mut deletes = 0usize;
    let mut inserts_after_delete = 0usize;
    let mut saw_delete = false;
    for _ in 0..6 {
        for op in feed.next_batch(64) {
            match op {
                EditOp::DeleteLeaf { .. } => {
                    deletes += 1;
                    saw_delete = true;
                }
                EditOp::InsertFirstChild { .. } | EditOp::InsertRightSibling { .. } => {
                    if saw_delete {
                        inserts_after_delete += 1;
                    }
                }
                EditOp::Relabel { .. } => {}
            }
            server.ingest(0, op).unwrap();
        }
        server.flush(0).unwrap();
    }
    assert!(
        deletes >= 16 && inserts_after_delete >= 16,
        "burst stream must interleave delete-runs with later inserts \
         (deletes {deletes}, inserts after a delete {inserts_after_delete})"
    );
    let log = server.flush_log(0);
    assert!(
        log.iter().any(|r| r.size >= 16),
        "the queue never coalesced a multi-op batch — the test lost its point"
    );
    let stats = server.shard_stats(0);
    assert!(
        stats.spine_deduped > 0,
        "coalesced burst batches must share spine nodes"
    );
    let snap = server.snapshot(0);
    assert!(
        snap.tree().structurally_equal(feed.tree()),
        "served tree diverged from the feeder's shadow — per-edit order was broken"
    );
    let oracle = TreeEnumerator::new(feed.tree().clone(), &query, sigma.len());
    assert_eq!(sorted(snap.assignments()), sorted(oracle.assignments()));
    snap.check_consistency();
}

/// One coalescing rule, whatever the spine sharing: with a deadline that
/// never fires, a round of 64 ops plus a barrier lands as exactly one flush,
/// both when the ops are spread over distinct nodes (little spine sharing,
/// first) and when every op edits one hot spine.  The sharing ratio is
/// still recorded per flush, but it does not change the batch size.
#[test]
fn every_flush_fills_to_max_batch_or_a_barrier_whatever_the_sharing() {
    let mut sigma = Alphabet::from_names(["a", "b"]);
    let query = select_b(&sigma);
    let tree = random_tree(&mut sigma, 4000, TreeShape::Random, 13);
    let labels: Vec<Label> = sigma.labels().collect();
    let sampler = NodeSampler::new(&tree);
    let hot = *sampler
        .leaves()
        .iter()
        .find(|&&n| n != tree.root())
        .expect("a 4000-node tree has a non-root leaf");
    let nodes = sampler.nodes();
    let cfg = ServeConfig {
        max_latency: std::time::Duration::from_secs(60),
        ..ServeConfig::default()
    };
    let server = TreeServer::new(vec![tree.clone()], &query, sigma.len(), cfg);
    assert_eq!(server.shard_stats(0).window, cfg.max_batch);
    let mut ratios = [Vec::new(), Vec::new()];
    for round in 0..6usize {
        let spread = round % 2 == 0;
        let ops: Vec<EditOp> = (0..64usize)
            .map(|i| EditOp::Relabel {
                // Hot: every op relabels one leaf, so the batch repairs one
                // spine.  Spread: 64 distinct nodes across the tree.
                node: if spread {
                    nodes[(i * 97 + round * 13) % nodes.len()]
                } else {
                    hot
                },
                label: labels[(round + i) % labels.len()],
            })
            .collect();
        let before = server.flush_log_len(0);
        server.ingest_batch(0, &ops).unwrap();
        server.flush(0).unwrap();
        let new = server.flush_log_since(0, before);
        let sizes: Vec<usize> = new.iter().map(|r| r.size).collect();
        assert_eq!(
            sizes,
            [64],
            "round {round} ({}) must land as one 64-op flush",
            if spread { "spread" } else { "hot spine" }
        );
        assert_eq!(server.shard_stats(0).window, cfg.max_batch);
        ratios[spread as usize].push(new[0].sharing_ratio());
    }
    let (hot_min, spread_max) = (
        ratios[0].iter().cloned().fold(f64::INFINITY, f64::min),
        ratios[1].iter().cloned().fold(0.0, f64::max),
    );
    assert!(
        hot_min > spread_max,
        "the sharing ratio must still tell the hot rounds ({:?}) from the spread ones ({:?})",
        ratios[0],
        ratios[1]
    );
}

/// Multi-shard accounting: independent feeders and readers over two shards,
/// each shard ends at its own oracle, and the aggregate stats add up.
#[test]
fn two_shards_serve_independent_streams_concurrently() {
    let mut sigma = Alphabet::from_names(["a", "b", "c"]);
    let labels: Vec<Label> = sigma.labels().collect();
    let query = select_b(&sigma);
    let t0 = random_tree(&mut sigma, 80, TreeShape::Random, 7);
    let t1 = random_tree(&mut sigma, 80, TreeShape::Deep, 8);
    let server = Arc::new(TreeServer::new(
        vec![t0.clone(), t1.clone()],
        &query,
        sigma.len(),
        ServeConfig::default(),
    ));
    let stop = Arc::new(AtomicBool::new(false));
    let (first_pass_tx, first_pass_rx) = std::sync::mpsc::channel();
    let reader = {
        let server = Arc::clone(&server);
        let stop = Arc::clone(&stop);
        std::thread::spawn(move || {
            let mut reads = 0usize;
            let mut first_pass = Some(first_pass_tx);
            while !stop.load(Ordering::Relaxed) {
                for shard in 0..server.num_shards() {
                    let snap = server.snapshot(shard);
                    let mut n = 0;
                    snap.for_each(&mut |_a| {
                        n += 1;
                        if n >= 16 {
                            ControlFlow::Break(())
                        } else {
                            ControlFlow::Continue(())
                        }
                    });
                    reads += 1;
                }
                if let Some(tx) = first_pass.take() {
                    let _ = tx.send(());
                }
                std::thread::yield_now();
            }
            reads
        })
    };
    let mut feeds = [
        EditFeed::new(&t0, EditStream::skewed(labels.clone(), 21)),
        EditFeed::new(&t1, EditStream::burst(labels.clone(), 22)),
    ];
    let mut handles = Vec::new();
    for (shard, feed) in feeds.iter_mut().enumerate() {
        for _ in 0..5 {
            server.ingest_batch(shard, &feed.next_batch(30)).unwrap();
        }
        handles.push(shard);
    }
    let generations = server.flush_all().unwrap();
    // Stop the reader only once it has read every shard: the writers can
    // finish before the reader thread is first scheduled.
    first_pass_rx
        .recv()
        .expect("reader thread reads every shard once");
    stop.store(true, Ordering::Relaxed);
    let reads = reader.join().expect("reader thread");
    assert!(reads > 0);
    assert_eq!(generations.len(), 2);
    let stats = server.stats();
    assert_eq!(stats.shards.len(), 2);
    assert_eq!(stats.edits_applied(), 300);
    assert!(stats.reads() >= reads as u64);
    for (shard, feed) in feeds.iter().enumerate() {
        let snap = server.snapshot(shard);
        let oracle = TreeEnumerator::with_plan(feed.tree().clone(), Arc::clone(server.plan()));
        assert_eq!(
            sorted(snap.assignments()),
            sorted(oracle.assignments()),
            "shard {shard}"
        );
        assert_eq!(stats.shards[shard].edits_applied, 150);
    }
    let _ = handles;
}

/// A config under which only a barrier closes a flush: the `max_latency`
/// deadline is out of reach, so a round ingested before its barrier lands
/// as one flush however loaded the host is.
fn barrier_only() -> ServeConfig {
    ServeConfig {
        max_latency: std::time::Duration::from_secs(60),
        ..ServeConfig::default()
    }
}

/// The off-path catch-up: in a closed loop where no snapshot outlives its
/// round, the writer catches the retired copy up right after every ack —
/// exactly one catch-up per data flush, none of them on a flush's path, so
/// no flush ever waits for a reader or falls back to a rebuild.
#[test]
fn closed_loop_catches_up_off_the_path_once_per_flush() {
    let mut sigma = Alphabet::from_names(["a", "b", "c"]);
    let labels: Vec<Label> = sigma.labels().collect();
    let query = select_b(&sigma);
    let tree = random_tree(&mut sigma, 300, TreeShape::Random, 23);
    let server = TreeServer::new(vec![tree.clone()], &query, sigma.len(), barrier_only());
    let mut feed = EditFeed::new(&tree, EditStream::skewed(labels, 41));
    const ROUNDS: u64 = 12;
    for _ in 0..ROUNDS {
        server.ingest_batch(0, &feed.next_batch(16)).unwrap();
        server.flush(0).unwrap();
        let snap = server.snapshot(0);
        // Read, then let go before the next round, like a closed-loop
        // client.
        let _ = snap.count();
    }
    // An empty barrier is processed after the last round's catch-up.
    server.flush(0).unwrap();
    let stats = server.shard_stats(0);
    assert_eq!(stats.generation, ROUNDS);
    assert_eq!(
        stats.off_path_catch_ups, ROUNDS,
        "one off-path catch-up per data flush"
    );
    assert_eq!(stats.reclaim_waits, 0, "no flush waited for a reader");
    assert_eq!(stats.rebuild_fallbacks, 0, "no flush lost its copy");
    let log = server.flush_log(0);
    // The first flush writes into the initial clone; every later one into
    // the copy the previous ack's catch-up prepared.
    assert_eq!(log[0].off_path_nanos, 0);
    for (i, rec) in log.iter().enumerate().skip(1) {
        assert!(rec.off_path_nanos > 0, "flush {i} had no off-path catch-up");
        assert!(rec.catch_up_nanos <= rec.nanos);
    }
    let snap = server.snapshot(0);
    snap.check_consistency();
    let oracle = TreeEnumerator::new(feed.tree().clone(), &query, sigma.len());
    assert_eq!(sorted(snap.assignments()), sorted(oracle.assignments()));
}

/// The release wake: a snapshot held across one flush keeps the retired copy
/// from the catch-up that follows the ack; dropping it wakes the writer,
/// which catches up before it processes the next barrier — so no flush
/// waits, none falls back, and the caught-up copy serves a consistent state.
#[test]
fn last_release_of_a_held_retired_copy_wakes_the_catch_up() {
    let mut sigma = Alphabet::from_names(["a", "b", "c"]);
    let labels: Vec<Label> = sigma.labels().collect();
    let query = select_b(&sigma);
    let tree = random_tree(&mut sigma, 300, TreeShape::Random, 31);
    let server = TreeServer::new(vec![tree.clone()], &query, sigma.len(), barrier_only());
    let mut feed = EditFeed::new(&tree, EditStream::burst(labels, 43));
    server.ingest_batch(0, &feed.next_batch(16)).unwrap();
    server.flush(0).unwrap();
    let held = server.snapshot(0);
    let held_answers = sorted(held.assignments());
    server.ingest_batch(0, &feed.next_batch(16)).unwrap();
    server.flush(0).unwrap();
    // The held generation-1 copy is the retired one now: its catch-up waits.
    server.flush(0).unwrap();
    assert_eq!(server.shard_stats(0).off_path_catch_ups, 1);
    assert_eq!(sorted(held.assignments()), held_answers);
    // Nothing reaches the writer's queue after the drop but the release's
    // own wake: without it the writer would idle with the copy behind.  The
    // pause lets the writer finish the catch-up attempt that follows the
    // last ack (it finds the copy held and parks), so the catch-up below
    // can only come from the wake.
    std::thread::sleep(std::time::Duration::from_millis(50));
    drop(held);
    let woken = std::time::Instant::now();
    while server.shard_stats(0).off_path_catch_ups < 2 {
        assert!(
            woken.elapsed() < std::time::Duration::from_secs(10),
            "the last release must wake the writer into its catch-up"
        );
        std::thread::sleep(std::time::Duration::from_millis(1));
    }
    server.flush(0).unwrap();
    assert_eq!(server.shard_stats(0).off_path_catch_ups, 2);
    server.ingest_batch(0, &feed.next_batch(16)).unwrap();
    server.flush(0).unwrap();
    let stats = server.shard_stats(0);
    assert_eq!(
        stats.reclaim_waits, 0,
        "the woken catch-up left nothing to wait for"
    );
    assert_eq!(stats.rebuild_fallbacks, 0);
    assert!(server.flush_log(0)[2].off_path_nanos > 0);
    let snap = server.snapshot(0);
    snap.check_consistency();
    let oracle = TreeEnumerator::new(feed.tree().clone(), &query, sigma.len());
    assert_eq!(sorted(snap.assignments()), sorted(oracle.assignments()));
}
