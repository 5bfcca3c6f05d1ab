//! Counter-coverage guards: every public counter field of [`EnumStats`],
//! `IndexStats` and `ShardStats` is read and meaningfully asserted here, in
//! scenarios calm enough that the expected value is deterministic.
//!
//! This file is what makes the `treenum-analyze` `counter-coverage` rule
//! pass for the pre-durability surface: a counter no test reads is a dead
//! guard — it can silently stop counting (or start counting the wrong
//! thing) and nothing fails.  Other suites assert several of these counters
//! in richer scenarios (`delay_invariants`, `batch_invariants`,
//! `serve_invariants`), and the `ShardStats` durability counters
//! (`wal_records`, `wal_errors`, `snapshots_persisted`, …) are asserted
//! where their scenarios live, in `tests/durability.rs`; together the two
//! files cover the whole observability surface.

use std::time::Duration;
use treenum::automata::queries;
use treenum::core::TreeEnumerator;
use treenum::enumeration::boxenum::BoxEnumMode;
use treenum::serve::{ServeConfig, TreeServer};
use treenum::trees::generate::{random_tree, TreeShape};
use treenum::trees::{Alphabet, EditStream, Label, NodeSampler, Var};

fn select_b(sigma: &Alphabet) -> treenum::automata::StepwiseTva {
    queries::select_label(sigma.len(), sigma.get("b").unwrap(), Var(0))
}

/// `EnumStats`: `answers` counts every emitted assignment; the allocation
/// counters (`per_answer_allocs`, `relation_clones`, `group_map_rebuilds`)
/// stay flat across a steady-state re-enumeration of the same engine, while
/// the work counter `compositions` repeats exactly; the page counters
/// (`pages_resumed`, `pages_restarted`) split resumed pages from restarted
/// ones.
#[test]
fn enum_stats_counters_track_the_zero_alloc_discipline() {
    let mut sigma = Alphabet::from_names(["a", "b", "c"]);
    let query = select_b(&sigma);
    let tree = random_tree(&mut sigma, 40, TreeShape::Random, 5);
    let engine = TreeEnumerator::new(tree, &query, sigma.len());
    let n = engine.count() as u64;
    assert!(n > 0, "guard scenario must produce answers");
    let _ = engine.assignments(); // warm the scratch pools fully
    let warm = engine.enum_stats();
    let _ = engine.assignments();
    let steady = engine.enum_stats();
    assert_eq!(
        steady.answers,
        warm.answers + n,
        "answers must count every emitted assignment"
    );
    assert_eq!(
        steady.per_answer_allocs, warm.per_answer_allocs,
        "steady-state enumeration allocated"
    );
    assert_eq!(
        steady.group_map_rebuilds, warm.group_map_rebuilds,
        "steady-state enumeration rebuilt the group table"
    );
    assert_eq!(
        steady.relation_clones, 0,
        "the enumeration path cloned a relation"
    );
    let _ = engine.assignments();
    let again = engine.enum_stats();
    assert!(steady.compositions > warm.compositions, "the walk composes");
    assert_eq!(
        again.compositions - steady.compositions,
        steady.compositions - warm.compositions,
        "the same enumeration does the same work"
    );
    // Pagination: the second page resumes the run the first one parked;
    // a replay of the same cursor has nothing parked and restarts.
    assert!(n > 2, "guard scenario must span two pages");
    let _ = engine.page(0, 1);
    let _ = engine.page(1, 1);
    let _ = engine.page(1, 1);
    let paged = engine.enum_stats();
    assert_eq!(paged.pages_resumed, steady.pages_resumed + 1);
    assert_eq!(paged.pages_restarted, steady.pages_restarted + 1);
    // The reference walk composes child steps only, and counts them too.
    let mut engine = engine;
    engine.set_box_enum_mode(BoxEnumMode::Reference);
    let _ = engine.assignments();
    assert!(engine.enum_stats().compositions > paged.compositions);
}

/// `IndexStats`: the build stores relations and counts entry rebuilds; a
/// clustered batch stream exercises the batch counters, the content-skip
/// counter among them.
#[test]
fn index_stats_counters_track_build_and_batch_repair() {
    let mut sigma = Alphabet::from_names(["a", "b"]);
    let labels: Vec<Label> = sigma.labels().collect();
    let query = select_b(&sigma);
    let tree = random_tree(&mut sigma, 300, TreeShape::Random, 23);
    let mut engine = TreeEnumerator::new(tree.clone(), &query, sigma.len());
    let built = engine.index_stats();
    assert!(
        built.box_rebuilds > 0 && built.relations_stored > 0,
        "the initial build must store index entries (rebuilds = {}, stored = {})",
        built.box_rebuilds,
        built.relations_stored
    );
    let mut shadow = tree;
    let mut sampler = NodeSampler::new(&shadow);
    let mut stream = EditStream::skewed(labels, 41);
    for _ in 0..4 {
        let ops = stream.next_batch_sampled(&mut shadow, &mut sampler, 48);
        engine.apply_batch(&ops);
    }
    let stats = engine.index_stats();
    assert_eq!(stats.batch_rebuilds, 4, "one repair pass per apply_batch");
    assert!(
        stats.batch_dirty_nodes >= 4,
        "every batch repairs at least one spine node (dirty = {})",
        stats.batch_dirty_nodes
    );
    assert!(
        stats.spine_nodes_deduped > 0,
        "clustered 48-op batches must share spine nodes"
    );
    // Above the point where a clustered batch's γ changes fixpoint, the
    // dirty boxes keep their contents without a recompute; the leaves and
    // the boxes just above them never skip.
    assert!(
        stats.boxes_skipped > 0 && stats.boxes_skipped < stats.batch_dirty_nodes,
        "clustered batches must skip some but not all content recomputes \
         (skipped = {}, dirty = {})",
        stats.boxes_skipped,
        stats.batch_dirty_nodes
    );
    assert!(
        stats.box_rebuilds > built.box_rebuilds,
        "batch repair must recompute entries"
    );
}

/// `ShardStats` under a calm ingest → flush → read sequence: the throughput
/// counters are exact, the log cross-checks the cumulative spine counters,
/// and the contention counters stay zero because no snapshot is held while
/// the writer flushes.
#[test]
fn shard_stats_counters_are_exact_when_quiescent() {
    let mut sigma = Alphabet::from_names(["a", "b", "c"]);
    let labels: Vec<Label> = sigma.labels().collect();
    let query = select_b(&sigma);
    let tree = random_tree(&mut sigma, 60, TreeShape::Random, 9);
    let cfg = ServeConfig::default();
    let server = TreeServer::new(vec![tree.clone()], &query, sigma.len(), cfg);
    let mut shadow = shadow_feed(tree, labels, 13);
    server.ingest_batch(0, &shadow.next(48)).unwrap();
    let generation = server.flush(0).unwrap();
    let snap = server.snapshot(0);
    assert_eq!(snap.generation(), generation);

    let stats = server.shard_stats(0);
    let log = server.flush_log(0);
    assert_eq!(stats.edits_ingested, 48);
    assert_eq!(stats.edits_applied, 48);
    assert_eq!(
        stats.queue_depth, 0,
        "quiescent shard must report an empty queue"
    );
    assert_eq!(stats.reads, 1, "exactly one snapshot was handed out");
    assert_eq!(stats.generation, generation);
    assert_eq!(stats.flushes, log.len() as u64);
    assert_eq!(stats.generation, stats.flushes, "one generation per flush");
    assert_eq!(server.flush_log_len(0), log.len());
    assert_eq!(server.flush_log_since(0, 1).len(), log.len() - 1);
    assert_eq!(
        stats.window, cfg.max_batch,
        "the window must report the configured max_batch"
    );
    assert_eq!(
        stats.max_flush,
        log.iter().map(|r| r.size).max().unwrap(),
        "max_flush must equal the largest logged flush"
    );
    assert_eq!(
        stats.spine_deduped,
        log.iter().map(|r| r.spine_deduped).sum::<u64>(),
        "cumulative spine_deduped must equal the log's sum"
    );
    assert_eq!(
        stats.spine_dirty,
        log.iter().map(|r| r.spine_dirty).sum::<u64>(),
        "cumulative spine_dirty must equal the log's sum"
    );
    assert!(
        stats.spine_dirty > 0,
        "48 edits must have repaired spine nodes"
    );
    assert_eq!(
        stats.reclaim_waits, 0,
        "no reader held a snapshot, so the writer never waited"
    );
    assert_eq!(
        stats.rebuild_fallbacks, 0,
        "no reader held a snapshot, so the writer never rebuilt"
    );
}

/// `ShardStats` contention counters: a snapshot held across flushes forces
/// the writer through the bounded wait (`reclaim_waits`) and then the O(n)
/// rebuild fallback (`rebuild_fallbacks`), while the held snapshot stays at
/// its generation.
#[test]
fn shard_stats_counters_track_reclaim_contention() {
    let mut sigma = Alphabet::from_names(["a", "b", "c"]);
    let labels: Vec<Label> = sigma.labels().collect();
    let query = select_b(&sigma);
    let tree = random_tree(&mut sigma, 40, TreeShape::Random, 17);
    let cfg = ServeConfig {
        reclaim_patience: Duration::from_millis(50),
        ..ServeConfig::default()
    };
    let server = TreeServer::new(vec![tree.clone()], &query, sigma.len(), cfg);
    let held = server.snapshot(0);
    assert_eq!(held.generation(), 0);
    let mut shadow = shadow_feed(tree, labels, 29);
    for _ in 0..2 {
        server.ingest_batch(0, &shadow.next(12)).unwrap();
        server.flush(0).unwrap();
    }
    let stats = server.shard_stats(0);
    assert!(
        stats.reclaim_waits >= 1,
        "the writer must have waited for the held gen-0 copy at least once"
    );
    assert!(
        stats.rebuild_fallbacks >= 1,
        "patience must have expired into an O(n) rebuild"
    );
    assert_eq!(held.generation(), 0, "the held snapshot never moves");
    assert_eq!(stats.edits_applied, 24);
}

/// A deterministic shadow-sampled edit feed (the serving facade applies ops
/// on its writer thread, so the producer samples against its own replica).
struct ShadowFeed {
    shadow: treenum::trees::UnrankedTree,
    sampler: NodeSampler,
    stream: EditStream,
}

impl ShadowFeed {
    fn next(&mut self, k: usize) -> Vec<treenum::trees::EditOp> {
        self.stream
            .next_batch_sampled(&mut self.shadow, &mut self.sampler, k)
    }
}

fn shadow_feed(tree: treenum::trees::UnrankedTree, labels: Vec<Label>, seed: u64) -> ShadowFeed {
    let sampler = NodeSampler::new(&tree);
    ShadowFeed {
        shadow: tree,
        sampler,
        stream: EditStream::skewed(labels, seed),
    }
}
