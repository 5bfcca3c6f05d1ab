//! The concurrent serving layer in action: two shards behind one shared
//! query plan, reader threads enumerating snapshot-consistent states while
//! writer feeds push skewed/burst edit streams through the write-behind
//! ingest queues; every flush fills to `max_batch`, a barrier or the
//! `max_latency` deadline, and the per-shard flush sizes and sharing ratios
//! are reported at the end.
//!
//! Run with: `cargo run --example serving`

use std::ops::ControlFlow;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;
use treenum::automata::queries;
use treenum::serve::{RetryPolicy, ServeConfig, TreeServer};
use treenum::trees::generate::{random_tree, TreeShape};
use treenum::trees::valuation::Var;
use treenum::trees::{Alphabet, EditFeed, EditStream, Label};

pub fn main() {
    let mut sigma = Alphabet::from_names(["a", "b", "c"]);
    let labels: Vec<Label> = sigma.labels().collect();
    let b = sigma.get("b").unwrap();
    let query = queries::select_label(sigma.len(), b, Var(0));

    // Two shards — say, two busy documents — sharing one translated plan.
    let docs = vec![
        random_tree(&mut sigma, 2_000, TreeShape::Random, 41),
        random_tree(&mut sigma, 2_000, TreeShape::Wide, 42),
    ];
    let server = Arc::new(TreeServer::new(
        docs.clone(),
        &query,
        sigma.len(),
        ServeConfig::default(),
    ));

    // Three readers spread over the shards, enumerating the first 64 answers
    // of whatever snapshot is current.
    let stop = Arc::new(AtomicBool::new(false));
    let answer_count = Arc::new(AtomicU64::new(0));
    let mut readers = Vec::new();
    for r in 0..3usize {
        let server = Arc::clone(&server);
        let stop = Arc::clone(&stop);
        let answer_count = Arc::clone(&answer_count);
        readers.push(std::thread::spawn(move || {
            let mut local = 0u64;
            while !stop.load(Ordering::Relaxed) {
                let snap = server.snapshot(r % server.num_shards());
                let mut seen = 0usize;
                snap.for_each(&mut |_a| {
                    seen += 1;
                    if seen >= 64 {
                        ControlFlow::Break(())
                    } else {
                        ControlFlow::Continue(())
                    }
                });
                local += seen as u64;
                std::thread::yield_now();
            }
            answer_count.fetch_add(local, Ordering::Relaxed);
        }));
    }

    // One writer per shard: shard 0 takes a hot-subtree skewed stream (high
    // spine sharing), shard 1 a bursty one.  A
    // saturated producer is expected to see `Backpressure` when the queue
    // fills (e.g. while the shard writer pays an O(n) reclaim-fallback
    // rebuild on a small machine); `RetryPolicy` is the sanctioned answer —
    // jittered exponential backoff until the queue drains.
    let mut writers = Vec::new();
    for (shard, make) in [
        (
            0usize,
            EditStream::skewed as fn(Vec<Label>, u64) -> EditStream,
        ),
        (1usize, EditStream::burst),
    ] {
        let server = Arc::clone(&server);
        let mut feed = EditFeed::new(&docs[shard], make(labels.clone(), 7 + shard as u64));
        let retry = RetryPolicy {
            budget: Duration::from_secs(10),
            seed: 7 + shard as u64,
            ..RetryPolicy::default()
        };
        writers.push(std::thread::spawn(move || {
            for _ in 0..40 {
                for op in feed.next_batch(64) {
                    retry
                        .run(|| server.ingest(shard, op))
                        .expect("shard accepts writes");
                }
            }
        }));
    }
    for w in writers {
        w.join().expect("writer thread");
    }
    let generations = server.flush_all().expect("flush");
    stop.store(true, Ordering::Relaxed);
    for r in readers {
        r.join().expect("reader thread");
    }

    println!(
        "served {} answers while ingesting",
        answer_count.load(Ordering::Relaxed)
    );
    for (shard, generation) in generations.iter().enumerate() {
        let stats = server.shard_stats(shard);
        println!(
            "shard {shard}: generation {generation}, {} edits in {} flushes \
             (mean batch {:.1}, max {}), window {}, sharing ratio {:.2}",
            stats.edits_applied,
            stats.flushes,
            stats.mean_flush(),
            stats.max_flush,
            stats.window,
            stats.sharing_ratio(),
        );
        assert_eq!(stats.edits_applied, 2_560);
        // Snapshot reads stay available and consistent after the storm.
        let snap = server.snapshot(shard);
        assert_eq!(snap.generation(), *generation);
        println!(
            "shard {shard}: final snapshot holds {} nodes, {} answers",
            snap.tree().len(),
            snap.count()
        );
    }
    let stats = server.stats();
    assert_eq!(stats.edits_applied(), 2 * 2_560);
    println!(
        "total: {} snapshot reads across {} shards — no reader ever blocked a flush",
        stats.reads(),
        server.num_shards()
    );
}
