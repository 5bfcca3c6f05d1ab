//! Shadow replay of a traced serving run into the engine's layers.
//!
//! Reads the batch sizes the shard's writer chose (written by `serve_loop
//! --trace 1`), regenerates the same ops from the seed, and re-applies those
//! exact batches to standalone copies, timing the public functions of each
//! layer from outside:
//!
//! * `core` — `TreeEnumerator::with_plan`, `apply_batch`, `first_k`, full
//!   `for_each`;
//! * `balance` — `translate_stepwise` (uncached), `build_balanced_term`,
//!   `update::apply_edits` on its own tree, term and φ;
//! * `enumeration` — `IndexStats` / `EnumStats` deltas over the replay;
//! * `wal` — `Wal::append` per op and `Wal::flush` per batch, and
//!   `serial::to_bytes` + `SnapshotStore::save`, in a scratch directory.
//!
//! Usage: `layer_probe --workload <name> --seed <n> --flushes <file>
//! [--out-dir <dir>]`.  The last stdout line is the JSON result.

use std::hint::black_box;
use std::ops::ControlFlow;
use std::sync::Arc;
use std::time::Instant;

use perfbench::{generate_rounds, initial_tree, median, Args, Metrics, FIRST_K};
use treenum_balance::build::build_balanced_term;
use treenum_balance::translate::translate_stepwise;
use treenum_balance::update::apply_edits;
use treenum_core::{QueryPlan, TreeEnumerator};
use treenum_trees::serial;
use treenum_wal::log::RECORD_HEADER;
use treenum_wal::{DiskFs, SnapshotStore, SyncPolicy, Wal};

/// Batches replayed through the WAL (each ends in an fsync).
const WAL_BATCHES: usize = 400;
/// Ops replayed through the engines at most.
const MAX_REPLAY_OPS: usize = 400_000;
/// Repetitions of the whole-structure measurements.
const REPS: usize = 3;

fn ms(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

fn us(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e6
}

fn main() {
    let args = match Args::parse() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("layer_probe: {e}");
            std::process::exit(2);
        }
    };
    let w = args.workload;
    let path = args.flushes.as_ref().expect("--flushes is required");
    let text = std::fs::read_to_string(path).expect("read the batch sizes");
    let mut total = 0;
    let sizes: Vec<usize> = text
        .split_whitespace()
        .map(|s| s.parse().expect("a batch size"))
        .take_while(|&k| {
            total += k;
            total <= MAX_REPLAY_OPS
        })
        .collect();
    let total: usize = sizes.iter().sum();

    let base = initial_tree(args.seed);
    let queries = w.queries();
    let rounds = total.div_ceil(w.ops_per_round());
    let (ops, _) = generate_rounds(w, &base, args.seed, rounds);
    let ops = &ops[..total];

    // Set-up layers: translation, term build, engine build.
    let translate_ms: Vec<f64> = queries
        .iter()
        .map(|(q, len)| {
            let t = Instant::now();
            black_box(translate_stepwise(q, *len));
            ms(t)
        })
        .collect();
    let term_build_ms: Vec<f64> = (0..REPS)
        .map(|_| {
            let t = Instant::now();
            black_box(build_balanced_term(&base));
            ms(t)
        })
        .collect();
    let mut build_ms = Vec::new();
    let mut engines: Vec<TreeEnumerator> = queries
        .iter()
        .map(|(q, len)| {
            let plan = QueryPlan::for_query(q, *len);
            let tree = base.clone();
            let t = Instant::now();
            let e = TreeEnumerator::with_plan(tree, plan);
            build_ms.push(ms(t));
            e
        })
        .collect();
    let mut btree = base.clone();
    let (mut term, mut phi) = build_balanced_term(&btree);

    // Shadow replay of the writer's batches: one engine per registered query
    // (one engine copy's work per flush), and the term layer on its own.
    let mut apply_us = Vec::with_capacity(sizes.len());
    let mut edits_us = Vec::with_capacity(sizes.len());
    let mut dirty = 0usize;
    let before = engines[0].index_stats();
    let mut at = 0;
    for &k in &sizes {
        let batch = &ops[at..at + k];
        at += k;
        let t = Instant::now();
        for e in engines.iter_mut() {
            black_box(e.apply_batch(batch));
        }
        apply_us.push(us(t));
        let t = Instant::now();
        let report = apply_edits(&mut btree, &mut term, &mut phi, batch);
        edits_us.push(us(t));
        dirty += report.dirty_len();
    }
    let after = engines[0].index_stats();
    let rebuilds = after.box_rebuilds - before.box_rebuilds;
    let dirty_nodes = after.batch_dirty_nodes - before.batch_dirty_nodes;

    // Reads on the replayed primary engine.
    let primary = &engines[0];
    let first_k_us: Vec<f64> = (0..200)
        .map(|_| {
            let t = Instant::now();
            black_box(primary.first_k(FIRST_K));
            us(t)
        })
        .collect();
    let count_all = || {
        let mut n = 0u64;
        primary.for_each(&mut |a| {
            black_box(a);
            n += 1;
            ControlFlow::Continue(())
        });
        n
    };
    count_all();
    let allocs_before = primary.enum_stats().per_answer_allocs;
    let mut answers = 0;
    let ns_per_answer: Vec<f64> = (0..REPS)
        .map(|_| {
            let t = Instant::now();
            answers = count_all();
            t.elapsed().as_nanos() as f64 / answers.max(1) as f64
        })
        .collect();
    let allocs = primary.enum_stats().per_answer_allocs - allocs_before;

    // WAL: the same batches, appended and fsynced in a scratch directory.
    let dir = args
        .out_dir
        .join(format!("probe-{}-{}", w.name(), std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let storage = Arc::new(DiskFs);
    let mut wal = Wal::open_at(
        storage.clone(),
        &dir.join("wal"),
        SyncPolicy::OnFlush,
        1 << 20,
        0,
    )
    .expect("open the scratch WAL");
    let mut append_us = Vec::new();
    let mut fsync_ms = Vec::new();
    let mut wal_bytes = 0usize;
    let mut at = 0;
    for &k in sizes.iter().take(WAL_BATCHES) {
        for op in &ops[at..at + k] {
            let payload = serial::encode_op(op);
            let t = Instant::now();
            wal.append(&payload).expect("WAL append");
            append_us.push(us(t));
            wal_bytes += RECORD_HEADER + payload.len();
        }
        at += k;
        let t = Instant::now();
        wal.flush().expect("WAL fsync");
        fsync_ms.push(ms(t));
    }
    let snaps = SnapshotStore::open(storage, dir.join("snap")).expect("open the snapshot store");
    let final_tree = engines[0].tree();
    let save_ms: Vec<f64> = (0..REPS as u64)
        .map(|g| {
            let t = Instant::now();
            snaps
                .save(g, g, &serial::to_bytes(final_tree))
                .expect("save a snapshot");
            ms(t)
        })
        .collect();
    drop(wal);
    let _ = std::fs::remove_dir_all(&dir);

    let apply = median(&apply_us);
    let edits = median(&edits_us);
    let q = engines.len() as f64;
    let mut m = Metrics::default();
    m.put("core.build_ms", median(&build_ms), "ms");
    m.put("core.apply_batch_us", apply, "us");
    m.put("core.first_k_us", median(&first_k_us), "us");
    m.put("core.ns_per_answer", median(&ns_per_answer), "ns");
    m.put("balance.term_build_ms", median(&term_build_ms), "ms");
    m.put("balance.apply_edits_us", edits, "us");
    m.put(
        "balance.dirty_per_edit",
        dirty as f64 / total.max(1) as f64,
        "nodes",
    );
    m.put("balance.translate_ms", median(&translate_ms), "ms");
    m.put("enumeration.repair_us", apply - q * edits, "us");
    m.put(
        "enumeration.rebuilds_per_edit",
        rebuilds as f64 / total.max(1) as f64,
        "boxes",
    );
    m.put(
        "enumeration.rebuild_yield",
        rebuilds as f64 / dirty_nodes.max(1) as f64,
        "ratio",
    );
    m.put("enumeration.per_answer_allocs", allocs as f64, "count");
    m.put("wal.append_us", median(&append_us), "us");
    m.put("wal.fsync_ms", median(&fsync_ms), "ms");
    m.put(
        "wal.bytes_per_op",
        wal_bytes as f64 / append_us.len().max(1) as f64,
        "B",
    );
    m.put("wal.snapshot_save_ms", median(&save_ms), "ms");
    println!(
        "# replayed {} batches / {total} ops on {} engines; {answers} primary answers; {} WAL batches",
        sizes.len(),
        engines.len(),
        fsync_ms.len()
    );
    println!("{}", m.to_json(true, sizes.len().max(1) as u64, 0));
}
