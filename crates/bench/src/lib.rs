//! # treenum-bench
//!
//! Shared workload generators for the Criterion benches in `benches/`.  Each bench
//! regenerates one experiment of the repository-root `EXPERIMENTS.md` (E1–E9), which
//! maps paper artefacts (Table 1, Theorems 8.1/8.5, Section 9) to benches.
//!
//! The [`summary`] module re-runs compact versions of all experiments and powers the
//! `bench_summary` binary that writes the committed `BENCH_*.json` trajectory files.

pub mod summary;
pub mod trajectory;

use treenum_automata::{queries, StepwiseTva};
use treenum_trees::generate::{random_tree, TreeShape};
use treenum_trees::unranked::UnrankedTree;
use treenum_trees::valuation::Var;
use treenum_trees::{Alphabet, Label};

/// The standard benchmark alphabet: `a`, `b`, `m` (marked), `s` (special).
pub fn bench_alphabet() -> Alphabet {
    Alphabet::from_names(["a", "b", "m", "s"])
}

/// A random tree of the given size over the benchmark alphabet.
pub fn bench_tree(size: usize, shape: TreeShape, seed: u64) -> UnrankedTree {
    let mut sigma = bench_alphabet();
    random_tree(&mut sigma, size, shape, seed)
}

/// The standard single-variable query: select every `b`-labelled node.
pub fn select_b_query() -> (StepwiseTva, usize) {
    let sigma = bench_alphabet();
    let b = sigma.get("b").unwrap();
    (queries::select_label(sigma.len(), b, Var(0)), sigma.len())
}

/// The two-variable ancestor/descendant query (quadratically many answers).
pub fn pair_query() -> (StepwiseTva, usize) {
    let sigma = bench_alphabet();
    let a = sigma.get("a").unwrap();
    let b = sigma.get("b").unwrap();
    (
        queries::ancestor_descendant(sigma.len(), a, Var(0), b, Var(1)),
        sigma.len(),
    )
}

/// The marked-ancestor query of Theorem 9.2.
pub fn marked_ancestor_query() -> (StepwiseTva, usize) {
    let sigma = bench_alphabet();
    let m = sigma.get("m").unwrap();
    let s = sigma.get("s").unwrap();
    (
        queries::marked_ancestor(sigma.len(), m, s, Var(0)),
        sigma.len(),
    )
}

/// The `k`-parameterized nondeterministic family whose determinization blows up
/// exponentially (Experiment E4).
pub fn kth_child_query(k: usize) -> (StepwiseTva, usize) {
    let sigma = bench_alphabet();
    let a = sigma.get("a").unwrap();
    (
        queries::kth_child_from_end(sigma.len(), k, a, Var(0)),
        sigma.len(),
    )
}

/// A label of the benchmark alphabet by name.
pub fn label(name: &str) -> Label {
    bench_alphabet().get(name).unwrap()
}

/// Enumerates and counts the first `k` answers (the delay-bound workload).
pub fn first_k(engine: &treenum_core::TreeEnumerator, k: usize) -> usize {
    let mut count = 0;
    engine.for_each(&mut |_a| {
        count += 1;
        if count >= k {
            std::ops::ControlFlow::Break(())
        } else {
            std::ops::ControlFlow::Continue(())
        }
    });
    count
}

/// Times `engine.apply` (plus whatever `and_then` adds) over a live edit
/// stream, keeping the Θ(n) edit *generation* of `EditStream::next_for` out of
/// the measured region via `iter_custom`.  This is the single definition of
/// the E7 timing methodology — the `update_throughput` bench target and the
/// `bench_summary` runner both use it, so their numbers stay comparable.
pub fn time_edits(
    b: &mut criterion::Bencher,
    engine: &mut treenum_core::TreeEnumerator,
    stream: &mut treenum_trees::generate::EditStream,
    mut and_then: impl FnMut(&treenum_core::TreeEnumerator),
) {
    use std::time::{Duration, Instant};
    b.iter_custom(|iters| {
        let mut total = Duration::ZERO;
        for _ in 0..iters {
            let op = stream.next_for(engine.tree());
            let start = Instant::now();
            criterion::black_box(engine.apply(&op));
            and_then(engine);
            total += start.elapsed();
        }
        total
    });
}

/// [`time_edits`] with O(1) edit generation: ops come from
/// `EditStream::next_applied_sampled` driven by a `NodeSampler` over a
/// `shadow` clone of the engine's tree (kept in lockstep — the arena assigns
/// the same `NodeId`s to the same insertions).  The timed region is identical
/// to [`time_edits`] (apply + `and_then` only); the difference is that the
/// untimed region no longer spends Θ(n) per op materializing populations, so
/// measurement budgets buy far more iterations at large `n`.
pub fn time_edits_sampled(
    b: &mut criterion::Bencher,
    engine: &mut treenum_core::TreeEnumerator,
    stream: &mut treenum_trees::generate::EditStream,
    shadow: &mut UnrankedTree,
    sampler: &mut treenum_trees::edit::NodeSampler,
    mut and_then: impl FnMut(&treenum_core::TreeEnumerator),
) {
    use std::time::{Duration, Instant};
    b.iter_custom(|iters| {
        let mut total = Duration::ZERO;
        for _ in 0..iters {
            let op = stream.next_applied_sampled(shadow, sampler);
            let start = Instant::now();
            criterion::black_box(engine.apply(&op));
            and_then(engine);
            total += start.elapsed();
        }
        total
    });
}

/// Builds a percentile-bearing [`criterion::BenchRecord`] from raw
/// nanosecond samples (shared by the E2 per-answer and E8 per-edit
/// amortized measurements).
pub fn record_from_samples(
    group: &str,
    name: String,
    mut samples: Vec<u64>,
) -> criterion::BenchRecord {
    samples.sort_unstable();
    let percentile = |q: f64| -> u128 {
        if samples.is_empty() {
            return 0;
        }
        let idx = ((samples.len() - 1) as f64 * q).round() as usize;
        samples[idx] as u128
    };
    let mean = if samples.is_empty() {
        0
    } else {
        samples.iter().map(|&g| g as u128).sum::<u128>() / samples.len() as u128
    };
    criterion::BenchRecord {
        group: group.to_string(),
        name,
        mean_ns: mean,
        min_ns: samples.first().copied().unwrap_or(0) as u128,
        p50_ns: Some(percentile(0.50)),
        p95_ns: Some(percentile(0.95)),
        p99_ns: Some(percentile(0.99)),
    }
}

/// Constructor of one `EditStream` workload strategy: `(labels, seed)`.
pub type StreamCtor = fn(Vec<Label>, u64) -> treenum_trees::generate::EditStream;

/// The E8 strategy table: record-name tag and stream constructor.
pub fn e8_strategies() -> [(&'static str, StreamCtor); 3] {
    use treenum_trees::generate::EditStream;
    [
        ("uniform", EditStream::balanced_mix),
        ("skewed", EditStream::skewed),
        ("burst", EditStream::burst),
    ]
}

/// Measures the amortized per-edit cost of applying `k`-op batches generated
/// by `make_stream(…, seed)`: each sample is `elapsed / k` for one batch,
/// applied either through `TreeEnumerator::apply_batch` (`batched`) or as `k`
/// sequential `apply` calls (the speedup baseline).  Batch *generation* runs
/// on a shadow tree/sampler outside the timed region (O(k) per batch).
#[allow(clippy::too_many_arguments)]
pub fn measure_batch_apply(
    tree: &UnrankedTree,
    query: &StepwiseTva,
    alphabet_len: usize,
    labels: &[Label],
    make_stream: StreamCtor,
    seed: u64,
    k: usize,
    batched: bool,
    name: String,
    warm_up: std::time::Duration,
    measurement: std::time::Duration,
) -> criterion::BenchRecord {
    use std::time::Instant;
    use treenum_trees::edit::NodeSampler;
    let mut engine = treenum_core::TreeEnumerator::new(tree.clone(), query, alphabet_len);
    let mut shadow = tree.clone();
    let mut sampler = NodeSampler::new(&shadow);
    let mut stream = make_stream(labels.to_vec(), seed);
    let mut samples: Vec<u64> = Vec::new();
    let mut run = |samples: Option<&mut Vec<u64>>| {
        let ops = stream.next_batch_sampled(&mut shadow, &mut sampler, k);
        let start = Instant::now();
        if batched {
            criterion::black_box(engine.apply_batch(&ops));
        } else {
            for op in &ops {
                criterion::black_box(engine.apply(op));
            }
        }
        let elapsed = start.elapsed();
        if let Some(samples) = samples {
            samples.push((elapsed.as_nanos() / k as u128) as u64);
        }
    };
    let warm_start = Instant::now();
    loop {
        run(None);
        if warm_start.elapsed() >= warm_up {
            break;
        }
    }
    let deadline = Instant::now() + measurement;
    loop {
        run(Some(&mut samples));
        if Instant::now() >= deadline {
            break;
        }
    }
    record_from_samples("E8_batch_updates", name, samples)
}

/// The E8 batch-update experiment: amortized per-edit latency of
/// `apply_batch` vs `k` sequential `apply` calls, for batch sizes `ks` ×
/// {uniform, skewed, burst} workloads at every tree size in `sizes`.  Both
/// arms replay the *same* deterministic batches (same seed, lockstep shadow
/// trees), so `seq/batch` is a true per-workload speedup; the committed
/// trajectory records both, and CI gates the `batch_*` p95s
/// ([`trajectory::E8_GATE`]).
pub fn run_e8(
    c: &mut criterion::Criterion,
    sizes: &[usize],
    ks: &[usize],
    warm_up: std::time::Duration,
    measurement: std::time::Duration,
) {
    let (query, alphabet_len) = select_b_query();
    let labels: Vec<Label> = bench_alphabet().labels().collect();
    for &n in sizes {
        let tree = bench_tree(n, TreeShape::Random, 17);
        for (si, (sname, make)) in e8_strategies().into_iter().enumerate() {
            for &k in ks {
                let seed = 1_000 + 31 * si as u64 + k as u64;
                let batch = measure_batch_apply(
                    &tree,
                    &query,
                    alphabet_len,
                    &labels,
                    make,
                    seed,
                    k,
                    true,
                    format!("batch_{sname}_k{k}/{n}"),
                    warm_up,
                    measurement,
                );
                let seq = measure_batch_apply(
                    &tree,
                    &query,
                    alphabet_len,
                    &labels,
                    make,
                    seed,
                    k,
                    false,
                    format!("seq_{sname}_k{k}/{n}"),
                    warm_up,
                    measurement,
                );
                eprintln!(
                    "E8 {sname} k={k} n={n}: batch {} ns/edit, seq {} ns/edit ({:.2}x)",
                    batch.mean_ns,
                    seq.mean_ns,
                    seq.mean_ns as f64 / batch.mean_ns.max(1) as f64
                );
                c.push_record(batch);
                c.push_record(seq);
            }
        }
    }
}

/// One E9 serving scenario: spins up a one-shard [`treenum_serve::TreeServer`]
/// over `tree`, runs `readers` snapshot-reader threads (each with its own
/// pooled scratch, sampling the per-answer delay of `answers`-answer
/// enumerations) concurrently with a feeder thread pushing the strategy's
/// edit stream through the write-behind ingest queue, and reports:
///
/// * pooled per-answer read-delay samples across all readers (recorded only
///   inside the measurement window, after `warm_up`), and
/// * the per-edit amortized ingest samples from the shard's flush log (one
///   sample per flush — reclaim + batch apply + publish, divided by the
///   flush size), restricted to flushes cut inside the measurement window.
///
/// Returns `(read_gaps_ns, ingest_samples_ns, applied_ops, total_flush_ns)`.
#[allow(clippy::too_many_arguments)]
fn e9_scenario(
    tree: &UnrankedTree,
    query: &StepwiseTva,
    alphabet_len: usize,
    labels: &[Label],
    make_stream: StreamCtor,
    seed: u64,
    config: treenum_serve::ServeConfig,
    readers: usize,
    answers: usize,
    warm_up: std::time::Duration,
    measurement: std::time::Duration,
) -> (Vec<u64>, Vec<u64>, u64, u64) {
    use std::ops::ControlFlow;
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::Arc;
    use std::time::Instant;
    use treenum_enumeration::EnumScratch;
    use treenum_serve::TreeServer;
    use treenum_trees::edit::EditFeed;

    let server = Arc::new(TreeServer::new(
        vec![tree.clone()],
        query,
        alphabet_len,
        config,
    ));
    let stop = Arc::new(AtomicBool::new(false));
    let recording = Arc::new(AtomicBool::new(false));

    let mut reader_handles = Vec::with_capacity(readers);
    for _ in 0..readers {
        let server = Arc::clone(&server);
        let stop = Arc::clone(&stop);
        let recording = Arc::clone(&recording);
        reader_handles.push(std::thread::spawn(move || {
            let mut scratch = EnumScratch::new();
            let mut gaps: Vec<u64> = Vec::new();
            while !stop.load(Ordering::Relaxed) {
                let snap = server.snapshot(0);
                let mut seen = 0usize;
                if recording.load(Ordering::Relaxed) {
                    // Reserve outside the enumeration so a realloc cannot
                    // land in a recorded gap (same discipline as E2).
                    gaps.reserve(answers);
                    let mut last = Instant::now();
                    snap.for_each_with(&mut scratch, &mut |_a| {
                        let now = Instant::now();
                        gaps.push((now - last).as_nanos() as u64);
                        last = now;
                        seen += 1;
                        if seen >= answers {
                            ControlFlow::Break(())
                        } else {
                            ControlFlow::Continue(())
                        }
                    });
                } else {
                    snap.for_each_with(&mut scratch, &mut |_a| {
                        seen += 1;
                        if seen >= answers {
                            ControlFlow::Break(())
                        } else {
                            ControlFlow::Continue(())
                        }
                    });
                }
                // Open-loop pacing: a short think time between requests.
                // Zero-think-time readers saturate every core and the
                // scenario degenerates into measuring scheduler fairness
                // (on a single-core runner the writer thread starves and a
                // flush's wall clock is dominated by run-queue waits, not by
                // the serving pipeline).  200µs inter-arrival keeps thousands
                // of reads per second per reader while leaving the writer
                // schedulable.
                std::thread::sleep(std::time::Duration::from_micros(200));
            }
            gaps
        }));
    }

    let feeder = {
        let server = Arc::clone(&server);
        let stop = Arc::clone(&stop);
        let mut feed = EditFeed::new(tree, make_stream(labels.to_vec(), seed));
        std::thread::spawn(move || {
            'feed: while !stop.load(Ordering::Relaxed) {
                for op in feed.next_batch(64) {
                    loop {
                        match server.ingest(0, op) {
                            Ok(()) => break,
                            // Explicit backpressure: the op was NOT enqueued.
                            // The feeder is the load generator, so it retries
                            // the same op — dropping it would fork the feed's
                            // shadow tree from the server's state and later
                            // ops would no longer apply.
                            Err(treenum_serve::ServeError::Backpressure) => {
                                if stop.load(Ordering::Relaxed) {
                                    break 'feed;
                                }
                            }
                            Err(_) => break 'feed,
                        }
                    }
                }
            }
        })
    };

    std::thread::sleep(warm_up);
    let log_start = server.flush_log_len(0);
    recording.store(true, Ordering::Relaxed);
    std::thread::sleep(measurement);
    recording.store(false, Ordering::Relaxed);
    // Capture the log bound *before* the shutdown barrier: the final drain
    // applies whatever is still queued as one giant batch, which is not part
    // of the measured steady state.
    let log_end = server.flush_log_len(0);
    stop.store(true, Ordering::Relaxed);
    feeder.join().expect("feeder thread");
    let mut read_gaps = Vec::new();
    for h in reader_handles {
        read_gaps.extend(h.join().expect("reader thread"));
    }
    let _ = server.flush(0);
    let log = server.flush_log_since(0, log_start);
    let mut ingest_samples = Vec::with_capacity(log_end - log_start);
    let mut applied = 0u64;
    let mut total_ns = 0u64;
    for rec in &log[..log_end - log_start] {
        // Both applies of the batch: the flush's own and the lag replay of
        // the off-path catch-up that prepared its copy.
        let ns = rec.nanos + rec.off_path_nanos;
        ingest_samples.push(ns / rec.size as u64);
        applied += rec.size as u64;
        total_ns += ns;
    }
    (read_gaps, ingest_samples, applied, total_ns)
}

/// The E9 concurrent-serving experiment: for every strategy × tree size,
/// measures snapshot-read delay percentiles under concurrent write-behind
/// ingest, plus the per-edit amortized ingest cost of the default
/// coalescing (`ServeConfig::default()`: fill to `max_batch`, a barrier or
/// the `max_latency` deadline) against the fixed `k = 1` (publish-per-op)
/// baseline.
///
/// Record names: `read_<strategy>_r<readers>/<n>` (per-answer delay under
/// concurrent ingest — comparable to E2's `per_answer_select_b/<n>`, same
/// query and answer count), `ingest_adaptive_<strategy>/<n>` (the default
/// configuration; the name is kept as a `BENCH_after.json` key) and
/// `ingest_fixed1_<strategy>/<n>` (per-edit amortized flush cost including
/// the catch-up of the retired copy, on or off the visible path, and
/// publish).  CI gates the `read_*` p95s
/// ([`trajectory::E9_GATE`]); the ingest arms document the coalescing win
/// (their mean is flush-time / ops-applied over the measurement window).
pub fn run_e9(
    c: &mut criterion::Criterion,
    sizes: &[usize],
    readers: usize,
    answers: usize,
    warm_up: std::time::Duration,
    measurement: std::time::Duration,
) {
    use treenum_serve::ServeConfig;
    let (query, alphabet_len) = select_b_query();
    let labels: Vec<Label> = bench_alphabet().labels().collect();
    for &n in sizes {
        let tree = bench_tree(n, TreeShape::Random, 17);
        for (si, (sname, make)) in e8_strategies().into_iter().enumerate() {
            let seed = 9_000 + 17 * si as u64;
            let (gaps, batched_samples, batched_ops, batched_ns) = e9_scenario(
                &tree,
                &query,
                alphabet_len,
                &labels,
                make,
                seed,
                ServeConfig::default(),
                readers,
                answers,
                warm_up,
                measurement,
            );
            let (_, fixed_samples, fixed_ops, fixed_ns) = e9_scenario(
                &tree,
                &query,
                alphabet_len,
                &labels,
                make,
                seed,
                ServeConfig::fixed(1),
                readers,
                answers,
                warm_up,
                measurement,
            );
            let read =
                record_from_samples("E9_serving", format!("read_{sname}_r{readers}/{n}"), gaps);
            let batched = e9_ingest_record(
                format!("ingest_adaptive_{sname}/{n}"),
                batched_samples,
                batched_ops,
                batched_ns,
            );
            let fixed = e9_ingest_record(
                format!("ingest_fixed1_{sname}/{n}"),
                fixed_samples,
                fixed_ops,
                fixed_ns,
            );
            eprintln!(
                "E9 {sname} n={n}: read p95 {} ns, ingest default {} ns/edit vs fixed-1 {} ns/edit ({:.2}x)",
                read.p95_ns.unwrap_or(0),
                batched.mean_ns,
                fixed.mean_ns,
                fixed.mean_ns as f64 / batched.mean_ns.max(1) as f64,
            );
            c.push_record(read);
            c.push_record(batched);
            c.push_record(fixed);
        }
    }
}

/// Builds an E9 ingest record: the mean is the true amortized cost
/// (total flush nanoseconds / ops applied); the percentiles come from the
/// per-flush amortized samples.
fn e9_ingest_record(
    name: String,
    samples: Vec<u64>,
    applied_ops: u64,
    total_ns: u64,
) -> criterion::BenchRecord {
    let mut rec = record_from_samples("E9_serving", name, samples);
    if let Some(amortized) = total_ns.checked_div(applied_ops) {
        rec.mean_ns = amortized as u128;
    }
    rec
}

/// Distinct non-primary queries over the benchmark alphabet, used by the E11
/// multi-query arms.  The primary `select_b` query is *not* in the list, so
/// `primary + distinct_queries(q - 1)` yields `q` pairwise-distinct plans
/// (every entry has its own `TranslationKey`, so none is a plan-cache alias
/// of another).
pub fn distinct_queries(count: usize) -> Vec<StepwiseTva> {
    let sigma = bench_alphabet();
    let len = sigma.len();
    let a = sigma.get("a").unwrap();
    let b = sigma.get("b").unwrap();
    let m = sigma.get("m").unwrap();
    let s = sigma.get("s").unwrap();
    let mut out: Vec<StepwiseTva> = vec![queries::exists_label(len, a)];
    out.extend([a, m, s].map(|l| queries::select_label(len, l, Var(0))));
    out.extend([b, m, s].map(|l| queries::exists_label(len, l)));
    out.extend([a, b, m, s].map(|l| queries::has_child_with_label(len, l, Var(0))));
    out.push(queries::kth_child_from_end(len, 2, a, Var(0)));
    out.push(queries::kth_child_from_end(len, 3, a, Var(0)));
    out.push(queries::marked_ancestor(len, m, s, Var(0)));
    out.push(queries::ancestor_descendant(len, a, Var(0), b, Var(1)));
    assert!(
        count <= out.len(),
        "E11 supports at most {} queries besides the primary",
        out.len()
    );
    out.truncate(count);
    out
}

/// The E11 query-registry experiment: snapshot-read delay and admission
/// latency of a [`treenum_serve::TreeServer`] serving `q` **distinct**
/// registered queries from multiplexed snapshots, under live skewed ingest.
///
/// For each `q` in `qs`, one shard runs the E9 serving discipline (paced
/// readers with their own scratch, a feeder retrying backpressure), except
/// that the extra `q - 1` queries are registered *at runtime against the
/// live ingest stream* and each reader round-robins over all registered
/// query ids via [`treenum_serve::Snapshot::query`] — every read of every
/// query comes off one shared generation-stamped snapshot.
///
/// Record names (group `E11_registry`):
///
/// * `read_q<q>_r<readers>/<n>` — per-answer snapshot-read delay of the
///   **primary** query, pooled across readers.  Every reader alternates:
///   even turns read (and record) the primary, odd turns sweep the other
///   `q - 1` registered queries round-robin (read, never recorded).  The
///   recorded work *and its cadence* are therefore identical across arms —
///   the interleaved sweep over the other queries is the treatment, the
///   primary is the probe.  Gated by [`trajectory::E11_GATE`], which also
///   holds the fresh `q = 16` arm to within its cross-arm bar (1.5×) of the
///   fresh `q = 1` arm's p95 — the multiplexing contract is precisely that
///   a query's reads do not degrade as others register.
/// * `admission_q<q>/<n>` — wall time of one [`treenum_serve::TreeServer::register`]
///   round trip during live ingest, sampled over repeated
///   register/deregister probe cycles.  The first cycle compiles (a plan
///   cache miss, visible in the max); steady state is a cache hit plus one
///   attach barrier.  Recorded, not gated: the attach rides the bounded
///   ingest queue behind every already-queued op, so under a saturating
///   feeder the number is essentially `queue_capacity / ingest throughput`
///   — a queue-fairness bound, not a code path worth a percentile gate.
///
/// The run asserts the multiplexing invariants on the shard's own counters:
/// `generation == flushes` (one publication covers all queries), membership
/// changes account for exactly the size-0 flush records, and the
/// data-publication count of every `q > 1` arm stays within 2× + slack of
/// the `q = 1` arm — publications are deadline-driven, never Q-driven.
pub fn run_e11(
    c: &mut criterion::Criterion,
    sizes: &[usize],
    qs: &[usize],
    readers: usize,
    answers: usize,
    warm_up: std::time::Duration,
    measurement: std::time::Duration,
) {
    use std::ops::ControlFlow;
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::Arc;
    use std::time::Instant;
    use treenum_enumeration::EnumScratch;
    use treenum_serve::{QueryId, ServeConfig, TreeServer};
    use treenum_trees::edit::EditFeed;
    use treenum_trees::generate::EditStream;

    const ADMISSION_PROBES: usize = 8;

    let (query, alphabet_len) = select_b_query();
    let labels: Vec<Label> = bench_alphabet().labels().collect();
    for &n in sizes {
        let tree = bench_tree(n, TreeShape::Random, 17);
        let mut pubs_q1: Option<u64> = None;
        for &q in qs {
            assert!(q >= 1, "an arm serves at least the primary query");
            // A shorter queue than the E9 default: an admission probe's attach
            // waits behind every queued op, so with a saturating feeder the
            // queue depth *is* the admission latency.  256 keeps the probe
            // bounded by a fraction of a second per registered query without
            // ever idling the writer.
            let config = ServeConfig {
                queue_capacity: 256,
                ..ServeConfig::default()
            };
            let server = Arc::new(TreeServer::new(
                vec![tree.clone()],
                &query,
                alphabet_len,
                config,
            ));
            let stop = Arc::new(AtomicBool::new(false));
            let recording = Arc::new(AtomicBool::new(false));

            // Live skewed ingest, exactly the E9 feeder discipline (retry on
            // explicit backpressure — dropping an op would fork the feed's
            // shadow tree from the server's state).
            let feeder = {
                let server = Arc::clone(&server);
                let stop = Arc::clone(&stop);
                let mut feed = EditFeed::new(&tree, EditStream::skewed(labels.clone(), 11_000));
                std::thread::spawn(move || {
                    'feed: while !stop.load(Ordering::Relaxed) {
                        for op in feed.next_batch(64) {
                            loop {
                                match server.ingest(0, op) {
                                    Ok(()) => break,
                                    Err(treenum_serve::ServeError::Backpressure) => {
                                        if stop.load(Ordering::Relaxed) {
                                            break 'feed;
                                        }
                                    }
                                    Err(_) => break 'feed,
                                }
                            }
                        }
                    }
                })
            };

            // Runtime registration against the live stream — the path E11
            // exists to measure.  The attach rides the ingest queue, so
            // ingest never stops.
            let mut ids = vec![QueryId::PRIMARY];
            for extra in &distinct_queries(q - 1) {
                let reg = server
                    .register(extra, alphabet_len)
                    .expect("register under live ingest");
                ids.push(reg.id);
            }

            let mut reader_handles = Vec::with_capacity(readers);
            for r in 0..readers {
                let server = Arc::clone(&server);
                let stop = Arc::clone(&stop);
                let recording = Arc::clone(&recording);
                let ids = ids.clone();
                reader_handles.push(std::thread::spawn(move || {
                    let mut scratch = EnumScratch::new();
                    let mut gaps: Vec<u64> = Vec::new();
                    let mut turn = r; // decorrelate the reader rotations
                    while !stop.load(Ordering::Relaxed) {
                        let snap = server.snapshot(0);
                        // Even turns read (and record) the primary; odd turns
                        // sweep the other registered queries round-robin
                        // (read, never recorded).  Identical recorded work
                        // and cadence in every arm — the sweep is the
                        // treatment, the primary is the probe.
                        let probe_turn = turn % 2 == 0;
                        let id = if probe_turn || ids.len() == 1 {
                            ids[0]
                        } else {
                            ids[1 + (turn / 2) % (ids.len() - 1)]
                        };
                        turn += 1;
                        let Ok(view) = snap.query(id) else { continue };
                        let mut seen = 0usize;
                        if probe_turn && recording.load(Ordering::Relaxed) {
                            gaps.reserve(answers);
                            let mut last = Instant::now();
                            view.for_each_with(&mut scratch, &mut |_a| {
                                let now = Instant::now();
                                gaps.push(now.saturating_duration_since(last).as_nanos() as u64);
                                last = now;
                                seen += 1;
                                if seen >= answers {
                                    ControlFlow::Break(())
                                } else {
                                    ControlFlow::Continue(())
                                }
                            });
                        } else {
                            view.for_each_with(&mut scratch, &mut |_a| {
                                seen += 1;
                                if seen >= answers {
                                    ControlFlow::Break(())
                                } else {
                                    ControlFlow::Continue(())
                                }
                            });
                        }
                        // Same open-loop pacing as E9 (see `e9_scenario`).
                        std::thread::sleep(std::time::Duration::from_micros(200));
                    }
                    gaps
                }));
            }

            std::thread::sleep(warm_up);
            recording.store(true, Ordering::Relaxed);
            std::thread::sleep(measurement);
            recording.store(false, Ordering::Relaxed);

            // Admission probes while ingest keeps running: register a query
            // none of the arms uses, then deregister it, repeatedly.  Only
            // the process's first admission of the probe compiles (the plan
            // cache is process-wide); every other one is a plan-cache hit +
            // attach barrier.
            let probe = queries::kth_child_from_end(alphabet_len, 4, label("a"), Var(0));
            let mut admission_samples = Vec::with_capacity(ADMISSION_PROBES);
            for _ in 0..ADMISSION_PROBES {
                let t = Instant::now();
                let reg = server
                    .register(&probe, alphabet_len)
                    .expect("probe register");
                admission_samples.push(t.elapsed().as_nanos() as u64);
                server.deregister(reg.id).expect("probe deregister");
            }

            stop.store(true, Ordering::Relaxed);
            feeder.join().expect("feeder thread");
            let mut gaps = Vec::new();
            for h in reader_handles {
                gaps.extend(h.join().expect("reader thread"));
            }
            let _ = server.flush(0);

            // Counter-verified multiplexing invariants — a bench that stopped
            // multiplexing would otherwise keep reporting great numbers.
            let stats = server.shard_stats(0);
            assert_eq!(
                stats.generation, stats.flushes,
                "one publication per generation, shared by all {q} queries"
            );
            let membership = server.flush_log(0).iter().filter(|r| r.size == 0).count() as u64;
            assert_eq!(
                membership,
                stats.queries_attached + stats.queries_detached,
                "membership changes are the only size-0 publications"
            );
            assert_eq!(stats.queries_served, q, "probes must all be detached");
            let data_pubs = stats.generation - membership;
            if q == 1 {
                pubs_q1 = Some(data_pubs);
            } else if let Some(base) = pubs_q1 {
                assert!(
                    data_pubs <= base.saturating_mul(2) + 8,
                    "data publications must not scale with Q \
                     (q={q}: {data_pubs}, q=1: {base})"
                );
            }
            let reg_stats = server.stats().registry;
            assert_eq!(reg_stats.registrations as usize, q - 1 + ADMISSION_PROBES);
            assert_eq!(reg_stats.deregistrations as usize, ADMISSION_PROBES);
            assert!(
                reg_stats.plan_hits >= (ADMISSION_PROBES - 1) as u64,
                "steady-state probe admissions must hit the plan cache"
            );

            let read =
                record_from_samples("E11_registry", format!("read_q{q}_r{readers}/{n}"), gaps);
            let admission = record_from_samples(
                "E11_registry",
                format!("admission_q{q}/{n}"),
                admission_samples,
            );
            eprintln!(
                "E11 q={q} n={n}: read p95 {} ns, admission p50 {} ns (max {} ns, the \
                 process's one probe compile included in the first arm), {data_pubs} data \
                 publication(s)",
                read.p95_ns.unwrap_or(0),
                admission.p50_ns.unwrap_or(0),
                admission.p99_ns.unwrap_or(0),
            );
            c.push_record(read);
            c.push_record(admission);
        }
    }
}

/// The E12 crash-recovery experiment: wall-clock recovery time of a durable
/// [`treenum_serve::TreeServer`] as a function of WAL tail length (= the age
/// of the newest snapshot in ops), plus the caller-visible per-op overhead
/// of durable ingest under each [`treenum_serve::SyncPolicy`] against the
/// non-durable baseline.
///
/// Record names (group `E12_recovery`):
///
/// * `recover_tail<t>/<n>` — full [`treenum_serve::TreeServer::recover`]
///   wall time (snapshot load + decode + `t`-op WAL-tail replay onto the
///   tree + one build of the recovered copy and its clone + fresh recovery
///   snapshot) over a
///   size-`n` tree, one sample per repetition, each against a freshly built
///   lineage (recovery itself compacts the lineage, so reps cannot reuse
///   one).
/// * `ingest_{none,onflush,always}/<n>` — per-op wall time of a
///   `ingest_batch(32) + flush` loop as the *caller* sees it, i.e. WAL
///   append + sync included.  These document the durability tax (None vs
///   OnFlush vs Always); they are recorded, not gated — the gated E9 read
///   path never touches the WAL.
pub fn run_e12(
    c: &mut criterion::Criterion,
    sizes: &[usize],
    tails: &[usize],
    ingest_ops: usize,
    reps: usize,
) {
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::Arc;
    use std::time::Instant;
    use treenum_serve::{DurabilityConfig, ServeConfig, SyncPolicy, TreeServer};
    use treenum_trees::edit::{EditFeed, EditOp};
    use treenum_trees::generate::EditStream;
    use treenum_wal::DiskFs;

    fn fresh_dir(tag: &str) -> std::path::PathBuf {
        static SEQ: AtomicU64 = AtomicU64::new(0);
        let n = SEQ.fetch_add(1, Ordering::Relaxed);
        std::env::temp_dir().join(format!("treenum-e12-{tag}-{}-{n}", std::process::id()))
    }

    let (query, alphabet_len) = select_b_query();
    let labels: Vec<Label> = bench_alphabet().labels().collect();
    let plan = treenum_core::QueryPlan::for_query(&query, alphabet_len);
    for &n in sizes {
        let tree = bench_tree(n, TreeShape::Random, 17);
        for &tail in tails {
            // The lineage keeps only its initial snapshot (snapshot_every
            // effectively infinite), so recovery replays exactly `tail` ops.
            let mut feed = EditFeed::new(
                &tree,
                EditStream::skewed(labels.clone(), 12_000 + tail as u64),
            );
            let ops: Vec<EditOp> = (0..tail).map(|_| feed.next_op()).collect();
            let mut samples = Vec::with_capacity(reps);
            for _ in 0..reps {
                let dir = fresh_dir("recover");
                let durability = DurabilityConfig {
                    snapshot_every: u64::MAX / 2,
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
                    .expect("create durable lineage");
                    for chunk in ops.chunks(256) {
                        server.ingest_batch(0, chunk).expect("ingest");
                        server.flush(0).expect("flush");
                    }
                } // drop without a final snapshot: the kill -9 stand-in
                let start = Instant::now();
                let (server, outcome) = TreeServer::recover_with_storage(
                    Arc::clone(&plan),
                    ServeConfig::default(),
                    &durability,
                    Arc::new(DiskFs),
                )
                .expect("recover");
                let elapsed = start.elapsed().as_nanos() as u64;
                assert_eq!(
                    outcome.shards[0].ops_replayed, tail,
                    "recovery must replay the whole WAL tail"
                );
                samples.push(elapsed);
                drop(server);
                std::fs::remove_dir_all(&dir).ok();
            }
            let rec =
                record_from_samples("E12_recovery", format!("recover_tail{tail}/{n}"), samples);
            eprintln!(
                "E12 n={n} tail={tail}: recovery min {} ns, mean {} ns",
                rec.min_ns, rec.mean_ns
            );
            c.push_record(rec);
        }
        for (tag, sync) in [
            ("none", None),
            ("onflush", Some(SyncPolicy::OnFlush)),
            ("always", Some(SyncPolicy::Always)),
        ] {
            let mut feed = EditFeed::new(&tree, EditStream::skewed(labels.clone(), 13_000));
            let ops: Vec<EditOp> = (0..ingest_ops).map(|_| feed.next_op()).collect();
            let mut samples = Vec::with_capacity(reps);
            for _ in 0..reps {
                let dir = fresh_dir("ingest");
                let server = match sync {
                    None => TreeServer::with_plan(
                        vec![tree.clone()],
                        Arc::clone(&plan),
                        ServeConfig::default(),
                    ),
                    Some(sync) => {
                        let durability = DurabilityConfig {
                            sync,
                            ..DurabilityConfig::new(&dir)
                        };
                        TreeServer::with_durability_on(
                            vec![tree.clone()],
                            Arc::clone(&plan),
                            ServeConfig::default(),
                            &durability,
                            Arc::new(DiskFs),
                        )
                        .expect("create durable server")
                    }
                };
                let start = Instant::now();
                for chunk in ops.chunks(32) {
                    server.ingest_batch(0, chunk).expect("ingest");
                    server.flush(0).expect("flush");
                }
                samples.push(start.elapsed().as_nanos() as u64 / ops.len().max(1) as u64);
                drop(server);
                std::fs::remove_dir_all(&dir).ok();
            }
            let rec = record_from_samples("E12_recovery", format!("ingest_{tag}/{n}"), samples);
            eprintln!("E12 n={n} ingest {tag}: mean {} ns/op", rec.mean_ns);
            c.push_record(rec);
        }
    }
}

/// The E13 chaos-resilience experiment: what failure costs the *caller*.
/// A durable one-shard [`treenum_serve::TreeServer`] serves `readers`
/// snapshot-reader threads while the main thread pushes a deterministic edit
/// stream through `ingest + flush` cycles; the `faulty` arm arms a
/// [`treenum_serve::ChaosSchedule`] that panics the writer twice at evenly
/// spaced batches — each fault forces a full `heal_from_storage` recovery
/// (snapshot load + WAL replay + atomic republish) — while the `clean` arm
/// runs the identical workload fault-free.
///
/// Record names (group `E13_chaos`):
///
/// * `read_{clean,faulty}_r<readers>/<n>` — per-answer snapshot-read delay
///   sampled straight through the fault–recover cycles.  Gated by
///   [`trajectory::E13_GATE`]: reads degrading under writer failure is
///   exactly the regression the self-healing layer exists to prevent.
/// * `ingest_{clean,faulty}/<n>` — caller-visible per-op ingest wall time,
///   backpressure retries included.  Recorded, not gated (scheduler noise).
/// * `ingest_available_ppm_{clean,faulty}/<n>` — first-try ingest
///   availability in parts per million (`mean_ns` carries the ppm value,
///   not a time).  Recorded, not gated.
///
/// The faulty arm asserts the heals actually happened, that the shard ends
/// `Healthy`, and that no acked op was dropped — a bench that silently
/// stopped injecting faults would otherwise keep reporting great numbers.
pub fn run_e13(
    c: &mut criterion::Criterion,
    sizes: &[usize],
    readers: usize,
    answers: usize,
    cycles: usize,
) {
    use std::ops::ControlFlow;
    use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
    use std::sync::Arc;
    use std::time::{Duration, Instant};
    use treenum_enumeration::EnumScratch;
    use treenum_serve::{
        ChaosFault, ChaosSchedule, DurabilityConfig, RetryPolicy, ServeConfig, ShardHealth,
        TreeServer,
    };
    use treenum_trees::edit::{EditFeed, EditOp};
    use treenum_trees::generate::EditStream;
    use treenum_wal::DiskFs;

    const FLUSHES_PER_CYCLE: usize = 4;
    const OPS_PER_FLUSH: usize = 32;

    // The injected writer panics are caught by the shard supervisor; keep
    // their backtraces out of the bench output (real panics still print).
    static QUIET_CHAOS: std::sync::Once = std::sync::Once::new();
    QUIET_CHAOS.call_once(|| {
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

    fn fresh_dir() -> std::path::PathBuf {
        static SEQ: AtomicU64 = AtomicU64::new(0);
        let n = SEQ.fetch_add(1, Ordering::Relaxed);
        std::env::temp_dir().join(format!("treenum-e13-{}-{n}", std::process::id()))
    }

    let (query, alphabet_len) = select_b_query();
    let labels: Vec<Label> = bench_alphabet().labels().collect();
    let plan = treenum_core::QueryPlan::for_query(&query, alphabet_len);
    for &n in sizes {
        let tree = bench_tree(n, TreeShape::Random, 17);
        let mut feed = EditFeed::new(&tree, EditStream::skewed(labels.clone(), 14_000));
        let ops: Vec<EditOp> = (0..cycles * FLUSHES_PER_CYCLE * OPS_PER_FLUSH)
            .map(|_| feed.next_op())
            .collect();
        for (tag, faulty) in [("clean", false), ("faulty", true)] {
            let dir = fresh_dir();
            let durability = DurabilityConfig::new(&dir);
            let chaos = faulty.then(|| {
                // Two panics at each fault point: the supervisor's in-place
                // rebuild retry absorbs a single panic, so `times: 2` is
                // what forces the full storage heal every cycle.
                let mut sched = ChaosSchedule::new();
                for cycle in 1..=cycles {
                    sched = sched.with(ChaosFault::PanicOnApply {
                        batch: (cycle * FLUSHES_PER_CYCLE) as u64,
                        times: 2,
                    });
                }
                Arc::new(sched)
            });
            let server = Arc::new(
                TreeServer::with_options(
                    vec![tree.clone()],
                    Arc::clone(&plan),
                    ServeConfig::default(),
                    Some((&durability, Arc::new(DiskFs))),
                    chaos.clone(),
                )
                .expect("create durable chaos server"),
            );

            let stop = Arc::new(AtomicBool::new(false));
            let mut reader_handles = Vec::with_capacity(readers);
            for _ in 0..readers {
                let server = Arc::clone(&server);
                let stop = Arc::clone(&stop);
                reader_handles.push(std::thread::spawn(move || {
                    let mut scratch = EnumScratch::new();
                    let mut gaps: Vec<u64> = Vec::new();
                    while !stop.load(Ordering::Relaxed) {
                        let snap = server.snapshot(0);
                        let mut seen = 0usize;
                        gaps.reserve(answers);
                        let mut last = Instant::now();
                        snap.for_each_with(&mut scratch, &mut |_a| {
                            let now = Instant::now();
                            gaps.push(now.saturating_duration_since(last).as_nanos() as u64);
                            last = now;
                            seen += 1;
                            if seen >= answers {
                                ControlFlow::Break(())
                            } else {
                                ControlFlow::Continue(())
                            }
                        });
                        // Same open-loop pacing as E9 (see `e9_scenario`).
                        std::thread::sleep(Duration::from_micros(200));
                    }
                    gaps
                }));
            }

            // Generous budget: a retry must survive a full heal cycle, and
            // giving up would fork the feed from the server's state.
            let policy = RetryPolicy {
                budget: Duration::from_secs(30),
                ..RetryPolicy::default()
            };
            let mut attempts = 0u64;
            let mut first_try = 0u64;
            let mut ingest_samples = Vec::with_capacity(ops.len());
            let ingest_start = Instant::now();
            for (i, op) in ops.iter().enumerate() {
                let t = Instant::now();
                attempts += 1;
                match server.ingest(0, *op) {
                    Ok(()) => first_try += 1,
                    Err(treenum_serve::ServeError::Backpressure) => {
                        policy
                            .run(|| server.ingest(0, *op))
                            .expect("ingest must succeed within the retry budget");
                    }
                    Err(e) => panic!("unexpected ingest error: {e}"),
                }
                if (i + 1) % OPS_PER_FLUSH == 0 {
                    server
                        .flush(0)
                        .expect("a durable shard never drops acked ops");
                }
                ingest_samples.push(t.elapsed().as_nanos() as u64);
            }
            let ingest_ns = ingest_start.elapsed().as_nanos() as u64;
            stop.store(true, Ordering::Relaxed);
            let mut gaps = Vec::new();
            for h in reader_handles {
                gaps.extend(h.join().expect("reader thread"));
            }

            let stats = server.shard_stats(0);
            if let Some(chaos) = &chaos {
                assert!(
                    chaos.fired() >= cycles as u64,
                    "chaos schedule must actually fire ({} < {cycles})",
                    chaos.fired()
                );
                assert_eq!(stats.heals, cycles as u64, "every fault must heal");
            }
            assert_eq!(stats.health, ShardHealth::Healthy, "shard must end healthy");
            assert_eq!(stats.ops_dropped_unacked, 0, "durable heals lose nothing");
            drop(server);
            std::fs::remove_dir_all(&dir).ok();

            let read = record_from_samples("E13_chaos", format!("read_{tag}_r{readers}/{n}"), gaps);
            let ingest =
                record_from_samples("E13_chaos", format!("ingest_{tag}/{n}"), ingest_samples);
            let avail_ppm = (first_try.saturating_mul(1_000_000) / attempts.max(1)) as u128;
            eprintln!(
                "E13 {tag} n={n}: read p95 {} ns p99 {} ns, ingest {} ns/op, \
                 availability {:.4}%, {} heal(s), {} panic(s) caught",
                read.p95_ns.unwrap_or(0),
                read.p99_ns.unwrap_or(0),
                ingest_ns / ops.len().max(1) as u64,
                avail_ppm as f64 / 10_000.0,
                stats.heals,
                stats.panics_caught,
            );
            c.push_record(read);
            c.push_record(ingest);
            c.push_record(criterion::BenchRecord {
                group: "E13_chaos".into(),
                name: format!("ingest_available_ppm_{tag}/{n}"),
                mean_ns: avail_ppm,
                min_ns: avail_ppm,
                p50_ns: None,
                p95_ns: None,
                p99_ns: None,
            });
        }
    }
}

/// The E7 update-throughput experiment: three arms (single-variable query,
/// marked-ancestor query, edit+enumerate round-trip) over long
/// `balanced_mix` streams.  The single definition of the workload — the
/// `update_throughput` bench target and the `bench_summary` runner only
/// differ in `sizes` and timing budgets, so the committed `BENCH_*.json`
/// trajectory always measures the same thing as `cargo bench`.
///
/// The marked-ancestor and edit+enumerate arms generate their edits through
/// a `NodeSampler` (O(1) per op, [`time_edits_sampled`]) so the untimed
/// region stops paying Θ(n) per iteration; `edit_select_b` deliberately
/// keeps the legacy `next_for` generation for continuity with the committed
/// trajectory (the *timed* region is identical either way).
pub fn run_e7(
    c: &mut criterion::Criterion,
    sizes: &[usize],
    sample_size: usize,
    warm_up: std::time::Duration,
    measurement: std::time::Duration,
) {
    use criterion::{black_box, BenchmarkId};
    use treenum_core::TreeEnumerator;
    use treenum_trees::edit::NodeSampler;
    use treenum_trees::generate::{EditStream, TreeShape};
    let labels: Vec<_> = bench_alphabet().labels().collect();
    let mut group = c.benchmark_group("E7_update_throughput");
    group.sample_size(sample_size);
    group.warm_up_time(warm_up);
    group.measurement_time(measurement);
    for &n in sizes {
        let tree = bench_tree(n, TreeShape::Random, 21);
        let (query, alphabet_len) = select_b_query();
        group.bench_with_input(BenchmarkId::new("edit_select_b", n), &n, |b, _| {
            let mut engine = TreeEnumerator::new(tree.clone(), &query, alphabet_len);
            let mut stream = EditStream::balanced_mix(labels.clone(), 27);
            time_edits(b, &mut engine, &mut stream, |_| ());
        });
        let (marked, marked_len) = marked_ancestor_query();
        group.bench_with_input(BenchmarkId::new("edit_marked_ancestor", n), &n, |b, _| {
            let mut engine = TreeEnumerator::new(tree.clone(), &marked, marked_len);
            let mut shadow = tree.clone();
            let mut sampler = NodeSampler::new(&shadow);
            let mut stream = EditStream::balanced_mix(labels.clone(), 33);
            time_edits_sampled(
                b,
                &mut engine,
                &mut stream,
                &mut shadow,
                &mut sampler,
                |_| (),
            );
        });
        group.bench_with_input(BenchmarkId::new("edit_then_first10", n), &n, |b, _| {
            let mut engine = TreeEnumerator::new(tree.clone(), &query, alphabet_len);
            let mut shadow = tree.clone();
            let mut sampler = NodeSampler::new(&shadow);
            let mut stream = EditStream::balanced_mix(labels.clone(), 39);
            time_edits_sampled(
                b,
                &mut engine,
                &mut stream,
                &mut shadow,
                &mut sampler,
                |e| {
                    black_box(first_k(e, 10));
                },
            );
        });
    }
    group.finish();
}
