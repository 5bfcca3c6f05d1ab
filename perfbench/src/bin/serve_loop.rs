//! End-to-end runner of the serving benchmark.
//!
//! One client thread runs a closed loop against one shard of a
//! `TreeServer`, so the shard's writer thread is the only other runnable
//! thread.  Each round ingests the round's ops, waits on the `flush`
//! barrier, and only then reads from a fresh snapshot while the writer is
//! idle.  All ops are generated through `EditFeed` before timing starts.
//!
//! Usage: `serve_loop --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! [--out-dir <dir>] [--flushes <file>]`.  The last stdout line is the JSON
//! result; lines before it starting with `#` are diagnostics.  With
//! `--trace 1` the rounds alternate between traced and untraced blocks, spans
//! are written to `<out-dir>/spans-<workload>-<seed>.tsv`, the writer's batch
//! sizes to `--flushes` (for the shadow replay of `layer_probe`), and the
//! metrics are the serving layer's per-layer ones.

use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};
use std::ops::ControlFlow;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::time::Instant;

use perfbench::{
    generate_rounds, initial_tree, median, rss_peak_mb, tail, Args, Metrics, Tracer, Workload,
    FIRST_K, NO_PARENT, PAGES_PER_ROUND, PAGE_SIZE, SETUP_REPS, WARMUP_ROUNDS,
};
use treenum_automata::StepwiseTva;
use treenum_core::TreeEnumerator;
use treenum_serve::{
    DurabilityConfig, PageCursor, QueryId, ServeConfig, ServeError, Snapshot, SyncPolicy,
    TreeServer,
};
use treenum_trees::edit::EditOp;
use treenum_trees::unranked::UnrankedTree;
use treenum_trees::valuation::Assignment;

/// Rounds per block when a traced run alternates traced and untraced
/// rounds (the untraced blocks give the tracing overhead).
const TRACE_BLOCK: usize = 8;
/// Rounds (warm-up included) after which `feed_durable_q8` prints its
/// exact WAL counts and over which `page_scan` sums its answers.
const COUNT_ROUNDS: usize = 24;

/// The client thread's bookkeeping: calls attempted and failed against
/// the serving API, spans, and the time of every paged read call.
struct Client {
    attempted: u64,
    failed: u64,
    tr: Tracer,
    page_us: Vec<f64>,
}

impl Client {
    fn note<T>(&mut self, r: Result<T, ServeError>) -> Option<T> {
        self.attempted += 1;
        match r {
            Ok(v) => Some(v),
            Err(e) => {
                self.failed += 1;
                println!("# error: {e}");
                None
            }
        }
    }
}

/// What one round measured.
struct Round {
    visible_ns: u64,
    read_ns: u64,
    /// Mean time of the round's paged read calls (`page` or `first_k`).
    read_call_us: f64,
    answers: u64,
    /// Answers the round's paged reads enumerated (returned + skipped to the
    /// cursor + the look-ahead answer).
    enumerated: u64,
}

/// Everything the loop accumulates over the timed rounds.
#[derive(Default)]
struct Samples {
    visible_us: Vec<f64>,
    read_us: Vec<f64>,
    read_call_us: Vec<f64>,
    answer_rate: Vec<f64>,
    round_us: Vec<f64>,
    /// Per round: whether it was traced (the traced run alternates blocks).
    round_traced: Vec<bool>,
    answers: u64,
    enumerated: u64,
    answers_by_round: Vec<u64>,
}

struct Setup {
    server: TreeServer,
    ids: Vec<QueryId>,
    wal_dir: Option<PathBuf>,
}

fn build_server(
    base: &UnrankedTree,
    queries: &[(StepwiseTva, usize)],
    wal_dir: Option<&Path>,
    c: &mut Client,
    register_ms: &mut Vec<f64>,
) -> TreeServer {
    let (primary, len) = &queries[0];
    let trees = vec![base.clone()];
    let span = c.tr.begin("setup", NO_PARENT, 0);
    let server = match wal_dir {
        Some(dir) => {
            let cfg = DurabilityConfig {
                sync: SyncPolicy::OnFlush,
                ..DurabilityConfig::new(dir)
            };
            TreeServer::with_durability(trees, primary, *len, ServeConfig::default(), &cfg)
                .expect("create the durable shard directory")
        }
        None => TreeServer::new(trees, primary, *len, ServeConfig::default()),
    };
    for (q, len) in &queries[1..] {
        let t = Instant::now();
        let reg_span = c.tr.begin("register", span, 0);
        c.note(server.register(q, *len));
        c.tr.end(reg_span);
        register_ms.push(t.elapsed().as_secs_f64() * 1e3);
    }
    c.tr.end(span);
    server
}

/// Sets the server up `SETUP_REPS` times (dropping each but the last) and
/// returns the last one with the set-up times in seconds.
fn set_up(
    w: Workload,
    base: &UnrankedTree,
    queries: &[(StepwiseTva, usize)],
    out_dir: &Path,
    c: &mut Client,
    register_ms: &mut Vec<f64>,
) -> (Setup, Vec<f64>) {
    let mut times = Vec::with_capacity(SETUP_REPS);
    let mut last = None;
    for rep in 0..SETUP_REPS {
        if let Some(Setup {
            server, wal_dir, ..
        }) = last.take()
        {
            drop(server);
            remove_dir(wal_dir.as_deref());
        }
        let wal_dir = w
            .durable()
            .then(|| out_dir.join(format!("wal-{}-{}-{rep}", w.name(), std::process::id())));
        remove_dir(wal_dir.as_deref());
        let t = Instant::now();
        let server = build_server(base, queries, wal_dir.as_deref(), c, register_ms);
        times.push(t.elapsed().as_secs_f64());
        let ids = server.registered_queries();
        last = Some(Setup {
            server,
            ids,
            wal_dir,
        });
    }
    (last.expect("at least one set-up"), times)
}

fn remove_dir(dir: Option<&Path>) {
    if let Some(d) = dir {
        let _ = std::fs::remove_dir_all(d);
    }
}

/// One closed-loop round: ingest → flush barrier → snapshot → reads.
fn round(
    w: Workload,
    server: &TreeServer,
    ids: &[QueryId],
    ops: &[EditOp],
    r: u32,
    c: &mut Client,
) -> Round {
    let round_span = c.tr.begin("round", NO_PARENT, r);
    let t0 = Instant::now();
    let span = c.tr.begin("ingest", round_span, r);
    if ops.len() == 1 {
        c.note(server.ingest(0, ops[0]));
    } else {
        c.note(server.ingest_batch(0, ops));
    }
    c.tr.end(span);
    let span = c.tr.begin("flush", round_span, r);
    c.note(server.flush(0));
    c.tr.end(span);
    let t1 = Instant::now();

    let span = c.tr.begin("snapshot", round_span, r);
    let snap = server.snapshot(0);
    c.tr.end(span);
    let calls_before = c.page_us.len();
    let (answers, enumerated) = match w {
        Workload::EditInteractive => {
            let n = timed_first_k(c, round_span, r, || snap.first_k(FIRST_K).len());
            (n, n)
        }
        Workload::FeedDurableQ8 => {
            let mut n = 0;
            for &id in ids {
                if let Some(reader) = c.note(snap.query(id)) {
                    n += timed_first_k(c, round_span, r, || reader.first_k(FIRST_K).len());
                }
            }
            (n, n)
        }
        Workload::PageScan => page_scan_reads(&snap, ids[1], r, round_span, c),
    };
    drop(snap);
    let t2 = Instant::now();
    c.tr.end(round_span);
    let read_calls = &c.page_us[calls_before..];
    Round {
        visible_ns: t1.saturating_duration_since(t0).as_nanos() as u64,
        read_ns: t2.saturating_duration_since(t1).as_nanos() as u64,
        read_call_us: read_calls.iter().sum::<f64>() / read_calls.len().max(1) as f64,
        answers,
        enumerated,
    }
}

fn timed_first_k(c: &mut Client, parent: u32, r: u32, read: impl FnOnce() -> usize) -> u64 {
    let span = c.tr.begin("first_k", parent, r);
    let t = Instant::now();
    let n = read();
    c.page_us.push(t.elapsed().as_secs_f64() * 1e6);
    c.tr.end(span);
    n as u64
}

/// `page_scan`'s reads on one pinned snapshot: up to sixteen pages of the
/// pair query, then a full count of the primary.  Returns (answers
/// delivered, answers enumerated).
fn page_scan_reads(
    snap: &Snapshot,
    pair: QueryId,
    r: u32,
    parent: u32,
    c: &mut Client,
) -> (u64, u64) {
    let mut delivered = 0u64;
    let mut enumerated = 0u64;
    if let Some(reader) = c.note(snap.query(pair)) {
        let mut cursor = None;
        for _ in 0..PAGES_PER_ROUND {
            let position = cursor.map_or(0, |c: PageCursor| c.position());
            let span = c.tr.begin("page", parent, r);
            let t = Instant::now();
            let page = c.note(reader.page(cursor, PAGE_SIZE));
            c.page_us.push(t.elapsed().as_secs_f64() * 1e6);
            c.tr.end(span);
            let Some(page) = page else { break };
            let n = page.answers.len() as u64;
            delivered += n;
            enumerated += position as u64 + n + u64::from(page.next.is_some());
            cursor = page.next;
            if cursor.is_none() {
                break;
            }
        }
    }
    let span = c.tr.begin("for_each", parent, r);
    let mut count = 0u64;
    snap.for_each(&mut |_| {
        count += 1;
        ControlFlow::Continue(())
    });
    c.tr.end(span);
    (delivered + count, enumerated + count)
}

/// (count, order-independent hash) of an enumeration.
fn fingerprint(for_each: impl FnOnce(&mut dyn FnMut(Assignment) -> ControlFlow<()>)) -> (u64, u64) {
    let mut count = 0u64;
    let mut sum = 0u64;
    for_each(&mut |a| {
        let mut h = DefaultHasher::new();
        a.hash(&mut h);
        sum = sum.wrapping_add(h.finish());
        count += 1;
        ControlFlow::Continue(())
    });
    (count, sum)
}

/// Compares every registered query's final answers with a from-scratch
/// engine on the `EditFeed` shadow tree, and runs the snapshot's own
/// consistency check.
fn check_answers(
    server: &TreeServer,
    ids: &[QueryId],
    queries: &[(StepwiseTva, usize)],
    shadow: &UnrankedTree,
) -> bool {
    let snap = server.snapshot(0);
    let mut ok = catch_unwind(AssertUnwindSafe(|| snap.check_consistency())).is_ok();
    if !ok {
        println!("# correctness: check_consistency failed");
    }
    if ids.len() != queries.len() {
        println!(
            "# correctness: {} queries registered, {} expected",
            ids.len(),
            queries.len()
        );
        return false;
    }
    for (&id, (q, len)) in ids.iter().zip(queries) {
        let Ok(reader) = snap.query(id) else {
            println!("# correctness: query {id} missing from the final snapshot");
            return false;
        };
        let served = fingerprint(|sink| reader.for_each(sink));
        let fresh = TreeEnumerator::new(shadow.clone(), q, *len);
        let expected = fingerprint(|sink| fresh.for_each(sink));
        if served != expected {
            println!(
                "# correctness: query {id} serves {} answers (hash {:x}), from scratch {} (hash {:x})",
                served.0, served.1, expected.0, expected.1
            );
            ok = false;
        }
    }
    ok
}

fn main() {
    let args = match Args::parse() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("serve_loop: {e}");
            std::process::exit(2);
        }
    };
    let w = args.workload;
    std::fs::create_dir_all(&args.out_dir).expect("create the output directory");
    let opr = w.ops_per_round();

    // Inputs, generated before anything is timed.
    let base = initial_tree(args.seed);
    let queries = w.queries();
    let budget = w.round_budget(args.seconds);
    let (ops, _) = generate_rounds(w, &base, args.seed, budget);

    let mut c = Client {
        attempted: 0,
        failed: 0,
        tr: Tracer::new(args.trace),
        page_us: Vec::new(),
    };
    let mut register_ms = Vec::new();
    let (setup, setup_s) = set_up(w, &base, &queries, &args.out_dir, &mut c, &mut register_ms);
    let Setup {
        server,
        ids,
        wal_dir,
    } = setup;

    let mut s = Samples::default();
    let mut rounds = 0usize;
    let mut wal_at_count_round = None;
    c.tr.on = false;
    for r in 0..WARMUP_ROUNDS {
        let chunk = &ops[r * opr..(r + 1) * opr];
        let res = round(w, &server, &ids, chunk, r as u32, &mut c);
        s.answers_by_round.push(res.answers);
        rounds += 1;
    }
    c.page_us.clear();

    let deadline = std::time::Duration::from_secs(args.seconds);
    let start = Instant::now();
    let mut timed_ns = 0u64;
    while start.elapsed() < deadline && rounds < budget {
        let traced = args.trace && (rounds / TRACE_BLOCK) % 2 == 1;
        c.tr.on = traced;
        let chunk = &ops[rounds * opr..(rounds + 1) * opr];
        let res = round(w, &server, &ids, chunk, rounds as u32, &mut c);
        rounds += 1;
        let round_ns = res.visible_ns + res.read_ns;
        timed_ns += round_ns;
        s.visible_us.push(res.visible_ns as f64 / 1e3);
        s.read_us.push(res.read_ns as f64 / 1e3);
        s.read_call_us.push(res.read_call_us);
        s.answer_rate
            .push(res.answers as f64 * 1e9 / res.read_ns.max(1) as f64);
        s.round_us.push(round_ns as f64 / 1e3);
        s.round_traced.push(traced);
        s.answers += res.answers;
        s.enumerated += res.enumerated;
        s.answers_by_round.push(res.answers);
        if rounds == COUNT_ROUNDS {
            let st = server.shard_stats(0);
            wal_at_count_round = Some((st.wal_records, st.wal_bytes, rounds * opr));
        }
    }
    c.tr.on = false;
    // Peak memory of the serving run itself, before the correctness check
    // builds its reference engines.
    let rss_mb = rss_peak_mb();
    let timed_rounds = rounds - WARMUP_ROUNDS;
    let ops_used = rounds * opr;

    // Correctness: a second feed regenerates exactly the rounds run; its
    // shadow tree is the state every query must answer on.
    let (ref_ops, ref_feed) = generate_rounds(w, &base, args.seed, rounds);
    let mut correct = ref_ops[..] == ops[..ops_used];
    if !correct {
        println!("# correctness: regenerated ops differ from the ingested ones");
    }
    correct &= check_answers(&server, &ids, &queries, ref_feed.tree());

    let stats = server.shard_stats(0);
    let log = server.flush_log(0);
    let data_flushes: Vec<_> = log.iter().filter(|f| f.size > 0).collect();
    let applied: usize = data_flushes.iter().map(|f| f.size).sum();
    if applied != ops_used || stats.edits_applied != ops_used as u64 {
        println!("# correctness: {applied} ops in the flush log, {ops_used} ingested");
        correct = false;
    }

    // Exact counts: they depend only on the inputs, so two runs with one
    // seed print the same values unless the loop stopped being closed.
    match w {
        Workload::EditInteractive => {
            println!("# check flushes={} rounds={rounds}", data_flushes.len());
            if data_flushes.len() != rounds {
                correct = false;
            }
        }
        Workload::FeedDurableQ8 => match wal_at_count_round {
            Some((records, bytes, acked)) => {
                println!(
                    "# check after round {COUNT_ROUNDS}: wal_records={records} wal_bytes={bytes} acked_ops={acked}"
                );
                if records != acked as u64 {
                    correct = false;
                }
            }
            None => println!("# check: fewer than {COUNT_ROUNDS} rounds ran"),
        },
        Workload::PageScan => {
            let first: Vec<String> = s
                .answers_by_round
                .iter()
                .take(4)
                .map(u64::to_string)
                .collect();
            let upto = COUNT_ROUNDS.min(s.answers_by_round.len());
            let sum: u64 = s.answers_by_round[..upto].iter().sum();
            println!(
                "# check answers per round (first 4) = {} ; sum over first {upto} rounds = {sum}",
                first.join(",")
            );
        }
    }

    // Tails and the whole-phase throughput are diagnostics, not metrics.
    let timed_s = timed_ns as f64 / 1e9;
    println!(
        "# rounds={timed_rounds} timed_s={timed_s:.3} setup_s={:?}",
        setup_s
            .iter()
            .map(|t| format!("{t:.3}"))
            .collect::<Vec<_>>()
    );
    println!("# visible_us {}", tail(&s.visible_us));
    let quarter = s.visible_us.len().div_ceil(4).max(1);
    let drift: Vec<String> = s
        .visible_us
        .chunks(quarter)
        .map(|c| format!("{:.1}", median(c)))
        .collect();
    println!(
        "# visible_us p50 per quarter of the timed rounds: {}",
        drift.join(" ")
    );
    println!("# read_us {}", tail(&s.read_us));
    println!("# page_us {}", tail(&c.page_us));
    println!(
        "# edits_per_s over the whole timed phase={:.1}",
        (timed_rounds * opr) as f64 / timed_s.max(1e-9)
    );
    println!(
        "# error_rate={} ({} of {} calls)",
        c.failed as f64 / c.attempted.max(1) as f64,
        c.failed,
        c.attempted
    );
    println!(
        "# shard flushes={} generation={} window={} reclaim_waits={} rebuild_fallbacks={} wal_records={} wal_bytes={} snapshots_persisted={}",
        stats.flushes,
        stats.generation,
        stats.window,
        stats.reclaim_waits,
        stats.rebuild_fallbacks,
        stats.wal_records,
        stats.wal_bytes,
        stats.snapshots_persisted
    );

    let mut m = Metrics::default();
    if args.trace {
        // Traced run: a register round trip for workloads that register
        // nothing at set-up, so every workload reports `serve.register_ms`.
        if register_ms.is_empty() {
            let (extra, len) = (&treenum_bench::distinct_queries(1)[0], queries[0].1);
            let t = Instant::now();
            if let Some(reg) = c.note(server.register(extra, len)) {
                register_ms.push(t.elapsed().as_secs_f64() * 1e3);
                c.note(server.deregister(reg.id));
            }
        }
        let cycle_us: Vec<f64> = data_flushes.iter().map(|f| f.nanos as f64 / 1e3).collect();
        let circuit = server.snapshot(0).stats();
        let rounds_us = |traced: bool| -> Vec<f64> {
            s.round_us
                .iter()
                .zip(&s.round_traced)
                .filter(|&(_, &t)| t == traced)
                .map(|(&us, _)| us)
                .collect()
        };
        let (on, off) = (rounds_us(true), rounds_us(false));
        let overhead = median(&on) / median(&off) - 1.0;
        m.put(
            "serve.ingest_us",
            median(&c.tr.durations_us("ingest")),
            "us",
        );
        m.put(
            "serve.flush_wait_us",
            median(&c.tr.durations_us("flush")),
            "us",
        );
        m.put("serve.flush_cycle_us", median(&cycle_us), "us");
        m.put(
            "serve.ops_per_flush",
            applied as f64 / data_flushes.len().max(1) as f64,
            "ops",
        );
        m.put("serve.sharing_ratio", stats.sharing_ratio(), "ratio");
        m.put("serve.reclaim_waits", stats.reclaim_waits as f64, "count");
        m.put(
            "serve.rebuild_fallbacks",
            stats.rebuild_fallbacks as f64,
            "count",
        );
        m.put(
            "serve.snapshot_us",
            median(&c.tr.durations_us("snapshot")),
            "us",
        );
        m.put("serve.register_ms", median(&register_ms), "ms");
        m.put(
            "serve.page_yield",
            s.answers as f64 / s.enumerated.max(1) as f64,
            "ratio",
        );
        m.put("circuits.boxes", circuit.circuit_boxes as f64, "count");
        m.put("circuits.width", circuit.circuit_width as f64, "count");
        m.put(
            "wal.snapshots_persisted",
            stats.snapshots_persisted as f64,
            "count",
        );
        m.put("trace.overhead_pct", overhead * 100.0, "%");

        println!(
            "# tracing: {} traced rounds (round p50 {:.1} us), {} untraced (round p50 {:.1} us)",
            on.len(),
            median(&on),
            off.len(),
            median(&off)
        );
        for (name, n, dur, own) in c.tr.summary() {
            println!("# span {name}: n={n} p50={dur:.2}us self_p50={own:.2}us");
        }
        let spans = args
            .out_dir
            .join(format!("spans-{}-{}.tsv", w.name(), args.seed));
        if let Err(e) = c.tr.write_tsv(&spans) {
            println!("# could not write {}: {e}", spans.display());
        }
        if let Some(path) = &args.flushes {
            let sizes: Vec<String> = data_flushes.iter().map(|f| f.size.to_string()).collect();
            std::fs::write(path, sizes.join("\n")).expect("write the batch sizes");
        }
    } else {
        m.put("setup_s", median(&setup_s), "s");
        m.put("visible_p50_us", median(&s.visible_us), "us");
        m.put("read_p50_us", median(&s.read_us), "us");
        // Throughput at the median round: a few stalled wake-ups move a mean
        // by tens of percent on a busy machine, a median hardly at all.
        m.put(
            "edits_per_s",
            opr as f64 * 1e6 / median(&s.round_us).max(1e-9),
            "1/s",
        );
        m.put("answers_per_s", median(&s.answer_rate), "1/s");
        m.put("page_p50_us", median(&s.read_call_us), "us");
        m.put("rss_peak_mb", rss_mb, "MB");
    }
    drop(server);
    remove_dir(wal_dir.as_deref());
    println!("{}", m.to_json(correct, c.attempted, c.failed));
}
