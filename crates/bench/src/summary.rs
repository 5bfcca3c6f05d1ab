//! Compact, machine-readable re-runs of experiments E1–E9, E11, E12 and E13.
//!
//! [`run_summary`] executes a scaled-down version of every experiment in
//! `benches/` through the vendored criterion stub and leaves the measurements
//! in [`Criterion::records`], which the `bench_summary` binary serializes to
//! JSON (`BENCH_baseline.json` / `BENCH_after.json` at the repository root).
//! Perf PRs record a baseline before touching the hot path and an "after" file
//! once done, so the repository carries its own performance trajectory.
//!
//! Three profiles are provided: `full` (the numbers quoted in EXPERIMENTS.md,
//! tens of seconds), `smoke` (tiny sizes, a few seconds — run by CI so the
//! bench code cannot bit-rot) and `e12` (crash recovery only).  The CI bench
//! gates derive their profiles from the gate table
//! ([`crate::trajectory::GATES`]).

use criterion::{BenchRecord, BenchmarkId, Criterion};
use std::ops::ControlFlow;
use std::time::{Duration, Instant};
use treenum_automata::ops::determinize;
use treenum_automata::wva::spanners;
use treenum_baselines::RecomputeBaseline;
use treenum_core::words::{WordEdit, WordEnumerator};
use treenum_core::TreeEnumerator;
use treenum_lowerbound::{EnumerationMarkedAncestor, NaiveMarkedAncestor};
use treenum_trees::edit::NodeSampler;
use treenum_trees::generate::{random_word, EditStream, TreeShape};
use treenum_trees::valuation::Var;
use treenum_trees::{Alphabet, Label};

use crate::{bench_alphabet, bench_tree, first_k, kth_child_query, pair_query, select_b_query};

/// Workload sizes and timing budgets for one summary run.
#[derive(Clone, Debug)]
pub struct SummaryProfile {
    /// Profile name, stamped into the JSON output.
    pub name: &'static str,
    /// Tree sizes for E1 (preprocessing), the legacy E2 first-200 arm and E3
    /// (updates).
    pub tree_sizes: Vec<usize>,
    /// Tree sizes for the per-answer E2 delay-percentile arms.
    pub e2_sizes: Vec<usize>,
    /// Number of answers drawn per enumeration run when sampling per-answer
    /// delays (E2).
    pub e2_answers: usize,
    /// `k` values for the E4 nondeterministic pipeline.
    pub e4_ks: Vec<usize>,
    /// Word lengths for E5 (spanners).
    pub word_sizes: Vec<usize>,
    /// Tree sizes for E6 (marked ancestor).
    pub e6_sizes: Vec<usize>,
    /// Tree sizes for E7 (update throughput over long edit streams).
    pub e7_sizes: Vec<usize>,
    /// Tree sizes for E8 (batch updates).
    pub e8_sizes: Vec<usize>,
    /// Batch sizes `k` for E8.
    pub e8_ks: Vec<usize>,
    /// Tree sizes for E9 (concurrent serving).
    pub e9_sizes: Vec<usize>,
    /// Concurrent snapshot-reader threads for E9.
    pub e9_readers: usize,
    /// Tree sizes for E11 (query registry & snapshot multiplexing).
    pub e11_sizes: Vec<usize>,
    /// Registered-query counts for the E11 arms (each arm serves the primary
    /// plus `q - 1` distinct runtime-registered queries).
    pub e11_qs: Vec<usize>,
    /// Tree sizes for E12 (crash recovery).
    pub e12_sizes: Vec<usize>,
    /// WAL tail lengths (snapshot ages, in ops) for the E12 recovery arms.
    pub e12_tails: Vec<usize>,
    /// Ops per repetition for the E12 durable-ingest overhead arms.
    pub e12_ops: usize,
    /// Repetitions (= samples) per E12 record.
    pub e12_reps: usize,
    /// Tree sizes for E13 (serving through fault–recover cycles).
    pub e13_sizes: Vec<usize>,
    /// Fault–recover cycles injected per E13 faulty arm.
    pub e13_cycles: usize,
    /// Per-benchmark warm-up budget.
    pub warm_up: Duration,
    /// Per-benchmark measurement budget.
    pub measurement: Duration,
    /// Nominal sample count (sizes the stub's timing batches).
    pub sample_size: usize,
    /// Which experiments to run (`None` = all of them).  The `e12` profile
    /// and each gate's [`GateSpec::profile`](crate::trajectory::GateSpec::profile)
    /// restrict the run to one experiment.
    pub experiments: Option<&'static [&'static str]>,
}

impl SummaryProfile {
    /// The profile behind the committed `BENCH_*.json` trajectory files.
    /// E7 must include n ≥ 10⁴ — that is the size the per-edit latency
    /// acceptance bar is measured at.
    pub fn full() -> Self {
        SummaryProfile {
            name: "full",
            tree_sizes: vec![1_000, 4_000, 16_000],
            e2_sizes: vec![1_000, 10_000, 40_000],
            e2_answers: 256,
            e4_ks: vec![2, 4],
            word_sizes: vec![1_000, 4_000, 16_000],
            e6_sizes: vec![1_000, 4_000],
            e7_sizes: vec![1_000, 10_000, 40_000],
            e8_sizes: vec![10_000, 40_000],
            e8_ks: vec![1, 8, 64, 256],
            e9_sizes: vec![10_000, 40_000],
            e9_readers: 4,
            e11_sizes: vec![10_000],
            e11_qs: vec![1, 4, 16],
            e12_sizes: vec![10_000],
            e12_tails: vec![0, 256, 1024, 4096],
            e12_ops: 512,
            e12_reps: 5,
            e13_sizes: vec![10_000],
            e13_cycles: 6,
            warm_up: Duration::from_millis(200),
            measurement: Duration::from_millis(700),
            sample_size: 10,
            experiments: None,
        }
    }

    /// Tiny sizes for CI smoke runs: exercises every experiment end to end in
    /// a few seconds without producing quotable numbers.
    pub fn smoke() -> Self {
        SummaryProfile {
            name: "smoke",
            tree_sizes: vec![200],
            e2_sizes: vec![200],
            e2_answers: 64,
            e4_ks: vec![2],
            word_sizes: vec![200],
            e6_sizes: vec![200],
            e7_sizes: vec![400],
            e8_sizes: vec![300],
            e8_ks: vec![4],
            e9_sizes: vec![300],
            e9_readers: 2,
            e11_sizes: vec![300],
            e11_qs: vec![1, 16],
            e12_sizes: vec![300],
            e12_tails: vec![0, 32],
            e12_ops: 64,
            e12_reps: 2,
            e13_sizes: vec![300],
            e13_cycles: 2,
            warm_up: Duration::from_millis(10),
            measurement: Duration::from_millis(40),
            sample_size: 3,
            experiments: None,
        }
    }

    /// The crash-recovery experiment only, at the `full` sizes: measures
    /// recovery time and the durability tax without paying for the full
    /// sweep.  Its records are *spliced into* `BENCH_after.json` (run with
    /// `--out` to a scratch file, merge the `E12_recovery` group) — never
    /// re-record the other groups alongside it, that would shift the
    /// gate baselines.
    pub fn e12() -> Self {
        SummaryProfile {
            name: "e12",
            experiments: Some(&["E12"]),
            ..Self::full()
        }
    }

    /// Parses a profile name (`full` / `smoke` / `e12`).
    pub fn by_name(name: &str) -> Option<Self> {
        match name {
            "full" => Some(Self::full()),
            "smoke" => Some(Self::smoke()),
            "e12" => Some(Self::e12()),
            _ => None,
        }
    }

    fn runs(&self, experiment: &str) -> bool {
        self.experiments
            .is_none_or(|list| list.contains(&experiment))
    }
}

/// Runs every experiment selected by the profile, recording into `c`.
pub fn run_summary(c: &mut Criterion, profile: &SummaryProfile) {
    if profile.runs("E1") {
        e1_preprocessing(c, profile);
    }
    if profile.runs("E2") {
        e2_delay(c, profile);
    }
    if profile.runs("E3") {
        e3_updates(c, profile);
    }
    if profile.runs("E4") {
        e4_combined(c, profile);
    }
    if profile.runs("E5") {
        e5_spanners(c, profile);
    }
    if profile.runs("E6") {
        e6_lower_bound(c, profile);
    }
    if profile.runs("E7") {
        e7_update_throughput(c, profile);
    }
    if profile.runs("E8") {
        e8_batch_updates(c, profile);
    }
    if profile.runs("E9") {
        e9_serving(c, profile);
    }
    if profile.runs("E11") {
        e11_registry(c, profile);
    }
    if profile.runs("E12") {
        e12_recovery(c, profile);
    }
    if profile.runs("E13") {
        e13_chaos(c, profile);
    }
}

fn e1_preprocessing(c: &mut Criterion, p: &SummaryProfile) {
    let (query, alphabet_len) = select_b_query();
    let mut group = c.benchmark_group("E1_preprocessing");
    group.sample_size(p.sample_size);
    group.warm_up_time(p.warm_up);
    group.measurement_time(p.measurement);
    for &n in &p.tree_sizes {
        let tree = bench_tree(n, TreeShape::Random, 42);
        group.bench_with_input(BenchmarkId::new("build", n), &n, |b, _| {
            b.iter(|| TreeEnumerator::new(tree.clone(), &query, alphabet_len));
        });
    }
    group.finish();
}

fn e2_delay(c: &mut Criterion, p: &SummaryProfile) {
    {
        let mut group = c.benchmark_group("E2_delay");
        group.sample_size(p.sample_size);
        group.warm_up_time(p.warm_up);
        group.measurement_time(p.measurement);
        let k = 200usize;
        for &n in &p.tree_sizes {
            let tree = bench_tree(n, TreeShape::Random, 7);
            let (query, alphabet_len) = select_b_query();
            let engine = TreeEnumerator::new(tree.clone(), &query, alphabet_len);
            group.bench_with_input(
                BenchmarkId::new("first200_select_indexed", n),
                &n,
                |b, _| {
                    b.iter(|| first_k(&engine, k));
                },
            );
        }
        group.finish();
    }
    // Per-answer delay distribution (the paper's headline guarantee is about
    // the gap between *consecutive* answers, which a first-K mean hides).
    // Timestamp every sink invocation, pool the gaps across runs, report
    // mean/min/p50/p95/p99.  See EXPERIMENTS.md, "E2 methodology".
    for &n in &p.e2_sizes {
        let tree = bench_tree(n, TreeShape::Random, 7);
        let (select, alen) = select_b_query();
        let (pairs, palen) = pair_query();
        for (qname, query, alphabet_len) in [("select_b", &select, alen), ("pairs", &pairs, palen)]
        {
            let engine = TreeEnumerator::new(tree.clone(), query, alphabet_len);
            let record = measure_per_answer_delay(
                &engine,
                format!("per_answer_{qname}/{n}"),
                p.e2_answers,
                p.warm_up,
                p.measurement,
            );
            c.push_record(record);
        }
    }
}

/// Samples the per-answer delay distribution of `engine`: repeatedly
/// enumerates the first `answers` answers (warm-up runs first, so scratch
/// state and caches are hot), recording the wall-clock gap preceding every
/// answer, until the measurement budget is spent.
pub fn measure_per_answer_delay(
    engine: &TreeEnumerator,
    name: String,
    answers: usize,
    warm_up: Duration,
    measurement: Duration,
) -> BenchRecord {
    let run = |gaps: Option<&mut Vec<u64>>| {
        let mut seen = 0usize;
        match gaps {
            None => {
                engine.for_each(&mut |_a| {
                    seen += 1;
                    if seen >= answers {
                        ControlFlow::Break(())
                    } else {
                        ControlFlow::Continue(())
                    }
                });
            }
            Some(gaps) => {
                let mut last = Instant::now();
                engine.for_each(&mut |_a| {
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
            }
        }
    };
    // Warm-up: untimed runs until the budget is spent (at least one).
    let warm_start = Instant::now();
    loop {
        run(None);
        if warm_start.elapsed() >= warm_up {
            break;
        }
    }
    let mut gaps: Vec<u64> = Vec::new();
    let deadline = Instant::now() + measurement;
    loop {
        // Reserve outside the timed region: a push-triggered realloc inside
        // the loop would land its memcpy cost in one recorded gap, faking a
        // tail outlier in exactly the p95/p99 statistics CI gates on.
        gaps.reserve(answers);
        run(Some(&mut gaps));
        if Instant::now() >= deadline {
            break;
        }
    }
    crate::record_from_samples("E2_delay", name, gaps)
}

fn e3_updates(c: &mut Criterion, p: &SummaryProfile) {
    let (query, alphabet_len) = select_b_query();
    let labels: Vec<_> = bench_alphabet().labels().collect();
    let mut group = c.benchmark_group("E3_updates");
    group.sample_size(p.sample_size);
    group.warm_up_time(p.warm_up);
    group.measurement_time(p.measurement);
    for &n in &p.tree_sizes {
        let tree = bench_tree(n, TreeShape::Random, 3);
        group.bench_with_input(BenchmarkId::new("treenum_update", n), &n, |b, _| {
            let mut engine = TreeEnumerator::new(tree.clone(), &query, alphabet_len);
            let mut stream = EditStream::balanced_mix(labels.clone(), 9);
            b.iter(|| {
                let op = stream.next_for(engine.tree());
                engine.apply(&op)
            });
        });
        // The same workload with O(1) NodeSampler-backed generation: the
        // legacy arm's per-iteration time mixes Θ(n) generation with apply,
        // this arm isolates apply (plus an O(1) draw) at every size.
        group.bench_with_input(BenchmarkId::new("treenum_update_sampled", n), &n, |b, _| {
            let mut engine = TreeEnumerator::new(tree.clone(), &query, alphabet_len);
            let mut shadow = tree.clone();
            let mut sampler = NodeSampler::new(&shadow);
            let mut stream = EditStream::balanced_mix(labels.clone(), 9);
            b.iter(|| {
                let op = stream.next_applied_sampled(&mut shadow, &mut sampler);
                engine.apply(&op)
            });
        });
    }
    // The Θ(n) recompute baseline at the smallest size only: it anchors the
    // comparison without dominating the summary's runtime.
    if let Some(&n) = p.tree_sizes.first() {
        let tree = bench_tree(n, TreeShape::Random, 3);
        group.bench_with_input(
            BenchmarkId::new("recompute_baseline_update", n),
            &n,
            |b, _| {
                let mut baseline = RecomputeBaseline::new(tree.clone(), &query, alphabet_len);
                let mut stream = EditStream::balanced_mix(labels.clone(), 9);
                b.iter(|| {
                    let op = stream.next_for(baseline.tree());
                    baseline.apply(&op)
                });
            },
        );
    }
    group.finish();
}

fn e4_combined(c: &mut Criterion, p: &SummaryProfile) {
    let mut group = c.benchmark_group("E4_combined_complexity");
    group.sample_size(p.sample_size);
    group.warm_up_time(p.warm_up);
    group.measurement_time(p.measurement);
    let tree = bench_tree(
        400.min(*p.tree_sizes.first().unwrap_or(&400)),
        TreeShape::Wide,
        5,
    );
    for &k in &p.e4_ks {
        let (query, alphabet_len) = kth_child_query(k);
        group.bench_with_input(
            BenchmarkId::new("nondeterministic_pipeline", k),
            &k,
            |b, _| {
                b.iter(|| {
                    let engine = TreeEnumerator::new(tree.clone(), &query, alphabet_len);
                    engine.count()
                });
            },
        );
        if k <= 2 {
            // One determinize arm keeps the blow-up visible in the trajectory
            // while staying far from the quartic-translation wall (see E4 notes).
            group.bench_with_input(
                BenchmarkId::new("determinize_then_pipeline", k),
                &k,
                |b, _| {
                    b.iter(|| {
                        let det = determinize(&query);
                        let engine =
                            TreeEnumerator::new(tree.clone(), &det.automaton, alphabet_len);
                        (det.subsets.len(), engine.count())
                    });
                },
            );
        }
    }
    group.finish();
}

fn e5_spanners(c: &mut Criterion, p: &SummaryProfile) {
    let mut sigma = Alphabet::from_names(["a", "b", "c"]);
    let a = Label(0);
    let wva = spanners::runs_of(sigma.len(), a, Var(0), Var(1));
    let mut group = c.benchmark_group("E5_spanners");
    group.sample_size(p.sample_size);
    group.warm_up_time(p.warm_up);
    group.measurement_time(p.measurement);
    for &n in &p.word_sizes {
        let word = random_word(&mut sigma, n, 11);
        group.bench_with_input(BenchmarkId::new("preprocess", n), &n, |b, _| {
            b.iter(|| WordEnumerator::new(&word, &wva, 3));
        });
        group.bench_with_input(BenchmarkId::new("update_replace", n), &n, |b, _| {
            let mut engine = WordEnumerator::new(&word, &wva, 3);
            let mut at = 0usize;
            let mut letter = 0u32;
            b.iter(|| {
                at = (at * 31 + 17) % engine.len();
                letter = (letter + 1) % 3;
                engine.apply(WordEdit::Replace {
                    at,
                    letter: Label(letter),
                });
            });
        });
    }
    group.finish();
}

fn e6_lower_bound(c: &mut Criterion, p: &SummaryProfile) {
    let mut group = c.benchmark_group("E6_lower_bound");
    group.sample_size(p.sample_size);
    group.warm_up_time(p.warm_up);
    group.measurement_time(p.measurement);
    for &n in &p.e6_sizes {
        let shape = bench_tree(n, TreeShape::Deep, 13);
        let mut reduction = EnumerationMarkedAncestor::new(&shape);
        let nodes = reduction.nodes();
        for i in (0..nodes.len()).step_by(10) {
            reduction.mark(nodes[i]);
        }
        group.bench_with_input(BenchmarkId::new("reduction_query", n), &n, |b, _| {
            let mut i = 0usize;
            b.iter(|| {
                i = (i * 31 + 7) % nodes.len();
                reduction.has_marked_ancestor(nodes[i])
            });
        });
        let mut naive = NaiveMarkedAncestor::new(shape.clone());
        let naive_nodes = naive.tree().preorder();
        for i in (0..naive_nodes.len()).step_by(10) {
            naive.mark(naive_nodes[i]);
        }
        group.bench_with_input(
            BenchmarkId::new("naive_parent_walk_query", n),
            &n,
            |b, _| {
                let mut i = 0usize;
                b.iter(|| {
                    i = (i * 31 + 7) % naive_nodes.len();
                    naive.has_marked_ancestor(naive_nodes[i])
                });
            },
        );
    }
    group.finish();
}

fn e7_update_throughput(c: &mut Criterion, p: &SummaryProfile) {
    crate::run_e7(c, &p.e7_sizes, p.sample_size, p.warm_up, p.measurement);
}

fn e8_batch_updates(c: &mut Criterion, p: &SummaryProfile) {
    crate::run_e8(c, &p.e8_sizes, &p.e8_ks, p.warm_up, p.measurement);
}

fn e11_registry(c: &mut Criterion, p: &SummaryProfile) {
    // Same extended window as E9: the multi-query arms must see enough flush
    // cycles for the membership/publication counters to be meaningful.
    crate::run_e11(
        c,
        &p.e11_sizes,
        &p.e11_qs,
        p.e9_readers,
        p.e2_answers,
        p.warm_up,
        p.measurement * 3,
    );
}

fn e12_recovery(c: &mut Criterion, p: &SummaryProfile) {
    crate::run_e12(c, &p.e12_sizes, &p.e12_tails, p.e12_ops, p.e12_reps);
}

fn e13_chaos(c: &mut Criterion, p: &SummaryProfile) {
    crate::run_e13(c, &p.e13_sizes, p.e9_readers, p.e2_answers, p.e13_cycles);
}

fn e9_serving(c: &mut Criterion, p: &SummaryProfile) {
    // Concurrent scenarios need a longer window than the single-threaded
    // experiments: at n = 4·10⁴ a handful of flush cycles must complete
    // inside it for the ingest percentiles to mean anything.
    crate::run_e9(
        c,
        &p.e9_sizes,
        p.e9_readers,
        p.e2_answers,
        p.warm_up,
        p.measurement * 3,
    );
}
