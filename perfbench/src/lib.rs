//! Shared pieces of the closed-loop serving benchmark: workload definitions,
//! command-line arguments, the benchmark's own span recorder, percentile
//! helpers and the one-line JSON result.
//!
//! Everything here builds on the public serving API and the `treenum-bench`
//! / `EditFeed` generators only, so both targets agree on the inputs a seed
//! produces: the end-to-end runner (`serve_loop`) and the traced run's
//! shadow replay (`layer_probe`).

use std::fmt::Write as _;
use std::path::PathBuf;
use std::time::Instant;

use treenum_automata::StepwiseTva;
use treenum_bench::{bench_alphabet, bench_tree, distinct_queries, pair_query, select_b_query};
use treenum_trees::edit::{EditFeed, EditOp, EditStream};
use treenum_trees::generate::TreeShape;
use treenum_trees::unranked::UnrankedTree;

/// Nodes of the one shard's tree in every workload.
pub const TREE_SIZE: usize = 100_000;
/// Rounds run after set-up and before timing starts (not measured): they
/// settle the adaptive window and let the writer finish building the
/// engines of queries registered at set-up on its second engine copy.
pub const WARMUP_ROUNDS: usize = 8;
/// Times the server is set up per run; `setup_s` is their median.
pub const SETUP_REPS: usize = 3;
/// `first_k` size of the read rounds.
pub const FIRST_K: usize = 10;
/// Page size and pages per round of `page_scan`.
pub const PAGE_SIZE: usize = 256;
pub const PAGES_PER_ROUND: usize = 16;

/// One benchmark workload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// One uniform op per round, made visible by a flush, then one
    /// `first_k(10)` read: serving overhead per visible edit.
    EditInteractive,
    /// Durable shard (WAL fsynced on flush) with eight standing queries;
    /// 256 skewed ops per round, then `first_k(10)` on every query.
    FeedDurableQ8,
    /// Sixteen uniform ops per round, then sixteen 256-answer pages of the
    /// pair query and a full count of the primary query.
    PageScan,
}

impl Workload {
    pub fn parse(name: &str) -> Option<Workload> {
        match name {
            "edit_interactive" => Some(Workload::EditInteractive),
            "feed_durable_q8" => Some(Workload::FeedDurableQ8),
            "page_scan" => Some(Workload::PageScan),
            _ => None,
        }
    }

    pub fn name(self) -> &'static str {
        match self {
            Workload::EditInteractive => "edit_interactive",
            Workload::FeedDurableQ8 => "feed_durable_q8",
            Workload::PageScan => "page_scan",
        }
    }

    /// Edit ops ingested per round.
    pub fn ops_per_round(self) -> usize {
        match self {
            Workload::EditInteractive => 1,
            Workload::FeedDurableQ8 => 256,
            Workload::PageScan => 16,
        }
    }

    pub fn durable(self) -> bool {
        self == Workload::FeedDurableQ8
    }

    /// Upper bound on the rounds one second can hold, with head room for a
    /// much faster program; ops for this many rounds are generated before
    /// timing starts.
    fn max_rounds_per_second(self) -> usize {
        match self {
            Workload::EditInteractive => 25_000,
            Workload::FeedDurableQ8 => 400,
            Workload::PageScan => 2_000,
        }
    }

    /// Rounds whose ops are generated for a run of `seconds`.
    pub fn round_budget(self, seconds: u64) -> usize {
        WARMUP_ROUNDS + self.max_rounds_per_second() * seconds as usize
    }

    fn stream(self, seed: u64) -> EditStream {
        let labels = bench_alphabet().labels().collect();
        let seed = seed ^ 0x0005_EED0_F0ED_0000;
        match self {
            Workload::FeedDurableQ8 => EditStream::skewed(labels, seed),
            Workload::EditInteractive | Workload::PageScan => {
                EditStream::balanced_mix(labels, seed)
            }
        }
    }

    /// The primary query (served from construction) followed by the
    /// queries registered at set-up, each with its base alphabet size.
    pub fn queries(self) -> Vec<(StepwiseTva, usize)> {
        let mut out = vec![select_b_query()];
        match self {
            Workload::EditInteractive => {}
            Workload::FeedDurableQ8 => {
                let len = bench_alphabet().len();
                out.extend(distinct_queries(7).into_iter().map(|q| (q, len)));
            }
            Workload::PageScan => out.push(pair_query()),
        }
        out
    }
}

/// The shard's initial tree for `seed`.
pub fn initial_tree(seed: u64) -> UnrankedTree {
    bench_tree(TREE_SIZE, TreeShape::Random, seed)
}

/// Generates `rounds` rounds of ops through an [`EditFeed`], one
/// `next_batch(ops_per_round)` call per round, so a second feed built from
/// the same tree and seed reproduces any prefix of rounds exactly.  Returns
/// the ops and the feed (whose shadow tree is the state after all of them).
pub fn generate_rounds(
    w: Workload,
    tree: &UnrankedTree,
    seed: u64,
    rounds: usize,
) -> (Vec<EditOp>, EditFeed) {
    let mut feed = EditFeed::new(tree, w.stream(seed));
    let mut ops = Vec::with_capacity(rounds * w.ops_per_round());
    for _ in 0..rounds {
        ops.extend(feed.next_batch(w.ops_per_round()));
    }
    (ops, feed)
}

/// Command-line arguments shared by both targets.
pub struct Args {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
    pub out_dir: PathBuf,
    /// `layer_probe` only: the batch sizes the writer chose.
    pub flushes: Option<PathBuf>,
}

impl Args {
    pub fn parse() -> Result<Args, String> {
        let mut workload = None;
        let mut seed = 1u64;
        let mut seconds = 10u64;
        let mut trace = false;
        let mut out_dir = PathBuf::from(".bench_out");
        let mut flushes = None;
        let mut it = std::env::args().skip(1);
        while let Some(flag) = it.next() {
            let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
            match flag.as_str() {
                "--workload" => {
                    workload = Some(
                        Workload::parse(&value)
                            .ok_or_else(|| format!("unknown workload {value}"))?,
                    )
                }
                "--seed" => seed = value.parse().map_err(|e| format!("--seed: {e}"))?,
                "--seconds" => seconds = value.parse().map_err(|e| format!("--seconds: {e}"))?,
                "--trace" => trace = value != "0",
                "--out-dir" => out_dir = PathBuf::from(value),
                "--flushes" => flushes = Some(PathBuf::from(value)),
                _ => return Err(format!("unknown flag {flag}")),
            }
        }
        Ok(Args {
            workload: workload.ok_or("--workload is required")?,
            seed,
            seconds: seconds.max(1),
            trace,
            out_dir,
            flushes,
        })
    }
}

/// The `q`-quantile (0..=1) of `values` by nearest rank; 0 when empty.
fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((q * v.len() as f64).ceil() as usize).clamp(1, v.len());
    v[rank - 1]
}

pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// `"p99=<v> over <n> samples"`, the tail diagnostic line body.
pub fn tail(values: &[f64]) -> String {
    format!("p99={:.1} n={}", quantile(values, 0.99), values.len())
}

/// Peak resident set size (`VmHWM`) of this process in MB.
pub fn rss_peak_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Named metrics in output order, rendered as the benchmark's JSON line.
#[derive(Default)]
pub struct Metrics(Vec<(String, f64, &'static str)>);

impl Metrics {
    pub fn put(&mut self, name: &str, value: f64, unit: &'static str) {
        let value = if value.is_finite() { value } else { 0.0 };
        self.0.push((name.to_string(), value, unit));
    }

    /// `{"correct": .., "attempted": .., "failed": .., "metrics": {..}}`
    pub fn to_json(&self, correct: bool, attempted: u64, failed: u64) -> String {
        let mut s = format!(
            "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
        );
        for (i, (name, value, unit)) in self.0.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                s,
                "{sep}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
            );
        }
        s.push_str("}}");
        s
    }
}

/// Sentinel parent of a root span.
pub const NO_PARENT: u32 = u32::MAX;

/// One recorded call: name, start and end (ns since the recorder's origin),
/// the enclosing span and the round it belongs to.
#[derive(Clone, Copy, Debug)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: u32,
    pub round: u32,
}

/// In-memory span recorder; written out only when the run ends.  While
/// switched off, `begin`/`end` record nothing.
pub struct Tracer {
    origin: Instant,
    pub on: bool,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new(on: bool) -> Tracer {
        Tracer {
            origin: Instant::now(),
            on,
            spans: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span; returns its id ([`NO_PARENT`] while switched off).
    pub fn begin(&mut self, name: &'static str, parent: u32, round: u32) -> u32 {
        if !self.on {
            return NO_PARENT;
        }
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
            round,
        });
        (self.spans.len() - 1) as u32
    }

    pub fn end(&mut self, id: u32) {
        if id != NO_PARENT {
            let now = self.now_ns();
            self.spans[id as usize].end_ns = now;
        }
    }

    /// Per span name: (count, p50 duration µs, p50 self time µs), where self
    /// time is a span's duration minus the part its children cover.
    pub fn summary(&self) -> Vec<(&'static str, usize, f64, f64)> {
        let mut covered = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if s.parent != NO_PARENT {
                covered[s.parent as usize] += s.end_ns - s.start_ns;
            }
        }
        let mut names: Vec<&'static str> = self.spans.iter().map(|s| s.name).collect();
        names.sort_unstable();
        names.dedup();
        names
            .into_iter()
            .map(|name| {
                let (dur, own): (Vec<f64>, Vec<f64>) = self
                    .spans
                    .iter()
                    .enumerate()
                    .filter(|(_, s)| s.name == name)
                    .map(|(i, s)| {
                        let d = (s.end_ns - s.start_ns) as f64 / 1e3;
                        (d, d - (covered[i] as f64 / 1e3).min(d))
                    })
                    .unzip();
                (name, dur.len(), median(&dur), median(&own))
            })
            .collect()
    }

    /// Durations in µs of every span called `name`.
    pub fn durations_us(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| (s.end_ns - s.start_ns) as f64 / 1e3)
            .collect()
    }

    /// Writes every span as a tab-separated line:
    /// `id name start_ns end_ns parent round`.
    pub fn write_tsv(&self, path: &std::path::Path) -> std::io::Result<()> {
        let mut out = String::from("id\tname\tstart_ns\tend_ns\tparent\tround\n");
        for (i, s) in self.spans.iter().enumerate() {
            let parent = if s.parent == NO_PARENT {
                "-".to_string()
            } else {
                s.parent.to_string()
            };
            let _ = writeln!(
                out,
                "{i}\t{}\t{}\t{}\t{parent}\t{}",
                s.name, s.start_ns, s.end_ns, s.round
            );
        }
        std::fs::write(path, out)
    }
}
