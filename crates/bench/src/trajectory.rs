//! Reading committed `BENCH_*.json` trajectory files and gating on them.
//!
//! The build environment has no crates.io access (so no `serde`); the files
//! are written by the vendored criterion stub with a fixed flat schema
//! (`{"schema":1, …, "benchmarks":[{"group","name","mean_ns","min_ns",
//! "p50_ns"?,"p95_ns"?,"p99_ns"?}, …]}`), and this module carries the small
//! hand-rolled parser for exactly that shape.
//!
//! The CI bench gates are one declarative table, [`GATES`]: each
//! [`GateSpec`] names the experiment it re-runs, the record group and name
//! prefix it gates, its bars and its re-measure policy.  [`check`] judges a
//! fresh run against the committed baseline for any spec, and [`remeasure`]
//! re-judges the rows the first pass flags on fresh re-runs of the spec's
//! experiment.  `bench_summary --check BASELINE.json` runs every spec.

use criterion::BenchRecord;
use std::time::Duration;

use crate::summary::SummaryProfile;

/// A parsed trajectory file: its profile stamp and all benchmark records.
#[derive(Debug, Clone, Default)]
pub struct Trajectory {
    /// The `"profile"` stamp of the file (empty when missing).
    pub profile: String,
    /// All benchmark records, in file order.
    pub benchmarks: Vec<BenchRecord>,
}

impl Trajectory {
    /// Parses the JSON written by `Criterion::summary_json`.
    pub fn parse(text: &str) -> Result<Trajectory, String> {
        let mut p = Parser {
            bytes: text.as_bytes(),
            at: 0,
        };
        p.skip_ws();
        let value = p.value()?;
        p.skip_ws();
        let Json::Object(top) = value else {
            return Err("top-level JSON value is not an object".into());
        };
        let mut out = Trajectory::default();
        for (key, value) in top {
            match (key.as_str(), value) {
                ("profile", Json::String(s)) => out.profile = s,
                ("benchmarks", Json::Array(items)) => {
                    for item in items {
                        let Json::Object(fields) = item else {
                            return Err("benchmark entry is not an object".into());
                        };
                        let mut rec = BenchRecord::default();
                        for (k, v) in fields {
                            match (k.as_str(), v) {
                                ("group", Json::String(s)) => rec.group = s,
                                ("name", Json::String(s)) => rec.name = s,
                                ("mean_ns", Json::Number(n)) => rec.mean_ns = n,
                                ("min_ns", Json::Number(n)) => rec.min_ns = n,
                                ("p50_ns", Json::Number(n)) => rec.p50_ns = Some(n),
                                ("p95_ns", Json::Number(n)) => rec.p95_ns = Some(n),
                                ("p99_ns", Json::Number(n)) => rec.p99_ns = Some(n),
                                _ => {}
                            }
                        }
                        out.benchmarks.push(rec);
                    }
                }
                _ => {}
            }
        }
        Ok(out)
    }

    /// Reads and parses a trajectory file from disk.
    pub fn load(path: &std::path::Path) -> Result<Trajectory, String> {
        let text = std::fs::read_to_string(path)
            .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
        Self::parse(&text)
    }

    /// The record with the given group and name, if present.
    pub fn find(&self, group: &str, name: &str) -> Option<&BenchRecord> {
        self.benchmarks
            .iter()
            .find(|r| r.group == group && r.name == name)
    }
}

/// One CI bench gate: which experiment it re-runs, which records it judges,
/// against which bars, and how it confirms a flagged row.
#[derive(Debug, Clone, Copy)]
pub struct GateSpec {
    /// The experiment the gate re-runs (a [`SummaryProfile::experiments`]
    /// tag: `"E2"`, `"E8"`, …).
    pub experiment: &'static str,
    /// The record group the experiment writes.
    pub group: &'static str,
    /// Only records whose name starts with this prefix are gated (`""` =
    /// the whole group).
    pub prefix: &'static str,
    /// A fresh p95 more than `tolerance` above its baseline p95 fails
    /// (0.25 = fail on a regression of more than 25%).
    pub tolerance: f64,
    /// Multiplier on `tolerance` for `_k1/` records (1.0 = none).
    pub k1_slack: f64,
    /// Same-run cross-arm bar: the widest `read_q<q>_…` arm (largest `q`)
    /// may be at most this many times the p95 of its `read_q1_…` twin (same
    /// readers, same size) in the *fresh* run, independent of the baseline.
    pub cross_arm_bar: Option<f64>,
    /// Warm-up budget of the gate run.
    pub warm_up: Duration,
    /// Measurement budget of the gate run.
    pub measurement: Duration,
    /// Re-runs of the experiment behind a first-pass flag; a flagged row is
    /// re-judged on its lowest ratio across them (0 = judge the first pass).
    pub remeasure: usize,
}

/// The E2 gate: p95 per-answer delays of the `E2_delay` group at the
/// committed sizes — the paper's constant-delay guarantee.  The baseline is
/// `BENCH_after.json`, the *current* code's recorded numbers
/// (`BENCH_baseline.json` is the pre-flattening state and would leave ~3–4×
/// of headroom).  The file carries absolute timings from the recording
/// machine, so the tolerance also absorbs runner-hardware variance: if CI
/// hardware drifts far from the recording environment, re-record the file
/// (see EXPERIMENTS.md) rather than ignoring the gate.
pub const E2_GATE: GateSpec = GateSpec {
    experiment: "E2",
    group: "E2_delay",
    prefix: "",
    tolerance: 0.25,
    k1_slack: 1.0,
    cross_arm_bar: None,
    warm_up: Duration::from_millis(100),
    measurement: Duration::from_millis(400),
    remeasure: 0,
};

/// The E8 gate: amortized per-edit p95s of the `E8_batch_updates` group's
/// `batch_*` arms (same hardware-drift caveat as [`E2_GATE`]).  The `seq_*`
/// speedup baselines are recorded but not gated: they replay
/// rebalance-heavy workloads whose p95 is dominated by whether a rare
/// scapegoat rebuild lands in a measured sample, which would make a
/// percentile gate flake without guarding anything this repository
/// optimizes.  A k=1 "batch" amortizes nothing either — every sample times
/// a single `apply_batch` call, so the same rare rebuild swings its p95
/// severalfold on a shared 1-CPU runner — so the `_k1/` arms get twice the
/// tolerance; the amortized arms (k ≥ 8) spread the rebuilds across k edits
/// and keep the tight bar.  Amortized batch p95s still occasionally catch a
/// scheduler stall, so a flagged row is re-measured three times (same tree
/// seed, stream seed and budgets) and judged on the minimum: a genuine
/// regression reproduces in all three runs, a one-off stall does not.
pub const E8_GATE: GateSpec = GateSpec {
    experiment: "E8",
    group: "E8_batch_updates",
    prefix: "batch_",
    tolerance: 0.25,
    k1_slack: 2.0,
    cross_arm_bar: None,
    warm_up: Duration::from_millis(50),
    measurement: Duration::from_millis(200),
    remeasure: 3,
};

/// The E9 gate: p95 snapshot-read delays of the `E9_serving` group's
/// `read_*` arms (4 snapshot readers against a write-behind ingest stream) —
/// read latency under concurrent ingest is the serving layer's contract.
/// The 50% tolerance absorbs scheduler variance on shared runners.  The
/// `ingest_*` throughput arms are recorded but not gated: their per-flush
/// percentiles depend on how the scheduler interleaves feeder, writer and
/// readers, which varies far more across machines than the read-delay
/// distribution does.
pub const E9_GATE: GateSpec = GateSpec {
    experiment: "E9",
    group: "E9_serving",
    prefix: "read_",
    tolerance: 0.5,
    k1_slack: 1.0,
    cross_arm_bar: None,
    warm_up: Duration::from_millis(100),
    measurement: Duration::from_millis(400),
    remeasure: 0,
};

/// The E11 gate: p95 snapshot-read delays of the `E11_registry` group's
/// `read_*` arms (4 readers round-robin over Q ∈ {1, 4, 16}
/// runtime-registered queries off multiplexed snapshots, under live skewed
/// ingest), **plus** the same-run multiplexing bar.  Multiplexed snapshots
/// are the whole point of the query registry: all registered queries read
/// off one published generation, so serving 16 queries must read
/// essentially like serving one.  The 1.5× bar leaves room for cache
/// pressure from 16 resident engines without letting a
/// per-query-republication regression (a Q× blowup) slip through.  Only the
/// widest arm is cross-gated: that regression is amplified (q − 1)× there,
/// while intermediate arms sit inside sub-microsecond scheduler noise and
/// stay trajectory-gated only.  The 75% tolerance is wider than E9's
/// because the recorded probe p95s sit under 3 µs with a live writer on the
/// same core; the cross-arm bar is same-run and does not inherit that
/// noise.  The run itself asserts, on the shard's own counters, that
/// publications do not scale with Q.  A flagged row is re-measured twice
/// (the experiment's 3× serving window) and judged on its best attempt,
/// with both sides of a cross-arm ratio taken from the same attempt.  The `admission_*` arms are recorded
/// but not gated: the register round trip waits on the in-flight flush, so
/// its tail tracks flush size, i.e. scheduler interleaving.
pub const E11_GATE: GateSpec = GateSpec {
    experiment: "E11",
    group: "E11_registry",
    prefix: "read_",
    tolerance: 0.75,
    k1_slack: 1.0,
    cross_arm_bar: Some(1.5),
    warm_up: Duration::from_millis(100),
    measurement: Duration::from_millis(400),
    remeasure: 2,
};

/// The E13 gate: p95 snapshot-read delays of the `E13_chaos` group's
/// `read_*` arms — the clean twin and, crucially, the `read_faulty_*` arm
/// measured straight through writer-panic heal cycles (4 snapshot readers
/// against durable ingest while a chaos schedule forces six full heals).
/// Reads degrading under failure is the regression the self-healing serve
/// layer exists to prevent, so that arm is held to the same bar as the
/// fault-free one.  The `ingest_*` arms (per-op latency with retries, and
/// the availability-ppm pseudo-records, which carry a fraction rather than
/// a time) are recorded but not gated.
pub const E13_GATE: GateSpec = GateSpec {
    experiment: "E13",
    group: "E13_chaos",
    prefix: "read_",
    tolerance: 0.5,
    k1_slack: 1.0,
    cross_arm_bar: None,
    warm_up: Duration::from_millis(200),
    measurement: Duration::from_millis(700),
    remeasure: 0,
};

/// Every CI bench gate, in the order `bench_summary --check` runs them.
pub const GATES: &[GateSpec] = &[E2_GATE, E8_GATE, E9_GATE, E11_GATE, E13_GATE];

impl GateSpec {
    /// Whether `rec` is one of the records this gate judges.
    pub fn gates(&self, rec: &BenchRecord) -> bool {
        rec.group == self.group && rec.name.starts_with(self.prefix)
    }

    /// The `fresh / baseline` p95 ratio above which record `name` fails.
    pub fn bar(&self, name: &str) -> f64 {
        let slack = if name.contains("_k1/") {
            self.k1_slack
        } else {
            1.0
        };
        1.0 + self.tolerance * slack
    }

    /// The workload the gate measures: the `full` sizes (so record names
    /// match the committed trajectory) with the gate's budgets, running only
    /// its experiment.  The legacy `tree_sizes` stay empty: E2's first-200
    /// arm carries no percentiles, and no other gated experiment reads them.
    pub fn profile(&'static self) -> SummaryProfile {
        SummaryProfile {
            name: "check",
            tree_sizes: vec![],
            warm_up: self.warm_up,
            measurement: self.measurement,
            experiments: Some(std::slice::from_ref(&self.experiment)),
            ..SummaryProfile::full()
        }
    }
}

/// One gate row: a fresh p95 judged against its reference p95.
#[derive(Debug, Clone)]
pub struct GroupComparison {
    /// Row name: the record name (e.g. `batch_<strategy>_k<k>/<n>`), or
    /// `read_q<q>_vs_q1/<n>` for a cross-arm row.
    pub name: String,
    /// For a cross-arm row, the fresh `(arm, q1 twin)` record names whose
    /// p95s form the ratio; `None` for a row judged against the baseline.
    pub cross: Option<(String, String)>,
    /// Reference p95 (ns): the baseline's, or the fresh twin's for a
    /// cross-arm row.
    pub baseline_p95_ns: u128,
    /// Fresh p95 (ns).
    pub fresh_p95_ns: u128,
    /// `fresh / reference` (1.0 = unchanged, 2.0 = twice as slow).
    pub ratio: f64,
    /// The ratio above which the row fails.
    pub bar: f64,
    /// Whether the ratio exceeds the bar.
    pub regressed: bool,
}

impl GroupComparison {
    fn new(
        name: String,
        cross: Option<(String, String)>,
        reference: u128,
        fresh: u128,
        bar: f64,
    ) -> Self {
        let ratio = fresh as f64 / reference as f64;
        GroupComparison {
            name,
            cross,
            baseline_p95_ns: reference,
            fresh_p95_ns: fresh,
            ratio,
            bar,
            regressed: ratio > bar,
        }
    }
}

/// Why a gate cannot judge a fresh run (record names in the payload).
/// Each one fails the gate: a silent pass on a run the gate cannot read
/// would defeat it.
#[derive(Debug, PartialEq)]
pub enum GateError {
    /// No gated fresh record has a baseline twin with a p95 (size or name
    /// mismatch?).
    NothingComparable,
    /// Gated baseline records with a p95 that the fresh run lacks — all of
    /// them, so one run shows the whole damage.
    Missing(Vec<String>),
    /// A gated baseline record's p95 is 0: no ratio exists.
    ZeroBaselineP95(String),
    /// A fresh gated record has no p95 although its baseline twin has one.
    FreshWithoutP95(String),
    /// The widest cross-arm record has no `q1` twin in the fresh run.
    NoTwin(String),
    /// The fresh run has no multi-query arm for the cross-arm bar.
    NoCrossArm,
    /// The fresh `q1` twin of this cross-arm row has p95 0: no ratio exists.
    ZeroTwinP95(String),
}

/// Judges a fresh run against the baseline for one gate: one row per gated
/// fresh record whose baseline twin has a p95, plus the cross-arm rows when
/// the spec has a cross-arm bar.  Errs when the fresh run cannot be judged —
/// see [`GateError`]; in particular a gated baseline record with a p95 that
/// the fresh run lacks fails the gate, so dropping a size or arm from the
/// measured profile cannot silently shrink it.
pub fn check(
    spec: &GateSpec,
    baseline: &Trajectory,
    fresh: &[BenchRecord],
) -> Result<Vec<GroupComparison>, GateError> {
    let mut out = Vec::new();
    for rec in fresh.iter().filter(|r| spec.gates(r)) {
        let Some(base_p95) = baseline.find(spec.group, &rec.name).and_then(|b| b.p95_ns) else {
            continue;
        };
        let name = rec.name.clone();
        let Some(fresh_p95) = rec.p95_ns else {
            return Err(GateError::FreshWithoutP95(name));
        };
        if base_p95 == 0 {
            return Err(GateError::ZeroBaselineP95(name));
        }
        let bar = spec.bar(&name);
        out.push(GroupComparison::new(name, None, base_p95, fresh_p95, bar));
    }
    if out.is_empty() {
        return Err(GateError::NothingComparable);
    }
    let missing: Vec<String> = baseline
        .benchmarks
        .iter()
        .filter(|b| spec.gates(b) && b.p95_ns.is_some() && !out.iter().any(|c| c.name == b.name))
        .map(|b| b.name.clone())
        .collect();
    if !missing.is_empty() {
        return Err(GateError::Missing(missing));
    }
    if let Some(bar) = spec.cross_arm_bar {
        out.extend(cross_arm_rows(spec.group, bar, fresh)?);
    }
    Ok(out)
}

/// The cross-arm rows of `group`'s fresh `read_q<q>_<rest>` arms: for
/// every `rest` (readers and size), the widest arm against its `q = 1`
/// twin, named `read_q<q>_vs_q1/<n>`.
fn cross_arm_rows(
    group: &str,
    bar: f64,
    fresh: &[BenchRecord],
) -> Result<Vec<GroupComparison>, GateError> {
    let arms: Vec<(u64, &str, &str, u128)> = fresh
        .iter()
        .filter(|r| r.group == group)
        .filter_map(|r| {
            let (q, rest) = r.name.strip_prefix("read_q")?.split_once('_')?;
            Some((q.parse().ok()?, rest, r.name.as_str(), r.p95_ns?))
        })
        .collect();
    let mut out = Vec::new();
    for &(q, rest, arm, arm_p95) in &arms {
        if q == 1 || arms.iter().any(|a| a.1 == rest && a.0 > q) {
            continue;
        }
        let Some(&(_, _, twin, twin_p95)) = arms.iter().find(|a| a.0 == 1 && a.1 == rest) else {
            return Err(GateError::NoTwin(arm.to_string()));
        };
        let name = format!("read_q{q}_vs_q1/{}", rest.split('/').nth(1).unwrap_or("?"));
        if twin_p95 == 0 {
            return Err(GateError::ZeroTwinP95(name));
        }
        let cross = Some((arm.to_string(), twin.to_string()));
        out.push(GroupComparison::new(name, cross, twin_p95, arm_p95, bar));
    }
    if out.is_empty() {
        return Err(GateError::NoCrossArm);
    }
    Ok(out)
}

/// Re-judges every flagged row on `spec.remeasure` re-runs of the spec's
/// experiment (`rerun` performs one and returns its records): each flagged
/// row takes its record from every attempt by name and keeps the attempt
/// with the lowest ratio.  A cross-arm row takes both sides of its ratio
/// from the same attempt, so the ratio compares measurements made under the
/// same machine state.  A row no attempt produced keeps its first-pass
/// verdict.  A genuine regression reproduces in every attempt; a scheduling
/// stall on a shared runner does not.
pub fn remeasure(
    spec: &GateSpec,
    rows: &mut [GroupComparison],
    mut rerun: impl FnMut() -> Vec<BenchRecord>,
) {
    if !rows.iter().any(|r| r.regressed) {
        return;
    }
    let mut best: Vec<Option<(u128, u128)>> = vec![None; rows.len()];
    for _ in 0..spec.remeasure {
        let records = rerun();
        let p95 = |name: &str| {
            records
                .iter()
                .find(|r| r.group == spec.group && r.name == name)
                .and_then(|r| r.p95_ns)
        };
        for (row, best) in rows.iter().zip(&mut best).filter(|(r, _)| r.regressed) {
            let attempt = match &row.cross {
                None => p95(&row.name).map(|p| (row.baseline_p95_ns, p)),
                Some((arm, twin)) => p95(twin).zip(p95(arm)),
            };
            let ratio = |(reference, fresh): (u128, u128)| fresh as f64 / reference as f64;
            if let Some(attempt) = attempt.filter(|&(reference, _)| reference > 0) {
                if best.is_none_or(|b| ratio(attempt) < ratio(b)) {
                    *best = Some(attempt);
                }
            }
        }
    }
    for (row, best) in rows.iter_mut().zip(best) {
        if let Some((reference, fresh)) = best {
            *row = GroupComparison::new(
                row.name.clone(),
                row.cross.take(),
                reference,
                fresh,
                row.bar,
            );
        }
    }
}

/// The subset of JSON the trajectory files use.  Numbers are unsigned
/// integers (all our fields are nanosecond counts).
#[derive(Debug)]
enum Json {
    String(String),
    Number(u128),
    Array(Vec<Json>),
    Object(Vec<(String, Json)>),
    Other,
}

struct Parser<'a> {
    bytes: &'a [u8],
    at: usize,
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while self
            .bytes
            .get(self.at)
            .is_some_and(|b| b.is_ascii_whitespace())
        {
            self.at += 1;
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.at).copied()
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        if self.peek() == Some(b) {
            self.at += 1;
            Ok(())
        } else {
            Err(format!(
                "expected {:?} at byte {}, found {:?}",
                b as char,
                self.at,
                self.peek().map(|c| c as char)
            ))
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        self.skip_ws();
        match self.peek() {
            Some(b'"') => Ok(Json::String(self.string()?)),
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'0'..=b'9') => self.number(),
            Some(b't') => self.literal("true"),
            Some(b'f') => self.literal("false"),
            Some(b'n') => self.literal("null"),
            Some(b'-') => {
                // Negative numbers cannot occur in our schema; consume and
                // report as non-numeric rather than failing the whole file.
                self.at += 1;
                self.number().map(|_| Json::Other)
            }
            other => Err(format!("unexpected byte {other:?} at {}", self.at)),
        }
    }

    fn literal(&mut self, text: &str) -> Result<Json, String> {
        if self.bytes[self.at..].starts_with(text.as_bytes()) {
            self.at += text.len();
            Ok(Json::Other)
        } else {
            Err(format!("malformed literal at byte {}", self.at))
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err("unterminated string".into()),
                Some(b'"') => {
                    self.at += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.at += 1;
                    match self.peek() {
                        Some(b'n') => out.push('\n'),
                        Some(b't') => out.push('\t'),
                        Some(b'u') => {
                            let hex = self
                                .bytes
                                .get(self.at + 1..self.at + 5)
                                .ok_or("truncated \\u escape")?;
                            let code = u32::from_str_radix(
                                std::str::from_utf8(hex).map_err(|e| e.to_string())?,
                                16,
                            )
                            .map_err(|e| e.to_string())?;
                            out.push(char::from_u32(code).unwrap_or('\u{FFFD}'));
                            self.at += 4;
                        }
                        Some(c) => out.push(c as char),
                        None => return Err("truncated escape".into()),
                    }
                    self.at += 1;
                }
                Some(_) => {
                    // Copy a run of plain bytes (UTF-8 passes through intact).
                    let start = self.at;
                    while self.peek().is_some_and(|b| b != b'"' && b != b'\\') {
                        self.at += 1;
                    }
                    out.push_str(
                        std::str::from_utf8(&self.bytes[start..self.at])
                            .map_err(|e| e.to_string())?,
                    );
                }
            }
        }
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.at;
        while self
            .peek()
            .is_some_and(|b| b.is_ascii_digit() || b == b'.' || b == b'e' || b == b'E' || b == b'+')
        {
            self.at += 1;
        }
        let text = std::str::from_utf8(&self.bytes[start..self.at]).map_err(|e| e.to_string())?;
        match text.parse::<u128>() {
            Ok(n) => Ok(Json::Number(n)),
            // Floats / exponents don't occur in our fields of interest.
            Err(_) => Ok(Json::Other),
        }
    }

    fn array(&mut self) -> Result<Json, String> {
        self.expect(b'[')?;
        let mut out = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.at += 1;
            return Ok(Json::Array(out));
        }
        loop {
            out.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.at += 1,
                Some(b']') => {
                    self.at += 1;
                    return Ok(Json::Array(out));
                }
                other => return Err(format!("expected ',' or ']' , found {other:?}")),
            }
        }
    }

    fn object(&mut self) -> Result<Json, String> {
        self.expect(b'{')?;
        let mut out = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.at += 1;
            return Ok(Json::Object(out));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            let value = self.value()?;
            out.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.at += 1,
                Some(b'}') => {
                    self.at += 1;
                    return Ok(Json::Object(out));
                }
                other => return Err(format!("expected ',' or '}}', found {other:?}")),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const SAMPLE: &str = concat!(
        "{\"schema\":1,\"profile\":\"full\",\"benchmarks\":[",
        "{\"group\":\"E2_delay\",\"name\":\"per_answer_select_b/10000\",",
        "\"mean_ns\":500,\"min_ns\":100,\"p50_ns\":400,\"p95_ns\":900,\"p99_ns\":1500},",
        "{\"group\":\"E1_preprocessing\",\"name\":\"build/1000\",",
        "\"mean_ns\":2084476,\"min_ns\":2037279}",
        "]}\n"
    );

    #[test]
    fn parses_summary_json() {
        let t = Trajectory::parse(SAMPLE).unwrap();
        assert_eq!(t.profile, "full");
        assert_eq!(t.benchmarks.len(), 2);
        let e2 = t.find("E2_delay", "per_answer_select_b/10000").unwrap();
        assert_eq!(e2.mean_ns, 500);
        assert_eq!(e2.p95_ns, Some(900));
        let e1 = t.find("E1_preprocessing", "build/1000").unwrap();
        assert_eq!(e1.p95_ns, None);
        assert_eq!(e1.mean_ns, 2084476);
    }

    #[test]
    fn roundtrips_through_criterion_writer() {
        let mut c = criterion::Criterion::default();
        c.push_record(BenchRecord {
            group: "E2_delay".into(),
            name: "per_answer_pairs/1000".into(),
            mean_ns: 7,
            min_ns: 3,
            p50_ns: Some(6),
            p95_ns: Some(12),
            p99_ns: Some(20),
        });
        let json = c.summary_json(&[("profile", "e2")]);
        let t = Trajectory::parse(&json).unwrap();
        assert_eq!(t.profile, "e2");
        let rec = t.find("E2_delay", "per_answer_pairs/1000").unwrap();
        assert_eq!(rec.p99_ns, Some(20));
    }

    #[test]
    fn regression_check_flags_slowdowns() {
        let baseline = Trajectory::parse(SAMPLE).unwrap();
        let fresh_ok = vec![BenchRecord {
            group: "E2_delay".into(),
            name: "per_answer_select_b/10000".into(),
            mean_ns: 480,
            min_ns: 90,
            p50_ns: Some(380),
            p95_ns: Some(1000),
            p99_ns: Some(1400),
        }];
        let cmp = check(&E2_GATE, &baseline, &fresh_ok).unwrap();
        assert_eq!(cmp.len(), 1);
        assert!(!cmp[0].regressed, "11% over baseline is within 25%");

        let fresh_bad = vec![BenchRecord {
            p95_ns: Some(2000),
            ..fresh_ok[0].clone()
        }];
        let cmp = check(&E2_GATE, &baseline, &fresh_bad).unwrap();
        assert!(cmp[0].regressed, "2.2x over baseline must be flagged");
    }

    #[test]
    fn regression_check_rejects_incomparable_runs() {
        let baseline = Trajectory::parse(SAMPLE).unwrap();
        let fresh = vec![BenchRecord {
            group: "E2_delay".into(),
            name: "per_answer_select_b/200".into(), // smoke size, not in baseline
            p95_ns: Some(1),
            ..BenchRecord::default()
        }];
        assert!(check(&E2_GATE, &baseline, &fresh).is_err());
    }

    #[test]
    fn e8_gate_is_group_scoped() {
        let base = concat!(
            "{\"schema\":1,\"profile\":\"full\",\"benchmarks\":[",
            "{\"group\":\"E8_batch_updates\",\"name\":\"batch_skewed_k64/10000\",",
            "\"mean_ns\":400,\"min_ns\":100,\"p50_ns\":350,\"p95_ns\":800,\"p99_ns\":1200},",
            "{\"group\":\"E8_batch_updates\",\"name\":\"seq_skewed_k64/10000\",",
            "\"mean_ns\":4000,\"min_ns\":1000,\"p50_ns\":3500,\"p95_ns\":8000,\"p99_ns\":12000},",
            "{\"group\":\"E2_delay\",\"name\":\"per_answer_select_b/10000\",",
            "\"mean_ns\":500,\"min_ns\":100,\"p50_ns\":400,\"p95_ns\":900,\"p99_ns\":1500}",
            "]}\n"
        );
        let baseline = Trajectory::parse(base).unwrap();
        // A fresh run covering only the E8 batch record passes the E8 gate
        // (the E2 record belongs to the other gate) and fails the E2 gate.
        // A regressed seq_* record is NOT gated: the speedup-baseline arms
        // replay rebalance-heavy workloads with long-tailed p95s.
        let fresh = vec![
            BenchRecord {
                group: "E8_batch_updates".into(),
                name: "batch_skewed_k64/10000".into(),
                p95_ns: Some(850),
                ..BenchRecord::default()
            },
            BenchRecord {
                group: "E8_batch_updates".into(),
                name: "seq_skewed_k64/10000".into(),
                p95_ns: Some(999_999),
                ..BenchRecord::default()
            },
        ];
        let cmp = check(&E8_GATE, &baseline, &fresh).unwrap();
        assert_eq!(cmp.len(), 1);
        assert!(!cmp[0].regressed);
        assert!(check(&E2_GATE, &baseline, &fresh).is_err());
        // A >25% amortized-p95 regression is flagged.
        let slow = vec![BenchRecord {
            p95_ns: Some(1100),
            ..fresh[0].clone()
        }];
        let cmp = check(&E8_GATE, &baseline, &slow).unwrap();
        assert!(cmp[0].regressed);
        // A disappearing E8 record fails the gate.
        let other = vec![BenchRecord {
            name: "batch_skewed_k8/10000".into(),
            ..slow[0].clone()
        }];
        assert!(check(&E8_GATE, &baseline, &other).is_err());
    }

    #[test]
    fn e8_k1_tail_gets_doubled_tolerance() {
        let base = concat!(
            "{\"schema\":1,\"profile\":\"full\",\"benchmarks\":[",
            "{\"group\":\"E8_batch_updates\",\"name\":\"batch_uniform_k1/10000\",",
            "\"mean_ns\":400,\"min_ns\":100,\"p50_ns\":350,\"p95_ns\":1000,\"p99_ns\":1200},",
            "{\"group\":\"E8_batch_updates\",\"name\":\"batch_uniform_k64/10000\",",
            "\"mean_ns\":400,\"min_ns\":100,\"p50_ns\":350,\"p95_ns\":1000,\"p99_ns\":1200}",
            "]}\n"
        );
        let baseline = Trajectory::parse(base).unwrap();
        // 1.4x over baseline: within the doubled k1 bar (1.5 at tolerance
        // 0.25), but over the plain 1.25 bar the amortized arms get.
        let fresh = vec![
            BenchRecord {
                group: "E8_batch_updates".into(),
                name: "batch_uniform_k1/10000".into(),
                p95_ns: Some(1400),
                ..BenchRecord::default()
            },
            BenchRecord {
                group: "E8_batch_updates".into(),
                name: "batch_uniform_k64/10000".into(),
                p95_ns: Some(1400),
                ..BenchRecord::default()
            },
        ];
        let cmp = check(&E8_GATE, &baseline, &fresh).unwrap();
        let by_name = |n: &str| cmp.iter().find(|c| c.name.contains(n)).unwrap();
        assert!(!by_name("_k1/").regressed, "k1 tail gets 2x the tolerance");
        assert!(
            by_name("_k64/").regressed,
            "amortized arms keep the tight bar"
        );
        // Past the widened bar the k1 arm still fails.
        let slow = vec![
            BenchRecord {
                p95_ns: Some(1600),
                ..fresh[0].clone()
            },
            BenchRecord {
                p95_ns: Some(1000),
                ..fresh[1].clone()
            },
        ];
        let cmp = check(&E8_GATE, &baseline, &slow).unwrap();
        assert!(cmp.iter().any(|c| c.name.contains("_k1/") && c.regressed));
    }

    #[test]
    fn e11_gate_holds_widest_arm_to_the_multiplex_bar() {
        let base = concat!(
            "{\"schema\":1,\"profile\":\"full\",\"benchmarks\":[",
            "{\"group\":\"E11_registry\",\"name\":\"read_q1_r4/10000\",",
            "\"mean_ns\":500,\"min_ns\":100,\"p50_ns\":400,\"p95_ns\":1000,\"p99_ns\":2000},",
            "{\"group\":\"E11_registry\",\"name\":\"read_q4_r4/10000\",",
            "\"mean_ns\":500,\"min_ns\":100,\"p50_ns\":400,\"p95_ns\":1000,\"p99_ns\":2000},",
            "{\"group\":\"E11_registry\",\"name\":\"read_q16_r4/10000\",",
            "\"mean_ns\":500,\"min_ns\":100,\"p50_ns\":400,\"p95_ns\":1000,\"p99_ns\":2000}",
            "]}\n"
        );
        let baseline = Trajectory::parse(base).unwrap();
        let arm = |q: u32, p95: u128| BenchRecord {
            group: "E11_registry".into(),
            name: format!("read_q{q}_r4/10000"),
            p95_ns: Some(p95),
            ..BenchRecord::default()
        };
        // q16 at 1.4x the fresh q1 arm: within the 1.5x multiplex bar.  The
        // q4 arm sits at 1.7x — intermediate arms are trajectory-gated only,
        // so that ratio is noise, not a violation.
        let fresh = vec![arm(1, 1000), arm(4, 1700), arm(16, 1400)];
        let cmp = check(&E11_GATE, &baseline, &fresh).unwrap();
        let cross: Vec<_> = cmp.iter().filter(|c| c.name.contains("_vs_q1")).collect();
        assert_eq!(cross.len(), 1, "only the widest arm is cross-gated");
        assert!(cross[0].name.contains("q16"));
        assert!(!cross[0].regressed);
        // Past the bar the widest arm fails, against the *fresh* q1 twin.
        let slow = vec![arm(1, 1000), arm(4, 1000), arm(16, 1600)];
        let cmp = check(&E11_GATE, &baseline, &slow).unwrap();
        assert!(cmp
            .iter()
            .any(|c| c.name.contains("q16_vs_q1") && c.regressed));
        // A fresh run with no q1 twin, or no multi-query arm at all, cannot
        // check the bar and must fail loudly rather than shrink the gate.
        assert!(check(&E11_GATE, &baseline, &[arm(4, 1000), arm(16, 1000)]).is_err());
        assert!(check(&E11_GATE, &baseline, &[arm(1, 1000)]).is_err());
    }

    #[test]
    fn e9_gate_covers_read_arms_only() {
        let base = concat!(
            "{\"schema\":1,\"profile\":\"full\",\"benchmarks\":[",
            "{\"group\":\"E9_serving\",\"name\":\"read_skewed_r4/10000\",",
            "\"mean_ns\":600,\"min_ns\":200,\"p50_ns\":500,\"p95_ns\":1500,\"p99_ns\":4000},",
            "{\"group\":\"E9_serving\",\"name\":\"ingest_adaptive_skewed/10000\",",
            "\"mean_ns\":9000,\"min_ns\":2000,\"p50_ns\":8000,\"p95_ns\":20000,\"p99_ns\":30000}",
            "]}\n"
        );
        let baseline = Trajectory::parse(base).unwrap();
        // A noisy ingest arm does not trip the gate; a regressed read arm does.
        let fresh = vec![
            BenchRecord {
                group: "E9_serving".into(),
                name: "read_skewed_r4/10000".into(),
                p95_ns: Some(1600),
                ..BenchRecord::default()
            },
            BenchRecord {
                group: "E9_serving".into(),
                name: "ingest_adaptive_skewed/10000".into(),
                p95_ns: Some(999_999),
                ..BenchRecord::default()
            },
        ];
        let cmp = check(&E9_GATE, &baseline, &fresh).unwrap();
        assert_eq!(cmp.len(), 1);
        assert!(!cmp[0].regressed);
        let slow = vec![BenchRecord {
            p95_ns: Some(4000),
            ..fresh[0].clone()
        }];
        let cmp = check(&E9_GATE, &baseline, &slow).unwrap();
        assert!(cmp[0].regressed);
    }

    #[test]
    fn e13_gate_covers_read_arms_only() {
        let base = concat!(
            "{\"schema\":1,\"profile\":\"full\",\"benchmarks\":[",
            "{\"group\":\"E13_chaos\",\"name\":\"read_faulty_r4/10000\",",
            "\"mean_ns\":700,\"min_ns\":200,\"p50_ns\":600,\"p95_ns\":2000,\"p99_ns\":6000},",
            "{\"group\":\"E13_chaos\",\"name\":\"ingest_faulty/10000\",",
            "\"mean_ns\":9000,\"min_ns\":2000,\"p50_ns\":8000,\"p95_ns\":20000,\"p99_ns\":30000},",
            "{\"group\":\"E13_chaos\",\"name\":\"ingest_available_ppm_faulty/10000\",",
            "\"mean_ns\":998000,\"min_ns\":998000}",
            "]}\n"
        );
        let baseline = Trajectory::parse(base).unwrap();
        // Noisy ingest / availability records never trip the gate; a
        // regressed read-through-faults arm does.
        let fresh = vec![
            BenchRecord {
                group: "E13_chaos".into(),
                name: "read_faulty_r4/10000".into(),
                p95_ns: Some(2200),
                ..BenchRecord::default()
            },
            BenchRecord {
                group: "E13_chaos".into(),
                name: "ingest_faulty/10000".into(),
                p95_ns: Some(999_999),
                ..BenchRecord::default()
            },
        ];
        let cmp = check(&E13_GATE, &baseline, &fresh).unwrap();
        assert_eq!(cmp.len(), 1);
        assert!(!cmp[0].regressed);
        let slow = vec![BenchRecord {
            p95_ns: Some(5000),
            ..fresh[0].clone()
        }];
        let cmp = check(&E13_GATE, &baseline, &slow).unwrap();
        assert!(cmp[0].regressed);
        // Dropping the faulty arm from the fresh run fails the gate: the
        // chaos bench silently not running must not look like a pass.
        let only_ingest = vec![fresh[1].clone()];
        assert!(check(&E13_GATE, &baseline, &only_ingest).is_err());
    }

    #[test]
    fn missing_records_are_reported_all_at_once() {
        // Three baseline records, two vanish from the fresh run: the error
        // must name both, so one CI run is enough to see the whole damage.
        let base = concat!(
            "{\"schema\":1,\"profile\":\"full\",\"benchmarks\":[",
            "{\"group\":\"E2_delay\",\"name\":\"per_answer_select_b/10000\",",
            "\"mean_ns\":500,\"min_ns\":100,\"p50_ns\":400,\"p95_ns\":900,\"p99_ns\":1500},",
            "{\"group\":\"E2_delay\",\"name\":\"per_answer_pairs/10000\",",
            "\"mean_ns\":800,\"min_ns\":200,\"p50_ns\":700,\"p95_ns\":1400,\"p99_ns\":2000},",
            "{\"group\":\"E2_delay\",\"name\":\"per_answer_select_b/40000\",",
            "\"mean_ns\":600,\"min_ns\":200,\"p50_ns\":450,\"p95_ns\":1100,\"p99_ns\":1900}",
            "]}\n"
        );
        let baseline = Trajectory::parse(base).unwrap();
        let fresh = vec![BenchRecord {
            group: "E2_delay".into(),
            name: "per_answer_select_b/10000".into(),
            p95_ns: Some(850),
            ..BenchRecord::default()
        }];
        let err = format!("{:?}", check(&E2_GATE, &baseline, &fresh).unwrap_err());
        assert!(err.contains("per_answer_pairs/10000"), "{err}");
        assert!(err.contains("per_answer_select_b/40000"), "{err}");
    }

    #[test]
    fn regression_check_rejects_partial_coverage() {
        // Baseline gates two records; a fresh run covering only one of them
        // must fail rather than silently shrinking the gate.
        let two = concat!(
            "{\"schema\":1,\"profile\":\"full\",\"benchmarks\":[",
            "{\"group\":\"E2_delay\",\"name\":\"per_answer_select_b/10000\",",
            "\"mean_ns\":500,\"min_ns\":100,\"p50_ns\":400,\"p95_ns\":900,\"p99_ns\":1500},",
            "{\"group\":\"E2_delay\",\"name\":\"per_answer_pairs/10000\",",
            "\"mean_ns\":800,\"min_ns\":200,\"p50_ns\":700,\"p95_ns\":1400,\"p99_ns\":2000}",
            "]}\n"
        );
        let baseline = Trajectory::parse(two).unwrap();
        let fresh = vec![BenchRecord {
            group: "E2_delay".into(),
            name: "per_answer_select_b/10000".into(),
            p95_ns: Some(850),
            ..BenchRecord::default()
        }];
        let err = format!("{:?}", check(&E2_GATE, &baseline, &fresh).unwrap_err());
        assert!(err.contains("per_answer_pairs/10000"), "{err}");
    }

    /// A one-group baseline holding the given `(name, p95)` records.
    fn baseline_of(group: &str, records: &[(&str, u128)]) -> Trajectory {
        Trajectory {
            profile: "full".into(),
            benchmarks: records
                .iter()
                .map(|&(name, p95)| BenchRecord {
                    group: group.into(),
                    name: name.into(),
                    p95_ns: Some(p95),
                    ..BenchRecord::default()
                })
                .collect(),
        }
    }

    #[test]
    fn zero_baseline_p95_is_named_not_reported_missing() {
        let baseline = baseline_of("E2_delay", &[("per_answer_select_b/10000", 0)]);
        let fresh = baseline.benchmarks.clone();
        assert_eq!(
            check(&E2_GATE, &baseline, &fresh).unwrap_err(),
            GateError::ZeroBaselineP95("per_answer_select_b/10000".into())
        );
    }

    #[test]
    fn fresh_record_without_p95_is_named_not_reported_missing() {
        let baseline = baseline_of("E9_serving", &[("read_skewed_r4/10000", 1500)]);
        let fresh = vec![BenchRecord {
            p95_ns: None,
            ..baseline.benchmarks[0].clone()
        }];
        assert_eq!(
            check(&E9_GATE, &baseline, &fresh).unwrap_err(),
            GateError::FreshWithoutP95("read_skewed_r4/10000".into())
        );
    }

    #[test]
    fn zero_q1_twin_p95_fails_the_cross_arm_bar() {
        // Both fresh arms at p95 0: the cross-arm ratio is 0/0, and a NaN
        // ratio compares false against any bar — it must not pass.
        let arms = [("read_q1_r4/10000", 1000), ("read_q16_r4/10000", 1000)];
        let baseline = baseline_of("E11_registry", &arms);
        let fresh: Vec<BenchRecord> = baseline
            .benchmarks
            .iter()
            .map(|r| BenchRecord {
                p95_ns: Some(0),
                ..r.clone()
            })
            .collect();
        assert_eq!(
            check(&E11_GATE, &baseline, &fresh).unwrap_err(),
            GateError::ZeroTwinP95("read_q16_vs_q1/10000".into())
        );
    }

    #[test]
    fn remeasure_keeps_the_lowest_ratio_and_pairs_cross_arms() {
        let arms = [
            ("read_q1_r4/10000", 1000),
            ("read_q4_r4/10000", 1000),
            ("read_q16_r4/10000", 1000),
        ];
        let baseline = baseline_of("E11_registry", &arms);
        let run = |q1: u128, q4: u128, q16: u128| -> Vec<BenchRecord> {
            baseline
                .benchmarks
                .iter()
                .zip([q1, q4, q16])
                .map(|(r, p95)| BenchRecord {
                    p95_ns: Some(p95),
                    ..r.clone()
                })
                .collect()
        };
        // First pass: q4 2.0x its baseline, q16 1.8x its fresh q1 twin.
        let mut rows = check(&E11_GATE, &baseline, &run(1000, 2000, 1800)).unwrap();
        let flagged: Vec<&str> = rows
            .iter()
            .filter(|r| r.regressed)
            .map(|r| r.name.as_str())
            .collect();
        assert_eq!(
            flagged,
            [
                "read_q4_r4/10000",
                "read_q16_r4/10000",
                "read_q16_vs_q1/10000"
            ]
        );
        // Attempt 1 clears q4 (1.2x) and has the better cross ratio
        // (2400/1800 = 1.33x) although attempt 2 has the smaller q16 p95
        // (1700/1000 = 1.7x): the pair is kept together, not min-of-mins.
        let mut attempts = vec![run(1000, 1900, 1700), run(1800, 1200, 2400)];
        let mut reruns = 0;
        remeasure(&E11_GATE, &mut rows, || {
            reruns += 1;
            attempts.pop().unwrap()
        });
        assert_eq!(reruns, E11_GATE.remeasure);
        let row = |n: &str| rows.iter().find(|r| r.name == n).unwrap();
        assert!(!row("read_q4_r4/10000").regressed);
        assert_eq!(row("read_q4_r4/10000").fresh_p95_ns, 1200);
        let cross = row("read_q16_vs_q1/10000");
        assert!(!cross.regressed);
        assert_eq!((cross.baseline_p95_ns, cross.fresh_p95_ns), (1800, 2400));
        // q16 against its baseline: the best attempt (1.7x) is within 75%.
        assert_eq!(row("read_q16_r4/10000").fresh_p95_ns, 1700);
        assert!(!row("read_q16_r4/10000").regressed);
        // A gate without a re-measure policy keeps its first-pass verdict.
        let mut rows = check(&E11_GATE, &baseline, &run(1000, 2000, 1000)).unwrap();
        remeasure(&E9_GATE, &mut rows, || unreachable!("E9 never re-runs"));
        assert!(rows.iter().any(|r| r.regressed));
    }

    #[test]
    fn gate_table_matches_committed_trajectory() {
        // The bars CI gates at; a change to one is a change to this list.
        let bars: Vec<_> = GATES
            .iter()
            .map(|s| (s.group, s.prefix, s.tolerance, s.k1_slack, s.cross_arm_bar))
            .collect();
        assert_eq!(
            bars,
            [
                ("E2_delay", "", 0.25, 1.0, None),
                ("E8_batch_updates", "batch_", 0.25, 2.0, None),
                ("E9_serving", "read_", 0.5, 1.0, None),
                ("E11_registry", "read_", 0.75, 1.0, Some(1.5)),
                ("E13_chaos", "read_", 0.5, 1.0, None),
            ]
        );
        let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../BENCH_after.json");
        let baseline = Trajectory::load(&path).unwrap();
        let with_p95 = |records: &[BenchRecord], name: &str, p95: u128| -> Vec<BenchRecord> {
            let mut out = records.to_vec();
            out.iter_mut().find(|r| r.name == name).unwrap().p95_ns = Some(p95);
            out
        };
        let row_of = |spec: &GateSpec, fresh: &[BenchRecord], name: &str| {
            let rows = check(spec, &baseline, fresh).unwrap();
            rows.into_iter().find(|r| r.name == name).unwrap()
        };
        let mut k1_rows = 0;
        let mut ungated = 0;
        for spec in GATES {
            let group: Vec<BenchRecord> = baseline
                .benchmarks
                .iter()
                .filter(|r| r.group == spec.group)
                .cloned()
                .collect();
            let gated: Vec<&BenchRecord> = group
                .iter()
                .filter(|r| spec.gates(r) && r.p95_ns.is_some())
                .collect();
            assert!(!gated.is_empty(), "{} gates no p95 record", spec.group);
            // The committed run judged against itself passes.
            let rows = check(spec, &baseline, &group).unwrap();
            assert!(rows.iter().all(|r| !r.regressed), "{}", spec.group);
            // Each gated row passes just under its bar and fails just over it.
            for rec in &gated {
                let base = rec.p95_ns.unwrap() as f64;
                let bar = spec.bar(&rec.name);
                k1_rows += usize::from(bar != 1.0 + spec.tolerance);
                let under = (base * (bar - 0.01)).floor() as u128;
                let over = (base * (bar + 0.01)).ceil() as u128;
                assert!(!row_of(spec, &with_p95(&group, &rec.name, under), &rec.name).regressed);
                assert!(row_of(spec, &with_p95(&group, &rec.name, over), &rec.name).regressed);
            }
            // The cross-arm row, moved through its q1 twin.
            if let Some(bar) = spec.cross_arm_bar {
                let cross = rows.iter().find(|r| r.cross.is_some()).unwrap();
                let (arm, twin) = cross.cross.clone().unwrap();
                let arm_p95 = group
                    .iter()
                    .find(|r| r.name == arm)
                    .unwrap()
                    .p95_ns
                    .unwrap() as f64;
                let under = (arm_p95 / (bar - 0.01)).ceil() as u128;
                let over = (arm_p95 / (bar + 0.01)).floor() as u128;
                assert!(!row_of(spec, &with_p95(&group, &twin, under), &cross.name).regressed);
                assert!(row_of(spec, &with_p95(&group, &twin, over), &cross.name).regressed);
            }
            // Recorded-but-ungated arms never produce a row, however slow.
            let slow_ungated: Vec<BenchRecord> = group
                .iter()
                .map(|r| {
                    let mut r = r.clone();
                    if ["seq_", "ingest_", "admission_"]
                        .iter()
                        .any(|p| r.name.starts_with(p))
                    {
                        ungated += 1;
                        r.p95_ns = r.p95_ns.map(|p| p * 100);
                    }
                    r
                })
                .collect();
            let rows = check(spec, &baseline, &slow_ungated).unwrap();
            assert!(rows.iter().all(|r| !r.regressed), "{}", spec.group);
        }
        assert!(k1_rows > 0, "no _k1/ row exercised the slack");
        assert!(ungated > 0, "no ungated arm exercised");
    }
}
