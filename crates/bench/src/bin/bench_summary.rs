//! Runs compact versions of experiments E1–E9/E11/E12/E13 and writes a JSON
//! summary, or runs the CI bench gates.
//!
//! ```text
//! bench_summary [--profile full|smoke|e12] [--out PATH]
//! bench_summary --check BASELINE.json [--out PATH]
//! ```
//!
//! The committed trajectory files at the repository root are produced with the
//! `full` profile (`--out BENCH_baseline.json` before a perf change,
//! `--out BENCH_after.json` after); CI runs the `smoke` profile to keep the
//! bench code compiling and running.  The `e12` profile records the
//! crash-recovery group only; splice its `E12_recovery` records into
//! `BENCH_after.json` rather than re-recording the gated groups.
//!
//! `--check` runs every gate of `treenum_bench::trajectory::GATES` in turn —
//! E2 per-answer delay, E8 amortized per-edit batch latency, E9 snapshot-read
//! delay under concurrent ingest, E11 multiplexed read delay across
//! registered queries, E13 read delay through writer-fault heal cycles —
//! each re-measured at the committed sizes with the gate's own budgets and
//! judged against the committed baseline at the gate's own bars.  Gates with
//! a re-measure policy re-run their experiment before confirming a flagged
//! row.  Every row of every gate is printed, and the process exits non-zero
//! once at the end if any gate failed.  `--out` then holds the first-pass
//! records of all gates.
//!
//! Without `--out` the JSON goes to stdout.

use criterion::Criterion;
use std::path::{Path, PathBuf};
use treenum_bench::summary::{run_summary, SummaryProfile};
use treenum_bench::trajectory::{check, remeasure, Trajectory, GATES};

fn main() {
    let mut profile: Option<SummaryProfile> = None;
    let mut out: Option<PathBuf> = None;
    let mut baseline: Option<Trajectory> = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--profile" => {
                let name = args.next().unwrap_or_else(|| usage("missing profile name"));
                profile = Some(
                    SummaryProfile::by_name(&name)
                        .unwrap_or_else(|| usage(&format!("unknown profile {name:?}"))),
                );
            }
            "--out" => {
                let path = args.next().unwrap_or_else(|| usage("missing output path"));
                out = Some(PathBuf::from(path));
            }
            "--check" => {
                let path = args
                    .next()
                    .unwrap_or_else(|| usage("missing baseline path"));
                baseline = Some(Trajectory::load(Path::new(&path)).unwrap_or_else(|e| usage(&e)));
            }
            "--help" | "-h" => usage(""),
            other => usage(&format!("unexpected argument {other:?}")),
        }
    }

    let mut criterion = Criterion::default();
    match (baseline, profile) {
        (Some(_), Some(_)) => usage("--check runs the gates' own profiles; drop --profile"),
        (Some(baseline), None) => {
            let failed = run_gates(&baseline, &mut criterion);
            emit(&criterion, "check", out.as_deref());
            if failed {
                std::process::exit(1);
            }
        }
        (None, profile) => {
            let profile = profile.unwrap_or_else(SummaryProfile::full);
            run_summary(&mut criterion, &profile);
            emit(&criterion, profile.name, out.as_deref());
        }
    }
}

/// Runs every gate of [`GATES`] into `criterion`, printing every row.
/// Returns `true` when any gate failed (a confirmed regression or a fresh
/// run the gate cannot judge).
fn run_gates(baseline: &Trajectory, criterion: &mut Criterion) -> bool {
    let mut failed = false;
    for spec in GATES {
        let label = spec.group;
        let profile = spec.profile();
        run_summary(criterion, &profile);
        let mut rows = match check(spec, baseline, criterion.records()) {
            Ok(rows) => rows,
            Err(e) => {
                eprintln!("error: {label}: {e:?}");
                failed = true;
                continue;
            }
        };
        if spec.remeasure > 0 {
            for row in rows.iter().filter(|r| r.regressed) {
                eprintln!(
                    "{label} {}: first pass {:.2}x — re-measuring (best of {})",
                    row.name, row.ratio, spec.remeasure
                );
            }
            remeasure(spec, &mut rows, || {
                let mut scratch = Criterion::default();
                run_summary(&mut scratch, &profile);
                scratch.records().to_vec()
            });
        }
        for row in &rows {
            eprintln!(
                "{label} {}: reference {} ns, now {} ns ({:.2}x, bar {:.2}x){}",
                row.name,
                row.baseline_p95_ns,
                row.fresh_p95_ns,
                row.ratio,
                row.bar,
                if row.regressed { "  REGRESSION" } else { "" }
            );
        }
        let regressed = rows.iter().filter(|r| r.regressed).count();
        if regressed > 0 {
            eprintln!(
                "error: {label}: {regressed} of {} rows regressed",
                rows.len()
            );
            failed = true;
        } else {
            eprintln!(
                "{label} check passed ({} rows within their bars)",
                rows.len()
            );
        }
    }
    failed
}

/// Writes the recorded benchmarks as JSON to `out`, or to stdout.
fn emit(criterion: &Criterion, profile: &str, out: Option<&Path>) {
    let meta = [("profile", profile)];
    match out {
        Some(path) => {
            criterion
                .write_summary_json(path, &meta)
                .unwrap_or_else(|e| panic!("cannot write {}: {e}", path.display()));
            eprintln!(
                "wrote {} ({} benchmarks, profile {profile})",
                path.display(),
                criterion.records().len(),
            );
        }
        None => print!("{}", criterion.summary_json(&meta)),
    }
}

fn usage(error: &str) -> ! {
    if !error.is_empty() {
        eprintln!("error: {error}");
    }
    eprintln!(
        "usage: bench_summary [--profile full|smoke|e12] [--out PATH]\n       \
         bench_summary --check BASELINE.json [--out PATH]"
    );
    std::process::exit(if error.is_empty() { 0 } else { 2 });
}
