//! E13-chaos: serving through writer-fault heal cycles.
//!
//! Two arms over a size-10⁴ tree, identical workloads except for the fault
//! schedule: `read_{clean,faulty}_r4/<n>` samples per-answer snapshot-read
//! delay while the `faulty` arm's `ChaosSchedule` panics the writer twice at
//! six evenly spaced batches — each fault forcing a full
//! snapshot-plus-WAL-replay heal — and `ingest_{clean,faulty}/<n>` /
//! `ingest_available_ppm_{clean,faulty}/<n>` record the caller-visible
//! ingest cost and first-try availability through the same cycles.  The
//! workload lives in `treenum_bench::run_e13`, shared with the
//! `bench_summary` runner; CI gates the `read_*` p95s (`bench_summary
//! --check`, gate `E13_GATE`).

use criterion::{criterion_group, criterion_main, Criterion};
use treenum_bench::run_e13;

fn chaos(c: &mut Criterion) {
    run_e13(c, &[10_000], 4, 256, 6);
}

criterion_group!(benches, chaos);
criterion_main!(benches);
