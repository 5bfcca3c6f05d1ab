//! E8-batch-updates: amortized per-edit latency of `TreeEnumerator::apply_batch`
//! vs `k` sequential `apply` calls, for batch sizes k ∈ {1, 8, 64, 256} ×
//! {uniform, skewed, burst} edit workloads at n = 10⁴ / 4·10⁴ nodes.
//!
//! Both arms replay the same deterministic batches (same stream seed, lockstep
//! shadow trees), so the `seq/batch` ratio is a true per-workload speedup: the
//! batch path pays the term splices op by op but repairs the *union* of the
//! dirty spines once, so clustered (skewed/burst) batches — whose edits share
//! most of their O(log n) spine — amortize the repair across the batch.  The
//! workload and measurement methodology live in `treenum_bench::run_e8` /
//! `measure_batch_apply`, shared with the `bench_summary` runner, and the
//! committed `BENCH_*.json` `batch_*` records are gated by CI
//! (`bench_summary --check`, gate `E8_GATE`).

use criterion::{criterion_group, criterion_main, Criterion};
use treenum_bench::run_e8;

fn batch_updates(c: &mut Criterion) {
    run_e8(
        c,
        &[10_000, 40_000],
        &[1, 8, 64, 256],
        std::time::Duration::from_millis(200),
        std::time::Duration::from_millis(600),
    );
}

criterion_group!(benches, batch_updates);
criterion_main!(benches);
