//! E9-serving: snapshot-read delay and ingest throughput of the concurrent
//! serving layer (`treenum_serve::TreeServer`) under {uniform, skewed, burst}
//! edit workloads at n = 10⁴ / 4·10⁴ nodes.
//!
//! Each scenario runs 4 snapshot-reader threads (per-answer delay sampling,
//! each reader with its own pooled scratch) against a one-shard server whose
//! writer thread coalesces a concurrently fed edit stream into
//! `apply_batch` flushes.  Two configurations are measured over identical
//! streams: `ServeConfig::default()` (every flush fills to `max_batch` = 256,
//! a barrier or the 1 ms `max_latency` deadline; record names
//! `ingest_adaptive_*`) and the `ServeConfig::fixed(1)` publish-per-op
//! baseline.
//! The workload and measurement methodology live in `treenum_bench::run_e9`,
//! shared with the `bench_summary` runner, and the committed `BENCH_*.json`
//! `read_*` records are gated by CI (`bench_summary --check`, gate `E9_GATE`).

use criterion::{criterion_group, criterion_main, Criterion};
use treenum_bench::run_e9;

fn serving(c: &mut Criterion) {
    run_e9(
        c,
        &[10_000, 40_000],
        4,
        256,
        std::time::Duration::from_millis(200),
        std::time::Duration::from_millis(600),
    );
}

criterion_group!(benches, serving);
criterion_main!(benches);
