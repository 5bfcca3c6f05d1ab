//! E11-registry: multi-query serving off multiplexed snapshots.  A one-shard
//! `treenum_serve::TreeServer` serves Q ∈ {1, 4, 16} distinct queries — the
//! construction-time primary plus Q − 1 registered at runtime against a live
//! skewed ingest stream — to 4 reader threads that alternate between the
//! recorded primary probe and an unrecorded sweep over the other registered
//! queries.  Admission latency (`TreeServer::register` round trips during
//! live ingest) is sampled alongside, and every run asserts the multiplexing
//! counter invariants (one publication per generation, membership changes =
//! size-0 flush records, publications independent of Q).  The workload lives
//! in `treenum_bench::run_e11`, shared with the `bench_summary` runner, and
//! the committed `BENCH_*.json` `read_*` records are gated by CI
//! (`bench_summary --check`, gate `E11_GATE`).

use criterion::{criterion_group, criterion_main, Criterion};
use treenum_bench::run_e11;

fn registry(c: &mut Criterion) {
    run_e11(
        c,
        &[10_000],
        &[1, 4, 16],
        4,
        256,
        std::time::Duration::from_millis(200),
        std::time::Duration::from_millis(600),
    );
}

criterion_group!(benches, registry);
criterion_main!(benches);
