//! Observability for the serving layer: per-shard atomic counters, the
//! per-flush log, and the [`ServeStats`] snapshot surface.

use crate::lock::lock_unpoisoned;
use std::sync::atomic::{AtomicU64, AtomicU8, Ordering};
use std::sync::Mutex;

/// The per-shard health state machine of the self-healing serve layer.
///
/// Transitions (driven by the shard's writer/supervisor thread):
///
/// ```text
/// Healthy ──panic/WAL error──▶ Degraded ──heal starts──▶ Recovering
///    ▲                            │                          │
///    └──────retry or heal succeeds┴──────────────────────────┘
///                                                            │
///                       confirmed unrecoverable corruption ──▶ Quarantined (terminal)
/// ```
///
/// `Quarantined` is reached only when the durable state is confirmed
/// unrecoverable (dead storage, corrupt log) — every transient fault ends
/// back in `Healthy`.  Reads are served from the last published snapshot in
/// **every** state; only ingest acceptance varies.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub enum ShardHealth {
    /// Normal operation: ingest accepted, batches applying and publishing.
    #[default]
    Healthy,
    /// A fault was observed (writer panic, WAL error) and the shard is
    /// between the fault and its resolution; reads still serve the last
    /// published snapshot, and in-flight ops may be reported as dropped.
    Degraded,
    /// The supervisor is rebuilding the writer from the newest snapshot +
    /// WAL replay; reads keep serving the last published snapshot.
    Recovering,
    /// Terminal: the durable state is unrecoverable.  The shard serves its
    /// last good state read-only and rejects all ingest.
    Quarantined,
}

impl ShardHealth {
    pub(crate) fn as_u8(self) -> u8 {
        match self {
            ShardHealth::Healthy => 0,
            ShardHealth::Degraded => 1,
            ShardHealth::Recovering => 2,
            ShardHealth::Quarantined => 3,
        }
    }

    pub(crate) fn from_u8(v: u8) -> Self {
        match v {
            1 => ShardHealth::Degraded,
            2 => ShardHealth::Recovering,
            3 => ShardHealth::Quarantined,
            _ => ShardHealth::Healthy,
        }
    }
}

/// One published generation, as recorded by a shard's writer thread: an
/// ingest flush, a membership-only (attach/detach) publication, or a heal
/// that published recovered state.
///
/// The log doubles as the serving layer's audit trail: generation `g` of a
/// shard corresponds exactly to the first `g` records, so the op prefix
/// behind any snapshot is `sizes[0] + … + sizes[g-1]` — the property the
/// snapshot-consistency oracle tests replay against.
#[derive(Clone, Copy, Debug)]
pub struct FlushRecord {
    /// Number of edit ops this generation made visible: the coalesced batch
    /// of an ingest flush, 0 for a membership change, the newly recovered
    /// ops for a heal.
    pub size: usize,
    /// Wall-clock nanoseconds of the flush cycle on the visible path:
    /// obtaining the writable copy, applying the batch, and publishing the
    /// new snapshot.  Obtaining the copy is nearly free when the off-path
    /// catch-up already prepared it; that catch-up is
    /// [`FlushRecord::off_path_nanos`], not part of `nanos`.
    pub nanos: u64,
    /// The on-path catch-up part of [`FlushRecord::nanos`]: the time spent
    /// obtaining the writable copy — a reclaim wait for readers of the
    /// retired copy, its lag replay and the reconcile against the query
    /// membership, whichever of these the off-path catch-up did not already
    /// do.  The rest of `nanos` is the batch apply plus the publish (0 for
    /// heal records, which take no writable copy).
    pub catch_up_nanos: u64,
    /// The off-path catch-up that prepared this flush's writable copy after
    /// the previous cycle's acks (reclaim, lag replay, reconcile), 0 when
    /// the catch-up ran on the path instead.  `nanos + off_path_nanos` is
    /// what the flush cost the writer in all.
    pub off_path_nanos: u64,
    /// Dirty-spine entries skipped because an earlier edit of the batch had
    /// already queued them (the document's `DocumentBatch::deduped`; 0 for
    /// membership and heal records).
    pub spine_deduped: u64,
    /// Unique dirty-spine nodes every query's repair pass visited (the
    /// length of the document's `DocumentBatch::dirty`).
    pub spine_dirty: u64,
}

impl FlushRecord {
    /// The batch's sharing ratio `deduped / (deduped + dirty)` ∈ [0, 1): the
    /// fraction of reported spine nodes the deduplicated repair skipped.
    /// High sharing means the batch's edits overlapped and the
    /// deduplicated repair saved work over one-op flushes.
    pub fn sharing_ratio(&self) -> f64 {
        let total = self.spine_deduped + self.spine_dirty;
        if total == 0 {
            0.0
        } else {
            self.spine_deduped as f64 / total as f64
        }
    }
}

/// Shared mutable counters of one shard (writer thread increments, any
/// thread reads).  All counters are monotonic except `queue_depth`.
#[derive(Debug, Default)]
pub(crate) struct ShardMetrics {
    pub ingested: AtomicU64,
    pub applied: AtomicU64,
    pub queue_depth: AtomicU64,
    pub reads: AtomicU64,
    pub generation: AtomicU64,
    pub reclaim_waits: AtomicU64,
    pub rebuild_fallbacks: AtomicU64,
    pub off_path_catch_ups: AtomicU64,
    pub spine_deduped: AtomicU64,
    pub spine_dirty: AtomicU64,
    pub max_flush: AtomicU64,
    pub wal_records: AtomicU64,
    pub wal_bytes: AtomicU64,
    pub snapshots_persisted: AtomicU64,
    pub wal_errors: AtomicU64,
    pub snapshot_errors: AtomicU64,
    pub backpressure_timeouts: AtomicU64,
    pub health: AtomicU8,
    pub panics_caught: AtomicU64,
    pub heals: AtomicU64,
    pub ops_dropped_unacked: AtomicU64,
    pub load_shed: AtomicU64,
    pub deadline_reads_timed_out: AtomicU64,
    pub queries_attached: AtomicU64,
    pub queries_detached: AtomicU64,
    /// Gauge: current registered-query membership (starts at 1, the primary).
    pub queries_served: AtomicU64,
    pub flush_log: Mutex<Vec<FlushRecord>>,
}

impl ShardMetrics {
    /// Moves the shard to `h`, unless it is already quarantined:
    /// `Quarantined` is terminal, so a later transition (the supervisor
    /// marks every caught panic `Degraded` first) must never reopen ingest.
    pub(crate) fn set_health(&self, h: ShardHealth) {
        let quarantined = ShardHealth::Quarantined.as_u8();
        let _ = self
            .health
            .fetch_update(Ordering::Release, Ordering::Acquire, |cur| {
                (cur != quarantined).then_some(h.as_u8())
            });
    }

    pub(crate) fn health(&self) -> ShardHealth {
        ShardHealth::from_u8(self.health.load(Ordering::Acquire))
    }

    pub(crate) fn record_flush(&self, rec: FlushRecord) {
        self.applied.fetch_add(rec.size as u64, Ordering::Relaxed);
        self.spine_deduped
            .fetch_add(rec.spine_deduped, Ordering::Relaxed);
        self.spine_dirty
            .fetch_add(rec.spine_dirty, Ordering::Relaxed);
        self.max_flush.fetch_max(rec.size as u64, Ordering::Relaxed);
        lock_unpoisoned(&self.flush_log).push(rec);
    }

    /// The shard's counters; `window` is the configured
    /// [`crate::ServeConfig::max_batch`], which the metrics do not hold.
    pub(crate) fn stats(&self, window: usize) -> ShardStats {
        ShardStats {
            generation: self.generation.load(Ordering::Acquire),
            flushes: lock_unpoisoned(&self.flush_log).len() as u64,
            edits_ingested: self.ingested.load(Ordering::Relaxed),
            edits_applied: self.applied.load(Ordering::Relaxed),
            queue_depth: self.queue_depth.load(Ordering::Relaxed),
            reads: self.reads.load(Ordering::Relaxed),
            window,
            max_flush: self.max_flush.load(Ordering::Relaxed) as usize,
            reclaim_waits: self.reclaim_waits.load(Ordering::Relaxed),
            rebuild_fallbacks: self.rebuild_fallbacks.load(Ordering::Relaxed),
            off_path_catch_ups: self.off_path_catch_ups.load(Ordering::Relaxed),
            spine_deduped: self.spine_deduped.load(Ordering::Relaxed),
            spine_dirty: self.spine_dirty.load(Ordering::Relaxed),
            wal_records: self.wal_records.load(Ordering::Relaxed),
            wal_bytes: self.wal_bytes.load(Ordering::Relaxed),
            snapshots_persisted: self.snapshots_persisted.load(Ordering::Relaxed),
            wal_errors: self.wal_errors.load(Ordering::Relaxed),
            snapshot_errors: self.snapshot_errors.load(Ordering::Relaxed),
            backpressure_timeouts: self.backpressure_timeouts.load(Ordering::Relaxed),
            health: self.health(),
            panics_caught: self.panics_caught.load(Ordering::Relaxed),
            heals: self.heals.load(Ordering::Relaxed),
            ops_dropped_unacked: self.ops_dropped_unacked.load(Ordering::Relaxed),
            load_shed: self.load_shed.load(Ordering::Relaxed),
            deadline_reads_timed_out: self.deadline_reads_timed_out.load(Ordering::Relaxed),
            queries_attached: self.queries_attached.load(Ordering::Relaxed),
            queries_detached: self.queries_detached.load(Ordering::Relaxed),
            queries_served: self.queries_served.load(Ordering::Relaxed) as usize,
        }
    }
}

/// A point-in-time view of one shard's serving counters.
#[derive(Clone, Copy, Debug, Default)]
#[non_exhaustive]
pub struct ShardStats {
    /// Snapshot generation currently published (= number of flush-log
    /// records behind the visible copy).
    pub generation: u64,
    /// Number of flush-log records: one per published generation — ingest
    /// flushes, membership-only publications and heal publications alike.
    pub flushes: u64,
    /// Ops accepted into the ingest queue.
    pub edits_ingested: u64,
    /// Ops applied and published (`edits_ingested - edits_applied` ops are
    /// still queued or in the writer's coalescing buffer).
    pub edits_applied: u64,
    /// Current ingest-queue depth (approximate — producers and the writer
    /// race on it, but it is exact when the shard is quiescent).
    pub queue_depth: u64,
    /// Snapshots handed out to readers.
    pub reads: u64,
    /// Ops per flush the writer fills a batch to: the configured
    /// [`crate::ServeConfig::max_batch`].
    pub window: usize,
    /// Largest single flush so far.
    pub max_flush: usize,
    /// Times a flush found the retired snapshot copy still held by readers
    /// and blocked on their release wake (bounded by
    /// [`crate::ServeConfig::reclaim_patience`]).
    pub reclaim_waits: u64,
    /// Times the writer gave up waiting and rebuilt a fresh writable copy
    /// from the published tree (O(n) fallback; nonzero only under
    /// pathologically long-held snapshots, or after a contained panic).
    pub rebuild_fallbacks: u64,
    /// Catch-ups of the retired copy (reclaim, lag replay, reconcile) the
    /// writer ran off the visible path: right after a cycle's acks, or on
    /// the release wake of the copy's last reader.
    pub off_path_catch_ups: u64,
    /// Cumulative [`FlushRecord::spine_deduped`] over all flushes.
    pub spine_deduped: u64,
    /// Cumulative [`FlushRecord::spine_dirty`] over all flushes.
    pub spine_dirty: u64,
    /// Edit ops appended to the shard's write-ahead log (0 on a
    /// non-durable shard).
    pub wal_records: u64,
    /// Payload + frame bytes appended to the write-ahead log.
    pub wal_bytes: u64,
    /// Snapshot files persisted at publication-generation boundaries
    /// (including the one written at server creation / recovery).
    pub snapshots_persisted: u64,
    /// WAL append/sync failures.  Each one sends the shard through a heal
    /// from its durable directory; only a failed heal quarantines it.
    pub wal_errors: u64,
    /// Snapshot persistence failures.  Not fatal on their own — the WAL
    /// still covers every op — but a red flag worth alerting on.
    pub snapshot_errors: u64,
    /// Ingest attempts that gave up waiting for queue space
    /// ([`crate::ServeError::Backpressure`] returned to the caller).
    pub backpressure_timeouts: u64,
    /// The shard's current position in the self-healing state machine.
    /// `Quarantined` means it serves its last good state read-only and
    /// rejects ingest, because its durable log failed or recovery found it
    /// corrupt beyond repair.
    pub health: ShardHealth,
    /// Writer-thread panics caught by the supervisor (per-batch guard or the
    /// outer safety net).  Each one either healed or quarantined the shard.
    pub panics_caught: u64,
    /// Successful runtime heals: the writer was rebuilt from the newest
    /// snapshot + WAL replay and re-admitted.
    pub heals: u64,
    /// In-flight (never acknowledged) ops dropped by a fault.  Acked ops are
    /// never counted here — losing one is a bug, not a statistic.  The
    /// barrier covering a dropping cycle acks
    /// [`crate::ServeError::Degraded`] so the loss is reported, not silent.
    pub ops_dropped_unacked: u64,
    /// Ingest attempts rejected immediately because the queue depth was at or
    /// above [`crate::ServeConfig::shed_depth`].
    pub load_shed: u64,
    /// [`crate::TreeServer::read_with_deadline`] calls that gave up waiting
    /// for a parked publication and returned
    /// [`crate::ServeError::DeadlineExceeded`].
    pub deadline_reads_timed_out: u64,
    /// Queries attached to this shard at runtime (each attach published one
    /// membership-only generation; the construction-time primary is not
    /// counted).
    pub queries_attached: u64,
    /// Queries detached from this shard at runtime (each detach dropped the
    /// writer-side query index and published one membership-only
    /// generation).
    pub queries_detached: u64,
    /// Gauge: queries the writer currently maintains a query index for,
    /// including the primary.  Snapshot publications stay **one per flush** regardless
    /// of this number — the multiplexing invariant E11 verifies via
    /// `generation == flushes`.
    pub queries_served: usize,
}

impl ShardStats {
    /// Lifetime sharing ratio `deduped / (deduped + dirty)` across all
    /// flushes (see [`FlushRecord::sharing_ratio`]).
    pub fn sharing_ratio(&self) -> f64 {
        let total = self.spine_deduped + self.spine_dirty;
        if total == 0 {
            0.0
        } else {
            self.spine_deduped as f64 / total as f64
        }
    }

    /// Mean ops per data flush: membership-only publications (one per
    /// runtime attach or detach, each of size 0) are not batches and are
    /// left out of the denominator.
    pub fn mean_flush(&self) -> f64 {
        let data_flushes = self
            .flushes
            .saturating_sub(self.queries_attached + self.queries_detached);
        if data_flushes == 0 {
            0.0
        } else {
            self.edits_applied as f64 / data_flushes as f64
        }
    }
}

/// A point-in-time view of the query registry's counters.
///
/// Registration admissions go through the process-wide plan cache keyed by
/// the canonical `TranslationKey` fingerprint
/// ([`treenum_core::QueryPlan::admit`]); the `plan_*`/`compile_*` fields
/// count this server's admissions over its lifetime.  Obtained from
/// [`crate::TreeServer::registry_stats`] or as [`ServeStats::registry`].
#[derive(Clone, Copy, Debug, Default)]
#[non_exhaustive]
pub struct RegistryStats {
    /// Currently registered queries, including the pinned primary.
    pub registered: usize,
    /// High-water mark of `registered` over the server's lifetime.
    pub peak_registered: usize,
    /// Successful [`crate::TreeServer::register`] calls.
    pub registrations: u64,
    /// Successful [`crate::TreeServer::deregister`] calls.
    pub deregistrations: u64,
    /// Plan admissions served from a resident cached plan (no compile).
    pub plan_hits: u64,
    /// Plan admissions that compiled (translation + skeleton derivation).
    pub plan_misses: u64,
    /// Total wall-clock nanoseconds spent compiling plans on admission.
    pub compile_ns_total: u64,
    /// Slowest single plan compile observed on admission.
    pub max_compile_ns: u64,
}

/// A point-in-time view of every shard's counters.
#[derive(Clone, Debug, Default)]
pub struct ServeStats {
    /// Per-shard stats, indexed by shard id.
    pub shards: Vec<ShardStats>,
    /// Server-wide query-registry counters.
    pub registry: RegistryStats,
}

impl ServeStats {
    /// Total ops applied across shards.
    pub fn edits_applied(&self) -> u64 {
        self.shards.iter().map(|s| s.edits_applied).sum()
    }

    /// Total snapshots handed out across shards.
    pub fn reads(&self) -> u64 {
        self.shards.iter().map(|s| s.reads).sum()
    }

    /// `true` iff every shard is [`ShardHealth::Healthy`].
    pub fn all_healthy(&self) -> bool {
        self.shards.iter().all(|s| s.health == ShardHealth::Healthy)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quarantine_is_sticky() {
        let m = ShardMetrics::default();
        assert_eq!(m.health(), ShardHealth::Healthy);
        m.set_health(ShardHealth::Degraded);
        m.set_health(ShardHealth::Recovering);
        m.set_health(ShardHealth::Healthy);
        assert_eq!(m.health(), ShardHealth::Healthy);
        m.set_health(ShardHealth::Quarantined);
        // A caught panic marks `Degraded` before re-checking quarantine; no
        // later transition may reopen ingest on a quarantined shard.
        for h in [
            ShardHealth::Degraded,
            ShardHealth::Recovering,
            ShardHealth::Healthy,
        ] {
            m.set_health(h);
            assert_eq!(m.health(), ShardHealth::Quarantined);
            assert_eq!(m.stats(1).health, ShardHealth::Quarantined);
        }
    }
}
