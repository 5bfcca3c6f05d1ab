//! Durability plumbing for the serving layer: per-shard WAL + snapshot
//! wiring, crash recovery, and the quarantine decision.
//!
//! # The contract
//!
//! The in-memory layer's audit trail is per-incarnation: generation `g` of a
//! shard corresponds to the first `Σ sizes[..g]` ops of its flush log, and
//! both restart at zero with every process.  Durability extends the op
//! prefix across incarnations by giving every op a **WAL sequence number**:
//!
//! * the writer appends (and, per [`SyncPolicy`], syncs) the batch's ops to
//!   the WAL *before* applying or publishing them, so every op behind a
//!   published generation — and a fortiori every op whose flush barrier was
//!   acknowledged — is on disk first;
//! * a snapshot written at a generation boundary records `op_seq`, the
//!   sequence number of the first op it does *not* contain;
//! * recovery = newest intact snapshot + replay of the WAL records with
//!   `seq >= op_seq`, in order, onto the snapshot's tree; the serving
//!   structures are then built once from the replayed tree.
//!
//! Under [`SyncPolicy::Always`] no acknowledged op can be lost; under
//! `EveryN`/`OnFlush` the ingest ack (`flush`) is still a durability
//! barrier, but individual unacknowledged ops may be lost with the tail.
//!
//! # Quarantine
//!
//! Anything that breaks the contract — no intact snapshot, an undecodable
//! snapshot payload, a WAL with acknowledged records missing from its
//! middle, a gap between snapshot and tail, or a tail op the recovered tree
//! cannot apply — marks the shard **quarantined**: it serves its best
//! recovered state read-only, rejects ingest with
//! [`ServeError::Quarantined`](crate::ServeError::Quarantined), and reports
//! the reason in [`ShardRecovery::quarantined`].  A runtime WAL failure
//! quarantines the same way (see `shard.rs`); nothing in this path panics.

use std::io;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use treenum_trees::edit::EditOp;
use treenum_trees::label::Label;
use treenum_trees::serial;
use treenum_trees::unranked::UnrankedTree;
use treenum_wal::log::{SyncPolicy, Wal, RECORD_HEADER};
use treenum_wal::snapshot::SnapshotStore;
use treenum_wal::storage::Storage;

/// Durability tuning for a [`TreeServer`](crate::TreeServer).
#[derive(Clone, Debug)]
pub struct DurabilityConfig {
    /// Root directory; each shard gets a `shard-NNNN` subdirectory holding
    /// its WAL segments and snapshot files.
    pub dir: PathBuf,
    /// When appended ops reach stable storage (see [`SyncPolicy`]).
    pub sync: SyncPolicy,
    /// Persist a snapshot every this many publication generations (the
    /// knob trading recovery time against ingest-path serialization work).
    pub snapshot_every: u64,
    /// Byte budget per WAL segment file before rolling over.
    pub segment_bytes: u64,
    /// Snapshot files to retain (older ones are pruned after each save).
    pub keep_snapshots: usize,
}

impl DurabilityConfig {
    /// Defaults: `SyncPolicy::Always`, a snapshot every 8 generations, 1 MiB
    /// segments, 2 retained snapshots.
    pub fn new(dir: impl Into<PathBuf>) -> Self {
        DurabilityConfig {
            dir: dir.into(),
            sync: SyncPolicy::Always,
            snapshot_every: 8,
            segment_bytes: 1 << 20,
            keep_snapshots: 2,
        }
    }
}

/// What recovery found (and did) for one shard.
#[derive(Clone, Debug)]
pub struct ShardRecovery {
    /// Shard index.
    pub shard: usize,
    /// `op_seq` of the snapshot recovery started from (0 if none loaded).
    pub snapshot_op_seq: u64,
    /// Snapshot files that failed validation and were skipped.
    pub snapshots_skipped: usize,
    /// Length of the durable op prefix: every op with sequence number below
    /// this is reflected in the recovered state.
    pub ops_recovered: u64,
    /// WAL tail ops replayed on top of the snapshot.
    pub ops_replayed: usize,
    /// The WAL ended in a torn (partially written) record, which was
    /// dropped.  Expected after a crash; not an error.
    pub torn_tail: bool,
    /// Bytes discarded from the WAL as torn or trailing garbage.
    pub wal_bytes_dropped: u64,
    /// `Some(reason)` iff the shard could not be recovered intact and is
    /// serving quarantined (read-only, best-effort state).
    pub quarantined: Option<String>,
}

/// Per-shard recovery reports, in shard order.
#[derive(Clone, Debug)]
pub struct RecoveryOutcome {
    /// One entry per shard.
    pub shards: Vec<ShardRecovery>,
}

impl RecoveryOutcome {
    /// Number of shards that came back quarantined.
    pub fn quarantined(&self) -> usize {
        self.shards
            .iter()
            .filter(|s| s.quarantined.is_some())
            .count()
    }

    /// Total WAL tail ops replayed across shards.
    pub fn ops_replayed(&self) -> usize {
        self.shards.iter().map(|s| s.ops_replayed).sum()
    }
}

/// The directory of shard `i` under `base`.
pub(crate) fn shard_dir(base: &Path, shard: usize) -> PathBuf {
    base.join(format!("shard-{shard:04}"))
}

/// Parses a `shard-NNNN` directory name.
fn parse_shard_dir(name: &str) -> Option<usize> {
    name.strip_prefix("shard-")?.parse().ok()
}

/// Shard indices present under `base`, sorted.
pub(crate) fn list_shard_dirs(storage: &dyn Storage, base: &Path) -> io::Result<Vec<usize>> {
    let mut ids: Vec<usize> = storage
        .list(base)?
        .iter()
        .filter_map(|n| parse_shard_dir(n))
        .collect();
    ids.sort_unstable();
    Ok(ids)
}

/// Everything the writer's supervisor needs to re-run recovery at runtime:
/// the storage handle, the shard directory, and the durability tuning.  The
/// [`ShardDurability`] handle itself deliberately retains none of these —
/// healing reopens the directory from scratch through the same
/// [`recover_shard`] path a process restart would take, so runtime heals and
/// crash recovery cannot drift apart.
#[derive(Clone)]
pub(crate) struct HealSource {
    pub(crate) storage: Arc<dyn Storage>,
    pub(crate) dir: PathBuf,
    pub(crate) shard: usize,
    pub(crate) cfg: DurabilityConfig,
}

impl HealSource {
    /// Re-runs crash recovery against the shard's directory (newest intact
    /// snapshot + WAL-tail replay).  `Err` / a quarantined report both mean
    /// the heal failed and the shard must quarantine.
    pub(crate) fn recover(&self) -> io::Result<RecoveredShard> {
        recover_shard(&self.storage, &self.dir, self.shard, &self.cfg)
    }
}

/// The writer thread's handle on one shard's durable state.
pub(crate) struct ShardDurability {
    wal: Wal,
    snaps: SnapshotStore,
    snapshot_every: u64,
    keep_snapshots: usize,
    /// Generation (of this incarnation) at the last persisted snapshot.
    last_snapshot_gen: u64,
}

impl ShardDurability {
    /// Starts a **fresh** durable lineage in `dir`: clears any leftover log
    /// or snapshot files (they belong to an abandoned lineage and would
    /// read as corruption later), persists the initial state as snapshot 0,
    /// and opens the WAL at sequence 0.
    pub(crate) fn create(
        storage: Arc<dyn Storage>,
        dir: PathBuf,
        cfg: &DurabilityConfig,
        tree: &UnrankedTree,
    ) -> io::Result<Self> {
        storage.create_dir_all(&dir)?;
        for name in storage.list(&dir)? {
            if name.starts_with("wal-") || name.starts_with("snap-") {
                storage.remove(&dir.join(&name))?;
            }
        }
        let snaps = SnapshotStore::open(Arc::clone(&storage), dir.clone())?;
        snaps.save(0, 0, &serial::to_bytes(tree))?;
        let wal = Wal::open_at(storage, &dir, cfg.sync, cfg.segment_bytes, 0)?;
        Ok(ShardDurability {
            wal,
            snaps,
            snapshot_every: cfg.snapshot_every.max(1),
            keep_snapshots: cfg.keep_snapshots.max(1),
            last_snapshot_gen: 0,
        })
    }

    /// Appends and syncs one flush's ops ahead of their application,
    /// returning the framed byte count.  An error here means the batch is
    /// NOT durable and must not be applied, published, or acknowledged —
    /// the caller quarantines the shard.
    pub(crate) fn log_batch(&mut self, ops: &[EditOp]) -> io::Result<u64> {
        let mut bytes = 0u64;
        for op in ops {
            let payload = serial::encode_op(op);
            self.wal.append(&payload)?;
            bytes += (RECORD_HEADER + payload.len()) as u64;
        }
        self.wal.flush()?;
        Ok(bytes)
    }

    /// `true` iff publishing `generation` crosses a snapshot boundary.
    pub(crate) fn snapshot_due(&self, generation: u64) -> bool {
        generation - self.last_snapshot_gen >= self.snapshot_every
    }

    /// Re-anchors the snapshot cadence at `generation`.  A runtime heal
    /// keeps the writer's in-memory generation counter running (readers'
    /// monotonicity contract) while [`recover_shard`] hands back a handle
    /// anchored at generation 0; without rebasing, the very next publish
    /// would look `generation` generations overdue.  Snapshot files are
    /// keyed by `op_seq`, not generation, so this touches cadence only.
    pub(crate) fn rebase_generation(&mut self, generation: u64) {
        self.last_snapshot_gen = generation;
    }

    /// Persists `tree` as the snapshot covering everything logged so far,
    /// prunes old snapshots, and drops fully covered WAL segments.
    pub(crate) fn persist_snapshot(
        &mut self,
        generation: u64,
        tree: &UnrankedTree,
    ) -> io::Result<()> {
        let op_seq = self.wal.next_seq();
        self.snaps
            .save(generation, op_seq, &serial::to_bytes(tree))?;
        self.snaps.prune(self.keep_snapshots)?;
        self.wal.prune_upto(op_seq)?;
        self.last_snapshot_gen = generation;
        Ok(())
    }
}

/// One shard's recovery result: the recovered tree, the reopened durable
/// handle (absent iff quarantined), and the report.
pub(crate) struct RecoveredShard {
    /// The durable state: the newest intact snapshot's tree with the
    /// validated WAL tail replayed onto it.  When quarantined, the best
    /// effort instead — the snapshot's tree, or a placeholder single-node
    /// tree without one.
    pub(crate) tree: UnrankedTree,
    pub(crate) durability: Option<ShardDurability>,
    pub(crate) report: ShardRecovery,
}

/// Recovers shard `shard` from `dir`.  Every failure mode degrades to a
/// quarantined shard serving its best-effort state; only genuine I/O errors
/// while *reading* propagate as `Err`.
pub(crate) fn recover_shard(
    storage: &Arc<dyn Storage>,
    dir: &Path,
    shard: usize,
    cfg: &DurabilityConfig,
) -> io::Result<RecoveredShard> {
    let mut report = ShardRecovery {
        shard,
        snapshot_op_seq: 0,
        snapshots_skipped: 0,
        ops_recovered: 0,
        ops_replayed: 0,
        torn_tail: false,
        wal_bytes_dropped: 0,
        quarantined: None,
    };
    let quarantine = |mut report: ShardRecovery, tree: UnrankedTree, reason: String| {
        report.quarantined = Some(reason);
        Ok(RecoveredShard {
            tree,
            durability: None,
            report,
        })
    };
    // A quarantined shard with no usable snapshot still needs *a* tree to
    // stand behind the read API.
    let placeholder = || UnrankedTree::new(Label(0));

    let snaps = SnapshotStore::open(Arc::clone(storage), dir.to_path_buf())?;
    let load = snaps.load_newest()?;
    report.snapshots_skipped = load.skipped;
    let Some(snap) = load.snapshot else {
        return quarantine(report, placeholder(), "no intact snapshot file".to_owned());
    };
    report.snapshot_op_seq = snap.op_seq;
    let base_tree = match serial::from_bytes(&snap.payload) {
        Ok(t) => t,
        Err(e) => {
            return quarantine(
                report,
                placeholder(),
                format!("snapshot payload undecodable: {e}"),
            );
        }
    };
    report.ops_recovered = snap.op_seq;

    let wal = Wal::recover(storage.as_ref(), dir)?;
    report.torn_tail = wal.torn_tail;
    report.wal_bytes_dropped = wal.dropped_bytes;
    if wal.lost_middle {
        return quarantine(
            report,
            base_tree,
            "WAL corrupt beyond recovery: intact records follow damaged ones".to_owned(),
        );
    }
    let tail: Vec<&treenum_wal::log::WalRecord> = wal
        .records
        .iter()
        .filter(|r| r.seq >= snap.op_seq)
        .collect();
    if let Some(first) = tail.first() {
        if first.seq != snap.op_seq {
            return quarantine(
                report,
                base_tree,
                format!(
                    "gap between snapshot (op_seq {}) and first WAL tail record (seq {})",
                    snap.op_seq, first.seq
                ),
            );
        }
    } else if wal.next_seq() > snap.op_seq {
        // Records exist but none reach the snapshot horizon: the tail that
        // should continue the snapshot is missing entirely.
        return quarantine(
            report,
            base_tree,
            "WAL ends before the snapshot horizon it must continue from".to_owned(),
        );
    }
    let mut ops = Vec::with_capacity(tail.len());
    for rec in &tail {
        match serial::decode_op(&rec.payload) {
            Ok(op) => ops.push(op),
            Err(e) => {
                return quarantine(
                    report,
                    base_tree,
                    format!("WAL record {} undecodable: {e}", rec.seq),
                );
            }
        }
    }
    // Validate each op's applicability before replaying it: `apply` panics
    // on an op that does not fit the tree, and a snapshot/WAL mismatch must
    // quarantine instead.  The replayed tree is the durable state (arena
    // identity: the engine's `apply_batch` allocates the same `NodeId`s for
    // the same op sequence), snapshotted below and returned for one build.
    let mut replayed = base_tree.clone();
    for (i, op) in ops.iter().enumerate() {
        if !serial::op_applicable(&replayed, op) {
            return quarantine(
                report,
                base_tree,
                format!(
                    "WAL record {} is not applicable to the recovered tree",
                    snap.op_seq + i as u64
                ),
            );
        }
        replayed.apply(op);
    }
    report.ops_replayed = ops.len();
    report.ops_recovered = snap.op_seq + ops.len() as u64;

    // Reopen for writing: fresh segment at the continuation point, fresh
    // snapshot of the recovered state (so the next recovery starts here),
    // generations restarting at 0.
    let next_seq = report.ops_recovered;
    let snaps = SnapshotStore::open(Arc::clone(storage), dir.to_path_buf())?;
    let mut durability = ShardDurability {
        wal: Wal::open_at(
            Arc::clone(storage),
            dir,
            cfg.sync,
            cfg.segment_bytes,
            next_seq,
        )?,
        snaps,
        snapshot_every: cfg.snapshot_every.max(1),
        keep_snapshots: cfg.keep_snapshots.max(1),
        last_snapshot_gen: 0,
    };
    durability.persist_snapshot(0, &replayed)?;
    Ok(RecoveredShard {
        tree: replayed,
        durability: Some(durability),
        report,
    })
}
