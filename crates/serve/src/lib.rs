//! # treenum-serve
//!
//! A sharded, thread-safe serving facade over the engine of `treenum-core`:
//! many reader threads enumerate **snapshot-consistent** states while a
//! per-shard writer thread ingests edit operations through a **write-behind
//! queue** that coalesces them into batches.  Each shard copy holds one
//! [`Document`] (tree, balanced term, `φ`) shared by one [`QueryIndex`] per
//! registered query, so a batch updates the term once and repairs each
//! query's circuit and index from the same dirty list.
//!
//! The design follows the paper stack's own cost model:
//!
//! * **Reads** — each shard publishes an immutable enumeration structure
//!   behind a generation-stamped [`Snapshot`] handle (an `Arc`; acquiring one
//!   is a brief `RwLock` read + refcount bump).  Enumeration runs entirely on
//!   the reader's thread with the delay guarantees of the underlying engine;
//!   no lock is held while enumerating, so N readers scale and never observe
//!   a partially applied batch.
//! * **Writes** — producers push [`EditOp`]s into a bounded ingest queue and
//!   return immediately (write-behind; a full queue applies *explicit*
//!   backpressure — [`TreeServer::ingest`] waits a bounded
//!   [`ServeConfig::ingest_timeout`] then hands the decision back to the
//!   caller as [`ServeError::Backpressure`]).  The shard's writer thread
//!   coalesces queued ops into batches and
//!   applies each with **one deduplicated spine repair**
//!   ([`Document::apply_batch`], then [`QueryIndex::repair`] per query), then
//!   publishes the result as the next snapshot generation.
//! * **Coalescing** — one rule cuts every batch: the writer fills it until
//!   it holds [`ServeConfig::max_batch`] ops, a barrier or registry control
//!   arrives, or the [`ServeConfig::max_latency`] deadline passes.  A batch
//!   repairs the union of its edits' spines once, so a fuller batch never
//!   costs more per edit than one-op flushes, and the deadline bounds
//!   snapshot staleness.  The document's batch report gives each flush's
//!   sharing ratio ([`FlushRecord::sharing_ratio`]: the share of the dirty
//!   spine the dedup skipped) for observability.
//!
//! One immutable [`QueryPlan`] is shared by every shard (and every snapshot
//! copy), so the quartic query translation is paid once per query, not per
//! shard.
//!
//! ## Query registry & snapshot multiplexing
//!
//! A server is not limited to the query it was constructed with.
//! [`TreeServer::register`] admits a new automaton (and
//! [`TreeServer::register_spanner`] a word automaton) **at runtime**:
//! the plan comes from the process-wide plan cache
//! ([`QueryPlan::admit`], keyed by the canonical
//! [`treenum_core::TranslationKey`]), and the attach rides each shard's
//! ordinary ingest queue — ingest never stops.  Every published generation is
//! then **multiplexed** across all registered queries: a snapshot carries one
//! document plus one query index per query under a single `Arc`/refcount,
//! so publication work is independent of the number of queries (counter-verified:
//! [`ShardStats::generation`] equals [`ShardStats::flushes`] no matter how
//! many queries are attached).  Per-query reads go through
//! [`Snapshot::query`], which also offers pinned-generation cursor pagination
//! ([`QueryReader::page`]).  [`TreeServer::deregister`] drops the per-query
//! index state deterministically at the detach point; the primary query
//! ([`QueryId::PRIMARY`]) is pinned for the server's lifetime.
//!
//! ```
//! use treenum_serve::{ServeConfig, TreeServer};
//! use treenum_trees::generate::{random_tree, TreeShape};
//! use treenum_trees::valuation::Var;
//! use treenum_trees::Alphabet;
//! use treenum_automata::queries;
//!
//! let mut sigma = Alphabet::from_names(["a", "b"]);
//! let a = sigma.get("a").unwrap();
//! let b = sigma.get("b").unwrap();
//! let tree = random_tree(&mut sigma, 50, TreeShape::Random, 7);
//! let server = TreeServer::new(
//!     vec![tree],
//!     &queries::select_label(sigma.len(), b, Var(0)),
//!     sigma.len(),
//!     ServeConfig::default(),
//! );
//!
//! // Register a second query without stopping ingest.
//! let reg = server
//!     .register(&queries::exists_label(sigma.len(), a), sigma.len())
//!     .unwrap();
//! let snap = server.snapshot(0);
//! assert!(snap.generation() >= reg.visible_at[0]);
//!
//! // Read both queries from ONE multiplexed snapshot, then paginate.
//! let primary = snap.assignments();
//! let reader = snap.query(reg.id).unwrap();
//! let page = reader.page(None, 8).unwrap();
//! # let _ = (primary, page);
//!
//! // Deregister: the id is dead from the next generation on.
//! server.deregister(reg.id).unwrap();
//! assert!(server.snapshot(0).query(reg.id).is_err());
//! ```
//!
//! ## Left-right protocol invariants
//!
//! The read/write protocol (two copies per shard; see the `shard`
//! module docs for the mechanics) is correct exactly when the following hold
//! in **every** interleaving of the writer thread with any number of reader
//! threads:
//!
//! 1. **Snapshot immutability** — the writer never applies an op to a copy
//!    any reader can observe: the writable copy has no outstanding snapshot
//!    handles, so an acquired [`Snapshot`] enumerates the same state for as
//!    long as it is held, and a half-applied batch is never visible.
//! 2. **Gapless generations** — published generations are consecutive: the
//!    flush log records exactly `1, 2, …, g`, so generation `g` corresponds
//!    to precisely the first `g` log entries (the audit-trail property the
//!    oracle tests replay against).
//! 3. **Refcount-correct reclamation** — a retired copy is written into again
//!    only after every reader handle to it is dropped
//!    (`Arc::try_unwrap` succeeds); if a flush's patience expires first, the
//!    copy is abandoned to its holders — never mutated — and the writer
//!    rebuilds from the published state.
//! 4. **Reader generation monotonicity** — snapshots acquired by one thread
//!    never go backwards in generation (publication is a single pointer swap
//!    behind the front lock).
//! 5. **No lost wake-up** — the writer catches the retired copy up right
//!    after a flush's acks when no reader holds it, and otherwise the last
//!    reader's release wakes it; once every reader is idle and no flush is
//!    pending, the writer holds a writable copy caught up with the
//!    published one, without polling.
//!
//! Concurrency tests (`tests/serve_invariants.rs`) probe these under real
//! schedulers; the `treenum-analyze` interleaving checker
//! (`cargo run --release -p treenum-analyze -- --sched`) drives a small-model
//! replica of this protocol through **every** schedule at a bounded depth and
//! must be kept in sync with `shard.rs` when the protocol changes.
//!
//! Lock discipline: a panicking reader sink must not wedge the shard, so all
//! lock acquisitions in this crate go through the poison-tolerant helpers in
//! `lock.rs` (enforced by `treenum-analyze`'s `lock-unwrap` rule).
//!
//! ## Durability (optional)
//!
//! A server built with [`TreeServer::with_durability`] gives each shard a
//! segmented write-ahead log and periodic snapshot files (crate
//! `treenum-wal`).  The writer logs every batch — with the configured
//! [`SyncPolicy`] — *before* applying it, so WAL appends stay entirely off
//! the read path, and persists a snapshot at every
//! [`DurabilityConfig::snapshot_every`]-th publication generation.
//! [`TreeServer::recover`] rebuilds the server after a crash (newest intact
//! snapshot + WAL-tail replay onto its tree, then one build); shards whose
//! durable state is damaged beyond the torn-tail cases come back
//! *quarantined* — serving reads, rejecting writes — with the reason in the
//! returned [`RecoveryOutcome`].  See the `durable` module docs for the
//! generation ↔ op-prefix contract.
//!
//! ## Self-healing and graceful degradation
//!
//! The writer thread runs under a supervisor: a panic inside a batch apply
//! is caught, the batch is retried once on a rebuilt copy, and a second
//! failure (or a WAL write error) triggers an **in-process heal** on a
//! durable shard — rebuild from the newest snapshot + WAL replay, exactly
//! the restart path, while reads keep serving the last published snapshot
//! ([`ShardHealth::Recovering`]).  Only a failed heal is terminal
//! ([`ShardHealth::Quarantined`]).  No *acked* op is ever lost; ops dropped
//! before their ack are counted ([`ShardStats::ops_dropped_unacked`]) and
//! reported to the covering barrier as [`ServeError::Degraded`].  Degraded
//! operation is first-class: [`TreeServer::read_with_deadline`] bounds a
//! read against a stalled publication, [`RetryPolicy`] retries
//! backpressured ingest with jittered exponential backoff, and
//! [`ServeConfig::shed_depth`] sheds load before the queue wedges.  The
//! `chaos` module injects deterministic writer-thread faults to drive all
//! of this under test.
//!
//! ```
//! use treenum_serve::{ServeConfig, TreeServer};
//! use treenum_trees::generate::{random_tree, EditStream, TreeShape};
//! use treenum_trees::edit::EditFeed;
//! use treenum_trees::valuation::Var;
//! use treenum_trees::Alphabet;
//! use treenum_automata::queries;
//!
//! let mut sigma = Alphabet::from_names(["a", "b"]);
//! let b = sigma.get("b").unwrap();
//! let query = queries::select_label(sigma.len(), b, Var(0));
//! let tree = random_tree(&mut sigma, 50, TreeShape::Random, 7);
//! let mut feed = EditFeed::new(&tree, EditStream::skewed(sigma.labels().collect(), 3));
//!
//! let server = TreeServer::new(vec![tree], &query, sigma.len(), ServeConfig::default());
//! for op in feed.next_batch(32) {
//!     server.ingest(0, op).unwrap();
//! }
//! let generation = server.flush(0).unwrap();
//! let snapshot = server.snapshot(0);
//! assert_eq!(snapshot.generation(), generation);
//! let answers = snapshot.assignments();
//! # let _ = answers;
//! ```

pub mod chaos;
mod durable;
mod lock;
mod registry;
mod shard;
mod stats;

pub use chaos::{ChaosFault, ChaosSchedule};
pub use durable::{DurabilityConfig, RecoveryOutcome, ShardRecovery};
pub use registry::{QueryId, QueryRegistration};
pub use shard::{Page, PageCursor, QueryReader, Snapshot};
pub use stats::{FlushRecord, RegistryStats, ServeStats, ShardHealth, ShardStats};
pub use treenum_wal::SyncPolicy;

use crossbeam::channel::{bounded, Sender, TrySendError};
use durable::{list_shard_dirs, recover_shard, shard_dir, HealSource, ShardDurability};
use lock::{lock_unpoisoned, read_unpoisoned, try_read_unpoisoned};
use registry::RegistryInner;
use shard::{Ingest, ShardCopy, ShardWriter, SnapInner, Wake};
use stats::ShardMetrics;
use std::io;
use std::sync::atomic::Ordering;
use std::sync::{Arc, Mutex, RwLock};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};
use treenum_automata::{StepwiseTva, Wva};
use treenum_core::QueryPlan;
#[cfg(doc)]
use treenum_core::{Document, QueryIndex};
use treenum_trees::edit::EditOp;
use treenum_trees::unranked::UnrankedTree;
use treenum_trees::Label;
use treenum_wal::storage::{DiskFs, Storage};

/// Tuning knobs of the serving layer (per shard).
#[derive(Clone, Copy, Debug)]
pub struct ServeConfig {
    /// Capacity of the bounded ingest queue; a full queue makes
    /// [`TreeServer::ingest`] wait up to [`ServeConfig::ingest_timeout`]
    /// (backpressure) rather than dropping ops.
    pub queue_capacity: usize,
    /// Ops per flush: the writer cuts a batch once it holds this many ops
    /// (or earlier, at a barrier, a registry control or the
    /// [`ServeConfig::max_latency`] deadline).
    pub max_batch: usize,
    /// Bounded staleness: a flush is cut at latest this long after its first
    /// op was dequeued, even if it holds fewer than `max_batch` ops.
    pub max_latency: Duration,
    /// How long a flush that finds the retired snapshot copy still held
    /// blocks on its readers' release wake before falling back to an O(n)
    /// rebuild of the writable copy.  A copy released between two flushes
    /// is caught up off the visible path and never waits.
    pub reclaim_patience: Duration,
    /// How long [`TreeServer::ingest`] waits for space in a full queue
    /// before surfacing [`ServeError::Backpressure`] to the caller (who can
    /// retry, shed load, or route elsewhere — the queue never silently
    /// drops an op, and the wait never silently exceeds this bound).
    ///
    /// **Zero means fail-fast**: a full queue returns
    /// [`ServeError::Backpressure`] immediately, with no sleep and no clock
    /// read — a true non-blocking try.  Combine with [`RetryPolicy`] to put
    /// the waiting (and its jitter) under the caller's control.
    pub ingest_timeout: Duration,
    /// Load-shed threshold: when at least this many ops are already queued
    /// (plus in flight inside `ingest`), further `ingest` calls fail with
    /// [`ServeError::Backpressure`] **immediately**, without waiting
    /// `ingest_timeout` — shedding at the door instead of stacking blocked
    /// producers on a wedged queue.  Shed calls are counted in
    /// [`ShardStats::load_shed`].  The default (`usize::MAX`) disables
    /// shedding.
    pub shed_depth: usize,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            queue_capacity: 1024,
            max_batch: 256,
            max_latency: Duration::from_millis(1),
            reclaim_patience: Duration::from_millis(5),
            ingest_timeout: Duration::from_millis(250),
            shed_depth: usize::MAX,
        }
    }
}

impl ServeConfig {
    /// The default configuration with flushes of at most `k` ops.
    /// `fixed(1)` applies every op as its own batch — the write-behind
    /// equivalent of calling `apply` per edit, and the ingest-throughput
    /// baseline E9's `ingest_fixed1_*` arms measure the default against.
    pub fn fixed(k: usize) -> Self {
        ServeConfig {
            max_batch: k.max(1),
            ..ServeConfig::default()
        }
    }

    fn validated(mut self) -> Self {
        self.queue_capacity = self.queue_capacity.max(1);
        self.max_batch = self.max_batch.max(1);
        self
    }
}

/// Errors surfaced by the serving facade.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ServeError {
    /// The shard's writer thread is gone (the server was shut down, or the
    /// thread panicked).
    Disconnected,
    /// The ingest queue stayed full for the whole
    /// [`ServeConfig::ingest_timeout`].  The op was **not** enqueued; the
    /// caller may retry, shed load, or route to another shard.
    Backpressure,
    /// The shard's durable state is confirmed unrecoverable (a failed heal,
    /// or corruption found during recovery); the shard serves its last good
    /// state read-only and rejects all writes.
    /// See [`ShardRecovery::quarantined`] and [`ShardStats::health`].
    Quarantined,
    /// A [`TreeServer::read_with_deadline`] could not acquire a snapshot
    /// before its deadline (the publication lock stayed write-held — e.g. a
    /// stalled writer).  No state was observed or changed.
    DeadlineExceeded,
    /// The barrier's window included in-flight ops that a fault forced the
    /// shard to drop **before their ack** (counted in
    /// [`ShardStats::ops_dropped_unacked`]).  The shard healed and is
    /// accepting writes again; ops acked by *earlier* barriers are intact.
    /// The caller knows exactly which ops are in doubt: those since its
    /// last `Ok` ack — re-ingest them or reconcile against a snapshot.
    Degraded,
    /// The [`QueryId`] is not registered on this server (never was, was
    /// deregistered, or the snapshot predates its attach) — or it is
    /// [`QueryId::PRIMARY`] passed to [`TreeServer::deregister`], which is
    /// pinned for the server's lifetime.  Ids are never reused, so this can
    /// never alias a different query.
    UnknownQuery,
    /// A [`PageCursor`] was presented to a snapshot at a different
    /// generation than the one it was minted at, or to a reader of a
    /// different query than the one that minted it.  Cursor positions are
    /// only meaningful within one query's enumeration of one immutable
    /// snapshot; re-read page 1 on the new generation or query (or keep the
    /// original [`Snapshot`] alive to finish the scan — pinning the
    /// generation is exactly what snapshots are for).
    StaleCursor,
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeError::Disconnected => write!(f, "shard writer disconnected"),
            ServeError::Backpressure => {
                write!(f, "ingest queue full past the backpressure timeout")
            }
            ServeError::Quarantined => {
                write!(f, "shard is quarantined after a durability failure")
            }
            ServeError::DeadlineExceeded => {
                write!(
                    f,
                    "read deadline expired before a snapshot could be acquired"
                )
            }
            ServeError::Degraded => {
                write!(
                    f,
                    "shard dropped unacked in-flight ops while recovering from a fault"
                )
            }
            ServeError::UnknownQuery => {
                write!(f, "query id is not registered on this server")
            }
            ServeError::StaleCursor => {
                write!(
                    f,
                    "page cursor was minted for a different query or snapshot generation"
                )
            }
        }
    }
}

impl std::error::Error for ServeError {}

/// Jittered-exponential-backoff retry over [`ServeError::Backpressure`],
/// with a hard sleep budget.
///
/// Only `Backpressure` is retried — it is the one transient-by-contract
/// error ([`TreeServer::ingest`] left the op un-enqueued and invites a
/// retry).  `Quarantined`, `Degraded`, `Disconnected` and success all
/// return immediately.  Jitter is deterministic from `seed` (same
/// xorshift64* generator as the chaos schedule; no OS entropy), so a test
/// can replay the exact same backoff sequence.
///
/// The budget bounds **sleeping**, tracked additively — the policy never
/// subtracts clock readings (see the workspace `instant-sub` lint), and the
/// time spent inside the operation itself is the caller's own.
#[derive(Clone, Copy, Debug)]
pub struct RetryPolicy {
    /// First backoff sleep (doubles each retry).
    pub initial_backoff: Duration,
    /// Backoff ceiling.
    pub max_backoff: Duration,
    /// Total sleep budget; once exhausted the last error is returned.
    pub budget: Duration,
    /// Jitter seed (deterministic; vary it per producer thread to decorrelate
    /// their retries).
    pub seed: u64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            initial_backoff: Duration::from_micros(100),
            max_backoff: Duration::from_millis(10),
            budget: Duration::from_millis(250),
            seed: 0x9E37_79B9_7F4A_7C15,
        }
    }
}

impl RetryPolicy {
    /// Runs `op`, retrying [`ServeError::Backpressure`] with jittered
    /// exponential backoff until it stops failing or the sleep budget runs
    /// out (then the final `Backpressure` is returned).  Any other result —
    /// `Ok` or a non-transient error — is returned immediately.
    pub fn run<T>(&self, mut op: impl FnMut() -> Result<T, ServeError>) -> Result<T, ServeError> {
        let mut backoff = self.initial_backoff.max(Duration::from_micros(1));
        let mut spent = Duration::ZERO;
        let mut s = self.seed | 1;
        loop {
            match op() {
                Err(ServeError::Backpressure) => {}
                other => return other,
            }
            let remaining = self.budget.saturating_sub(spent);
            if remaining.is_zero() {
                return Err(ServeError::Backpressure);
            }
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            let r = s.wrapping_mul(0x2545_F491_4F6C_DD1D);
            // Uniform jitter over [backoff/2, backoff]: full-magnitude
            // collisions stay rare without ever collapsing the wait to zero.
            let half = (backoff.as_nanos() as u64) / 2;
            let jittered = Duration::from_nanos(half + r % (half + 1));
            let sleep = jittered.min(remaining);
            std::thread::sleep(sleep);
            spent = spent.saturating_add(sleep);
            backoff = (backoff * 2).min(self.max_backoff);
        }
    }
}

struct ShardHandle {
    tx: Sender<Ingest>,
    front: Arc<RwLock<Arc<SnapInner>>>,
    metrics: Arc<ShardMetrics>,
    join: Option<JoinHandle<()>>,
}

impl Drop for ShardHandle {
    /// Stops a writer that [`TreeServer`]'s own drop did not (a server whose
    /// construction failed after spawning some shards).  The writer's
    /// release wake holds a sender of its own queue, so the queue never
    /// disconnects under it: only `Shutdown` ends the thread.
    fn drop(&mut self) {
        if let Some(join) = self.join.take() {
            let _ = self.tx.send(Ingest::Shutdown);
            let _ = join.join();
        }
    }
}

/// The sharded serving facade: one independently updatable tree (and one
/// writer thread) per shard, one shared [`QueryPlan`] per registered query
/// across all of them.
///
/// Shards are the unit of both distribution and write ordering: ops ingested
/// into one shard are applied in ingestion order; different shards are
/// completely independent.  See the crate docs for the read/write protocol
/// and for the query registry ([`TreeServer::register`]).
pub struct TreeServer {
    shards: Vec<ShardHandle>,
    plan: Arc<QueryPlan>,
    cfg: ServeConfig,
    registry: Mutex<RegistryInner>,
}

impl TreeServer {
    /// Builds a server with one shard per tree, deriving (or fetching from
    /// the process-wide cache) the shared plan for `query`.
    pub fn new(
        trees: Vec<UnrankedTree>,
        query: &StepwiseTva,
        base_alphabet_len: usize,
        config: ServeConfig,
    ) -> Self {
        Self::with_plan(
            trees,
            QueryPlan::for_query(query, base_alphabet_len),
            config,
        )
    }

    /// Builds a server over an explicit shared plan.
    pub fn with_plan(trees: Vec<UnrankedTree>, plan: Arc<QueryPlan>, config: ServeConfig) -> Self {
        Self::with_options(trees, plan, config, None, None)
            .expect("non-durable server construction cannot fail")
    }

    /// The fully general constructor: an explicit plan, optional durability
    /// (a [`DurabilityConfig`] plus the [`Storage`] to put it on), and an
    /// optional [`ChaosSchedule`] of injected writer-thread faults (test
    /// harnesses only; `None` in production).
    ///
    /// Errors only when creating the durable shard directories fails; a
    /// non-durable call (`durability: None`) is infallible.
    pub fn with_options(
        trees: Vec<UnrankedTree>,
        plan: Arc<QueryPlan>,
        config: ServeConfig,
        durability: Option<(&DurabilityConfig, Arc<dyn Storage>)>,
        chaos: Option<Arc<ChaosSchedule>>,
    ) -> io::Result<Self> {
        assert!(!trees.is_empty(), "a server needs at least one shard");
        let config = config.validated();
        let shards = trees
            .into_iter()
            .enumerate()
            .map(|(i, tree)| {
                let (durable, heal) = match &durability {
                    Some((cfg, storage)) => {
                        let dir = shard_dir(&cfg.dir, i);
                        let durable =
                            ShardDurability::create(Arc::clone(storage), dir.clone(), cfg, &tree)?;
                        let heal = HealSource {
                            storage: Arc::clone(storage),
                            dir,
                            shard: i,
                            cfg: (*cfg).clone(),
                        };
                        (Some(durable), Some(heal))
                    }
                    None => (None, None),
                };
                Ok(Self::spawn_shard(
                    tree,
                    &plan,
                    config,
                    durable,
                    heal,
                    chaos.clone(),
                    0,
                ))
            })
            .collect::<io::Result<Vec<_>>>()?;
        Ok(TreeServer {
            shards,
            plan,
            cfg: config,
            registry: Mutex::new(RegistryInner::new()),
        })
    }

    /// Builds a **durable** server: one shard per tree, each with a
    /// write-ahead log and periodic snapshot persistence under
    /// `durability.dir/shard-NNNN/`, on the real filesystem.
    ///
    /// Any leftover log or snapshot files in those directories belong to an
    /// abandoned lineage and are cleared — use [`TreeServer::recover`] to
    /// *continue* an existing lineage instead.
    pub fn with_durability(
        trees: Vec<UnrankedTree>,
        query: &StepwiseTva,
        base_alphabet_len: usize,
        config: ServeConfig,
        durability: &DurabilityConfig,
    ) -> io::Result<Self> {
        Self::with_durability_on(
            trees,
            QueryPlan::for_query(query, base_alphabet_len),
            config,
            durability,
            Arc::new(DiskFs),
        )
    }

    /// [`TreeServer::with_durability`] over an explicit plan and an explicit
    /// [`Storage`] implementation (the fault-injection harness passes a
    /// `FailpointFs` here).
    pub fn with_durability_on(
        trees: Vec<UnrankedTree>,
        plan: Arc<QueryPlan>,
        config: ServeConfig,
        durability: &DurabilityConfig,
        storage: Arc<dyn Storage>,
    ) -> io::Result<Self> {
        Self::with_options(trees, plan, config, Some((durability, storage)), None)
    }

    /// Rebuilds a durable server from what `durability.dir` holds on disk:
    /// per shard, the newest intact snapshot plus a replay of the WAL tail,
    /// then one build of the recovered tree.  Shards whose durable state
    /// is corrupt beyond recovery come back **quarantined** (read-only,
    /// best-effort state, reason in the returned [`RecoveryOutcome`]) rather
    /// than failing the whole server.
    ///
    /// Errors only on genuine I/O failure while reading, or when
    /// `durability.dir` holds no shard directories at all.
    pub fn recover(
        query: &StepwiseTva,
        base_alphabet_len: usize,
        config: ServeConfig,
        durability: &DurabilityConfig,
    ) -> io::Result<(Self, RecoveryOutcome)> {
        Self::recover_with_storage(
            QueryPlan::for_query(query, base_alphabet_len),
            config,
            durability,
            Arc::new(DiskFs),
        )
    }

    /// [`TreeServer::recover`] over an explicit plan and [`Storage`].
    pub fn recover_with_storage(
        plan: Arc<QueryPlan>,
        config: ServeConfig,
        durability: &DurabilityConfig,
        storage: Arc<dyn Storage>,
    ) -> io::Result<(Self, RecoveryOutcome)> {
        let config = config.validated();
        let ids = list_shard_dirs(storage.as_ref(), &durability.dir)?;
        if ids.is_empty() {
            return Err(io::Error::new(
                io::ErrorKind::NotFound,
                format!("no shard directories under {}", durability.dir.display()),
            ));
        }
        for (expect, &id) in ids.iter().enumerate() {
            if id != expect {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidData,
                    format!("shard directories are not contiguous: missing shard-{expect:04}"),
                ));
            }
        }
        let mut shards = Vec::with_capacity(ids.len());
        let mut reports = Vec::with_capacity(ids.len());
        for id in ids {
            let dir = shard_dir(&durability.dir, id);
            let rec = recover_shard(&storage, &dir, id, durability)?;
            let heal = HealSource {
                storage: Arc::clone(&storage),
                dir,
                shard: id,
                cfg: durability.clone(),
            };
            let shard = Self::spawn_shard(
                rec.tree,
                &plan,
                config,
                rec.durability,
                Some(heal),
                None,
                rec.report.ops_recovered,
            );
            if rec.report.quarantined.is_some() {
                // No message reaches the writer before the server returns,
                // so marking the shard after the spawn is race-free.
                shard.metrics.set_health(ShardHealth::Quarantined);
            }
            shards.push(shard);
            reports.push(rec.report);
        }
        Ok((
            TreeServer {
                shards,
                plan,
                cfg: config,
                registry: Mutex::new(RegistryInner::new()),
            },
            RecoveryOutcome { shards: reports },
        ))
    }

    /// Starts one shard's writer thread serving `plan` over `tree`, `seq0`
    /// durable ops into its lineage.  The published copy is one build and
    /// the writable copy its clone (see `shard` module docs).
    fn spawn_shard(
        tree: UnrankedTree,
        plan: &Arc<QueryPlan>,
        cfg: ServeConfig,
        durable: Option<ShardDurability>,
        heal: Option<HealSource>,
        chaos: Option<Arc<ChaosSchedule>>,
        seq0: u64,
    ) -> ShardHandle {
        let plans = vec![(QueryId::PRIMARY, Arc::clone(plan))];
        let copy = ShardCopy::build(tree, &plans);
        let writable = copy.clone();
        let (tx, rx) = bounded(cfg.queue_capacity);
        let wake = Arc::new(Wake::new(tx.clone()));
        let front = Arc::new(RwLock::new(Arc::new(SnapInner::new(copy, 0, &wake))));
        let metrics = Arc::new(ShardMetrics::default());
        metrics.queries_served.store(1, Ordering::Relaxed);
        let writer = ShardWriter {
            rx,
            front: Arc::clone(&front),
            metrics: Arc::clone(&metrics),
            cfg,
            plans,
            write: Some(writable),
            retired: None,
            lag: Vec::new(),
            off_path_nanos: 0,
            wake,
            generation: 0,
            buf: Vec::new(),
            durable,
            heal,
            chaos,
            seq0,
            applied_ops: 0,
            batches: 0,
            dropped_cycle: false,
        };
        let join = std::thread::Builder::new()
            .name("treenum-serve-shard".into())
            .spawn(move || writer.supervise())
            .expect("spawn shard writer thread");
        ShardHandle {
            tx,
            front,
            metrics,
            join: Some(join),
        }
    }

    /// Number of shards.
    pub fn num_shards(&self) -> usize {
        self.shards.len()
    }

    /// A trivial router: the shard responsible for `key`.
    pub fn shard_for(&self, key: u64) -> usize {
        (key % self.shards.len() as u64) as usize
    }

    /// The plan of the primary query ([`QueryId::PRIMARY`] — the one the
    /// server was constructed with).
    pub fn plan(&self) -> &Arc<QueryPlan> {
        &self.plan
    }

    /// Registers `query` on every shard at runtime, without stopping ingest.
    ///
    /// The plan is admitted through the process-wide plan cache
    /// ([`QueryPlan::admit`]: compiled on the process's first admission of
    /// the query, shared afterwards), then attached to each shard in
    /// turn by a control message on the shard's ordinary ingest queue: the
    /// attach is ordered after every op enqueued before it, and the shard
    /// publishes one membership-only generation whose snapshot — and every
    /// later one — carries the new query.  The returned
    /// [`QueryRegistration`] holds the never-reused [`QueryId`], the
    /// per-shard visibility generations, and the admission cost
    /// (`cache_hit` / `compile_ns`).
    ///
    /// Shards are attached left to right; if shard `s` rejects the attach
    /// (e.g. [`ServeError::Quarantined`]), the already-attached prefix
    /// `0..s` is rolled back with detaches and the error is returned — a
    /// failed registration is all-or-nothing (the burned id is never
    /// visible).
    ///
    /// `base_alphabet_len` is the number of labels of the underlying
    /// alphabet, exactly as for [`TreeServer::new`].
    pub fn register(
        &self,
        query: &StepwiseTva,
        base_alphabet_len: usize,
    ) -> Result<QueryRegistration, ServeError> {
        let admission = QueryPlan::admit(query, base_alphabet_len);
        let id = lock_unpoisoned(&self.registry).allocate(&admission);
        let mut visible_at = Vec::with_capacity(self.shards.len());
        for (s, h) in self.shards.iter().enumerate() {
            match Self::control(h, |ack| {
                Ingest::Attach(id, Arc::clone(&admission.plan), ack)
            }) {
                Ok(generation) => visible_at.push(generation),
                Err(e) => {
                    // Roll back the attached prefix so a failed registration
                    // leaves no shard serving the burned id.
                    for rolled in &self.shards[..s] {
                        let _ = Self::control(rolled, |ack| Ingest::Detach(id, ack));
                    }
                    return Err(e);
                }
            }
        }
        lock_unpoisoned(&self.registry).note_registered(id);
        Ok(QueryRegistration {
            id,
            visible_at,
            cache_hit: admission.cache_hit,
            compile_ns: admission.compile_ns,
        })
    }

    /// [`TreeServer::register`] for a **word automaton** (document spanner):
    /// encodes `wva` as a stepwise tree automaton over the standard word
    /// encoding — the same encoding [`treenum_core::WordEnumerator`] uses,
    /// with a fresh root label `letters` on top of the `letters`-ary word
    /// alphabet — and registers that.  Word shards must therefore hold
    /// word-encoded trees (right-comb spines) for the answers to be
    /// meaningful.
    pub fn register_spanner(
        &self,
        wva: &Wva,
        letters: usize,
    ) -> Result<QueryRegistration, ServeError> {
        let stepwise = wva.to_stepwise(Label(letters as u32));
        self.register(&stepwise, letters + 1)
    }

    /// Deregisters a runtime-registered query from every shard: each shard
    /// drops the query's writable index at the detach point and publishes
    /// the narrowed membership, so snapshots from that generation on report
    /// [`ServeError::UnknownQuery`] for `id`.  Snapshots acquired *before*
    /// the detach keep serving the query until they are dropped (snapshot
    /// immutability); the last such drop releases the query's index state.
    ///
    /// Passing [`QueryId::PRIMARY`] or an id that is not currently
    /// registered returns [`ServeError::UnknownQuery`].  The registry entry
    /// is removed even if a quarantined shard rejects its detach (the first
    /// shard error is returned; quarantined shards froze their membership
    /// with the rest of their last-good state).
    pub fn deregister(&self, id: QueryId) -> Result<(), ServeError> {
        {
            let mut reg = lock_unpoisoned(&self.registry);
            if id == QueryId::PRIMARY || !reg.active.contains(&id) {
                return Err(ServeError::UnknownQuery);
            }
            reg.active.retain(|&q| q != id);
            reg.deregistrations += 1;
        }
        let mut first_err = None;
        for h in &self.shards {
            if let Err(e) = Self::control(h, |ack| Ingest::Detach(id, ack)) {
                first_err.get_or_insert(e);
            }
        }
        match first_err {
            None => Ok(()),
            Some(e) => Err(e),
        }
    }

    /// The currently registered query ids, in registration order (index 0 is
    /// always [`QueryId::PRIMARY`]).
    pub fn registered_queries(&self) -> Vec<QueryId> {
        lock_unpoisoned(&self.registry).active.clone()
    }

    /// Admission-side counters of the query registry (registration traffic
    /// and plan-cache behaviour); the per-shard serving side is in
    /// [`ShardStats`].
    pub fn registry_stats(&self) -> RegistryStats {
        let reg = lock_unpoisoned(&self.registry);
        RegistryStats {
            registered: reg.active.len(),
            peak_registered: reg.peak,
            registrations: reg.registrations,
            deregistrations: reg.deregistrations,
            plan_hits: reg.plan_hits,
            plan_misses: reg.plan_misses,
            compile_ns_total: reg.compile_ns_total,
            max_compile_ns: reg.max_compile_ns,
        }
    }

    /// Sends one membership control message to a shard and waits for the
    /// writer's ack (the publication generation at which the change is
    /// visible).
    fn control(
        h: &ShardHandle,
        make: impl FnOnce(Sender<Result<u64, ServeError>>) -> Ingest,
    ) -> Result<u64, ServeError> {
        // Rendezvous, like `TreeServer::flush`.
        let (ack_tx, ack_rx) = bounded(0);
        h.tx.send(make(ack_tx))
            .map_err(|_| ServeError::Disconnected)?;
        ack_rx.recv().map_err(|_| ServeError::Disconnected)?
    }

    /// Enqueues one edit op for `shard` (write-behind: returns as soon as
    /// the op is queued).  A full queue applies **explicit backpressure**:
    /// the call waits up to [`ServeConfig::ingest_timeout`] for space (a
    /// zero timeout is a true non-blocking try), then returns
    /// [`ServeError::Backpressure`] with the op *not* enqueued so the
    /// caller can decide (retry — see [`RetryPolicy`] — shed, reroute)
    /// instead of blocking unboundedly.  A queue already at
    /// [`ServeConfig::shed_depth`] sheds the op immediately.  A quarantined
    /// shard rejects ingest immediately.
    pub fn ingest(&self, shard: usize, op: EditOp) -> Result<(), ServeError> {
        let h = &self.shards[shard];
        if h.metrics.health() == ShardHealth::Quarantined {
            return Err(ServeError::Quarantined);
        }
        if h.metrics.queue_depth.load(Ordering::Relaxed) >= self.cfg.shed_depth as u64 {
            h.metrics.load_shed.fetch_add(1, Ordering::Relaxed);
            return Err(ServeError::Backpressure);
        }
        h.metrics.queue_depth.fetch_add(1, Ordering::Relaxed);
        let mut msg = Ingest::Op(op);
        // A zero timeout never reads the clock: one `try_send`, then out.
        let deadline = (self.cfg.ingest_timeout > Duration::ZERO)
            .then(|| Instant::now() + self.cfg.ingest_timeout);
        loop {
            match h.tx.try_send(msg) {
                Ok(()) => {
                    h.metrics.ingested.fetch_add(1, Ordering::Relaxed);
                    return Ok(());
                }
                Err(TrySendError::Disconnected(_)) => {
                    h.metrics.queue_depth.fetch_sub(1, Ordering::Relaxed);
                    return Err(ServeError::Disconnected);
                }
                Err(TrySendError::Full(back)) => {
                    if deadline.is_none_or(|d| Instant::now() >= d) {
                        h.metrics.queue_depth.fetch_sub(1, Ordering::Relaxed);
                        h.metrics
                            .backpressure_timeouts
                            .fetch_add(1, Ordering::Relaxed);
                        return Err(ServeError::Backpressure);
                    }
                    msg = back;
                    std::thread::sleep(Duration::from_micros(50));
                }
            }
        }
    }

    /// Enqueues a sequence of ops for `shard`, preserving their order.
    pub fn ingest_batch(&self, shard: usize, ops: &[EditOp]) -> Result<(), ServeError> {
        for &op in ops {
            self.ingest(shard, op)?;
        }
        Ok(())
    }

    /// The currently published snapshot of `shard`.
    pub fn snapshot(&self, shard: usize) -> Snapshot {
        let h = &self.shards[shard];
        h.metrics.reads.fetch_add(1, Ordering::Relaxed);
        let front = read_unpoisoned(&h.front);
        Snapshot::from_inner(Arc::clone(&front))
    }

    /// [`TreeServer::snapshot`] with a deadline: spins on non-blocking
    /// acquisition attempts for up to `timeout` and returns
    /// [`ServeError::DeadlineExceeded`] instead of parking behind a stalled
    /// publication swap (the front lock is only ever write-held for the
    /// duration of a pointer swap, so in a healthy shard the very first
    /// attempt succeeds).  A zero timeout is a single non-blocking try.
    ///
    /// Health is orthogonal: a `Degraded`/`Recovering`/`Quarantined` shard
    /// still serves its last published snapshot — only a *held lock* can
    /// exceed the deadline.
    pub fn read_with_deadline(
        &self,
        shard: usize,
        timeout: Duration,
    ) -> Result<Snapshot, ServeError> {
        let h = &self.shards[shard];
        let start = Instant::now();
        loop {
            if let Some(front) = try_read_unpoisoned(&h.front) {
                h.metrics.reads.fetch_add(1, Ordering::Relaxed);
                return Ok(Snapshot::from_inner(Arc::clone(&front)));
            }
            if start.elapsed() >= timeout {
                h.metrics
                    .deadline_reads_timed_out
                    .fetch_add(1, Ordering::Relaxed);
                return Err(ServeError::DeadlineExceeded);
            }
            std::thread::sleep(Duration::from_micros(25));
        }
    }

    /// Barrier: waits until everything ingested into `shard` before this call
    /// has been applied and published, returning the resulting generation.
    ///
    /// On a durable shard an `Ok` ack is also the **durability barrier**:
    /// every op before it reached the WAL under the configured
    /// [`SyncPolicy`].  A quarantined shard acks
    /// [`ServeError::Quarantined`].
    pub fn flush(&self, shard: usize) -> Result<u64, ServeError> {
        // A rendezvous channel: the writer's ack send returns only once
        // this thread has taken the ack, so the writer's off-path catch-up
        // never runs ahead of the client it just acked on a shared CPU (on
        // a 2-vCPU host a buffered ack left the ~0.6 ms `page_scan` catch-up
        // inside the client's flush wait).
        let (ack_tx, ack_rx) = bounded(0);
        self.shards[shard]
            .tx
            .send(Ingest::Flush(ack_tx))
            .map_err(|_| ServeError::Disconnected)?;
        ack_rx.recv().map_err(|_| ServeError::Disconnected)?
    }

    /// [`TreeServer::flush`] on every shard, returning the per-shard
    /// generations.
    pub fn flush_all(&self) -> Result<Vec<u64>, ServeError> {
        (0..self.shards.len()).map(|s| self.flush(s)).collect()
    }

    /// Current counters of one shard.
    pub fn shard_stats(&self, shard: usize) -> ShardStats {
        self.shards[shard].metrics.stats(self.cfg.max_batch)
    }

    /// Current counters of every shard, plus the registry's admission side.
    pub fn stats(&self) -> ServeStats {
        ServeStats {
            shards: self
                .shards
                .iter()
                .map(|h| h.metrics.stats(self.cfg.max_batch))
                .collect(),
            registry: self.registry_stats(),
        }
    }

    /// The full flush log of `shard`: entry `i` describes the batch that
    /// produced generation `i + 1`, so the op prefix behind a snapshot at
    /// generation `g` is the sum of the first `g` sizes (the property the
    /// snapshot-consistency oracle tests replay against).
    ///
    /// The log is the shard's audit trail and is deliberately unbounded —
    /// one 48-byte record per flush for the server's lifetime.  Long-lived
    /// deployments that poll it should use [`TreeServer::flush_log_len`] /
    /// [`TreeServer::flush_log_since`] instead of repeatedly cloning the
    /// whole history.
    pub fn flush_log(&self, shard: usize) -> Vec<FlushRecord> {
        lock_unpoisoned(&self.shards[shard].metrics.flush_log).clone()
    }

    /// Number of flush-log entries of `shard` (= its published generation
    /// once quiescent) without cloning the log.
    pub fn flush_log_len(&self, shard: usize) -> usize {
        lock_unpoisoned(&self.shards[shard].metrics.flush_log).len()
    }

    /// The flush-log entries of `shard` from index `start` on — the
    /// incremental-polling companion to [`TreeServer::flush_log`].
    pub fn flush_log_since(&self, shard: usize, start: usize) -> Vec<FlushRecord> {
        let log = lock_unpoisoned(&self.shards[shard].metrics.flush_log);
        log.get(start..).unwrap_or(&[]).to_vec()
    }
}

impl Drop for TreeServer {
    fn drop(&mut self) {
        for h in &self.shards {
            let _ = h.tx.send(Ingest::Shutdown);
        }
        for h in &mut self.shards {
            if let Some(join) = h.join.take() {
                let _ = join.join();
            }
        }
    }
}

/// The server (and its snapshots) cross threads by design.
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<TreeServer>();
    assert_send_sync::<Snapshot>();
    assert_send_sync::<ServeStats>();
};

#[cfg(test)]
mod tests {
    use super::*;
    use treenum_automata::queries;
    use treenum_core::TreeEnumerator;
    use treenum_trees::edit::EditFeed;
    use treenum_trees::generate::{random_tree, EditStream, TreeShape};
    use treenum_trees::valuation::{Assignment, Var};
    use treenum_trees::Alphabet;

    fn sorted(mut v: Vec<Assignment>) -> Vec<Assignment> {
        v.sort();
        v
    }

    fn select_b() -> (treenum_automata::StepwiseTva, Alphabet) {
        let sigma = Alphabet::from_names(["a", "b", "c"]);
        let b = sigma.get("b").unwrap();
        (queries::select_label(sigma.len(), b, Var(0)), sigma)
    }

    #[test]
    fn ingest_flush_read_matches_fresh_engine() {
        let (query, mut sigma) = select_b();
        let tree = random_tree(&mut sigma, 40, TreeShape::Random, 11);
        let labels: Vec<_> = sigma.labels().collect();
        let server = TreeServer::new(
            vec![tree.clone()],
            &query,
            sigma.len(),
            ServeConfig::default(),
        );
        let mut feed = EditFeed::new(&tree, EditStream::skewed(labels, 5));
        for round in 0..6 {
            for op in feed.next_batch(16) {
                server.ingest(0, op).unwrap();
            }
            let generation = server.flush(0).unwrap();
            let snap = server.snapshot(0);
            assert_eq!(snap.generation(), generation);
            let fresh = TreeEnumerator::new(feed.tree().clone(), &query, sigma.len());
            assert_eq!(
                sorted(snap.assignments()),
                sorted(fresh.assignments()),
                "round {round}"
            );
            snap.check_consistency();
        }
        let stats = server.shard_stats(0);
        assert_eq!(stats.edits_ingested, 96);
        assert_eq!(stats.edits_applied, 96);
        assert_eq!(stats.queue_depth, 0);
        let log = server.flush_log(0);
        assert_eq!(log.iter().map(|r| r.size).sum::<usize>(), 96);
        assert_eq!(log.len() as u64, stats.generation);
    }

    #[test]
    fn held_snapshots_are_immutable_across_flushes() {
        let (query, mut sigma) = select_b();
        let tree = random_tree(&mut sigma, 30, TreeShape::Random, 3);
        let labels: Vec<_> = sigma.labels().collect();
        let server = TreeServer::new(
            vec![tree.clone()],
            &query,
            sigma.len(),
            ServeConfig::default(),
        );
        let mut feed = EditFeed::new(&tree, EditStream::burst(labels, 9));
        let held = server.snapshot(0);
        let held_answers = sorted(held.assignments());
        assert_eq!(held.generation(), 0);
        // Many flushes while the old snapshot stays alive: the writer must
        // keep making progress (rebuild fallback at worst) and the held
        // snapshot must never change.
        for _ in 0..8 {
            for op in feed.next_batch(8) {
                server.ingest(0, op).unwrap();
            }
            server.flush(0).unwrap();
            assert_eq!(sorted(held.assignments()), held_answers);
        }
        assert_eq!(server.shard_stats(0).generation, 8);
        assert!(server.snapshot(0).generation() > held.generation());
        drop(held);
    }

    #[test]
    fn shards_are_independent_and_share_one_plan() {
        let (query, mut sigma) = select_b();
        let t0 = random_tree(&mut sigma, 25, TreeShape::Random, 1);
        let t1 = random_tree(&mut sigma, 35, TreeShape::Deep, 2);
        let labels: Vec<_> = sigma.labels().collect();
        let server = TreeServer::new(
            vec![t0, t1.clone()],
            &query,
            sigma.len(),
            ServeConfig::default(),
        );
        assert_eq!(server.num_shards(), 2);
        assert_eq!(server.shard_for(7), 1);
        let mut feed = EditFeed::new(&t1, EditStream::balanced_mix(labels, 4));
        server.ingest_batch(1, &feed.next_batch(20)).unwrap();
        server.flush(1).unwrap();
        assert_eq!(server.shard_stats(0).generation, 0);
        // The writer races the producer, so the 20 ops may land as several
        // flushes; what matters is that only shard 1 moved and all ops landed.
        assert!(server.shard_stats(1).generation >= 1);
        assert_eq!(server.shard_stats(1).edits_applied, 20);
        let s1 = server.snapshot(1);
        let fresh = TreeEnumerator::new(feed.tree().clone(), &query, sigma.len());
        assert_eq!(sorted(s1.assignments()), sorted(fresh.assignments()));
    }

    #[test]
    fn fixed_config_applies_every_op_as_its_own_batch() {
        let (query, mut sigma) = select_b();
        let tree = random_tree(&mut sigma, 20, TreeShape::Random, 8);
        let labels: Vec<_> = sigma.labels().collect();
        let server = TreeServer::new(
            vec![tree.clone()],
            &query,
            sigma.len(),
            ServeConfig::fixed(1),
        );
        let mut feed = EditFeed::new(&tree, EditStream::balanced_mix(labels, 6));
        for op in feed.next_batch(10) {
            server.ingest(0, op).unwrap();
        }
        server.flush(0).unwrap();
        let stats = server.shard_stats(0);
        assert_eq!(stats.edits_applied, 10);
        assert_eq!(stats.window, 1);
        // Every flush is size 1 (`max_batch` is 1; the barrier drains
        // whatever remains, but ops were already applied one by one as the
        // writer raced the producer — sizes can only exceed 1 for the final
        // drain).
        let log = server.flush_log(0);
        assert_eq!(log.iter().map(|r| r.size).sum::<usize>(), 10);
    }

    #[test]
    fn mean_flush_leaves_membership_publications_out() {
        let (query, mut sigma) = select_b();
        let tree = random_tree(&mut sigma, 30, TreeShape::Random, 10);
        let labels: Vec<_> = sigma.labels().collect();
        // A `max_batch` of 8 with a deadline that never fires: the 8 ops
        // land as exactly one batch.
        let server = TreeServer::new(
            vec![tree.clone()],
            &query,
            sigma.len(),
            ServeConfig {
                max_latency: Duration::from_secs(60),
                ..ServeConfig::fixed(8)
            },
        );
        let extra = queries::exists_label(sigma.len(), sigma.get("a").unwrap());
        server.register(&extra, sigma.len()).unwrap();
        let mut feed = EditFeed::new(&tree, EditStream::balanced_mix(labels, 4));
        server.ingest_batch(0, &feed.next_batch(8)).unwrap();
        server.flush(0).unwrap();
        let stats = server.shard_stats(0);
        assert_eq!((stats.flushes, stats.queries_attached), (2, 1));
        assert_eq!(stats.mean_flush(), 8.0);
    }

    #[test]
    fn zero_max_latency_does_not_panic_the_writer() {
        // Regression: the coalescing deadline is `first_op + max_latency`,
        // which with a zero latency is already in the past when the writer
        // computes the remaining wait — a bare `deadline - now` would
        // underflow and panic the writer thread.
        let (query, mut sigma) = select_b();
        let tree = random_tree(&mut sigma, 25, TreeShape::Random, 4);
        let labels: Vec<_> = sigma.labels().collect();
        let server = TreeServer::new(
            vec![tree.clone()],
            &query,
            sigma.len(),
            ServeConfig {
                max_latency: Duration::ZERO,
                ..ServeConfig::default()
            },
        );
        let mut feed = EditFeed::new(&tree, EditStream::skewed(labels, 2));
        for op in feed.next_batch(24) {
            server.ingest(0, op).unwrap();
        }
        server.flush(0).unwrap();
        let stats = server.shard_stats(0);
        assert_eq!(stats.edits_applied, 24);
        assert_eq!(stats.panics_caught, 0);
        assert_eq!(stats.health, ShardHealth::Healthy);
    }

    #[test]
    fn zero_ingest_timeout_fails_fast_on_a_full_queue() {
        let (query, mut sigma) = select_b();
        let tree = random_tree(&mut sigma, 20, TreeShape::Random, 5);
        let labels: Vec<_> = sigma.labels().collect();
        let server = TreeServer::new(
            vec![tree.clone()],
            &query,
            sigma.len(),
            ServeConfig {
                queue_capacity: 1,
                ingest_timeout: Duration::ZERO,
                ..ServeConfig::default()
            },
        );
        // Wedge the writer: a held snapshot plus enough ops keeps the queue
        // occupied long enough for a non-blocking try to observe Full.
        let mut feed = EditFeed::new(&tree, EditStream::balanced_mix(labels, 3));
        let ops = feed.next_batch(64);
        let mut saw_backpressure = false;
        let start = Instant::now();
        for &op in &ops {
            match server.ingest(0, op) {
                Ok(()) => {}
                Err(ServeError::Backpressure) => {
                    saw_backpressure = true;
                    break;
                }
                Err(e) => panic!("unexpected: {e}"),
            }
        }
        // Fail-fast means no 250ms default wait anywhere: even 64 attempts
        // against a capacity-1 queue come back well under the default
        // single-op timeout.
        assert!(start.elapsed() < Duration::from_millis(250));
        if saw_backpressure {
            assert!(server.shard_stats(0).backpressure_timeouts >= 1);
        }
    }

    #[test]
    fn shed_depth_rejects_before_waiting() {
        let (query, mut sigma) = select_b();
        let tree = random_tree(&mut sigma, 20, TreeShape::Random, 6);
        let labels: Vec<_> = sigma.labels().collect();
        let server = TreeServer::new(
            vec![tree.clone()],
            &query,
            sigma.len(),
            ServeConfig {
                shed_depth: 0,
                ..ServeConfig::default()
            },
        );
        let mut feed = EditFeed::new(&tree, EditStream::skewed(labels, 7));
        let op = feed.next_batch(1)[0];
        let start = Instant::now();
        assert_eq!(server.ingest(0, op), Err(ServeError::Backpressure));
        // Shedding happens at the door — no ingest_timeout wait.
        assert!(start.elapsed() < Duration::from_millis(100));
        let stats = server.shard_stats(0);
        assert_eq!(stats.load_shed, 1);
        assert_eq!(stats.edits_ingested, 0);
    }

    #[test]
    fn read_with_deadline_succeeds_instantly_on_a_healthy_shard() {
        let (query, mut sigma) = select_b();
        let tree = random_tree(&mut sigma, 15, TreeShape::Random, 9);
        let server = TreeServer::new(vec![tree], &query, sigma.len(), ServeConfig::default());
        let snap = server.read_with_deadline(0, Duration::ZERO).unwrap();
        assert_eq!(snap.generation(), 0);
        assert_eq!(server.shard_stats(0).deadline_reads_timed_out, 0);
    }

    #[test]
    fn retry_policy_retries_backpressure_within_budget() {
        let policy = RetryPolicy {
            initial_backoff: Duration::from_micros(10),
            max_backoff: Duration::from_micros(100),
            budget: Duration::from_millis(50),
            seed: 7,
        };
        let mut calls = 0;
        let out = policy.run(|| {
            calls += 1;
            if calls < 4 {
                Err(ServeError::Backpressure)
            } else {
                Ok(calls)
            }
        });
        assert_eq!(out, Ok(4));

        // Non-transient errors pass through without a retry.
        let mut calls = 0;
        let out: Result<(), _> = policy.run(|| {
            calls += 1;
            Err(ServeError::Quarantined)
        });
        assert_eq!(out, Err(ServeError::Quarantined));
        assert_eq!(calls, 1);

        // An exhausted budget surfaces the final Backpressure.
        let exhausted = RetryPolicy {
            budget: Duration::from_micros(200),
            ..policy
        };
        let out: Result<(), _> = exhausted.run(|| Err(ServeError::Backpressure));
        assert_eq!(out, Err(ServeError::Backpressure));
    }

    #[test]
    fn all_healthy_reflects_every_shard() {
        let (query, mut sigma) = select_b();
        let t0 = random_tree(&mut sigma, 15, TreeShape::Random, 1);
        let t1 = random_tree(&mut sigma, 15, TreeShape::Random, 2);
        let server = TreeServer::new(vec![t0, t1], &query, sigma.len(), ServeConfig::default());
        assert!(server.stats().all_healthy());
    }

    #[test]
    fn flush_on_idle_shard_acks_current_generation() {
        let (query, mut sigma) = select_b();
        let tree = random_tree(&mut sigma, 15, TreeShape::Random, 2);
        let server = TreeServer::new(vec![tree], &query, sigma.len(), ServeConfig::default());
        assert_eq!(server.flush(0).unwrap(), 0);
        assert_eq!(server.flush_all().unwrap(), vec![0]);
    }
}
