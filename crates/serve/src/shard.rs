//! One serving shard: the published snapshot slot, the reader-facing
//! [`Snapshot`] handle, and the writer thread's ingest loop.
//!
//! # Left-right publication
//!
//! A shard owns **two** structurally independent copies of the same logical
//! state.  A copy ([`ShardCopy`]) is one [`Document`] — the tree, its
//! balanced term and `φ`, which depend only on the tree — shared by one
//! [`QueryIndex`] (circuit + enumeration index) per registered query.  At
//! any instant one copy is *published* (readers clone an `Arc` to it and
//! enumerate without any lock held) and the other is *writable* (the ingest
//! thread applies coalesced batches to it).  A flush applies the batch to
//! the writable document **once** and repairs every query index from the
//! document's one batch report, publishes the whole copy with **one**
//! bumped generation behind **one** `Arc` (snapshot multiplexing: Q
//! registered queries share one refcount per publication, not Q
//! republications), and retires the previously published copy.  Right
//! after the cycle's acks go out, the writer catches the retired copy up
//! **off the visible path**: if no reader holds it, it reclaims it, replays
//! the batches it missed (the lag) and reconciles it with the query
//! membership, and keeps it as the writable copy — so the next flush only
//! logs, applies its own batch and publishes.  If a reader still holds the
//! retired copy, that reader's last release wakes the writer, which then
//! catches up.  Readers therefore never block the writer's *apply* work,
//! and the writer never mutates anything a reader can observe — every
//! snapshot is a complete, immutable structure at one generation.  The two
//! copies start as one build and its clone.
//!
//! # The release wake
//!
//! Every published generation carries a reader gate: the number of
//! [`Snapshot`] handles that hold it, and a retired flag the writer sets
//! under the front write lock when the generation leaves the front.  A
//! handle's drop that takes the count to 0 on a retired generation wakes
//! the writer twice over: it notifies a condvar (for a flush blocked in the
//! reclaim of that copy) and queues a non-blocking `Released` nudge (for an
//! idle writer; if the queue is full, the writer has queued work and comes
//! round anyway).  The handle gives up its reference to the copy *before* it
//! decrements the count, so a woken writer always finds the copy free.  The
//! writer checks the count only after setting the flag, so one of the two
//! sides always sees the other and no release is lost; the `--sched` model
//! of `treenum-analyze` checks this interleaving by interleaving.
//!
//! # Query attach/detach
//!
//! Registry control messages ([`Ingest::Attach`]/[`Ingest::Detach`]) ride
//! the same ingest queue as edit ops, so they are ordered after everything
//! enqueued before them and never stop ingest.  The writer flushes its
//! coalescing buffer, adjusts the query membership on the writable copy
//! (building the new query's circuit and index over the copy's document, or
//! dropping the detached one), and publishes a membership-only generation — a size-0
//! flush-log record, keeping the gapless-generation audit trail intact.
//! The ack carries the generation from which the new membership is visible.
//!
//! Membership changes take the same path as data flushes: the index build
//! on the retired copy after an attach runs in the off-path catch-up, not
//! in the next flush.
//!
//! The only writer-side wait is a flush that finds the retired copy still
//! held (its readers outlived the whole gap between two flushes).  It
//! blocks on the release wake, bounded by
//! [`crate::ServeConfig::reclaim_patience`] and counted in
//! [`crate::ShardStats::reclaim_waits`].  A reader that parks on a snapshot
//! indefinitely triggers the fallback: the writer abandons the retired copy
//! to its holders and rebuilds a fresh writable copy from the published
//! tree (one document plus one index per query, O(n·Q), counted in
//! [`crate::ShardStats::rebuild_fallbacks`]), so ingest always makes
//! progress.
//!
//! # Supervision and self-healing
//!
//! The writer thread never dies of a panic.  Each batch's `apply_batch` runs
//! under a `catch_unwind` guard; a panic discards the (possibly torn)
//! writable copy, rebuilds a fresh one from the published tree, and retries
//! the batch **once**.  A second panic escalates: a durable shard heals from
//! storage — the supervisor re-runs crash recovery (newest snapshot +
//! WAL-tail replay, the exact restart path) and atomically re-admits the
//! recovered state; since the batch hit the WAL *before* the apply, the heal
//! loses nothing.  A non-durable shard drops the poison batch, counts its
//! ops in [`crate::ShardStats::ops_dropped_unacked`], and reports the loss
//! through a [`crate::ServeError::Degraded`] ack on the covering barrier.
//! The off-path catch-up has its own guard: a panic there discards the
//! copy and rebuilds the writable copy from the published tree, with no op
//! dropped and no heal (the catch-up only replays batches that are already
//! published).  An outer `catch_unwind` net in [`ShardWriter::supervise`]
//! catches panics from anywhere else in the loop the same way.  Reads
//! keep serving the last published snapshot through every rung of this
//! ladder; only confirmed-unrecoverable storage quarantines the shard
//! (terminally).  The health ladder is exported as
//! [`crate::ShardHealth`].

use crate::chaos::ChaosSchedule;
use crate::durable::{HealSource, ShardDurability};
use crate::lock::{lock_unpoisoned, read_unpoisoned, wait_timeout_unpoisoned, write_unpoisoned};
use crate::registry::QueryId;
use crate::stats::{FlushRecord, ShardHealth, ShardMetrics};
use crate::{ServeConfig, ServeError};
use crossbeam::channel::{Receiver, Sender};
use std::ops::ControlFlow;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, RwLock};
use std::time::Instant;
use treenum_core::{Document, DocumentBatch, EnumerationStats, QueryIndex, QueryPlan};
use treenum_enumeration::EnumScratch;
use treenum_trees::edit::EditOp;
use treenum_trees::unranked::UnrankedTree;
use treenum_trees::valuation::Assignment;

/// One left-right copy of a shard: one [`Document`] and a [`QueryIndex`]
/// over it per registered query, in attach order.  Query 0 is always the
/// pinned primary ([`QueryId::PRIMARY`]).
#[derive(Clone)]
pub(crate) struct ShardCopy {
    doc: Document,
    queries: Vec<(QueryId, QueryIndex)>,
}

impl ShardCopy {
    /// One document over `tree` and one query index per plan.
    pub(crate) fn build(tree: UnrankedTree, plans: &[(QueryId, Arc<QueryPlan>)]) -> Self {
        let doc = Document::new(tree);
        let queries = plans
            .iter()
            .map(|(id, plan)| (*id, QueryIndex::build(&doc, Arc::clone(plan))))
            .collect();
        ShardCopy { doc, queries }
    }

    /// Applies `ops` to the document once, then repairs every query index
    /// from the document's batch report (which it returns).
    fn apply_batch(&mut self, ops: &[EditOp]) -> DocumentBatch {
        let batch = self.doc.apply_batch(ops);
        for (_, index) in &mut self.queries {
            index.repair(&self.doc, &batch);
        }
        batch
    }

    /// Aligns the copy with the query membership `plans`: drops the indexes
    /// of queries detached since the copy was last current, and builds —
    /// over the copy's own document — the indexes of queries attached since.
    /// A reclaimed copy can be several membership steps behind (two
    /// attaches in one control batch leave it two behind), but it owes no op
    /// replay for the new indexes: membership-only generations carry no
    /// ops, and lag replay runs before reconciliation.
    fn reconcile(&mut self, plans: &[(QueryId, Arc<QueryPlan>)]) {
        self.queries
            .retain(|(q, _)| plans.iter().any(|(p, _)| p == q));
        for (id, plan) in plans {
            if !self.queries.iter().any(|(q, _)| q == id) {
                let index = QueryIndex::build(&self.doc, Arc::clone(plan));
                self.queries.push((*id, index));
            }
        }
    }

    /// The primary query's index (never absent — the primary is pinned for
    /// the server's lifetime).
    fn primary(&self) -> &QueryIndex {
        &self.queries[0].1
    }

    fn query(&self, id: QueryId) -> Option<&QueryIndex> {
        self.queries
            .iter()
            .find(|(q, _)| *q == id)
            .map(|(_, index)| index)
    }

    fn tree(&self) -> &UnrankedTree {
        self.doc.tree()
    }
}

/// The published copy of a shard: one immutable document and query index
/// per registered query, all at one generation, all behind one `Arc`.
pub(crate) struct SnapInner {
    pub(crate) copy: ShardCopy,
    pub(crate) generation: u64,
    gate: Arc<Gate>,
}

impl SnapInner {
    /// `copy` published as `generation`, with a fresh reader gate.
    pub(crate) fn new(copy: ShardCopy, generation: u64, wake: &Arc<Wake>) -> Self {
        SnapInner {
            copy,
            generation,
            gate: Arc::new(Gate {
                readers: AtomicUsize::new(0),
                retired: AtomicBool::new(false),
                wake: Arc::clone(wake),
            }),
        }
    }
}

/// The reader gate of one published generation (see the module docs).
struct Gate {
    /// Live [`Snapshot`] handles of the generation.
    readers: AtomicUsize,
    /// Set by the writer, under the front write lock, when the generation
    /// leaves the front.
    retired: AtomicBool,
    wake: Arc<Wake>,
}

impl Gate {
    fn readers(&self) -> usize {
        self.readers.load(Ordering::SeqCst)
    }
}

/// How the last release of a retired generation wakes its shard's writer:
/// the condvar serves a flush blocked in reclaim, the nudge an idle writer.
pub(crate) struct Wake {
    lock: Mutex<()>,
    released: Condvar,
    nudge: Sender<Ingest>,
}

impl Wake {
    pub(crate) fn new(nudge: Sender<Ingest>) -> Self {
        Wake {
            lock: Mutex::new(()),
            released: Condvar::new(),
            nudge,
        }
    }

    fn notify(&self) {
        // Taking the lock orders this release after the check of a writer
        // about to wait, so the notify cannot fall between its check and
        // its wait.
        drop(lock_unpoisoned(&self.lock));
        self.released.notify_all();
        let _ = self.nudge.try_send(Ingest::Released);
    }

    /// Blocks until `gate` has no readers (`true`) or `deadline` passes
    /// (`false`).
    fn wait_released(&self, gate: &Gate, deadline: Instant) -> bool {
        let mut guard = lock_unpoisoned(&self.lock);
        loop {
            if gate.readers() == 0 {
                return true;
            }
            let now = Instant::now();
            if now >= deadline {
                return false;
            }
            guard = wait_timeout_unpoisoned(
                &self.released,
                guard,
                deadline.saturating_duration_since(now),
            );
        }
    }
}

/// One [`Snapshot`] handle's count in its generation's reader gate.
struct ReaderRef(Arc<Gate>);

impl ReaderRef {
    fn new(gate: &Arc<Gate>) -> Self {
        gate.readers.fetch_add(1, Ordering::SeqCst);
        ReaderRef(Arc::clone(gate))
    }
}

impl Clone for ReaderRef {
    fn clone(&self) -> Self {
        ReaderRef::new(&self.0)
    }
}

impl Drop for ReaderRef {
    fn drop(&mut self) {
        let gate = &self.0;
        if gate.readers.fetch_sub(1, Ordering::SeqCst) == 1 && gate.retired.load(Ordering::SeqCst) {
            gate.wake.notify();
        }
    }
}

/// A snapshot-consistent read handle to one shard.
///
/// Cloning is an `Arc` bump; the underlying enumeration structure is never
/// mutated, so every enumeration over the handle sees exactly the state after
/// [`Snapshot::generation`] publications — a half-applied batch is never
/// observable.  Holding a snapshot does not block the shard's writer (see the
/// module docs for the one bounded reclaim interaction).
#[derive(Clone)]
pub struct Snapshot {
    inner: Arc<SnapInner>,
    // Declared after `inner`, so it drops after it: a release that wakes
    // the writer has already given up this handle's reference to the copy.
    _reader: ReaderRef,
}

impl std::fmt::Debug for Snapshot {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Snapshot")
            .field("generation", &self.inner.generation)
            .field("tree_size", &self.inner.copy.tree().len())
            .field("queries", &self.inner.copy.queries.len())
            .finish()
    }
}

impl Snapshot {
    /// A handle on the front `inner`; call it with the front read lock held,
    /// so a generation is never counted once it has been retired.
    pub(crate) fn from_inner(inner: Arc<SnapInner>) -> Self {
        let reader = ReaderRef::new(&inner.gate);
        Snapshot {
            inner,
            _reader: reader,
        }
    }

    /// Number of generations published up to this snapshot (ingest
    /// flushes, membership changes and heals).  Generation `g` corresponds
    /// to the first `g` entries of the shard's flush log.
    pub fn generation(&self) -> u64 {
        self.inner.generation
    }

    /// The snapshot's tree (shared by every registered query).
    pub fn tree(&self) -> &UnrankedTree {
        self.inner.copy.tree()
    }

    /// Structural statistics of the **primary** query's enumeration
    /// structure.
    pub fn stats(&self) -> EnumerationStats {
        self.inner.copy.primary().stats(&self.inner.copy.doc)
    }

    /// Enumerates every satisfying assignment of the **primary** query (see
    /// [`QueryIndex::for_each`]).  Concurrent readers of the *same*
    /// snapshot contend on its one pooled scratch; readers that care about
    /// steady-state delay should bring their own via
    /// [`Snapshot::for_each_with`].  For any other registered query go
    /// through [`Snapshot::query`].
    pub fn for_each(&self, sink: &mut dyn FnMut(Assignment) -> ControlFlow<()>) {
        self.inner
            .copy
            .primary()
            .for_each(&self.inner.copy.doc, sink)
    }

    /// [`Snapshot::for_each`] with a caller-owned [`EnumScratch`], the
    /// allocation-free path for a reader thread that enumerates many
    /// snapshots: the scratch's pools carry over from snapshot to snapshot —
    /// and from query to query — so the per-answer loop stays
    /// allocation-free in steady state no matter how many reader threads
    /// share the shard.
    pub fn for_each_with(
        &self,
        scratch: &mut EnumScratch,
        sink: &mut dyn FnMut(Assignment) -> ControlFlow<()>,
    ) {
        let copy = &self.inner.copy;
        copy.primary().for_each_with(&copy.doc, scratch, sink)
    }

    /// Collects all satisfying assignments of the primary query.
    pub fn assignments(&self) -> Vec<Assignment> {
        self.inner.copy.primary().assignments(&self.inner.copy.doc)
    }

    /// Counts the primary query's satisfying assignments by enumerating
    /// them.
    pub fn count(&self) -> usize {
        self.inner.copy.primary().count(&self.inner.copy.doc)
    }

    /// The first `k` assignments of the primary query (the early-termination
    /// path).
    pub fn first_k(&self, k: usize) -> Vec<Assignment> {
        self.inner.copy.primary().first_k(&self.inner.copy.doc, k)
    }

    /// The queries this snapshot serves, in attach order (index 0 is always
    /// [`QueryId::PRIMARY`]).  Membership is part of the immutable snapshot:
    /// a query registered after this snapshot was published does not appear
    /// here, and one deregistered after stays readable through this handle.
    pub fn queries(&self) -> Vec<QueryId> {
        self.inner.copy.queries.iter().map(|(q, _)| *q).collect()
    }

    /// A read handle onto one registered query of this snapshot, or
    /// [`ServeError::UnknownQuery`] if `id` is not part of this snapshot's
    /// membership (not yet attached at this generation, or already
    /// detached).
    ///
    /// The returned reader borrows the snapshot, so everything it
    /// enumerates — including [`QueryReader::page_with`] cursors — is pinned
    /// to this snapshot's generation.
    pub fn query(&self, id: QueryId) -> Result<QueryReader<'_>, ServeError> {
        match self.inner.copy.query(id) {
            Some(index) => Ok(QueryReader {
                doc: &self.inner.copy.doc,
                index,
                id,
                generation: self.inner.generation,
            }),
            None => Err(ServeError::UnknownQuery),
        }
    }

    /// Full internal consistency check of the document and every
    /// registered query's index over it (test support; expensive).
    pub fn check_consistency(&self) {
        let doc = &self.inner.copy.doc;
        doc.check_consistency();
        for (_, index) in &self.inner.copy.queries {
            index.check_consistency(doc)
        }
    }
}

/// A borrowed read handle onto one registered query of a [`Snapshot`].
///
/// Obtained from [`Snapshot::query`]; lives only as long as the snapshot, so
/// every read — and every pagination cursor — is pinned to one generation.
#[derive(Clone, Copy)]
pub struct QueryReader<'a> {
    doc: &'a Document,
    index: &'a QueryIndex,
    id: QueryId,
    generation: u64,
}

impl QueryReader<'_> {
    /// The pinned generation every read through this handle observes.
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// The query's plan: the one `Arc` the process-wide plan cache hands to
    /// every engine and server admitting the same query.
    pub fn plan(&self) -> &Arc<QueryPlan> {
        self.index.plan()
    }

    /// Enumerates every satisfying assignment of this query (the pooled
    /// scratch path; see [`Snapshot::for_each`] for the contention caveat).
    pub fn for_each(&self, sink: &mut dyn FnMut(Assignment) -> ControlFlow<()>) {
        self.index.for_each(self.doc, sink)
    }

    /// [`QueryReader::for_each`] with a caller-owned [`EnumScratch`].  One
    /// scratch serves indexes of *different* queries equally well — its
    /// pools are structure-agnostic — so a reader thread cycling over all
    /// registered queries stays allocation-free in steady state.
    pub fn for_each_with(
        &self,
        scratch: &mut EnumScratch,
        sink: &mut dyn FnMut(Assignment) -> ControlFlow<()>,
    ) {
        self.index.for_each_with(self.doc, scratch, sink)
    }

    /// Collects all satisfying assignments of this query.
    pub fn assignments(&self) -> Vec<Assignment> {
        self.index.assignments(self.doc)
    }

    /// Counts this query's satisfying assignments by enumerating them.
    pub fn count(&self) -> usize {
        self.index.count(self.doc)
    }

    /// The first `k` assignments of this query (the early-termination path).
    pub fn first_k(&self, k: usize) -> Vec<Assignment> {
        self.index.first_k(self.doc, k)
    }

    /// One page of up to `k` assignments starting at `cursor` (`None` for
    /// the first page), using the index's pooled scratch.  See
    /// [`QueryReader::page_with`] for the cursor contract.
    pub fn page(&self, cursor: Option<PageCursor>, k: usize) -> Result<Page, ServeError> {
        let position = self.cursor_position(cursor)?;
        let (answers, more) = self.index.page(self.doc, position, k);
        Ok(self.page_from(position, answers, more))
    }

    /// [`QueryReader::page`] with a caller-owned [`EnumScratch`].
    ///
    /// Cursor contract: a [`PageCursor`] is valid only for the **query** it
    /// was minted by and against snapshots at the **same generation** —
    /// enumeration order is deterministic for a fixed structure, so
    /// re-reading the same pinned generation resumes exactly where the
    /// previous page stopped, no matter how many flushes the shard published
    /// in between.  A cursor presented at any other generation, or to
    /// another query's reader, fails with [`ServeError::StaleCursor`]
    /// (positions are not comparable across structures).
    ///
    /// Cost: the page that returns a cursor leaves the enumeration parked in
    /// the scratch on the next answer, so feeding that cursor back with the
    /// same scratch (the index's pooled one for [`QueryReader::page`])
    /// resumes the suspended walk in `O(k)` answers.  A miss costs
    /// `O(position + k)`: it restarts and skips `position` answers without
    /// building them.  Misses are a different scratch (including a lost
    /// `try_lock` on the pooled one), a replayed or out-of-order cursor, or
    /// any other enumeration of the scratch between the two pages (e.g. two
    /// interleaved scans).  Either way the page is the same.
    pub fn page_with(
        &self,
        scratch: &mut EnumScratch,
        cursor: Option<PageCursor>,
        k: usize,
    ) -> Result<Page, ServeError> {
        let position = self.cursor_position(cursor)?;
        let (answers, more) = self.index.page_with(self.doc, scratch, position, k);
        Ok(self.page_from(position, answers, more))
    }

    fn cursor_position(&self, cursor: Option<PageCursor>) -> Result<usize, ServeError> {
        match cursor {
            Some(c) if c.generation != self.generation || c.query != self.id => {
                Err(ServeError::StaleCursor)
            }
            Some(c) => Ok(c.position),
            None => Ok(0),
        }
    }

    fn page_from(&self, position: usize, answers: Vec<Assignment>, more: bool) -> Page {
        let next = more.then_some(PageCursor {
            query: self.id,
            generation: self.generation,
            position: position + answers.len(),
        });
        Page { answers, next }
    }
}

/// Resume point of a paginated read, pinned to one query and one snapshot
/// generation.
///
/// Produced by [`QueryReader::page`]/[`QueryReader::page_with`]; feed it back
/// to a reader of **the same query at the same generation** to fetch the
/// next page.  See [`QueryReader::page_with`] for the stability contract.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct PageCursor {
    query: QueryId,
    generation: u64,
    position: usize,
}

impl PageCursor {
    /// The query this cursor pages.
    pub fn query(&self) -> QueryId {
        self.query
    }

    /// The generation this cursor is valid against.
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// How many answers precede the next page.
    pub fn position(&self) -> usize {
        self.position
    }
}

/// One page of a paginated per-query read.
#[derive(Clone, Debug)]
pub struct Page {
    /// Up to `k` assignments, in the index's deterministic enumeration
    /// order.
    pub answers: Vec<Assignment>,
    /// Cursor for the next page, or `None` when this page ended the
    /// enumeration.
    pub next: Option<PageCursor>,
}

/// Messages on a shard's ingest queue.
pub(crate) enum Ingest {
    /// One edit op to coalesce into a batch.
    Op(EditOp),
    /// Barrier: apply everything enqueued before this message, then ack with
    /// the resulting generation — with [`ServeError::Quarantined`] if the
    /// shard's durable state proved unrecoverable, or with
    /// [`ServeError::Degraded`] if a fault dropped unacked ops since the
    /// previous barrier (the barrier is the durability boundary: an `Ok` ack
    /// means every op before it is applied, published, and — on a durable
    /// shard — synced per the [`treenum_wal::SyncPolicy`]).
    Flush(Sender<Result<u64, ServeError>>),
    /// Registry control: attach a new query's plan.  Ordered like a barrier
    /// (everything enqueued before it is applied first); the ack carries the
    /// membership-only generation from which the query is readable.
    Attach(QueryId, Arc<QueryPlan>, Sender<Result<u64, ServeError>>),
    /// Registry control: drop a query's writer-side index and publish the
    /// narrowed membership; the ack carries the generation from which the
    /// query is gone.
    Detach(QueryId, Sender<Result<u64, ServeError>>),
    /// Drain, apply, and exit the writer thread.
    Shutdown,
    /// The last reader of the retired copy let go: catch it up now if the
    /// writer is idle (see the module docs).
    Released,
}

/// The barrier acks and registry controls one writer-loop cycle gathered,
/// in arrival order.
#[derive(Default)]
struct Cycle {
    acks: Vec<Sender<Result<u64, ServeError>>>,
    controls: Vec<Ingest>,
}

/// What [`ShardWriter::take`] made of one dequeued message.
enum Taken {
    /// An edit op, now in the coalescing buffer.
    Op,
    /// A flush barrier or a registry control: stop coalescing.
    Barrier,
    /// A release wake.
    Wake,
    /// A shutdown request.
    Shutdown,
}

/// The writer-thread half of a shard.
pub(crate) struct ShardWriter {
    pub(crate) rx: Receiver<Ingest>,
    pub(crate) front: Arc<RwLock<Arc<SnapInner>>>,
    pub(crate) metrics: Arc<ShardMetrics>,
    pub(crate) cfg: ServeConfig,
    /// Authoritative query membership (plan per registered query, attach
    /// order, primary first).  Copies are reconciled against this list
    /// whenever they change hands, so attach/detach drift between the two
    /// sides resolves at the next reclaim.
    pub(crate) plans: Vec<(QueryId, Arc<QueryPlan>)>,
    /// The writable copy, when this side holds it.
    pub(crate) write: Option<ShardCopy>,
    /// The previously published copy, awaiting reclaim.
    pub(crate) retired: Option<Arc<SnapInner>>,
    /// Batches applied to the published lineage that the retired copy has
    /// not seen yet (replayed on reclaim; op order is semantic — freed arena
    /// slots may be reused by later ops).
    pub(crate) lag: Vec<EditOp>,
    /// Wall-clock nanoseconds of the off-path catch-up that prepared the
    /// held writable copy (0 when none did); the next flush record takes it.
    pub(crate) off_path_nanos: u64,
    /// The shard's release wake, shared by every generation's reader gate.
    pub(crate) wake: Arc<Wake>,
    pub(crate) generation: u64,
    pub(crate) buf: Vec<EditOp>,
    /// WAL + snapshot persistence, when the server was built durable.
    pub(crate) durable: Option<ShardDurability>,
    /// How to re-run recovery at runtime (durable shards only); `None`
    /// means a fault that survives the in-place retry drops the batch
    /// instead of healing.
    pub(crate) heal: Option<HealSource>,
    /// Thread-level fault injection (tests only; `None` in production).
    pub(crate) chaos: Option<Arc<ChaosSchedule>>,
    /// Durable op-sequence number already reflected in the published state
    /// when this writer started (0 fresh; `ops_recovered` after recovery).
    pub(crate) seq0: u64,
    /// Ops applied and published by this writer incarnation, including heal
    /// publishes — `seq0 + applied_ops` is the durable sequence number
    /// behind the currently published state.
    pub(crate) applied_ops: u64,
    /// Flush attempts so far (the chaos schedule's batch key; an in-place
    /// retry of a panicked batch keeps its number).
    pub(crate) batches: u64,
    /// Set when a fault dropped unacked ops since the last barrier; the next
    /// ack reports [`ServeError::Degraded`] and clears it.
    pub(crate) dropped_cycle: bool,
}

impl ShardWriter {
    /// The writer thread's entry point: [`ShardWriter::run`] under an outer
    /// panic net.  A panic that escapes the per-batch guard (a lag replay,
    /// a torn invariant anywhere in the loop) is caught here; the supervisor
    /// restores a coherent writable copy, drops the in-flight buffer as
    /// unacked, heals from storage when it can, and re-enters the loop.
    /// Reads never stop: the published snapshot is untouched throughout.
    pub(crate) fn supervise(mut self) {
        loop {
            let normal_exit = catch_unwind(AssertUnwindSafe(|| self.run())).is_ok();
            if normal_exit {
                break;
            }
            self.metrics.panics_caught.fetch_add(1, Ordering::Relaxed);
            self.metrics.set_health(ShardHealth::Degraded);
            // The unwound iteration may have been holding the writable copy
            // (or consumed the retired one) when it died; rebuild from the
            // published state so the protocol invariant "the writer holds
            // the writable or the retired copy" is restored.
            if self.write.is_none() && self.retired.is_none() {
                self.rebuild_writable_from_front();
            }
            if self.metrics.health() == ShardHealth::Quarantined {
                // Nothing to heal (the `Degraded` above did not stick); keep
                // serving acks/reads read-only.
                self.drop_buf_unacked();
            } else if self.heal.is_some() {
                // The buffer's logged prefix survives in the WAL; recovery
                // re-applies it and only truly unlogged ops count as lost.
                self.heal_from_storage("writer loop panicked");
            } else {
                self.drop_buf_unacked();
                self.metrics.set_health(ShardHealth::Healthy);
            }
        }
    }

    fn run(&mut self) {
        loop {
            let first = match self.rx.recv() {
                Ok(m) => m,
                // Server dropped without an explicit shutdown: exit.
                Err(_) => break,
            };
            let mut cycle = Cycle::default();
            let mut shutdown = match self.take(first, &mut cycle) {
                Taken::Op => self.coalesce(&mut cycle),
                Taken::Barrier => false,
                Taken::Wake => {
                    self.catch_up();
                    continue;
                }
                Taken::Shutdown => break,
            };
            if !cycle.acks.is_empty() || !cycle.controls.is_empty() {
                // A barrier (or a registry control, which is ordered like
                // one) demands everything enqueued before it; drain the
                // queue completely (this may exceed `max_batch` — barriers
                // are explicit requests for completeness, not latency).
                shutdown |= self.drain_pending(&mut cycle);
            }
            self.complete(cycle);
            if shutdown {
                break;
            }
            // The acks are out (each one taken by its client: the ack
            // channels are rendezvous channels, see `TreeServer::flush`):
            // prepare the next flush's copy while the clients read.
            self.catch_up();
        }
        // Apply any ops that raced in with the shutdown.
        let mut cycle = Cycle::default();
        self.drain_pending(&mut cycle);
        self.complete(cycle);
    }

    /// Files one dequeued message: an op joins the coalescing buffer, a
    /// barrier's ack or a registry control joins `cycle`.
    fn take(&mut self, msg: Ingest, cycle: &mut Cycle) -> Taken {
        match msg {
            Ingest::Op(op) => {
                self.note_dequeued(1);
                self.buf.push(op);
                Taken::Op
            }
            Ingest::Flush(ack) => {
                cycle.acks.push(ack);
                Taken::Barrier
            }
            Ingest::Shutdown => Taken::Shutdown,
            // Stale or early: whatever runs next reclaims the copy anyway.
            Ingest::Released => Taken::Wake,
            ctl => {
                cycle.controls.push(ctl);
                Taken::Barrier
            }
        }
    }

    /// Ends one loop cycle: applies the buffer as one batch, then the
    /// registry controls in arrival order (each acked with the generation
    /// its membership change became visible at), then acks every barrier.
    fn complete(&mut self, cycle: Cycle) {
        self.flush_buf();
        for ctl in cycle.controls {
            match ctl {
                Ingest::Attach(id, plan, ack) => {
                    let _ = ack.send(self.handle_attach(id, plan));
                }
                Ingest::Detach(id, ack) => {
                    let _ = ack.send(self.handle_detach(id));
                }
                // Only controls are queued here (see `take`).
                _ => {}
            }
        }
        for ack in cycle.acks {
            let _ = ack.send(self.ack_value());
        }
    }

    fn ack_value(&mut self) -> Result<u64, ServeError> {
        if self.metrics.health() == ShardHealth::Quarantined {
            Err(ServeError::Quarantined)
        } else if std::mem::take(&mut self.dropped_cycle) {
            // A fault dropped unacked ops since the last barrier: report the
            // degradation on this ack (once) instead of pretending the
            // barrier's prefix fully applied.
            Err(ServeError::Degraded)
        } else {
            Ok(self.generation)
        }
    }

    fn note_dequeued(&self, n: u64) {
        // `fetch_sub` saturating at 0 is not a primitive; producers increment
        // before send, so depth briefly leads but never underflows.
        let m = &self.metrics.queue_depth;
        let mut cur = m.load(Ordering::Relaxed);
        loop {
            let next = cur.saturating_sub(n);
            match m.compare_exchange_weak(cur, next, Ordering::Relaxed, Ordering::Relaxed) {
                Ok(_) => break,
                Err(now) => cur = now,
            }
        }
    }

    /// Gathers ops into `buf` until it holds [`ServeConfig::max_batch`] ops
    /// or the bounded-staleness deadline passes.  Returns `true` on
    /// shutdown; a queued barrier or registry control stops coalescing early
    /// (it lands in `cycle`).
    fn coalesce(&mut self, cycle: &mut Cycle) -> bool {
        let deadline = Instant::now() + self.cfg.max_latency;
        while self.buf.len() < self.cfg.max_batch {
            // Queued messages are taken even past the deadline; the deadline
            // only stops the writer from *waiting* on an empty queue.
            let msg = match self.rx.try_recv() {
                Some(msg) => msg,
                None => {
                    let now = Instant::now();
                    if now >= deadline {
                        break;
                    }
                    // `saturating_duration_since`, not `-`: `Instant`
                    // subtraction panics on underflow, and a deadline that
                    // passes between the check above and here (clock
                    // adjustment, pre-emption) must mean "poll once", not
                    // "crash the writer".  `treenum-analyze` rule
                    // `instant-sub` bans the bare operator crate-wide.
                    match self
                        .rx
                        .recv_timeout(deadline.saturating_duration_since(now))
                    {
                        Ok(msg) => msg,
                        // Timed out, or the server is gone: cut the batch.
                        Err(_) => break,
                    }
                }
            };
            match self.take(msg, cycle) {
                Taken::Op | Taken::Wake => {}
                Taken::Barrier => return false,
                Taken::Shutdown => return true,
            }
        }
        false
    }

    /// Non-blocking drain of everything currently queued.  Returns `true` on
    /// shutdown.
    fn drain_pending(&mut self, cycle: &mut Cycle) -> bool {
        while let Some(msg) = self.rx.try_recv() {
            if let Taken::Shutdown = self.take(msg, cycle) {
                return true;
            }
        }
        false
    }

    /// Applies the coalescing buffer — filled to `max_batch`, a barrier or
    /// the `max_latency` deadline by [`ShardWriter::coalesce`] — as one
    /// batch and publishes the result as a new snapshot generation.
    ///
    /// On a durable shard the batch hits the write-ahead log (with the
    /// configured sync policy) *before* it is applied: a crash after this
    /// point replays the batch, a crash before it drops an unacked batch.
    ///
    /// Faults walk the supervision ladder instead of killing the shard:
    ///
    /// 1. a panic inside `apply_batch` discards the torn copy and retries
    ///    the batch once on a fresh rebuild from the published tree;
    /// 2. a second panic — or a WAL write error — heals from storage on a
    ///    durable shard ([`ShardWriter::heal_from_storage`]), or drops the
    ///    poison batch (counted, `Degraded`-acked) on a non-durable one;
    /// 3. only a failed heal quarantines, terminally.
    fn flush_buf(&mut self) {
        if self.metrics.health() == ShardHealth::Quarantined {
            self.drop_buf_unacked();
            return;
        }
        if self.buf.is_empty() {
            return;
        }
        self.batches += 1;
        let batch = self.batches;
        if let Some(durable) = &mut self.durable {
            match durable.log_batch(&self.buf) {
                Ok(bytes) => {
                    self.metrics
                        .wal_records
                        .fetch_add(self.buf.len() as u64, Ordering::Relaxed);
                    self.metrics.wal_bytes.fetch_add(bytes, Ordering::Relaxed);
                }
                Err(_) => {
                    // The batch is not (fully) durable and must not be acked.
                    // Recovery from the directory tells us which prefix did
                    // reach the log; a dead disk fails the heal and lands in
                    // terminal quarantine.
                    self.metrics.wal_errors.fetch_add(1, Ordering::Relaxed);
                    self.metrics.set_health(ShardHealth::Degraded);
                    self.heal_from_storage("WAL append failed");
                    return;
                }
            }
        }
        if self.try_apply_publish(batch) {
            return;
        }
        // First apply panicked: the writable copy is torn and gone.  Rebuild
        // from the published tree (the newest state — it subsumes any lag
        // the lost copy owed) and retry the same batch once.
        self.rebuild_writable_from_front();
        if self.try_apply_publish(batch) {
            return;
        }
        self.rebuild_writable_from_front();
        if self.heal.is_some() {
            // The batch is already in the WAL; recovery replays it, so a
            // twice-panicking batch still applies (via the recovery path's
            // applicability validation, which quarantines a genuinely
            // inapplicable op instead of panicking a third time).
            self.heal_from_storage("batch apply panicked twice");
        } else {
            // Non-durable: the batch is poison with nowhere to replay from.
            // Drop it, report it, and keep serving.
            self.drop_buf_unacked();
            self.metrics.set_health(ShardHealth::Healthy);
        }
    }

    /// One guarded attempt at the apply+publish half of a flush.  Returns
    /// `false` iff `apply_batch` (or an injected chaos fault) panicked — the
    /// writable copy is consumed either way.
    fn try_apply_publish(&mut self, batch: u64) -> bool {
        // Time the on-path flush cycle — obtaining the writable copy, the
        // batch apply to its document and every registered query's index,
        // and the publish swap.  The catch-up part of it (a reclaim, lag
        // replay and reconcile the off-path catch-up did not already do) is
        // recorded on its own, and so is the off-path catch-up that prepared
        // the copy, so E9's ingest arms can count both applies of a batch.
        let off_path_nanos = std::mem::take(&mut self.off_path_nanos);
        let start = Instant::now();
        let copy = self.take_writable();
        let catch_up_nanos = start.elapsed().as_nanos() as u64;
        let chaos = self.chaos.clone();
        let buf = &self.buf;
        let applied = catch_unwind(AssertUnwindSafe(move || {
            if let Some(c) = &chaos {
                c.on_apply(batch);
            }
            let mut copy = copy;
            let report = copy.apply_batch(buf);
            (copy, report)
        }));
        let Ok((copy, report)) = applied else {
            self.metrics.panics_caught.fetch_add(1, Ordering::Relaxed);
            self.metrics.set_health(ShardHealth::Degraded);
            return false;
        };
        // The sharing counters are the document's: every query index
        // repairs the same dirty list, so they do not depend on how many
        // queries are registered.
        let rec = FlushRecord {
            size: self.buf.len(),
            // Filled in by `publish` (it owns the end of the timed region).
            nanos: 0,
            catch_up_nanos,
            off_path_nanos,
            spine_deduped: report.deduped(),
            spine_dirty: report.dirty_len() as u64,
        };
        self.publish(copy, rec, batch, start);
        self.lag.extend_from_slice(&self.buf);
        self.applied_ops += self.buf.len() as u64;
        self.buf.clear();
        true
    }

    /// Publishes `copy` as the next generation — **one** pointer swap and
    /// **one** `Arc` no matter how many queries the copy multiplexes —
    /// retiring the old front and recording `rec` (with the timed region
    /// closed here) as the generation's audit-trail entry.  Also the snapshot
    /// persistence point: the tree just published is exactly the state at
    /// the WAL offset, so the op_seq ↔ tree pairing needs no extra
    /// synchronisation (snapshot failure is non-fatal — the WAL still
    /// covers everything since the last good snapshot).
    fn publish(&mut self, copy: ShardCopy, mut rec: FlushRecord, batch: u64, start: Instant) {
        self.generation += 1;
        let snap = Arc::new(SnapInner::new(copy, self.generation, &self.wake));
        let published = Arc::clone(&snap);
        {
            let mut front = write_unpoisoned(&self.front);
            if let Some(c) = &self.chaos {
                // The stalled-writer fault: hold the publication swap (and
                // with it the front lock) — blocking reads park here, which
                // is exactly what `read_with_deadline` bounds.
                c.on_publish(batch);
            }
            let old = std::mem::replace(&mut *front, snap);
            // Under the front lock: no reader can count itself into `old`
            // from here on, and its last release now wakes the writer.
            old.gate.retired.store(true, Ordering::SeqCst);
            self.retired = Some(old);
        }
        rec.nanos = start.elapsed().as_nanos() as u64;
        self.metrics
            .generation
            .store(self.generation, Ordering::Release);
        self.metrics.record_flush(rec);
        // A successful apply+publish always lands the shard back in
        // `Healthy` — including the retry rung of the ladder.
        self.metrics.set_health(ShardHealth::Healthy);
        if let Some(durable) = &mut self.durable {
            if durable.snapshot_due(self.generation) {
                match durable.persist_snapshot(self.generation, published.copy.tree()) {
                    Ok(()) => {
                        self.metrics
                            .snapshots_persisted
                            .fetch_add(1, Ordering::Relaxed);
                    }
                    Err(_) => {
                        self.metrics.snapshot_errors.fetch_add(1, Ordering::Relaxed);
                    }
                }
            }
        }
    }

    /// Attaches `plan` as query `id`: flush already happened (controls are
    /// processed after `flush_buf`), so the writable copy is current; the
    /// new query's circuit and index are built over the copy's document and
    /// the widened membership is published as a size-0 generation.
    /// Idempotent on a duplicate id.
    fn handle_attach(&mut self, id: QueryId, plan: Arc<QueryPlan>) -> Result<u64, ServeError> {
        if self.metrics.health() == ShardHealth::Quarantined {
            return Err(ServeError::Quarantined);
        }
        if self.plans.iter().any(|(q, _)| *q == id) {
            return Ok(self.generation);
        }
        let start = Instant::now();
        self.plans.push((id, plan));
        // `take_writable` reconciles against `plans`, building the new
        // query's index.
        self.publish_membership(start);
        self.metrics
            .queries_attached
            .fetch_add(1, Ordering::Relaxed);
        self.metrics
            .queries_served
            .store(self.plans.len() as u64, Ordering::Relaxed);
        Ok(self.generation)
    }

    /// Detaches query `id`: the writer-side index drops here (that is the
    /// deterministic part of deregistration), the narrowed membership is
    /// published as a size-0 generation, and the last reader-visible copy is
    /// released when the final snapshot pinning it drops and the retired
    /// copy is reclaimed.  The pinned primary and unknown ids are rejected
    /// with [`ServeError::UnknownQuery`].
    fn handle_detach(&mut self, id: QueryId) -> Result<u64, ServeError> {
        if self.metrics.health() == ShardHealth::Quarantined {
            return Err(ServeError::Quarantined);
        }
        if id == QueryId::PRIMARY || !self.plans.iter().any(|(q, _)| *q == id) {
            return Err(ServeError::UnknownQuery);
        }
        let start = Instant::now();
        self.plans.retain(|(q, _)| *q != id);
        // Reconciliation inside `take_writable` drops the detached index.
        self.publish_membership(start);
        self.metrics
            .queries_detached
            .fetch_add(1, Ordering::Relaxed);
        self.metrics
            .queries_served
            .store(self.plans.len() as u64, Ordering::Relaxed);
        Ok(self.generation)
    }

    /// Takes the writable copy, which `take_writable` reconciles against the
    /// new membership, and publishes it as a membership-only generation:
    /// zero ops, so the size-0 flush record keeps the audit trail (`op
    /// prefix = sum of the first g sizes`) exact, and `lag` is untouched —
    /// the freshly retired front is behind by membership only, which
    /// reconciliation (not op replay) repairs at its catch-up.
    fn publish_membership(&mut self, start: Instant) {
        let off_path_nanos = std::mem::take(&mut self.off_path_nanos);
        let copy = self.take_writable();
        let rec = FlushRecord {
            size: 0,
            nanos: 0,
            catch_up_nanos: start.elapsed().as_nanos() as u64,
            off_path_nanos,
            spine_deduped: 0,
            spine_dirty: 0,
        };
        self.publish(copy, rec, self.batches, start);
    }

    /// A fresh writable copy built from the published tree, for when the
    /// previous one is lost (torn by a panic, or abandoned to readers).
    /// The published tree is the newest coherent state, so it subsumes any
    /// catch-up lag the lost copy owed.
    fn rebuild_from_front(&mut self) -> ShardCopy {
        self.metrics
            .rebuild_fallbacks
            .fetch_add(1, Ordering::Relaxed);
        self.lag.clear();
        self.off_path_nanos = 0;
        let tree = read_unpoisoned(&self.front).copy.tree().clone();
        ShardCopy::build(tree, &self.plans)
    }

    /// Replaces whatever writable/retired state the writer holds with a
    /// fresh rebuild from the published tree.  Used after a fault tore the
    /// writable copy.
    fn rebuild_writable_from_front(&mut self) {
        self.retired = None;
        self.write = Some(self.rebuild_from_front());
    }

    /// Counts and drops the coalescing buffer as unacked loss, arming the
    /// `Degraded` ack for the covering barrier.
    fn drop_buf_unacked(&mut self) {
        if self.buf.is_empty() {
            return;
        }
        self.metrics
            .ops_dropped_unacked
            .fetch_add(self.buf.len() as u64, Ordering::Relaxed);
        self.dropped_cycle = true;
        self.buf.clear();
    }

    /// Rebuilds the shard from its durable directory at runtime — the same
    /// newest-snapshot + WAL-tail-replay path a process restart takes — and
    /// atomically re-admits the recovered state.  Reads serve the last
    /// published snapshot throughout (`Recovering`); the published front is
    /// swapped exactly once, to the recovered state, with a flush-log record
    /// covering the newly visible ops so the generation ↔ op-prefix audit
    /// trail stays intact.  A failed heal (dead storage, confirmed corrupt
    /// log) is the one road into terminal quarantine.
    fn heal_from_storage(&mut self, why: &str) {
        let Some(src) = self.heal.clone() else {
            self.quarantine_now(why);
            return;
        };
        self.metrics.set_health(ShardHealth::Recovering);
        let start = Instant::now();
        // Release the old handle's file descriptors/segment state before
        // recovery reopens the directory.
        self.durable = None;
        let rec = match src.recover() {
            Ok(rec) => rec,
            Err(e) => {
                self.quarantine_now(&format!("{why}; heal failed: {e}"));
                return;
            }
        };
        if let Some(reason) = &rec.report.quarantined {
            self.quarantine_now(&format!("{why}; heal found unrecoverable state: {reason}"));
            return;
        }
        // Recovery already replayed the WAL tail onto its tree: one build
        // of one document serves every registered query.
        let healed = ShardCopy::build(rec.tree, &self.plans);
        let durable_seq = rec.report.ops_recovered;
        let visible_seq = self.seq0 + self.applied_ops;
        // Ops of the in-flight buffer that reached the WAL before the fault
        // are part of the recovered state; only the unlogged suffix is lost.
        let recovered_from_buf = durable_seq.saturating_sub(visible_seq) as usize;
        let lost = self.buf.len().saturating_sub(recovered_from_buf);
        if lost > 0 {
            self.metrics
                .ops_dropped_unacked
                .fetch_add(lost as u64, Ordering::Relaxed);
            self.dropped_cycle = true;
        }
        self.buf.clear();
        self.retired = None;
        self.lag.clear();
        self.off_path_nanos = 0;
        let new_visible = durable_seq.saturating_sub(visible_seq);
        if new_visible > 0 {
            // The durable state is ahead of the published one: publish it as
            // the next generation, with a flush record sized to the newly
            // visible ops (audit trail: generation g ↔ first g records).
            self.generation += 1;
            self.write = Some(healed.clone());
            let snap = Arc::new(SnapInner::new(healed, self.generation, &self.wake));
            {
                let mut front = write_unpoisoned(&self.front);
                // Abandon the old front to its holders entirely (drop both
                // the slot's and any retired handle's reference).
                let _old = std::mem::replace(&mut *front, snap);
            }
            self.metrics
                .generation
                .store(self.generation, Ordering::Release);
            self.metrics.record_flush(FlushRecord {
                size: new_visible as usize,
                nanos: start.elapsed().as_nanos() as u64,
                catch_up_nanos: 0,
                off_path_nanos: 0,
                spine_deduped: 0,
                spine_dirty: 0,
            });
            self.applied_ops += new_visible;
        } else {
            // Published state already equals the durable state; the healed
            // copy simply becomes the fresh writable copy.
            self.write = Some(healed);
        }
        self.durable = rec.durability;
        if let Some(d) = &mut self.durable {
            // Recovery anchors its handle at generation 0; this writer's
            // generation counter keeps running, so re-anchor the snapshot
            // cadence (snapshot files are op_seq-keyed — cadence only).
            d.rebase_generation(self.generation);
        }
        // Recovery persisted a fresh snapshot of the recovered state.
        self.metrics
            .snapshots_persisted
            .fetch_add(1, Ordering::Relaxed);
        self.metrics.heals.fetch_add(1, Ordering::Relaxed);
        self.metrics.set_health(ShardHealth::Healthy);
    }

    /// Terminal quarantine: count the in-flight buffer as unacked loss, mark
    /// the metrics (before any ack can be sent), and stop accepting writes.
    fn quarantine_now(&mut self, _reason: &str) {
        self.metrics.set_health(ShardHealth::Quarantined);
        self.drop_buf_unacked();
    }

    /// Obtains the writable copy: the held one (caught up off the path), the
    /// reclaimed-and-caught-up retired one, or (after bounded patience) a
    /// fresh rebuild from the published tree.  Whatever the source, the
    /// returned copy is reconciled against the current query membership.
    fn take_writable(&mut self) -> ShardCopy {
        let mut copy = match self.write.take() {
            Some(copy) => copy,
            None => self.reclaim_retired(),
        };
        copy.reconcile(&self.plans);
        copy
    }

    /// Reclaims the retired copy on the flush's path and replays the lag it
    /// missed.  While readers hold it, blocks on the release wake; after
    /// bounded patience abandons it to its readers and rebuilds from the
    /// published tree instead.
    fn reclaim_retired(&mut self) -> ShardCopy {
        let mut retired = self
            .retired
            .take()
            .expect("a shard always holds either the writable or the retired copy");
        let patience = Instant::now() + self.cfg.reclaim_patience;
        loop {
            match Arc::try_unwrap(retired) {
                Ok(inner) => {
                    let mut copy = inner.copy;
                    if !self.lag.is_empty() {
                        copy.apply_batch(&self.lag);
                        self.lag.clear();
                    }
                    return copy;
                }
                Err(arc) => {
                    self.metrics.reclaim_waits.fetch_add(1, Ordering::Relaxed);
                    if Instant::now() >= patience || !self.wake.wait_released(&arc.gate, patience) {
                        drop(arc);
                        return self.rebuild_from_front();
                    }
                    retired = arc;
                }
            }
        }
    }

    /// The off-path catch-up, run once a cycle's acks are out and on a
    /// release wake: if the writer holds only the retired copy and no reader
    /// does, reclaims it, replays its lag and reconciles it, and keeps it as
    /// the writable copy.  A held copy is left to its last release's wake.
    ///
    /// Guarded like the first rung of the flush ladder: a panic discards the
    /// copy and rebuilds the writable copy from the published tree, which
    /// already holds every batch the lag carried — no op is dropped and the
    /// shard does not heal.
    fn catch_up(&mut self) {
        let Some(retired) = self.retired.take_if(|r| r.gate.readers() == 0) else {
            return;
        };
        let inner = match Arc::try_unwrap(retired) {
            Ok(inner) => inner,
            Err(arc) => {
                self.retired = Some(arc);
                return;
            }
        };
        let start = Instant::now();
        let chaos = self.chaos.clone();
        let batch = self.batches;
        let lag = &self.lag;
        let plans = &self.plans;
        let caught = catch_unwind(AssertUnwindSafe(move || {
            if let Some(c) = &chaos {
                c.on_catch_up(batch);
            }
            let mut copy = inner.copy;
            if !lag.is_empty() {
                copy.apply_batch(lag);
            }
            copy.reconcile(plans);
            copy
        }));
        self.lag.clear();
        match caught {
            Ok(copy) => {
                self.write = Some(copy);
                self.off_path_nanos = start.elapsed().as_nanos() as u64;
                self.metrics
                    .off_path_catch_ups
                    .fetch_add(1, Ordering::Relaxed);
            }
            Err(_) => {
                self.metrics.panics_caught.fetch_add(1, Ordering::Relaxed);
                self.metrics.set_health(ShardHealth::Degraded);
                self.rebuild_writable_from_front();
                self.metrics.set_health(ShardHealth::Healthy);
            }
        }
    }
}
