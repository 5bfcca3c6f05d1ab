//! The incremental tree enumeration engine (Theorem 8.1).
//!
//! The engine splits along the paper's own seam.  The balanced
//! forest-algebra term depends only on the tree (Section 7), so a
//! [`Document`] — tree, term and the tree-to-term map `φ` — is shared by
//! every query over that tree.  The circuit and the enumeration index
//! depend on the automaton (Sections 3 and 8), so each query owns a
//! [`QueryIndex`] derived from the document.  An edit batch updates the
//! document once ([`Document::apply_batch`]); its [`DocumentBatch`] report
//! then repairs each query's index ([`QueryIndex::repair`]).
//! [`TreeEnumerator`] is one document plus one query index.

use crate::plan::QueryPlan;
use std::ops::ControlFlow;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, TryLockError};
use treenum_automata::StepwiseTva;
use treenum_balance::build::{build_balanced_term, check_phi, Phi};
use treenum_balance::term::{Term, TermNodeId};
use treenum_balance::update::{apply_edits, Relink};
use treenum_circuits::{internal_box_content, BoxContent, BoxId, Circuit, ContentStaging};
use treenum_enumeration::boxenum::BoxEnumMode;
use treenum_enumeration::index::IndexStats;
use treenum_enumeration::{EnumIndex, EnumScratch, EnumSource, EnumStats};
use treenum_trees::edit::EditOp;
use treenum_trees::unranked::{NodeId, UnrankedTree};
use treenum_trees::valuation::{Assignment, Singleton, VarSet};
use treenum_trees::{ChunkedVec, Topology};

/// Structural statistics of the enumeration structure (reported by benchmarks and
/// examples to make the complexity parameters of the paper observable).
#[derive(Clone, Copy, Debug, Default)]
pub struct EnumerationStats {
    /// Number of nodes of the underlying unranked tree.
    pub tree_size: usize,
    /// Height of the balanced forest-algebra term (`O(log n)` by Section 7).
    pub term_height: usize,
    /// Number of states of the translated binary TVA (the paper's `|Q'| ≤ |Q|² + |Q|⁴`
    /// after trimming).
    pub automaton_states: usize,
    /// Width of the assignment circuit (bounded by the automaton states, Lemma 3.7).
    pub circuit_width: usize,
    /// Number of circuit boxes (one per term node).
    pub circuit_boxes: usize,
}

/// Heap footprint of one [`QueryIndex`], counted from its own arenas, so
/// the figures are exact and the same on every host.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
#[non_exhaustive]
pub struct Footprint {
    /// Live circuit boxes.
    pub boxes: usize,
    /// The circuit's box slots plus its content slab, in bytes.
    pub circuit_bytes: usize,
    /// The enumeration index's record-address table plus its slab, in bytes.
    pub index_bytes: usize,
    /// Words held by the two slabs (circuit contents and index records).
    pub slab_words: usize,
}

/// The query-independent part of the engine: the unranked tree, its
/// balanced forest-algebra term and the map `φ` from tree nodes to term
/// leaves.  Any number of [`QueryIndex`]es can be built from, and repaired
/// against, one document.
#[derive(Clone)]
pub struct Document {
    tree: UnrankedTree,
    term: Term,
    phi: Phi,
    /// Epoch-marked dirty set of `apply_batch` (a slot is "set" iff it
    /// holds the current epoch): O(spine) per batch instead of O(n)
    /// re-zeroing.
    epoch: u64,
    term_mark: ChunkedVec<u64>,
}

/// What one [`Document::apply_batch`] changed in the term: the input of
/// [`QueryIndex::repair`] for every query over the document.
#[derive(Clone, Debug, Default)]
pub struct DocumentBatch {
    /// Term nodes the batch removed, in application order.  A freed arena
    /// slot can be reused later in the same batch, so a slot listed here
    /// may also be in `dirty`; its old box must be freed before `dirty` is
    /// repaired.
    freed: Vec<TermNodeId>,
    /// Live term nodes whose subterm changed, each once, children before
    /// parents.
    dirty: Vec<TermNodeId>,
    /// Live term nodes whose children at the end of the batch are not the
    /// ones they had before it (see [`UpdateReport::relinked`]): every
    /// query recomputes their boxes, even when neither child's `γ` changed.
    ///
    /// [`UpdateReport::relinked`]: treenum_balance::update::UpdateReport::relinked
    relinked: Vec<TermNodeId>,
    deduped: u64,
    inserted: Vec<NodeId>,
}

impl DocumentBatch {
    /// Dirty-spine entries skipped because an earlier edit of the batch had
    /// already queued them (the batch's sharing).
    pub fn deduped(&self) -> u64 {
        self.deduped
    }

    /// Number of distinct term nodes every query's repair visits.
    pub fn dirty_len(&self) -> usize {
        self.dirty.len()
    }
}

/// Source of [`QueryIndex::stamp`] values: never reused in a process.
static NEXT_STAMP: AtomicU64 = AtomicU64::new(1);

fn fresh_stamp() -> u64 {
    NEXT_STAMP.fetch_add(1, Ordering::Relaxed)
}

/// The assignment an output of the machine denotes.
fn assignment_of(parts: &[(VarSet, u32)]) -> Assignment {
    Assignment::from_singletons(
        parts
            .iter()
            .flat_map(|&(vars, token)| vars.iter().map(move |v| Singleton::new(v, NodeId(token)))),
    )
}

/// Compile-time proof that the engine can be shared across threads (the
/// serving layer hands `Arc`s of it to reader threads while a writer thread
/// owns the mutable copy).
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<TreeEnumerator>();
    assert_send_sync::<Document>();
    assert_send_sync::<QueryIndex>();
    assert_send_sync::<QueryPlan>();
};

/// Epoch bitmap helper: `marks[i] == epoch` means "set this batch".
#[inline]
fn mark(marks: &mut ChunkedVec<u64>, epoch: u64, i: usize) {
    *marks.at_mut(i, 0) = epoch;
}

#[inline]
fn marked(marks: &ChunkedVec<u64>, epoch: u64, i: usize) -> bool {
    marks.get(i).copied() == Some(epoch)
}

/// Flags of [`QueryIndex`]'s repair marks: one `u64` per box holds the
/// batch epoch above [`FLAG_BITS`] low bits, one per flag.  A flag is set
/// this batch iff the epoch matches and its bit is set.
const FLAG_BITS: u32 = 3;
/// The box's content or child links changed this batch.
const CONTENT: u64 = 1;
/// The box's index entry changed this batch.
const ENTRY: u64 = 2;
/// The box's `γ` changed this batch (a new box counts as changed).
const GAMMA: u64 = 4;

#[inline]
fn flag(marks: &mut ChunkedVec<u64>, epoch: u64, i: usize, f: u64) {
    let m = marks.at_mut(i, 0);
    *m = if *m >> FLAG_BITS == epoch {
        *m | f
    } else {
        (epoch << FLAG_BITS) | f
    };
}

#[inline]
fn flagged(marks: &ChunkedVec<u64>, epoch: u64, i: usize, f: u64) -> bool {
    marks
        .get(i)
        .is_some_and(|&m| m >> FLAG_BITS == epoch && m & f != 0)
}

impl Document {
    /// Encodes `tree` as a balanced term (`O(n log n)` time for `n` nodes,
    /// Section 7).
    pub fn new(tree: UnrankedTree) -> Self {
        let (term, phi) = build_balanced_term(&tree);
        Document {
            tree,
            term,
            phi,
            epoch: 0,
            term_mark: ChunkedVec::new(),
        }
    }

    /// A read-only view of the current tree.
    pub fn tree(&self) -> &UnrankedTree {
        &self.tree
    }

    /// Applies a batch of `k` edit operations (Definition 7.1) to the tree
    /// and splices and rebalances the term, then folds the per-edit dirty
    /// spines into **one** deduplicated, bottom-up list (Lemma 7.3).
    ///
    /// The per-edit reports are replayed in order into an epoch-marked
    /// dirty set, because a term arena slot freed by one edit can be reused
    /// (and re-dirtied) by a later one.  Edits that land in one subtree
    /// share most of their `O(log n)` spine, so the union is usually much
    /// smaller than `k · log n`; [`DocumentBatch::deduped`] counts the
    /// sharing.
    // hot-path: the update; per-edit work must stay proportional to the
    // deduplicated spine union, with only per-batch O(k) buffers below.
    pub fn apply_batch(&mut self, ops: &[EditOp]) -> DocumentBatch {
        if ops.is_empty() {
            return DocumentBatch::default();
        }
        let batch = apply_edits(&mut self.tree, &mut self.term, &mut self.phi, ops);
        self.epoch += 1;
        let epoch = self.epoch;
        // analyze: allow(alloc): one per-batch buffer, amortized over k edits
        let mut dirty: Vec<TermNodeId> = Vec::with_capacity(batch.dirty_len());
        // analyze: allow(alloc): one per-batch buffer, amortized over k edits
        let mut freed: Vec<TermNodeId> = Vec::new();
        // analyze: allow(alloc): one per-batch buffer, amortized over k edits
        let mut relinked: Vec<Relink> = Vec::new();
        let mut deduped = 0u64;
        for report in &batch.reports {
            relinked.extend_from_slice(&report.relinked);
            for &f in &report.freed {
                freed.push(f);
                // A slot dirtied by an earlier edit and freed here must not
                // be repaired as the old node; unmarking lets a later edit
                // that reuses the slot queue it afresh.
                if marked(&self.term_mark, epoch, f.index()) {
                    self.term_mark[f.index()] = 0;
                }
            }
            for &d in &report.dirty {
                if marked(&self.term_mark, epoch, d.index()) {
                    deduped += 1;
                    continue;
                }
                mark(&mut self.term_mark, epoch, d.index());
                dirty.push(d);
            }
        }
        // One report's dirty list is already bottom-up and duplicate-free.
        // The union of several is put children before parents by sorting on
        // term depth descending (a child is strictly deeper than its parent,
        // and every changed child of a dirty node is itself dirty).  A slot
        // freed and re-dirtied mid-batch can appear twice in `dirty`; the
        // occurrences share one (depth, id) key, so `dedup` removes the extra
        // one after the sort.  Depths come from the term's memo, which the
        // rebalancing sweep's last pass filled for every live touched node.
        if batch.reports.len() > 1 {
            let (term, marks) = (&mut self.term, &self.term_mark);
            dirty.retain(|&d| term.is_live(d) && marked(marks, epoch, d.index()));
            // analyze: allow(alloc): per-batch key buffer (one depth per node)
            dirty.sort_by_cached_key(|&d| (std::cmp::Reverse(term.depth_memoized(d)), d.0));
            dirty.dedup();
        }
        // A node's first relink in the batch holds the children it started
        // with; one that ends the batch with them kept its links (an id
        // freed and reused meanwhile is a new node, with no box to keep).
        relinked.sort_by_key(|&(n, _)| n.0);
        relinked.dedup_by_key(|&mut (n, _)| n.0);
        let term = &self.term;
        relinked.retain(|&(n, before)| term.is_live(n) && term.children(n) != Some(before));
        DocumentBatch {
            freed,
            dirty,
            // analyze: allow(alloc): the O(k) per-batch relink list.
            relinked: relinked.into_iter().map(|(n, _)| n).collect(),
            deduped,
            // analyze: allow(alloc): the caller-facing O(k) result vector.
            inserted: batch.inserted().collect(),
        }
    }

    /// Checks the term invariants and that `φ` is the bijection between the
    /// live tree nodes and the term leaves.
    pub fn check_consistency(&self) {
        self.term.check_invariants();
        check_phi(&self.tree, &self.term, &self.phi);
    }
}

/// The box of term node `n`: a box is named by its term node's arena index.
#[inline]
fn box_at(n: TermNodeId) -> BoxId {
    BoxId(n.0)
}

/// The from-scratch content of term node `n`'s box, given current child
/// boxes: the plan's leaf record for a leaf, else built into `staging`
/// from the children's `γ`.
fn content_of<'a>(
    plan: &'a QueryPlan,
    circuit: &Circuit,
    staging: &'a mut ContentStaging,
    doc: &Document,
    n: TermNodeId,
) -> BoxContent<'a> {
    let label = plan.alphabet().label_of(doc.term.kind(n));
    match doc.term.children(n) {
        None => plan.leaf_content(label),
        Some((l, r)) => internal_box_content(
            plan.tva(),
            label,
            circuit.gamma(box_at(l)),
            circuit.gamma(box_at(r)),
            staging,
        ),
    }
}

/// The per-query part of the engine: the assignment circuit over a
/// [`Document`]'s term (one box per term node, Lemma 3.7), the enumeration
/// index (Lemma 6.3) and a pooled enumeration scratch.
///
/// The query-only parts (translated automaton, leaf box skeletons) live in a
/// shared [`QueryPlan`].  A box is its term node: box ids are term arena
/// indices, so the circuit and the index hold content only and read their
/// topology from the document's term — one copy of it for every query.  A
/// `QueryIndex` is only meaningful together with the document it was built
/// from and repaired against, which every enumeration reads too.
///
/// Cloning copies the structure, starts an empty pooled scratch and draws a
/// fresh [`QueryIndex::stamp`], so a run parked on the original never
/// resumes on the clone.
pub struct QueryIndex {
    plan: Arc<QueryPlan>,
    circuit: Circuit,
    index: EnumIndex,
    mode: BoxEnumMode,
    /// The batch epoch of `repair`'s marks (see [`Document`]).
    epoch: u64,
    /// Per box: the epoch of its last mark and its [`CONTENT`], [`ENTRY`]
    /// and [`GAMMA`] flags for that batch.
    marks: ChunkedVec<u64>,
    /// Reused buffers the box content builders write records into.
    staging: ContentStaging,
    /// Reusable per-answer enumeration scratch (pools + counters), kept warm
    /// across repair/re-enumeration cycles.  A `Mutex` because enumeration
    /// takes `&self` and the index is shared across reader threads by the
    /// serving layer (`treenum-serve`); the lock is taken once per
    /// *enumeration*, not per answer, so it stays off the delay path.  A
    /// re-entrant or concurrent enumeration (a sink that enumerates the same
    /// index again, or a second reader thread) falls back to a throwaway
    /// scratch — or brings its own via [`QueryIndex::for_each_with`].
    scratch: Mutex<EnumScratch>,
    /// Identifies this index's current structure (see
    /// [`QueryIndex::stamp`]): drawn from a process-global counter at
    /// construction and clone, and again by every `&mut` method that
    /// changes the circuit, the index or the enumeration mode.
    stamp: u64,
}

impl Clone for QueryIndex {
    fn clone(&self) -> Self {
        QueryIndex {
            plan: Arc::clone(&self.plan),
            circuit: self.circuit.clone(),
            index: self.index.clone(),
            mode: self.mode,
            epoch: self.epoch,
            marks: ChunkedVec::new(),
            staging: ContentStaging::default(),
            scratch: Mutex::new(EnumScratch::new()),
            stamp: fresh_stamp(),
        }
    }
}

impl QueryIndex {
    /// Builds the circuit and the enumeration index of `plan`'s query over
    /// `doc`'s term, bottom-up (linear in the term size).
    pub fn build(doc: &Document, plan: Arc<QueryPlan>) -> Self {
        let num_states = plan.tva().num_states();
        let mut q = QueryIndex {
            plan,
            circuit: Circuit::new(num_states),
            index: EnumIndex::default(),
            mode: BoxEnumMode::Indexed,
            epoch: 0,
            marks: ChunkedVec::new(),
            staging: ContentStaging::default(),
            scratch: Mutex::new(EnumScratch::new()),
            stamp: fresh_stamp(),
        };
        for n in doc.term.subtree_postorder(doc.term.root()) {
            q.rebuild_box_for(doc, n);
        }
        q.index = EnumIndex::build(&q.circuit, &doc.term);
        q
    }

    /// Allocation counters of the per-answer enumeration loop (see
    /// [`EnumStats`]).  After a warm-up enumeration, further steady-state
    /// enumerations leave `per_answer_allocs`, `relation_clones` and
    /// `group_map_rebuilds` unchanged.
    ///
    /// Mid-enumeration (called from inside a [`QueryIndex::for_each`]
    /// sink, while the pooled scratch is lent to the running enumeration)
    /// the live counters are unreadable; a default (all-zero) snapshot is
    /// returned instead of panicking, mirroring `for_each`'s own re-entrancy
    /// fallback.
    pub fn enum_stats(&self) -> EnumStats {
        match self.scratch.try_lock() {
            Ok(s) => s.stats(),
            // A sink that panicked mid-enumeration poisons the lock; the
            // pools are still structurally valid, so read through the poison.
            Err(TryLockError::Poisoned(p)) => p.into_inner().stats(),
            Err(TryLockError::WouldBlock) => EnumStats::default(),
        }
    }

    /// The heap footprint of the circuit and the index (see
    /// [`Footprint`]).
    pub fn footprint(&self) -> Footprint {
        let (circuit, index) = (&self.circuit, &self.index);
        Footprint {
            boxes: circuit.num_boxes(),
            circuit_bytes: circuit.slot_bytes() + 8 * circuit.slab_words(),
            index_bytes: index.table_bytes() + 8 * index.slab_words(),
            slab_words: circuit.slab_words() + index.slab_words(),
        }
    }

    /// A value identifying the current enumeration structure: unique to
    /// this index in this process, and replaced by every `&mut` method
    /// that changes the circuit, the index or the enumeration mode (and by
    /// a clone).  Equal stamps therefore mean the same answers in the same
    /// order — which is what keys a run parked by
    /// [`QueryIndex::page_with`].
    pub fn stamp(&self) -> u64 {
        self.stamp
    }

    /// Structural statistics of this query's structure over `doc`.
    pub fn stats(&self, doc: &Document) -> EnumerationStats {
        EnumerationStats {
            tree_size: doc.tree.len(),
            term_height: doc.term.height(),
            automaton_states: self.plan.tva().num_states(),
            circuit_width: self.circuit.width(),
            circuit_boxes: self.circuit.num_boxes(),
        }
    }

    /// (Re)computes the circuit box of term node `n` (children boxes must be
    /// current).  Returns whether its content changed — ancestors whose
    /// recomputed content is identical need no index repair (the spine-only
    /// early exit of the update path) — and whether its `γ` changed.  Both
    /// are word comparisons of the records: the `γ` words, then the whole
    /// record.  A term node with no box is new, and counts as both.
    fn rebuild_box_for(&mut self, doc: &Document, n: TermNodeId) -> (bool, bool) {
        let b = box_at(n);
        let QueryIndex {
            plan,
            circuit,
            staging,
            ..
        } = self;
        let content = content_of(plan, circuit, staging, doc, n);
        if !circuit.is_live(b) {
            circuit.set_content(b, content);
            return (true, true);
        }
        let old = circuit.content(b);
        let gamma_changed = old.gamma() != content.gamma();
        let content_changed = gamma_changed || old != content;
        if content_changed {
            circuit.set_content(b, content);
        }
        (content_changed, gamma_changed)
    }

    /// Whether internal term node `n`'s box provably holds the content a
    /// recompute would give: the box exists, `n` kept its children this
    /// batch (a relinked node is flagged [`CONTENT`] up front), and neither
    /// child's `γ` changed.  Leaves and new boxes never qualify.
    fn content_is_current(&self, doc: &Document, n: TermNodeId, epoch: u64) -> bool {
        let Some((l, r)) = doc.term.children(n) else {
            return false;
        };
        self.circuit.is_live(box_at(n))
            && !flagged(&self.marks, epoch, n.index(), CONTENT)
            && !flagged(&self.marks, epoch, l.index(), GAMMA)
            && !flagged(&self.marks, epoch, r.index(), GAMMA)
    }

    /// Repairs the circuit boxes and index entries of exactly the term
    /// nodes `batch` dirtied (Lemma 7.3), in one bottom-up pass, after
    /// `doc.apply_batch` produced `batch`.  Every query over `doc` must be
    /// repaired with every batch, in order.  An empty batch is a no-op.
    ///
    /// Three layers of spine-only narrowing on top of the dirty set:
    ///
    /// * an internal box whose term node kept its children (it is not in the
    ///   batch's relinked list) and neither of whose children's `γ` changed
    ///   this batch keeps its content without a recompute.  This is sound
    ///   because an internal box's content is
    ///   `internal_box_content(tva, label, γ(l), γ(r))`, and only leaves
    ///   change kind (hence label) in place; a freed node's box is dropped
    ///   through the batch's freed list first, so a reused id gets a new
    ///   box, which counts as changed.  Leaves always recompute;
    /// * a box whose recomputed content is unchanged and whose node was not
    ///   relinked is left in place (gamma changes usually fixpoint a few
    ///   steps up the spine, so the ancestors above that point keep their
    ///   contents, and by the first layer are not even recomputed);
    /// * an index entry is rebuilt only if the box itself changed or a
    ///   descendant's index entry was rebuilt — unchanged boxes above a
    ///   fixpointed spine keep their entries too.
    ///
    /// [`IndexStats::spine_nodes_deduped`] counts the batch's sharing,
    /// [`IndexStats::boxes_skipped`] the first layer's skips and
    /// [`IndexStats::batch_rebuilds`] the passes.
    // hot-path: the update; per-edit work must stay proportional to the
    // deduplicated spine union.
    pub fn repair(&mut self, doc: &Document, batch: &DocumentBatch) {
        if batch.dirty.is_empty() && batch.freed.is_empty() {
            return;
        }
        self.stamp = fresh_stamp();
        self.epoch += 1;
        let epoch = self.epoch;
        // Free the boxes of removed term nodes first (their ids may have
        // been reused by nodes created later in the same batch, which then
        // have no box and count as new).
        for &freed in &batch.freed {
            self.index.remove_box(box_at(freed));
            self.circuit.free(box_at(freed));
        }
        // A relinked node's box changes with its links, whatever its
        // content does.
        for &n in &batch.relinked {
            flag(&mut self.marks, epoch, n.index(), CONTENT);
        }
        // Contents bottom-up, then index entries bottom-up.
        let mut skipped = 0u64;
        for &d in &batch.dirty {
            if self.content_is_current(doc, d, epoch) {
                skipped += 1;
                continue;
            }
            let (changed, gamma_changed) = self.rebuild_box_for(doc, d);
            if changed {
                flag(&mut self.marks, epoch, d.index(), CONTENT);
            }
            if gamma_changed {
                flag(&mut self.marks, epoch, d.index(), GAMMA);
            }
        }
        // An entry is stale iff the box's own wires changed or a child's
        // *entry* changed; a rebuilt-but-identical child entry stops the
        // propagation (the entry is a function of the box's wires and the
        // children's entries only).
        for &d in &batch.dirty {
            let entry_stale = flagged(&self.marks, epoch, d.index(), CONTENT)
                || doc.term.children(d).is_some_and(|(l, r)| {
                    flagged(&self.marks, epoch, l.index(), ENTRY)
                        || flagged(&self.marks, epoch, r.index(), ENTRY)
                })
                || !self.index.has(box_at(d));
            if entry_stale
                && self
                    .index
                    .rebuild_box_changed(&self.circuit, &doc.term, box_at(d))
            {
                flag(&mut self.marks, epoch, d.index(), ENTRY);
            }
        }
        self.index
            .record_batch(batch.deduped, batch.dirty.len() as u64, skipped);
    }

    /// The root box of `doc`'s term, its ∪-gates of the final states and
    /// whether the empty assignment is accepted.
    fn root_query(&self, doc: &Document) -> (BoxId, Vec<u32>, bool) {
        let root_box = box_at(doc.term.root());
        let gamma = self.circuit.gamma(root_box);
        let (gates, empty) = gamma.boxed_set(self.plan.tva().final_states());
        (root_box, gates, empty)
    }

    /// Runs `f` on the pooled scratch.  A re-entrant or concurrent call
    /// (the lock is held) gets a throwaway scratch instead; a poisoned
    /// lock — a previous sink panicked mid-enumeration — is recovered, since
    /// the pools only hold owned buffers and every run starts by abandoning
    /// whatever the previous one left behind.
    fn with_scratch<R>(&self, f: impl FnOnce(&mut EnumScratch) -> R) -> R {
        match self.scratch.try_lock() {
            Ok(mut scratch) => f(&mut scratch),
            Err(TryLockError::Poisoned(p)) => f(&mut p.into_inner()),
            Err(TryLockError::WouldBlock) => f(&mut EnumScratch::new()),
        }
    }

    fn source<'a>(&'a self, doc: &'a Document) -> EnumSource<'a, Term> {
        let index = match self.mode {
            BoxEnumMode::Indexed => Some(&self.index),
            BoxEnumMode::Reference => None,
        };
        EnumSource::new(&self.circuit, &doc.term, index, self.mode)
    }

    /// Starts the enumeration machine on the root query.
    fn start(&self, doc: &Document, scratch: &mut EnumScratch) {
        let (root_box, gates, empty) = self.root_query(doc);
        scratch.start_root(self.source(doc), root_box, &gates, empty);
    }

    /// Enumerates every satisfying assignment over `doc`, invoking `sink` once
    /// per answer, without duplicates.  Return [`ControlFlow::Break`] from the
    /// sink to stop early.
    ///
    /// The pooled [`EnumScratch`] is reused across calls (and across
    /// [`QueryIndex::repair`] cycles), so steady-state enumeration is
    /// allocation-free inside the per-answer loop; if the sink re-enters the
    /// same index, the nested enumeration runs on a throwaway scratch.
    pub fn for_each(&self, doc: &Document, sink: &mut dyn FnMut(Assignment) -> ControlFlow<()>) {
        self.with_scratch(|scratch| self.for_each_with(doc, scratch, sink))
    }

    /// [`QueryIndex::for_each`] with a caller-provided [`EnumScratch`].
    ///
    /// Concurrent readers sharing one index (the serving layer's snapshot
    /// readers) contend on its single pooled scratch: only one wins the
    /// `try_lock`, the rest re-allocate per enumeration.  A reader that
    /// keeps its own scratch across calls stays allocation-free in steady
    /// state regardless of how many other readers enumerate the same index.
    pub fn for_each_with(
        &self,
        doc: &Document,
        scratch: &mut EnumScratch,
        sink: &mut dyn FnMut(Assignment) -> ControlFlow<()>,
    ) {
        self.start(doc, scratch);
        let src = self.source(doc);
        while scratch.next_answer(src) {
            if sink(assignment_of(scratch.answer())).is_break() {
                scratch.abandon();
                return;
            }
        }
    }

    /// Collects all satisfying assignments (convenience wrapper around
    /// [`QueryIndex::for_each`]).
    pub fn assignments(&self, doc: &Document) -> Vec<Assignment> {
        let mut out = Vec::new();
        self.for_each(doc, &mut |a| {
            out.push(a);
            ControlFlow::Continue(())
        });
        out
    }

    /// Counts the satisfying assignments by enumerating them.
    pub fn count(&self, doc: &Document) -> usize {
        let mut count = 0;
        self.for_each(doc, &mut |_| {
            count += 1;
            ControlFlow::Continue(())
        });
        count
    }

    /// Returns the first `k` assignments (exercising the early-termination path that
    /// the delay guarantee is about).
    pub fn first_k(&self, doc: &Document, k: usize) -> Vec<Assignment> {
        let mut out = Vec::new();
        if k == 0 {
            return out;
        }
        self.for_each(doc, &mut |a| {
            out.push(a);
            if out.len() >= k {
                ControlFlow::Break(())
            } else {
                ControlFlow::Continue(())
            }
        });
        out
    }

    /// [`QueryIndex::page_with`] on the pooled scratch (a lost `try_lock`
    /// pages on a throwaway scratch, i.e. restarts).
    pub fn page(&self, doc: &Document, position: usize, k: usize) -> (Vec<Assignment>, bool) {
        self.with_scratch(|scratch| self.page_with(doc, scratch, position, k))
    }

    /// Up to `k` answers starting at `position` of the [`for_each`] order,
    /// and whether another answer follows them.
    ///
    /// When another answer follows, the machine stays parked in `scratch`
    /// on that look-ahead answer, keyed by ([`QueryIndex::stamp`],
    /// `position + k`): the next page asked of this index at exactly that
    /// position with the same scratch resumes the suspended walk, costing
    /// `O(k)` answers of delay instead of re-enumerating the prefix.  Any
    /// other call is a miss and restarts, skipping `position` answers
    /// without building them — another scratch, a repaired or cloned index
    /// (new stamp), a replayed or out-of-order position, or any enumeration
    /// run on the scratch in between.  Misses cost `O(position + k)`
    /// answers and return the same page.  [`EnumStats::pages_resumed`] and
    /// [`EnumStats::pages_restarted`] count the two paths.
    ///
    /// [`for_each`]: QueryIndex::for_each
    pub fn page_with(
        &self,
        doc: &Document,
        scratch: &mut EnumScratch,
        position: usize,
        k: usize,
    ) -> (Vec<Assignment>, bool) {
        let src = self.source(doc);
        // A resumed run already holds the answer at `position`.
        let mut held = scratch.resume_page(self.stamp, position);
        if !held {
            self.start(doc, scratch);
            for _ in 0..position {
                if !scratch.next_answer(src) {
                    return (Vec::new(), false);
                }
            }
        }
        let mut answers = Vec::with_capacity(k.min(4096));
        loop {
            if !std::mem::take(&mut held) && !scratch.next_answer(src) {
                return (answers, false);
            }
            if answers.len() == k {
                scratch.park(self.stamp, position + k);
                return (answers, true);
            }
            answers.push(assignment_of(scratch.answer()));
        }
    }

    /// The shared per-query plan this index was built from.
    pub fn plan(&self) -> &Arc<QueryPlan> {
        &self.plan
    }

    /// Checks that this index mirrors `doc` (exactly the live term nodes
    /// have boxes and index entries, and contents and index entries match
    /// a from-scratch rebuild); used by tests after update sequences.
    pub fn check_consistency(&self, doc: &Document) {
        let term = &doc.term;
        for n in term.subtree_postorder(term.root()) {
            assert!(self.circuit.is_live(box_at(n)), "missing box for {n:?}");
            assert!(self.index.has(box_at(n)), "missing index entry for {n:?}");
        }
        assert_eq!(
            self.circuit.num_boxes(),
            term.len(),
            "a box outlived its node"
        );
        assert_eq!(self.index.len(), term.len(), "an entry outlived its node");
        // The spine-only early exits must leave every box content equal to a
        // from-scratch recomputation (checked bottom-up, so the child gammas a
        // parent is checked against have themselves been validated first).
        let mut staging = ContentStaging::default();
        for n in term.subtree_postorder(term.root()) {
            assert_eq!(
                self.circuit.content(box_at(n)),
                content_of(&self.plan, &self.circuit, &mut staging, doc, n),
                "stale box content for {n:?}"
            );
        }
        // And every index entry must equal a from-scratch index build.
        let fresh = EnumIndex::build(&self.circuit, term);
        for b in Topology::<BoxId>::postorder(term) {
            assert_eq!(self.index.of(b), fresh.of(b), "stale index entry for {b:?}");
        }
        self.circuit.validate(term);
    }
}

/// The update-aware enumeration structure for a stepwise TVA query on an unranked
/// tree: `O(n log n)` preprocessing (the balanced-term build; Theorem 8.1
/// proves linear time), delay independent of the tree, logarithmic-time
/// updates (Theorem 8.1).
///
/// One [`Document`] plus one [`QueryIndex`] over it.  Constructing many
/// enumerators for the same query through one shared [`QueryPlan`] pays the
/// quartic translation once; several queries over one tree should share a
/// document instead (as the serving layer does).
pub struct TreeEnumerator {
    doc: Document,
    query: QueryIndex,
}

impl TreeEnumerator {
    /// Preprocessing: builds the enumeration structure for `query` (a stepwise TVA
    /// over `base_alphabet_len` labels) on `tree`.
    pub fn new(tree: UnrankedTree, query: &StepwiseTva, base_alphabet_len: usize) -> Self {
        Self::with_plan(tree, QueryPlan::for_query(query, base_alphabet_len))
    }

    /// Preprocessing with an explicit (possibly pre-shared) query plan.
    pub fn with_plan(tree: UnrankedTree, plan: Arc<QueryPlan>) -> Self {
        let doc = Document::new(tree);
        let query = QueryIndex::build(&doc, plan);
        TreeEnumerator { doc, query }
    }

    /// The shared per-query plan (translation + circuit skeletons).
    pub fn plan(&self) -> &Arc<QueryPlan> {
        &self.query.plan
    }

    /// Allocation counters of the enumeration index (see [`IndexStats`]).
    pub fn index_stats(&self) -> IndexStats {
        self.query.index.stats()
    }

    /// The enumeration index's slab footprint: `(words held, words in free
    /// blocks)` (see [`EnumIndex::slab_words`] and
    /// [`EnumIndex::free_words`]).
    pub fn index_slab_words(&self) -> (usize, usize) {
        let index = &self.query.index;
        (index.slab_words(), index.free_words())
    }

    /// Allocation counters of the per-answer enumeration loop (see
    /// [`QueryIndex::enum_stats`]).
    pub fn enum_stats(&self) -> EnumStats {
        self.query.enum_stats()
    }

    /// See [`QueryIndex::footprint`].
    pub fn footprint(&self) -> Footprint {
        self.query.footprint()
    }

    /// Switches between the jump-pointer `box-enum` of Algorithm 3 (default) and the
    /// naive reference implementation (used by baselines and differential tests).
    pub fn set_box_enum_mode(&mut self, mode: BoxEnumMode) {
        self.query.mode = mode;
        self.query.stamp = fresh_stamp();
    }

    /// See [`QueryIndex::stamp`].
    pub fn stamp(&self) -> u64 {
        self.query.stamp()
    }

    /// A read-only view of the current tree.
    pub fn tree(&self) -> &UnrankedTree {
        &self.doc.tree
    }

    /// Structural statistics of the current enumeration structure.
    pub fn stats(&self) -> EnumerationStats {
        self.query.stats(&self.doc)
    }

    /// See [`QueryIndex::for_each`].
    pub fn for_each(&self, sink: &mut dyn FnMut(Assignment) -> ControlFlow<()>) {
        self.query.for_each(&self.doc, sink)
    }

    /// See [`QueryIndex::for_each_with`].
    pub fn for_each_with(
        &self,
        scratch: &mut EnumScratch,
        sink: &mut dyn FnMut(Assignment) -> ControlFlow<()>,
    ) {
        self.query.for_each_with(&self.doc, scratch, sink)
    }

    /// Collects all satisfying assignments.
    pub fn assignments(&self) -> Vec<Assignment> {
        self.query.assignments(&self.doc)
    }

    /// Counts the satisfying assignments by enumerating them.
    pub fn count(&self) -> usize {
        self.query.count(&self.doc)
    }

    /// Returns the first `k` assignments (exercising the early-termination path that
    /// the delay guarantee is about).
    pub fn first_k(&self, k: usize) -> Vec<Assignment> {
        self.query.first_k(&self.doc, k)
    }

    /// See [`QueryIndex::page`].
    pub fn page(&self, position: usize, k: usize) -> (Vec<Assignment>, bool) {
        self.query.page(&self.doc, position, k)
    }

    /// See [`QueryIndex::page_with`].
    pub fn page_with(
        &self,
        scratch: &mut EnumScratch,
        position: usize,
        k: usize,
    ) -> (Vec<Assignment>, bool) {
        self.query.page_with(&self.doc, scratch, position, k)
    }

    /// Applies one edit operation (Definition 7.1): a one-op
    /// [`TreeEnumerator::apply_batch`].  Returns the node created by an
    /// insertion, if any.
    pub fn apply(&mut self, op: &EditOp) -> Option<NodeId> {
        self.apply_batch(std::slice::from_ref(op)).pop()
    }

    /// Applies a batch of `k` edit operations (Definition 7.1): one
    /// [`Document::apply_batch`], then one [`QueryIndex::repair`] of the
    /// deduplicated dirty spine union.  Repair cost is
    /// `O(|union of spines|)`, not `O(k · log n)`.  Returns the nodes
    /// created by the batch's insertions, in operation order.
    ///
    /// The resulting tree, inserted nodes and answers do not depend on how a
    /// stream of edits is split into batches; the balanced *term* may, because
    /// [`apply_edits`] rebalances once per batch (same invariants and height
    /// bound either way).
    pub fn apply_batch(&mut self, ops: &[EditOp]) -> Vec<NodeId> {
        let batch = self.doc.apply_batch(ops);
        self.query.repair(&self.doc, &batch);
        batch.inserted
    }

    /// The current height of the balanced term (logarithmic in the tree
    /// size, Section 7).
    pub fn term_height(&self) -> usize {
        self.doc.term.height()
    }

    /// Checks internal consistency of the document and the query index
    /// (see [`QueryIndex::check_consistency`]); used by tests after update
    /// sequences.
    pub fn check_consistency(&self) {
        self.doc.check_consistency();
        self.query.check_consistency(&self.doc);
    }

    /// The satisfying assignments computed by the brute-force oracle on the current
    /// tree (test helper; exponential, only for small trees).
    pub fn brute_force_oracle(&self, query: &StepwiseTva) -> Vec<Assignment> {
        let mut answers: Vec<Assignment> = query
            .satisfying_assignments(self.tree())
            .into_iter()
            .collect();
        answers.sort();
        answers
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use treenum_automata::queries;
    use treenum_trees::generate::{random_tree, EditStream, TreeShape};
    use treenum_trees::valuation::Var;
    use treenum_trees::Alphabet;

    fn sorted(mut v: Vec<Assignment>) -> Vec<Assignment> {
        v.sort();
        v
    }

    #[test]
    fn enumerates_label_selection_on_random_trees() {
        let mut sigma = Alphabet::from_names(["a", "b", "c"]);
        let b = sigma.get("b").unwrap();
        let query = queries::select_label(sigma.len(), b, Var(0));
        for shape in [TreeShape::Random, TreeShape::Deep, TreeShape::Wide] {
            let tree = random_tree(&mut sigma, 30, shape, 11);
            let expected = sorted(query.satisfying_assignments(&tree).into_iter().collect());
            let engine = TreeEnumerator::new(tree, &query, sigma.len());
            assert_eq!(sorted(engine.assignments()), expected, "shape {:?}", shape);
            assert_eq!(engine.count(), expected.len());
        }
    }

    #[test]
    fn enumerates_pair_queries() {
        let mut sigma = Alphabet::from_names(["a", "b"]);
        let a = sigma.get("a").unwrap();
        let b = sigma.get("b").unwrap();
        let query = queries::ancestor_descendant(sigma.len(), a, Var(0), b, Var(1));
        let tree = random_tree(&mut sigma, 18, TreeShape::Random, 3);
        let expected = sorted(query.satisfying_assignments(&tree).into_iter().collect());
        let engine = TreeEnumerator::new(tree, &query, sigma.len());
        assert_eq!(sorted(engine.assignments()), expected);
    }

    #[test]
    fn boolean_query_yields_empty_assignment() {
        let mut sigma = Alphabet::from_names(["a", "b"]);
        let b = sigma.get("b").unwrap();
        let query = queries::exists_label(sigma.len(), b);
        let tree = random_tree(&mut sigma, 12, TreeShape::Random, 9);
        let expected = sorted(query.satisfying_assignments(&tree).into_iter().collect());
        let engine = TreeEnumerator::new(tree, &query, sigma.len());
        assert_eq!(sorted(engine.assignments()), expected);
    }

    #[test]
    fn first_k_supports_early_termination() {
        let mut sigma = Alphabet::from_names(["a", "b"]);
        let a = sigma.get("a").unwrap();
        let query = queries::select_label(sigma.len(), a, Var(0));
        let tree = random_tree(&mut sigma, 40, TreeShape::Random, 21);
        let engine = TreeEnumerator::new(tree, &query, sigma.len());
        let total = engine.count();
        assert!(total > 3);
        assert_eq!(engine.first_k(3).len(), 3);
        assert_eq!(engine.first_k(0).len(), 0);
    }

    #[test]
    fn updates_keep_answers_correct() {
        let mut sigma = Alphabet::from_names(["a", "b", "c"]);
        let labels: Vec<_> = sigma.labels().collect();
        let b = sigma.get("b").unwrap();
        let query = queries::select_label(sigma.len(), b, Var(0));
        let tree = random_tree(&mut sigma, 15, TreeShape::Random, 4);
        let mut engine = TreeEnumerator::new(tree, &query, sigma.len());
        let mut stream = EditStream::balanced_mix(labels, 77);
        for step in 0..60 {
            let op = stream.next_for(engine.tree());
            engine.apply(&op);
            let expected = sorted(
                query
                    .satisfying_assignments(engine.tree())
                    .into_iter()
                    .collect(),
            );
            assert_eq!(
                sorted(engine.assignments()),
                expected,
                "after step {step} ({op:?})"
            );
        }
        engine.check_consistency();
    }

    #[test]
    fn updates_keep_answers_correct_for_pair_query() {
        let mut sigma = Alphabet::from_names(["a", "b"]);
        let labels: Vec<_> = sigma.labels().collect();
        let a = sigma.get("a").unwrap();
        let b = sigma.get("b").unwrap();
        let query = queries::ancestor_descendant(sigma.len(), a, Var(0), b, Var(1));
        let tree = random_tree(&mut sigma, 10, TreeShape::Deep, 8);
        let mut engine = TreeEnumerator::new(tree, &query, sigma.len());
        let mut stream = EditStream::balanced_mix(labels, 13);
        for step in 0..40 {
            let op = stream.next_for(engine.tree());
            engine.apply(&op);
            let expected = sorted(
                query
                    .satisfying_assignments(engine.tree())
                    .into_iter()
                    .collect(),
            );
            assert_eq!(
                sorted(engine.assignments()),
                expected,
                "after step {step} ({op:?})"
            );
        }
        engine.check_consistency();
    }

    /// 9-op batches against one-op batches (`apply`) of the same ops: same
    /// inserted nodes and answers, and after every batch the answers of a
    /// from-scratch engine on the independently edited shadow tree.
    #[test]
    fn apply_batch_matches_sequential_apply() {
        let mut sigma = Alphabet::from_names(["a", "b", "c"]);
        let labels: Vec<_> = sigma.labels().collect();
        let b = sigma.get("b").unwrap();
        let query = queries::select_label(sigma.len(), b, Var(0));
        let batches = treenum_trees::generate::oracle_scale(16, 8);
        for seed in 0..3u64 {
            let tree = random_tree(&mut sigma, 18, TreeShape::Random, 50 + seed);
            let mut batch_engine = TreeEnumerator::new(tree.clone(), &query, sigma.len());
            let mut seq_engine = TreeEnumerator::new(tree.clone(), &query, sigma.len());
            let mut shadow = tree;
            let mut stream = EditStream::balanced_mix(labels.clone(), 90 + seed);
            for _ in 0..batches {
                // Generated on the shadow just before it is applied, so the
                // shadow is the expected tree after every batch.
                let chunk: Vec<EditOp> = (0..9).map(|_| stream.next_applied(&mut shadow)).collect();
                let batch_inserted = batch_engine.apply_batch(&chunk);
                let seq_inserted: Vec<NodeId> =
                    chunk.iter().filter_map(|op| seq_engine.apply(op)).collect();
                assert_eq!(batch_inserted, seq_inserted);
                let answers = sorted(batch_engine.assignments());
                assert_eq!(answers, sorted(seq_engine.assignments()));
                let cold = TreeEnumerator::new(shadow.clone(), &query, sigma.len());
                assert_eq!(answers, sorted(cold.assignments()));
            }
            batch_engine.check_consistency();
            seq_engine.check_consistency();
            let expected = sorted(
                query
                    .satisfying_assignments(batch_engine.tree())
                    .into_iter()
                    .collect(),
            );
            assert_eq!(sorted(batch_engine.assignments()), expected);
            assert!(batch_engine.index_stats().batch_rebuilds > 0);
        }
    }

    #[test]
    fn empty_batch_is_a_no_op() {
        let mut sigma = Alphabet::from_names(["a", "b"]);
        let b = sigma.get("b").unwrap();
        let query = queries::select_label(sigma.len(), b, Var(0));
        let tree = random_tree(&mut sigma, 12, TreeShape::Random, 2);
        let mut engine = TreeEnumerator::new(tree, &query, sigma.len());
        let before = sorted(engine.assignments());
        assert!(engine.apply_batch(&[]).is_empty());
        assert_eq!(engine.index_stats().batch_rebuilds, 0);
        assert_eq!(sorted(engine.assignments()), before);
        engine.check_consistency();
    }

    #[test]
    fn stats_report_logarithmic_term_height() {
        let mut sigma = Alphabet::from_names(["a", "b"]);
        let b = sigma.get("b").unwrap();
        let query = queries::select_label(sigma.len(), b, Var(0));
        let tree = random_tree(&mut sigma, 500, TreeShape::Deep, 2);
        let engine = TreeEnumerator::new(tree, &query, sigma.len());
        let stats = engine.stats();
        assert_eq!(stats.tree_size, 500);
        assert_eq!(stats.circuit_boxes, engine.doc.term.len());
        assert!(
            stats.term_height <= 70,
            "term height {} not logarithmic",
            stats.term_height
        );
        assert!(stats.circuit_width <= stats.automaton_states);
    }

    #[test]
    fn reference_and_indexed_modes_agree_after_updates() {
        let mut sigma = Alphabet::from_names(["a", "b"]);
        let labels: Vec<_> = sigma.labels().collect();
        let b = sigma.get("b").unwrap();
        let query = queries::select_label(sigma.len(), b, Var(0));
        let tree = random_tree(&mut sigma, 20, TreeShape::Random, 6);
        let mut engine = TreeEnumerator::new(tree, &query, sigma.len());
        let mut stream = EditStream::balanced_mix(labels, 5);
        for _ in 0..30 {
            let op = stream.next_for(engine.tree());
            engine.apply(&op);
        }
        let indexed = sorted(engine.assignments());
        engine.set_box_enum_mode(BoxEnumMode::Reference);
        let reference = sorted(engine.assignments());
        assert_eq!(indexed, reference);
    }

    /// One document shared by three query indexes (unary, pair, Boolean)
    /// against three independent engines fed the same ops, in one-op and
    /// 9-op batches, through a stream whose deletes free term slots that
    /// later inserts reuse.
    #[test]
    fn shared_document_matches_independent_engines() {
        let mut sigma = Alphabet::from_names(["a", "b", "c"]);
        let labels: Vec<_> = sigma.labels().collect();
        let a = sigma.get("a").unwrap();
        let b = sigma.get("b").unwrap();
        let queries = [
            queries::select_label(sigma.len(), b, Var(0)),
            queries::ancestor_descendant(sigma.len(), a, Var(0), b, Var(1)),
            queries::exists_label(sigma.len(), b),
        ];
        let plans: Vec<_> = queries
            .iter()
            .map(|q| QueryPlan::for_query(q, sigma.len()))
            .collect();
        let batches = treenum_trees::generate::oracle_scale(60, 20);
        for (seed, k) in [(1u64, 1usize), (2, 9), (3, 9)] {
            let tree = random_tree(&mut sigma, 24, TreeShape::Random, 40 + seed);
            let mut doc = Document::new(tree.clone());
            let mut shared: Vec<QueryIndex> = plans
                .iter()
                .map(|p| QueryIndex::build(&doc, Arc::clone(p)))
                .collect();
            let mut alone: Vec<TreeEnumerator> = plans
                .iter()
                .map(|p| TreeEnumerator::with_plan(tree.clone(), Arc::clone(p)))
                .collect();
            let mut shadow = tree;
            let mut stream = EditStream::balanced_mix(labels.clone(), 70 + seed);
            let mut freed_before = std::collections::HashSet::new();
            let mut reused = 0usize;
            for _ in 0..batches {
                let chunk: Vec<EditOp> = (0..k).map(|_| stream.next_applied(&mut shadow)).collect();
                let batch = doc.apply_batch(&chunk);
                reused += batch
                    .dirty
                    .iter()
                    .filter(|d| freed_before.contains(*d))
                    .count();
                freed_before.extend(batch.freed.iter().copied());
                for q in &mut shared {
                    q.repair(&doc, &batch);
                }
                let mut inserted = Vec::new();
                for e in &mut alone {
                    inserted = e.apply_batch(&chunk);
                }
                assert_eq!(batch.inserted, inserted);
                assert!(doc.tree().structurally_equal(&shadow));
                doc.check_consistency();
                for (q, e) in shared.iter().zip(&alone) {
                    q.check_consistency(&doc);
                    assert_eq!(sorted(q.assignments(&doc)), sorted(e.assignments()));
                }
            }
            assert!(reused > 0, "the stream must reuse freed term slots");
        }
    }

    /// A deleted leaf whose ⊕ parent hoists its unchanged sibling under the
    /// grandparent: neither of the grandparent's children changes `γ`, so
    /// only the batch's relink report makes the repair recompute its box.
    /// Every such leaf of a small tree is deleted in turn, for a unary and
    /// a pair query.
    #[test]
    fn a_sibling_hoisted_under_its_grandparent_is_repaired() {
        use treenum_balance::term::{TermNodeKind, TermOp};
        let sigma = Alphabet::from_names(["a", "b"]);
        let (a, b) = (sigma.get("a").unwrap(), sigma.get("b").unwrap());
        let queries = [
            queries::select_label(sigma.len(), b, Var(0)),
            queries::ancestor_descendant(sigma.len(), a, Var(0), b, Var(1)),
        ];
        // a(b, b(a), a, b, b, a(b))
        let mut tree = UnrankedTree::new(a);
        let mut last = tree.insert_first_child(tree.root(), b);
        tree.insert_first_child(last, a);
        for label in [a, b, b, a] {
            last = tree.insert_right_sibling(last, label);
        }
        tree.insert_first_child(last, b);
        let mut hoists = 0;
        for node in tree.preorder() {
            let doc = Document::new(tree.clone());
            let Some(leaf) = doc.phi[node.index()].filter(|&l| doc.term.is_leaf(l)) else {
                continue;
            };
            let parent = doc.term.parent(leaf);
            let oplus = parent.is_some_and(|p| {
                matches!(
                    doc.term.kind(p),
                    TermNodeKind::Op(TermOp::OplusHH | TermOp::OplusHV | TermOp::OplusVH)
                )
            });
            if !tree.is_leaf(node) || !oplus || doc.term.parent(parent.unwrap()).is_none() {
                continue;
            }
            hoists += 1;
            let op = EditOp::DeleteLeaf { node };
            let mut shadow = tree.clone();
            shadow.apply(&op);
            for query in &queries {
                let mut doc = doc.clone();
                let mut q = QueryIndex::build(&doc, QueryPlan::for_query(query, sigma.len()));
                let batch = doc.apply_batch(std::slice::from_ref(&op));
                q.repair(&doc, &batch);
                q.check_consistency(&doc);
                let fresh = TreeEnumerator::new(shadow.clone(), query, sigma.len());
                let answers = sorted(q.assignments(&doc));
                assert_eq!(answers, sorted(fresh.assignments()), "deleting {node:?}");
            }
        }
        assert!(hoists >= 3, "only {hoists} deletions hoist a sibling");
    }

    /// A cloned document and query index answer like the original, never
    /// resume a run parked on the original, and evolve independently.
    #[test]
    fn clones_answer_alike_restart_parked_pages_and_diverge() {
        let mut sigma = Alphabet::from_names(["a", "b"]);
        let labels: Vec<_> = sigma.labels().collect();
        let a = sigma.get("a").unwrap();
        let b = sigma.get("b").unwrap();
        let query = queries::ancestor_descendant(sigma.len(), a, Var(0), b, Var(1));
        let plan = QueryPlan::for_query(&query, sigma.len());
        let tree = random_tree(&mut sigma, 40, TreeShape::Deep, 12);
        let mut doc = Document::new(tree.clone());
        let mut q = QueryIndex::build(&doc, Arc::clone(&plan));
        assert!(q.count(&doc) > 8, "the test needs several pages");

        // Park a page on the original's pooled scratch and on a caller's.
        let (first, more) = q.page(&doc, 0, 3);
        assert!(more);
        let mut own = EnumScratch::new();
        q.page_with(&doc, &mut own, 0, 3);

        let mut doc2 = doc.clone();
        let mut q2 = q.clone();
        assert_ne!(q2.stamp(), q.stamp());

        // Neither parked run resumes on the clone.
        let (clone_page, _) = q2.page(&doc2, 3, 3);
        assert_eq!(q2.enum_stats().pages_restarted, 1);
        assert_eq!(q2.enum_stats().pages_resumed, 0);
        let own_restarted = own.stats().pages_restarted;
        assert_eq!(q2.page_with(&doc2, &mut own, 3, 3).0, clone_page);
        assert_eq!(own.stats().pages_restarted, own_restarted + 1);
        // The original's pooled run was parked before the clone: it resumes.
        let resumed = q.enum_stats().pages_resumed;
        assert_eq!(q.page(&doc, 3, 3).0, clone_page);
        assert_eq!(q.enum_stats().pages_resumed, resumed + 1);
        assert_eq!(q2.page(&doc2, 0, 3).0, first);
        assert_eq!(
            q2.assignments(&doc2),
            q.assignments(&doc),
            "same answers, same order"
        );

        // Different edits on each side: each matches its own fresh engine.
        let (mut shadow, mut shadow2) = (tree.clone(), tree);
        let mut stream = EditStream::balanced_mix(labels.clone(), 3);
        let mut stream2 = EditStream::skewed(labels, 4);
        for _ in 0..treenum_trees::generate::oracle_scale(12, 6) {
            let ops: Vec<EditOp> = (0..5).map(|_| stream.next_applied(&mut shadow)).collect();
            let ops2: Vec<EditOp> = (0..5).map(|_| stream2.next_applied(&mut shadow2)).collect();
            let batch = doc.apply_batch(&ops);
            q.repair(&doc, &batch);
            let batch2 = doc2.apply_batch(&ops2);
            q2.repair(&doc2, &batch2);
            let fresh = TreeEnumerator::with_plan(shadow.clone(), Arc::clone(&plan));
            let fresh2 = TreeEnumerator::with_plan(shadow2.clone(), Arc::clone(&plan));
            assert_eq!(sorted(q.assignments(&doc)), sorted(fresh.assignments()));
            assert_eq!(sorted(q2.assignments(&doc2)), sorted(fresh2.assignments()));
        }
        assert!(!doc.tree().structurally_equal(doc2.tree()));
        q.check_consistency(&doc);
        q2.check_consistency(&doc2);
    }
}
