//! The incremental tree enumeration engine (Theorem 8.1).

use crate::plan::QueryPlan;
use std::collections::HashMap;
use std::ops::ControlFlow;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, TryLockError};
use treenum_automata::StepwiseTva;
use treenum_balance::build::build_balanced_term;
use treenum_balance::term::{Term, TermNodeId};
use treenum_balance::update::apply_edits;
use treenum_circuits::{internal_box_content, BoxContent, BoxId, Circuit, StateGate};
use treenum_enumeration::boxenum::BoxEnumMode;
use treenum_enumeration::index::IndexStats;
use treenum_enumeration::{EnumIndex, EnumScratch, EnumSource, EnumStats};
use treenum_trees::edit::EditOp;
use treenum_trees::unranked::{NodeId, UnrankedTree};
use treenum_trees::valuation::{Assignment, Singleton, VarSet};
use treenum_trees::Label;

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

/// The update-aware enumeration structure for a stepwise TVA query on an unranked
/// tree: linear-time preprocessing, delay independent of the tree, logarithmic-time
/// updates (Theorem 8.1).
///
/// The query-only parts (translated automaton, leaf box skeletons) live in a
/// shared [`QueryPlan`]; constructing many enumerators for the same query pays
/// the quartic translation once.  The term-to-box mapping is a dense slab
/// parallel to the term arena — no hashing on the per-edit path.
pub struct TreeEnumerator {
    tree: UnrankedTree,
    term: Term,
    phi: HashMap<NodeId, TermNodeId>,
    plan: Arc<QueryPlan>,
    circuit: Circuit,
    /// `box_of[n.index()]`: the circuit box of term node `n`.
    box_of: Vec<Option<BoxId>>,
    index: EnumIndex,
    mode: BoxEnumMode,
    /// Epoch-marked scratch bitmaps for `apply_batch` (a slot is "set" iff it
    /// holds the current epoch): O(spine) per batch instead of O(n) re-zeroing.
    scratch_epoch: u64,
    term_mark: Vec<u64>,
    /// Boxes whose content or child links changed this batch.
    content_mark: Vec<u64>,
    /// Boxes whose index entry changed this batch.
    entry_mark: Vec<u64>,
    /// Reusable per-answer enumeration scratch (pools + counters), kept warm
    /// across `apply`/re-enumeration cycles.  A `Mutex` because enumeration
    /// takes `&self` and the engine is shared across reader threads by the
    /// serving layer (`treenum-serve`); the lock is taken once per
    /// *enumeration*, not per answer, so it stays off the delay path.  A
    /// re-entrant or concurrent enumeration (a sink that enumerates the same
    /// engine again, or a second reader thread) falls back to a throwaway
    /// scratch — or brings its own via [`TreeEnumerator::for_each_with`].
    scratch: Mutex<EnumScratch>,
    /// Identifies this engine's current structure (see
    /// [`TreeEnumerator::stamp`]): drawn from a process-global counter at
    /// construction and again by every `&mut` method that changes the
    /// circuit, the index or the enumeration mode.
    stamp: u64,
}

/// Source of [`TreeEnumerator::stamp`] values: never reused in a process.
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
    assert_send_sync::<QueryPlan>();
};

/// Epoch bitmap helper: `marks[i] == epoch` means "set this edit".
#[inline]
fn mark(marks: &mut Vec<u64>, epoch: u64, i: usize) {
    if i >= marks.len() {
        marks.resize(i + 1, 0);
    }
    marks[i] = epoch;
}

#[inline]
fn marked(marks: &[u64], epoch: u64, i: usize) -> bool {
    marks.get(i).copied() == Some(epoch)
}

impl TreeEnumerator {
    /// Preprocessing: builds the enumeration structure for `query` (a stepwise TVA
    /// over `base_alphabet_len` labels) on `tree`.
    pub fn new(tree: UnrankedTree, query: &StepwiseTva, base_alphabet_len: usize) -> Self {
        Self::with_plan(tree, QueryPlan::for_query(query, base_alphabet_len))
    }

    /// Preprocessing with an explicit (possibly pre-shared) query plan.
    pub fn with_plan(tree: UnrankedTree, plan: Arc<QueryPlan>) -> Self {
        let (term, phi) = build_balanced_term(&tree);
        let num_states = plan.tva().num_states();
        let mut engine = TreeEnumerator {
            tree,
            term,
            phi,
            plan,
            circuit: Circuit::new(num_states),
            box_of: Vec::new(),
            index: EnumIndex::default(),
            mode: BoxEnumMode::Indexed,
            scratch_epoch: 0,
            term_mark: Vec::new(),
            content_mark: Vec::new(),
            entry_mark: Vec::new(),
            scratch: Mutex::new(EnumScratch::new()),
            stamp: fresh_stamp(),
        };
        let order = engine.term.subtree_postorder(engine.term.root());
        for n in order {
            engine.rebuild_box_for(n);
        }
        let root_box = engine.box_of(engine.term.root());
        engine.circuit.set_root_force(root_box);
        engine.index = EnumIndex::build(&engine.circuit);
        engine
    }

    /// The shared per-query plan (translation + circuit skeletons).
    pub fn plan(&self) -> &Arc<QueryPlan> {
        &self.plan
    }

    /// Allocation counters of the enumeration index (see [`IndexStats`]).
    pub fn index_stats(&self) -> IndexStats {
        self.index.stats()
    }

    /// Allocation counters of the per-answer enumeration loop (see
    /// [`EnumStats`]).  After a warm-up enumeration, further steady-state
    /// enumerations leave `per_answer_allocs`, `relation_clones` and
    /// `group_map_rebuilds` unchanged.
    ///
    /// Mid-enumeration (called from inside a [`TreeEnumerator::for_each`]
    /// sink, while the engine's scratch is lent to the running enumeration)
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

    #[inline]
    fn box_of(&self, n: TermNodeId) -> BoxId {
        self.box_of[n.index()].expect("term node has no circuit box")
    }

    #[inline]
    fn box_of_checked(&self, n: TermNodeId) -> Option<BoxId> {
        self.box_of.get(n.index()).copied().flatten()
    }

    fn set_box_of(&mut self, n: TermNodeId, b: BoxId) {
        if n.index() >= self.box_of.len() {
            self.box_of
                .resize(self.term.arena_len().max(n.index() + 1), None);
        }
        self.box_of[n.index()] = Some(b);
    }

    fn take_box_of(&mut self, n: TermNodeId) -> Option<BoxId> {
        self.box_of.get_mut(n.index()).and_then(Option::take)
    }

    /// Switches between the jump-pointer `box-enum` of Algorithm 3 (default) and the
    /// naive reference implementation (used by baselines and differential tests).
    pub fn set_box_enum_mode(&mut self, mode: BoxEnumMode) {
        self.mode = mode;
        self.stamp = fresh_stamp();
    }

    /// A value identifying the current enumeration structure: unique to
    /// this engine in this process, and replaced by every `&mut` method
    /// that changes the circuit, the index or the enumeration mode.  Equal
    /// stamps therefore mean the same answers in the same order — which is
    /// what keys a run parked by [`TreeEnumerator::page_with`].
    pub fn stamp(&self) -> u64 {
        self.stamp
    }

    /// A read-only view of the current tree.
    pub fn tree(&self) -> &UnrankedTree {
        &self.tree
    }

    /// Structural statistics of the current enumeration structure.
    pub fn stats(&self) -> EnumerationStats {
        EnumerationStats {
            tree_size: self.tree.len(),
            term_height: self.term.height(),
            automaton_states: self.plan.tva().num_states(),
            circuit_width: self.circuit.width(),
            circuit_boxes: self.circuit.num_boxes(),
        }
    }

    fn term_label(&self, n: TermNodeId) -> Label {
        self.plan.alphabet().label_of(self.term.kind(n))
    }

    /// (Re)computes the circuit box of term node `n` (children boxes must be
    /// current).  Returns the box and whether its content or child links
    /// actually changed — ancestors whose recomputed content is identical need
    /// no index repair (the spine-only early exit of the update path).
    fn rebuild_box_for(&mut self, n: TermNodeId) -> (BoxId, bool) {
        let label = self.term_label(n);
        let content: BoxContent = match self.term.children(n) {
            None => {
                let node = self
                    .term
                    .leaf_tree_node(n)
                    .expect("term leaves map to tree nodes");
                self.plan.leaf_content(label, node.0)
            }
            Some((l, r)) => {
                let bl = self.box_of(l);
                let br = self.box_of(r);
                internal_box_content(
                    self.plan.tva(),
                    label,
                    self.circuit.gamma(bl),
                    self.circuit.gamma(br),
                )
            }
        };
        let children = self
            .term
            .children(n)
            .map(|(l, r)| (self.box_of(l), self.box_of(r)));
        let leaf_token = self.term.leaf_tree_node(n).map(|node| node.0);
        match self.box_of_checked(n).filter(|&b| self.circuit.is_live(b)) {
            Some(b) => {
                // Same child ids are not enough: a freed slot reused by a fresh
                // box within this edit carries a cleared parent pointer, so the
                // link must be re-established even though the ids match.
                let children_ok = self.circuit.children(b) == children
                    && children.is_none_or(|(l, r)| {
                        self.circuit.parent(l) == Some(b) && self.circuit.parent(r) == Some(b)
                    });
                let content_changed = *self.circuit.content(b) != content;
                if content_changed {
                    self.circuit.replace_content(b, content);
                }
                if !children_ok {
                    self.circuit.set_children(b, children);
                }
                (b, content_changed || !children_ok)
            }
            None => {
                let b = self.circuit.add_orphan_box(content, leaf_token);
                self.circuit.set_children(b, children);
                self.set_box_of(n, b);
                (b, true)
            }
        }
    }

    /// The root ∪-gates of the final states and whether the empty assignment is
    /// accepted.
    fn root_query(&self) -> (BoxId, Vec<u32>, bool) {
        let root_box = self.box_of(self.term.root());
        let gamma = self.circuit.gamma(root_box);
        let mut gates = Vec::new();
        let mut empty = false;
        for &f in self.plan.tva().final_states() {
            match gamma[f.index()] {
                StateGate::Top => empty = true,
                StateGate::Bot => {}
                StateGate::Union(u) => {
                    if !gates.contains(&u) {
                        gates.push(u);
                    }
                }
            }
        }
        (root_box, gates, empty)
    }

    /// Runs `f` on the engine's pooled scratch.  A re-entrant or concurrent
    /// call (the lock is held) gets a throwaway scratch instead; a poisoned
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

    fn source(&self) -> EnumSource<'_> {
        let index = match self.mode {
            BoxEnumMode::Indexed => Some(&self.index),
            BoxEnumMode::Reference => None,
        };
        EnumSource::new(&self.circuit, index, self.mode)
    }

    /// Starts the enumeration machine on the root query.
    fn start(&self, scratch: &mut EnumScratch) {
        let (root_box, gates, empty) = self.root_query();
        scratch.start_root(self.source(), root_box, &gates, empty);
    }

    /// Enumerates every satisfying assignment, invoking `sink` once per answer,
    /// without duplicates.  Return [`ControlFlow::Break`] from the sink to stop early.
    ///
    /// The engine's pooled [`EnumScratch`] is reused across calls (and across
    /// [`TreeEnumerator::apply`] cycles), so steady-state enumeration is
    /// allocation-free inside the per-answer loop; if the sink re-enters the
    /// same engine, the nested enumeration runs on a throwaway scratch.
    pub fn for_each(&self, sink: &mut dyn FnMut(Assignment) -> ControlFlow<()>) {
        self.with_scratch(|scratch| self.for_each_with(scratch, sink))
    }

    /// [`TreeEnumerator::for_each`] with a caller-provided [`EnumScratch`].
    ///
    /// Concurrent readers sharing one engine (the serving layer's snapshot
    /// readers) contend on the engine's single pooled scratch: only one wins
    /// the `try_lock`, the rest re-allocate per enumeration.  A reader that
    /// keeps its own scratch across calls stays allocation-free in steady
    /// state regardless of how many other readers enumerate the same engine.
    pub fn for_each_with(
        &self,
        scratch: &mut EnumScratch,
        sink: &mut dyn FnMut(Assignment) -> ControlFlow<()>,
    ) {
        self.start(scratch);
        let src = self.source();
        while scratch.next_answer(src) {
            if sink(assignment_of(scratch.answer())).is_break() {
                scratch.abandon();
                return;
            }
        }
    }

    /// Collects all satisfying assignments (convenience wrapper around
    /// [`TreeEnumerator::for_each`]).
    pub fn assignments(&self) -> Vec<Assignment> {
        let mut out = Vec::new();
        self.for_each(&mut |a| {
            out.push(a);
            ControlFlow::Continue(())
        });
        out
    }

    /// Counts the satisfying assignments by enumerating them.
    pub fn count(&self) -> usize {
        let mut count = 0;
        self.for_each(&mut |_| {
            count += 1;
            ControlFlow::Continue(())
        });
        count
    }

    /// Returns the first `k` assignments (exercising the early-termination path that
    /// the delay guarantee is about).
    pub fn first_k(&self, k: usize) -> Vec<Assignment> {
        let mut out = Vec::new();
        if k == 0 {
            return out;
        }
        self.for_each(&mut |a| {
            out.push(a);
            if out.len() >= k {
                ControlFlow::Break(())
            } else {
                ControlFlow::Continue(())
            }
        });
        out
    }

    /// [`TreeEnumerator::page_with`] on the engine's pooled scratch (a lost
    /// `try_lock` pages on a throwaway scratch, i.e. restarts).
    pub fn page(&self, position: usize, k: usize) -> (Vec<Assignment>, bool) {
        self.with_scratch(|scratch| self.page_with(scratch, position, k))
    }

    /// Up to `k` answers starting at `position` of the [`for_each`] order,
    /// and whether another answer follows them.
    ///
    /// When another answer follows, the machine stays parked in `scratch`
    /// on that look-ahead answer, keyed by ([`TreeEnumerator::stamp`],
    /// `position + k`): the next page asked of this engine at exactly that
    /// position with the same scratch resumes the suspended walk, costing
    /// `O(k)` answers of delay instead of re-enumerating the prefix.  Any
    /// other call is a miss and restarts, skipping `position` answers
    /// without building them — another scratch, an edited engine (new
    /// stamp), a replayed or out-of-order position, or any enumeration run
    /// on the scratch in between.  Misses cost `O(position + k)` answers and
    /// return the same page.  [`EnumStats::pages_resumed`] and
    /// [`EnumStats::pages_restarted`] count the two paths.
    ///
    /// [`for_each`]: TreeEnumerator::for_each
    pub fn page_with(
        &self,
        scratch: &mut EnumScratch,
        position: usize,
        k: usize,
    ) -> (Vec<Assignment>, bool) {
        let src = self.source();
        // A resumed run already holds the answer at `position`.
        let mut held = scratch.resume_page(self.stamp, position);
        if !held {
            self.start(scratch);
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

    /// Applies one edit operation (Definition 7.1): a one-op
    /// [`TreeEnumerator::apply_batch`].  Returns the node created by an
    /// insertion, if any.
    pub fn apply(&mut self, op: &EditOp) -> Option<NodeId> {
        self.apply_batch(std::slice::from_ref(op)).pop()
    }

    /// Applies a batch of `k` edit operations (Definition 7.1) to the
    /// underlying tree and repairs the term, then the circuit boxes and index
    /// entries of exactly the dirtied term nodes (Lemma 7.3), in **one**
    /// deduplicated pass.  Returns the nodes created by the batch's
    /// insertions, in operation order.
    ///
    /// The resulting tree, inserted nodes and answers do not depend on how a
    /// stream of edits is split into batches; the balanced *term* may, because
    /// [`apply_edits`] rebalances once per batch (same invariants and height
    /// bound either way).  Edits that land in one subtree share most of their
    /// `O(log n)` dirty spine, so the per-edit reports are folded into an
    /// epoch-marked dirty set first — replayed in order, because a term arena
    /// slot freed by one edit can be reused (and re-dirtied) by a later one —
    /// and the union is then repaired bottom-up once.  Repair cost is
    /// `O(|union of spines|)`, not `O(k · log n)`;
    /// [`IndexStats::spine_nodes_deduped`] counts the sharing and
    /// [`IndexStats::batch_rebuilds`] the passes.
    ///
    /// Two layers of spine-only narrowing on top of the dirty set:
    ///
    /// * a box whose recomputed content and child links are unchanged is left in
    ///   place (gamma changes usually fixpoint a few steps up the spine, so the
    ///   ancestors above that point keep their contents);
    /// * an index entry is rebuilt only if the box itself changed or a
    ///   descendant's index entry was rebuilt — unchanged boxes above a
    ///   fixpointed spine keep their entries too.
    // hot-path: the update; per-edit work must stay proportional to the
    // deduplicated spine union, with only per-batch O(k) buffers below.
    pub fn apply_batch(&mut self, ops: &[EditOp]) -> Vec<NodeId> {
        if ops.is_empty() {
            // analyze: allow(alloc): `Vec::new` of the empty result never allocates
            return Vec::new();
        }
        self.stamp = fresh_stamp();
        let batch = apply_edits(&mut self.tree, &mut self.term, &mut self.phi, ops);
        self.scratch_epoch += 1;
        let epoch = self.scratch_epoch;
        // analyze: allow(alloc): one per-batch buffer, amortized over k edits
        let mut dirty: Vec<TermNodeId> = Vec::with_capacity(batch.dirty_len());
        let mut deduped = 0u64;
        for report in &batch.reports {
            // Free the boxes of removed term nodes first (their arena slots
            // may be reused by nodes created later in the same batch).
            for freed in &report.freed {
                if let Some(b) = self.take_box_of(*freed) {
                    self.index.remove_box(b);
                    if self.circuit.is_live(b) {
                        self.circuit.free_single(b);
                    }
                }
                // A slot dirtied by an earlier edit and freed here must not
                // be repaired as the old node; unmarking lets a later edit
                // that reuses the slot queue it afresh.
                if marked(&self.term_mark, epoch, freed.index()) {
                    self.term_mark[freed.index()] = 0;
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
        // Contents bottom-up, then index entries bottom-up.
        for &d in &dirty {
            let (b, changed) = self.rebuild_box_for(d);
            if changed {
                mark(&mut self.content_mark, epoch, b.index());
            }
        }
        let root_box = self.box_of(self.term.root());
        self.circuit.set_root_force(root_box);
        // An entry is stale iff the box's own wires changed or a child's
        // *entry* changed; a rebuilt-but-identical child entry stops the
        // propagation (the entry is a function of the box's wires and the
        // children's entries only).
        for &d in &dirty {
            let b = self.box_of(d);
            let entry_stale = marked(&self.content_mark, epoch, b.index())
                || self.circuit.children(b).is_some_and(|(l, r)| {
                    marked(&self.entry_mark, epoch, l.index())
                        || marked(&self.entry_mark, epoch, r.index())
                })
                || !self.index.has(b);
            if entry_stale && self.index.rebuild_box_changed(&self.circuit, b) {
                mark(&mut self.entry_mark, epoch, b.index());
            }
        }
        self.index.record_batch(deduped, dirty.len() as u64);
        // analyze: allow(alloc): the caller-facing O(k) result vector.
        batch.inserted().collect()
    }

    /// Number of term nodes touched by the last kind of update on average is
    /// logarithmic; this helper reports the current term height for inspection.
    pub fn term_height(&self) -> usize {
        self.term.height()
    }

    /// Checks internal consistency (box tree mirrors the term, index entries exist,
    /// contents and index entries match a from-scratch rebuild); used by tests
    /// after update sequences.
    pub fn check_consistency(&self) {
        self.term.check_invariants();
        assert_eq!(self.phi.len(), self.tree.len());
        for n in self.term.subtree_postorder(self.term.root()) {
            let b = self
                .box_of_checked(n)
                .expect("missing box for a live term node");
            assert!(self.circuit.is_live(b));
            assert!(self.index.has(b), "missing index entry for a live box");
            match self.term.children(n) {
                None => assert!(self.circuit.is_leaf(b)),
                Some((l, r)) => {
                    assert_eq!(
                        self.circuit.children(b),
                        Some((self.box_of(l), self.box_of(r)))
                    );
                }
            }
        }
        // The spine-only early exits must leave every box content equal to a
        // from-scratch recomputation (checked bottom-up, so the child gammas a
        // parent is checked against have themselves been validated first).
        for n in self.term.subtree_postorder(self.term.root()) {
            let b = self.box_of(n);
            let label = self.term_label(n);
            let expected = match self.term.children(n) {
                None => {
                    let node = self.term.leaf_tree_node(n).unwrap();
                    self.plan.leaf_content(label, node.0)
                }
                Some((l, r)) => internal_box_content(
                    self.plan.tva(),
                    label,
                    self.circuit.gamma(self.box_of(l)),
                    self.circuit.gamma(self.box_of(r)),
                ),
            };
            assert_eq!(
                *self.circuit.content(b),
                expected,
                "stale box content for {n:?}"
            );
        }
        // And every index entry must equal a from-scratch index build.
        let fresh = EnumIndex::build(&self.circuit);
        for b in self.circuit.boxes_postorder() {
            assert_eq!(self.index.of(b), fresh.of(b), "stale index entry for {b:?}");
        }
        self.circuit.validate();
    }

    /// The satisfying assignments computed by the brute-force oracle on the current
    /// tree (test helper; exponential, only for small trees).
    pub fn brute_force_oracle(&self, query: &StepwiseTva) -> Vec<Assignment> {
        let mut answers: Vec<Assignment> = query
            .satisfying_assignments(&self.tree)
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
        assert_eq!(stats.circuit_boxes, engine.term.len());
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
}
