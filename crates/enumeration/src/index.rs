//! The index structure `I(C)` of Definition 6.1, computed bottom-up per box
//! (Lemma 6.3).
//!
//! For every box `B` the index stores, for each ∪-gate `g` of `B`:
//!
//! * `fib(g)` — the first *interesting* box in the preorder traversal of the subtree
//!   of `box(g)` (a box is interesting for `g` if it contains a var- or ×-gate
//!   ∪-reachable from `g`);
//! * `fbb(g)` — the first *bidirectional* box for `{g}` (a box where the ∪-reachable
//!   wavefront of `g` has wires into both child boxes), when it exists;
//!
//! together with the set of target boxes (the *closure*: all `fib`/`fbb` values,
//! closed under pairwise lca and sorted by preorder) and the reachability relation
//! `R(D, B)` for every target box `D`.
//!
//! Because every quantity of a box depends only on the box's own wires and on the
//! indexes of its two children, the index can be recomputed for exactly the boxes
//! that a tree hollowing dirties (Lemma 7.3).
//!
//! # Layout
//!
//! Each box's entry is **one contiguous record of `u64` words** in a slab
//! shared by the whole index, read in place through a [`BoxRecord`] view.
//! With `w` the box's width, `wl`/`wr` its children's widths, `k` the
//! closure length and `p = ⌈w/64⌉` words per relation row (one word while
//! `w ≤ 64`), a record is:
//!
//! | words | content |
//! |---|---|
//! | 1 | header: `w`, `k`, `wl`, `wr` (16 bits each) |
//! | `wl·p`, `wr·p` | the child-step relations `R(left, B)`, `R(right, B)` |
//! | `w` | per gate: `fib` and `fbb` closure slots (16 bits each; the upper half is zero) |
//! | `k` | per closure slot: the target box (32 bits) and the record offset of its relation (32 bits) |
//! | `Σ w(D)·p` | the relations `R(D, B)`, one after the other, to the record's end |
//!
//! Everything a parent's entry reads of its children is in these words,
//! so a rebuild that reproduces them changes nothing above the box.  The
//! record holds no gate inputs: Algorithm 2 reads an emitted box's var-
//! and ×-gates from the circuit's content record, the one store of the
//! inputs.  Box topology (children, parent) is the tree's, read through
//! [`Topology`]; the header's child widths let an indexed walk step skip
//! the circuit, so it touches the table entry, the record and the tree
//! node.  A box's record depends on its subtree only, so a reparented box
//! keeps a valid record without a rebuild.
//!
//! Records live in the circuit crate's [`Slab`], the allocator the
//! circuit's content records use too: size-classed blocks reused through
//! free lists, carved from chunks that grow from 2⁸ to 2¹⁶ words.  The
//! per-box table of record addresses is a [`ChunkedVec`], so neither ever
//! grows by copying.

use crate::relation::{compose_rows, RelRef, Relation};
use treenum_circuits::{Block, BoxId, Circuit, Side, Slab, UnionInput};
use treenum_trees::{ChunkedVec, Topology};

/// Sentinel for "undefined" (`fbb` of a gate with no bidirectional box below it).
pub const UNDEFINED: u32 = u32::MAX;

/// A 16-bit record field with no value (an undefined `fib`/`fbb` slot).
const NO_SLOT: u64 = 0xFFFF;

/// A staged `fib`/`fbb` box that does not exist.
const NO_BOX: u32 = u32::MAX;

#[inline]
fn field16(word: u64, i: u32) -> usize {
    ((word >> (16 * i)) & 0xFFFF) as usize
}

#[inline]
fn hi32(word: u64) -> usize {
    (word >> 32) as usize
}

/// A borrowed view of one box's record (see the module docs for the
/// layout).  Two views are equal iff their records are word-for-word equal.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct BoxRecord<'a> {
    words: &'a [u64],
}

impl<'a> BoxRecord<'a> {
    /// The record's words.
    #[inline]
    pub fn words(&self) -> &'a [u64] {
        self.words
    }

    /// Number of ∪-gates of the box.
    #[inline]
    pub fn width(&self) -> usize {
        field16(self.words[0], 0)
    }

    /// Number of closure targets.
    #[inline]
    pub fn closure_len(&self) -> usize {
        field16(self.words[0], 1)
    }

    /// The widths of the left and right child boxes (`(0, 0)` for a leaf
    /// box).
    #[inline]
    pub fn child_widths(&self) -> (usize, usize) {
        (field16(self.words[0], 2), field16(self.words[0], 3))
    }

    #[inline]
    fn words_per_row(&self) -> usize {
        self.width().div_ceil(64)
    }

    #[inline]
    fn gates_at(&self) -> usize {
        let (wl, wr) = self.child_widths();
        1 + (wl + wr) * self.words_per_row()
    }

    #[inline]
    fn gate_word(&self, g: usize) -> u64 {
        self.words[self.gates_at() + g]
    }

    /// The single-step relation `R(side child, B)` (no rows for a leaf
    /// box).  It only depends on the box's own wires; storing it lets
    /// Algorithm 3's path walk compose child steps without re-deriving
    /// them from the wires at every step.
    #[inline]
    pub fn child_rel(&self, side: Side) -> RelRef<'a> {
        let (wl, wr) = self.child_widths();
        let p = self.words_per_row();
        let (at, rows) = match side {
            Side::Left => (1, wl),
            Side::Right => (1 + wl * p, wr),
        };
        RelRef::new(rows, self.width(), &self.words[at..at + rows * p])
    }

    /// `fib(g)`: the closure slot of gate `g`'s first interesting box, or
    /// [`UNDEFINED`].
    #[inline]
    pub fn fib(&self, g: usize) -> u32 {
        Self::slot(self.gate_word(g) & 0xFFFF)
    }

    /// `fbb(g)`: the closure slot of gate `g`'s first bidirectional box, or
    /// [`UNDEFINED`].
    #[inline]
    pub fn fbb(&self, g: usize) -> u32 {
        Self::slot((self.gate_word(g) >> 16) & 0xFFFF)
    }

    #[inline]
    fn slot(v: u64) -> u32 {
        if v == NO_SLOT {
            UNDEFINED
        } else {
            v as u32
        }
    }

    /// The first interesting box of the gates with a non-empty row in `r`
    /// (Equation (1)): the preorder-minimal `fib(g)` over them, as a
    /// closure slot.
    #[inline]
    pub fn fib_of_rows(&self, r: &Relation) -> Option<usize> {
        let gates = &self.words[self.gates_at()..][..self.width()];
        let mut best = NO_SLOT;
        for (gi, &word) in gates.iter().enumerate().take(r.rows()) {
            if !r.row_is_empty(gi) {
                best = best.min(word & 0xFFFF);
            }
        }
        (best != NO_SLOT).then_some(best as usize)
    }

    #[inline]
    fn closure_word(&self, slot: usize) -> u64 {
        self.words[self.gates_at() + self.width() + slot]
    }

    /// The target box in closure slot `slot`.
    #[inline]
    pub fn closure_box(&self, slot: usize) -> BoxId {
        BoxId(self.closure_word(slot) as u32)
    }

    /// The closure targets, in preorder.
    pub fn closure(&self) -> impl Iterator<Item = BoxId> + 'a {
        let at = self.gates_at() + self.width();
        self.words[at..at + self.closure_len()]
            .iter()
            .map(|&c| BoxId(c as u32))
    }

    /// The slot of closure target `d`, if `d` is one.
    #[inline]
    pub fn closure_slot_of(&self, d: BoxId) -> Option<usize> {
        let at = self.gates_at() + self.width();
        self.words[at..at + self.closure_len()]
            .iter()
            .position(|&c| c as u32 == d.0)
    }

    /// The reachability relation `R(closure_box(slot), B)`.
    #[inline]
    pub fn closure_rel(&self, slot: usize) -> RelRef<'a> {
        let at = hi32(self.closure_word(slot));
        let end = if slot + 1 < self.closure_len() {
            hi32(self.closure_word(slot + 1))
        } else {
            self.words.len()
        };
        let p = self.words_per_row();
        RelRef::new((end - at) / p, self.width(), &self.words[at..end])
    }
}

/// Counters exposed by [`EnumIndex::stats`], tracking the work of the
/// rebuild path.
///
/// `rebuild_box` reads the child records in place and builds the new record
/// in a reusable staging buffer, so a rebuild allocates nothing once the
/// slab and the staging buffer have warmed up.
/// The struct is `#[non_exhaustive]`: downstream code must read fields (or
/// destructure with `..`) rather than construct/match it exhaustively, so new
/// counters can be added without breaking callers.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
#[non_exhaustive]
pub struct IndexStats {
    /// Number of `rebuild_box` calls since the index was created.
    pub box_rebuilds: u64,
    /// Cumulative number of reachability relations computed and stored by
    /// rebuilds (one per closure entry).
    pub relations_stored: u64,
    /// Number of batch repair passes ([`EnumIndex::record_batch`] calls — one
    /// per `TreeEnumerator::apply_batch`, so one per `apply` too).
    pub batch_rebuilds: u64,
    /// Dirty-spine entries a batch repair skipped because an earlier edit of
    /// the same batch had already queued the node: edits landing in one
    /// subtree share most of their `O(log n)` spine, and this counter is the
    /// observable proof that the shared part is repaired once, not `k` times.
    pub spine_nodes_deduped: u64,
    /// Unique dirty-spine nodes actually repaired by batch passes (the
    /// deduplicated union's length, summed over batches).  Together with
    /// [`IndexStats::spine_nodes_deduped`] this makes the batch *sharing
    /// ratio* `deduped / (deduped + dirty)` observable — the fraction of
    /// reported spine nodes a batch did not have to repair.
    pub batch_dirty_nodes: u64,
    /// Dirty internal boxes a batch repair kept without recomputing their
    /// content, because their child links were intact and neither child's
    /// `γ` changed in the batch.  A subset of
    /// [`IndexStats::batch_dirty_nodes`].
    pub boxes_skipped: u64,
}

/// Reusable buffers `compute_entry` stages a record in, so a rebuild
/// allocates nothing once they have grown to the widest box.
#[derive(Clone, Debug, Default)]
struct Staging {
    /// Per gate: the `fib` / `fbb` box ([`NO_BOX`] if undefined).
    fib: Vec<u32>,
    fbb: Vec<u32>,
    targets: Vec<BoxId>,
    closure: Vec<BoxId>,
    record: Vec<u64>,
}

/// The index structure `I(C)` for a whole circuit: one record per box in a
/// word slab, found through a per-box table indexed by the box's arena slot
/// (see the module docs).  No hashing on the per-answer or per-edit path.
///
/// The index is strictly per-circuit (and hence per-query): when several
/// queries are evaluated over one tree — the serving layer's multiplexed
/// snapshots — each query's engine owns its own circuit and its own
/// `EnumIndex`, and they coexist without sharing mutable state.  Dropping a
/// query's engine (deregistration) drops exactly that query's slab; the
/// others are untouched.
#[derive(Clone, Debug, Default)]
pub struct EnumIndex {
    /// Per box: where its record lives ([`Block::NONE`] if it has none).
    table: ChunkedVec<Block>,
    slab: Slab,
    live: usize,
    stats: IndexStats,
    staging: Staging,
}

#[inline]
fn record_in<'a>(table: &ChunkedVec<Block>, slab: &'a Slab, b: BoxId) -> Option<BoxRecord<'a>> {
    let block = *table.get(b.index())?;
    (!block.is_none()).then(|| BoxRecord {
        words: slab.get(block),
    })
}

impl EnumIndex {
    /// Builds the index for every box of the circuit over the tree
    /// `shape`, bottom-up.
    pub fn build<S: Topology<BoxId>>(circuit: &Circuit, shape: &S) -> Self {
        let mut index = EnumIndex::default();
        for b in shape.postorder() {
            index.rebuild_box(circuit, shape, b);
        }
        index
    }

    /// The record of box `b`.
    ///
    /// # Panics
    /// Panics if the box has no record (it was never built or was removed).
    #[inline]
    pub fn of(&self, b: BoxId) -> BoxRecord<'_> {
        self.get(b).expect("box has no index entry")
    }

    /// The record of box `b`, if present.
    #[inline]
    pub fn get(&self, b: BoxId) -> Option<BoxRecord<'_>> {
        record_in(&self.table, &self.slab, b)
    }

    /// `true` iff `b` has an index entry.
    pub fn has(&self, b: BoxId) -> bool {
        self.table
            .get(b.index())
            .is_some_and(|block| !block.is_none())
    }

    /// Removes the index entry of `b` (used when a box is freed by an
    /// update), returning its block to the slab's free lists.
    ///
    /// Tolerates boxes with no entry: a batch that deletes a whole subtree
    /// run frees boxes whose children were already removed earlier in the
    /// same batch (and arena slots freed then reused can be freed again), so
    /// removal must be idempotent rather than a panic.
    pub fn remove_box(&mut self, b: BoxId) {
        if let Some(block) = self.table.get_mut(b.index()) {
            if !block.is_none() {
                self.slab.release(std::mem::take(block));
                self.live -= 1;
            }
        }
    }

    /// Number of boxes with an index entry.
    pub fn len(&self) -> usize {
        self.live
    }

    /// `true` iff the index is empty.
    pub fn is_empty(&self) -> bool {
        self.live == 0
    }

    /// Words held by the slab: records, free blocks and large chunks.
    pub fn slab_words(&self) -> usize {
        self.slab.words()
    }

    /// Words of the slab in free blocks, waiting for a record of their
    /// size class.
    pub fn free_words(&self) -> usize {
        self.slab.free_words()
    }

    /// Bytes of the per-box table of record addresses.
    pub fn table_bytes(&self) -> usize {
        self.table.len() * std::mem::size_of::<Block>()
    }

    /// Allocation counters of the rebuild path (see [`IndexStats`]).
    pub fn stats(&self) -> IndexStats {
        self.stats
    }

    /// Records one batch repair pass over a deduplicated dirty-spine union:
    /// `spine_nodes_deduped` is the number of dirty entries the batch skipped
    /// because an earlier edit of the same batch had already queued the node,
    /// and `dirty_nodes` is the length of the deduplicated union the pass
    /// then repaired, of which `boxes_skipped` kept their content without a
    /// recompute (see [`IndexStats::spine_nodes_deduped`],
    /// [`IndexStats::batch_dirty_nodes`] and [`IndexStats::boxes_skipped`]).
    pub fn record_batch(&mut self, spine_nodes_deduped: u64, dirty_nodes: u64, boxes_skipped: u64) {
        debug_assert!(boxes_skipped <= dirty_nodes);
        self.stats.batch_rebuilds += 1;
        self.stats.spine_nodes_deduped += spine_nodes_deduped;
        self.stats.batch_dirty_nodes += dirty_nodes;
        self.stats.boxes_skipped += boxes_skipped;
    }

    /// Recomputes the index entry of box `b`.  The entries of its children (if any)
    /// must already be up to date.  Returns the number of reachability relations
    /// stored for the box.
    ///
    /// The child records are read in place and the new record is staged in
    /// a reusable buffer, then copied into the slab.
    // hot-path: the per-edit spine-repair step; the O(polylog) update bound
    // assumes it stays free of per-call allocation.
    pub fn rebuild_box<S: Topology<BoxId>>(
        &mut self,
        circuit: &Circuit,
        shape: &S,
        b: BoxId,
    ) -> usize {
        self.compute_entry(circuit, shape, b);
        let stored = self.staged().closure_len();
        self.stats.box_rebuilds += 1;
        self.stats.relations_stored += stored as u64;
        self.store_staged(b);
        stored
    }

    /// Like [`EnumIndex::rebuild_box`], but stores the record only if it
    /// changed and reports whether it did.  The update path uses this to
    /// stop repairing the spine as soon as the recomputed entries fixpoint:
    /// an unchanged child entry cannot invalidate its parent's entry (the
    /// entry is a function of the box's own wires, the children's records,
    /// and lca/preorder relationships between closure boxes, which edge
    /// splices below do not alter).  A change to the box's var- or
    /// ×-inputs alone leaves the record as it is: the inputs live in the
    /// circuit only.
    // hot-path: the fixpoint variant of `rebuild_box`, same discipline.
    pub fn rebuild_box_changed<S: Topology<BoxId>>(
        &mut self,
        circuit: &Circuit,
        shape: &S,
        b: BoxId,
    ) -> bool {
        self.compute_entry(circuit, shape, b);
        self.stats.box_rebuilds += 1;
        let staged = self.staged();
        if self.get(b) == Some(staged) {
            return false;
        }
        self.stats.relations_stored += staged.closure_len() as u64;
        self.store_staged(b);
        true
    }

    /// The record `compute_entry` staged last.
    fn staged(&self) -> BoxRecord<'_> {
        BoxRecord {
            words: &self.staging.record,
        }
    }

    /// Copies the staged record into `b`'s block: in place while the old
    /// block fits it (see [`Slab::store`]), else into a new block.
    fn store_staged(&mut self, b: BoxId) {
        let slot = self.table.at_mut(b.index(), Block::NONE);
        if slot.is_none() {
            self.live += 1;
        }
        *slot = self.slab.store(*slot, &self.staging.record);
    }

    /// Computes the record of `b` from the circuit, the tree `shape` and the
    /// children's records into the staging buffer, without storing it.
    // hot-path: runs once per rebuilt box; every buffer it writes is a
    // reused staging vector.
    fn compute_entry<S: Topology<BoxId>>(&mut self, circuit: &Circuit, shape: &S, b: BoxId) {
        let EnumIndex {
            table,
            slab,
            staging,
            ..
        } = self;
        let width = circuit.box_width(b);
        let children = shape.children(b);
        let child_record = |c: BoxId| record_in(table, slab, c).expect("child index missing");
        let (left, right) = match children {
            Some((l, r)) => (Some(child_record(l)), Some(child_record(r))),
            None => (None, None),
        };
        let (wl, wr) = children.map_or((0, 0), |(l, r)| {
            (circuit.box_width(l), circuit.box_width(r))
        });

        // fib(g), Equation (3): the box itself if the gate has a non-∪ input, else the
        // preorder-minimal fib over its ∪-inputs.  All left-subtree boxes precede all
        // right-subtree boxes in preorder.
        // fbb(g), Equation (4): the box itself if the gate has wires into both
        // children; otherwise the lca of the fbb values of its wire targets
        // (which all live in a single child).
        staging.fib.clear();
        staging.fbb.clear();
        for gi in 0..width {
            let (mut own, mut fib_l, mut fib_r) = (false, UNDEFINED, UNDEFINED);
            let (mut to_left, mut to_right) = (false, false);
            for input in circuit.gate_inputs(shape, b, gi) {
                match input {
                    UnionInput::Var { .. } | UnionInput::Times { .. } => own = true,
                    UnionInput::Child { side, gate: g } => {
                        let (child, fib, to) = match side {
                            Side::Left => (left, &mut fib_l, &mut to_left),
                            Side::Right => (right, &mut fib_r, &mut to_right),
                        };
                        let child = child.expect("child wires without a child");
                        *fib = (*fib).min(child.fib(g as usize));
                        *to = true;
                    }
                }
            }
            let (child, slot) = if to_left {
                (left, fib_l)
            } else {
                (right, fib_r)
            };
            let fib = match child {
                _ if own => b.0,
                Some(c) if slot != UNDEFINED => c.closure_box(slot as usize).0,
                _ => NO_BOX,
            };
            let fbb = match (to_left, to_right) {
                (true, true) => b.0,
                (false, false) => NO_BOX,
                (true, false) => lca_of_fbbs(circuit, shape, left, b, gi, Side::Left),
                (false, true) => lca_of_fbbs(circuit, shape, right, b, gi, Side::Right),
            };
            staging.fib.push(fib);
            staging.fbb.push(fbb);
        }

        // The closure: all fib/fbb targets plus pairwise lcas, sorted by preorder
        // (distinct boxes, so the unstable sort is deterministic).
        let targets = &mut staging.targets;
        targets.clear();
        for &t in staging.fib.iter().chain(&staging.fbb) {
            if t != NO_BOX {
                targets.push(BoxId(t));
            }
        }
        targets.sort_unstable();
        targets.dedup();
        let closure = &mut staging.closure;
        closure.clear();
        closure.extend_from_slice(targets);
        for i in 0..targets.len() {
            for j in (i + 1)..targets.len() {
                closure.push(shape.lca(targets[i], targets[j]));
            }
        }
        closure.sort_unstable();
        closure.dedup();
        closure.sort_unstable_by(|&x, &y| shape.preorder_cmp(x, y));

        let k = closure.len();
        assert!(
            width.max(wl).max(wr) <= u16::MAX as usize && k < NO_SLOT as usize,
            "box too wide for a 16-bit record header"
        );
        let p = width.div_ceil(64);
        let rec = &mut staging.record;
        rec.clear();
        rec.push(width as u64 | (k as u64) << 16 | (wl as u64) << 32 | (wr as u64) << 48);

        // Single-step child relations, from the wires.
        let right_at = 1 + wl * p;
        let gates_at = right_at + wr * p;
        rec.resize(gates_at, 0);
        for gi in 0..width {
            for input in circuit.gate_inputs(shape, b, gi) {
                if let UnionInput::Child { side, gate: g } = input {
                    let at = if side == Side::Left { 1 } else { right_at };
                    rec[at + g as usize * p + gi / 64] |= 1 << (gi % 64);
                }
            }
        }

        let slot_of = |t: u32| -> u64 {
            if t == NO_BOX {
                return NO_SLOT;
            }
            let slot = closure.iter().position(|c| c.0 == t);
            slot.expect("closure misses a target") as u64
        };
        for (&f, &d) in staging.fib.iter().zip(&staging.fbb) {
            rec.push(slot_of(f) | slot_of(d) << 16);
        }

        // Reachability relations to every closure box.
        let closure_at = rec.len();
        rec.resize(closure_at + k, 0);
        for (i, &d) in closure.iter().enumerate() {
            let at = rec.len();
            rec[closure_at + i] = d.0 as u64 | (at as u64) << 32;
            if d == b {
                rec.resize(at + width * p, 0);
                for g in 0..width {
                    rec[at + g * p + g / 64] |= 1 << (g % 64);
                }
                continue;
            }
            let (l, _) = children.expect("a strict descendant needs children");
            let (child, child_rec, step_at, step_rows) = if shape.is_ancestor(l, d) {
                (l, left, 1, wl)
            } else {
                (children.expect("internal").1, right, right_at, wr)
            };
            if child == d {
                rec.extend_from_within(step_at..step_at + step_rows * p);
                continue;
            }
            // Child closure: every target below the child that this box's
            // closure names is an fib/fbb value of a child gate or an lca of
            // such values, so the child's lca-closed closure holds it and
            // stores its relation.
            let child_rec = child_rec.expect("child index missing");
            let pos = child_rec.closure_slot_of(d).expect(
                "child-closure invariant: a strict descendant target is in the child's closure",
            );
            let lower = child_rec.closure_rel(pos);
            rec.resize(at + lower.rows() * p, 0);
            let (head, out) = rec.split_at_mut(at);
            compose_rows(
                lower.rows(),
                lower.words(),
                lower.cols().div_ceil(64),
                &head[step_at..step_at + step_rows * p],
                p,
                out,
            );
        }
    }
}

/// The lca of the `fbb` boxes of the wires of gate `gi` of box `b` into
/// the `side` child (whose record is `child`), or [`NO_BOX`] if none is
/// defined.
fn lca_of_fbbs<S: Topology<BoxId>>(
    circuit: &Circuit,
    shape: &S,
    child: Option<BoxRecord<'_>>,
    b: BoxId,
    gi: usize,
    side: Side,
) -> u32 {
    let child = child.expect("child wires without a child");
    let mut lca: Option<BoxId> = None;
    for input in circuit.gate_inputs(shape, b, gi) {
        let UnionInput::Child { side: s, gate: g } = input else {
            continue;
        };
        let slot = child.fbb(g as usize);
        if s != side || slot == UNDEFINED {
            continue;
        }
        let x = child.closure_box(slot as usize);
        lca = Some(match lca {
            Some(l) if l != x => shape.lca(l, x),
            _ => x,
        });
    }
    lca.map_or(NO_BOX, |l| l.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::boxenum::BoxEnumMode;
    use crate::dedup::collect_all;
    use crate::machine::EnumSource;
    use crate::relation::{child_relation, relation_by_walking};
    use treenum_automata::binary::select_a_leaves;
    use treenum_circuits::{build_assignment_circuit, leaf_box_content, ContentStaging};
    use treenum_trees::binary::BinaryTree;
    use treenum_trees::valuation::VarSet;
    use treenum_trees::{Alphabet, Var};

    fn build_sample(depth: usize) -> (Circuit, BinaryTree) {
        let sigma = Alphabet::from_names(["a", "f"]);
        let a = sigma.get("a").unwrap();
        let f = sigma.get("f").unwrap();
        let tva = select_a_leaves(a, f, Var(0));
        let mut t = BinaryTree::leaf(a);
        let mut cur = t.root();
        for _ in 0..depth {
            let l = t.add_leaf(a);
            cur = t.add_internal(f, cur, l);
        }
        t.set_root(cur);
        (build_assignment_circuit(&tva, &t), t)
    }

    /// The boxes of a circuit built on `t`, children first.
    fn boxes(t: &BinaryTree) -> Vec<BoxId> {
        Topology::postorder(t)
    }

    fn root(t: &BinaryTree) -> BoxId {
        Topology::root(t)
    }

    #[test]
    fn index_builds_for_every_box() {
        let (c, t) = build_sample(5);
        let index = EnumIndex::build(&c, &t);
        assert_eq!(index.len(), c.num_boxes());
        for b in boxes(&t) {
            let bi = index.of(b);
            let width = c.box_width(b);
            assert_eq!(bi.width(), width);
            // Every fib must be defined (every ∪-gate reaches some var/× gate),
            // and every fib/fbb names a closure slot.
            for g in 0..width {
                assert!((bi.fib(g) as usize) < bi.closure_len());
                assert!(bi.fbb(g) == UNDEFINED || (bi.fbb(g) as usize) < bi.closure_len());
            }
            // The closure is preorder-sorted.
            let closure: Vec<BoxId> = bi.closure().collect();
            assert_eq!(closure.len(), bi.closure_len());
            for w in closure.windows(2) {
                assert_eq!(t.preorder_cmp(w[0], w[1]), std::cmp::Ordering::Less);
            }
        }
    }

    #[test]
    fn relations_in_index_match_walking() {
        let (c, t) = build_sample(6);
        let index = EnumIndex::build(&c, &t);
        for b in boxes(&t) {
            let bi = index.of(b);
            for (i, d) in bi.closure().enumerate() {
                let expected = relation_by_walking(&c, &t, b, d);
                assert_eq!(
                    bi.closure_rel(i).to_relation(),
                    expected,
                    "relation mismatch for {:?} -> {:?}",
                    d,
                    b
                );
            }
        }
    }

    #[test]
    fn stored_child_relations_match_wire_derivation() {
        let (c, t) = build_sample(6);
        let index = EnumIndex::build(&c, &t);
        for b in boxes(&t) {
            let bi = index.of(b);
            match Topology::children(&t, b) {
                None => {
                    assert_eq!(bi.child_rel(Side::Left).rows(), 0);
                    assert_eq!(bi.child_rel(Side::Right).rows(), 0);
                }
                Some(_) => {
                    for side in [Side::Left, Side::Right] {
                        assert_eq!(
                            bi.child_rel(side).to_relation(),
                            child_relation(&c, &t, b, side)
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn rebuild_path_never_clones_child_indexes() {
        // `rebuild_box` reads the child records in place; rebuilding every
        // box again, as an update spine repair would, reproduces the built
        // records in the blocks they already had.
        let (c, t) = build_sample(6);
        let mut index = EnumIndex::build(&c, &t);
        let built = index.clone();
        let words = index.slab_words();
        let boxes = boxes(&t);
        for &b in &boxes {
            index.rebuild_box(&c, &t, b);
        }
        let stats = index.stats();
        assert_eq!(stats.box_rebuilds, 2 * boxes.len() as u64);
        assert!(stats.relations_stored > 0);
        assert_eq!(index.slab_words(), words, "same-size records stay in place");
        for &b in &boxes {
            assert_eq!(index.get(b), built.get(b), "box {b:?}");
        }
    }

    #[test]
    fn slab_tracks_removal_and_reuse() {
        let (c, t) = build_sample(4);
        let mut index = EnumIndex::build(&c, &t);
        let n = index.len();
        let words = index.slab_words();
        let root = root(&t);
        let free = index.free_words();
        index.remove_box(root);
        assert_eq!(index.len(), n - 1);
        assert!(!index.has(root));
        assert!(index.free_words() > free, "the root's block is free");
        index.rebuild_box(&c, &t, root);
        assert_eq!(index.len(), n);
        assert!(index.has(root));
        assert_eq!(index.free_words(), free, "the freed block is reused");
        assert_eq!(index.slab_words(), words);
    }

    #[test]
    fn remove_box_tolerates_already_removed_entries() {
        let (c, t) = build_sample(4);
        let mut index = EnumIndex::build(&c, &t);
        let n = index.len();
        let boxes = boxes(&t);
        // Remove a whole run bottom-up, then remove everything again: the
        // second pass (children already gone) must be a no-op, as must
        // removing a slot that never had an entry.
        for &b in &boxes {
            index.remove_box(b);
        }
        assert_eq!(index.len(), 0);
        for &b in &boxes {
            index.remove_box(b);
        }
        index.remove_box(BoxId(u32::MAX - 1));
        assert_eq!(index.len(), 0);
        let words = index.slab_words();
        for &b in &boxes {
            index.rebuild_box(&c, &t, b);
        }
        assert_eq!(index.len(), n);
        assert_eq!(
            index.slab_words(),
            words,
            "every record refills a freed block"
        );
    }

    #[test]
    fn record_batch_accumulates_counters() {
        let (c, t) = build_sample(3);
        let mut index = EnumIndex::build(&c, &t);
        assert_eq!(index.stats().batch_rebuilds, 0);
        index.record_batch(5, 11, 7);
        index.record_batch(0, 2, 0);
        let stats = index.stats();
        assert_eq!(stats.batch_rebuilds, 2);
        assert_eq!(stats.spine_nodes_deduped, 5);
        assert_eq!(stats.batch_dirty_nodes, 13);
        assert_eq!(stats.boxes_skipped, 7);
    }

    #[test]
    fn rebuild_box_is_idempotent() {
        let (c, t) = build_sample(4);
        let mut index = EnumIndex::build(&c, &t);
        let root = root(&t);
        let before = index.of(root).words().to_vec();
        index.rebuild_box(&c, &t, root);
        assert_eq!(index.of(root).words(), &before[..]);
        assert!(!index.rebuild_box_changed(&c, &t, root));
    }

    #[test]
    fn a_var_label_change_leaves_the_record_unwritten() {
        let (mut c, t) = build_sample(4);
        let mut index = EnumIndex::build(&c, &t);
        let leaf = boxes(&t)
            .into_iter()
            .find(|&b| Topology::children(&t, b).is_none() && c.box_width(b) > 0)
            .expect("a leaf with ∪-gates");
        // The same automaton selecting into another variable: the same
        // gates and the same γ, with other var-gate labels.
        let sigma = Alphabet::from_names(["a", "f"]);
        let (a, f) = (sigma.get("a").unwrap(), sigma.get("f").unwrap());
        let tva = select_a_leaves(a, f, Var(1));
        let mut staging = ContentStaging::default();
        let content = leaf_box_content(&tva, a, &mut staging);
        assert_eq!(content.gamma(), c.gamma(leaf));
        assert_ne!(content, c.content(leaf), "the labels differ");
        c.set_content(leaf, content);
        let before = index.of(leaf).words().to_vec();
        let (stats, words) = (index.stats(), index.slab_words());
        assert!(
            !index.rebuild_box_changed(&c, &t, leaf),
            "new var-gate labels leave the record as it was"
        );
        assert_eq!(index.of(leaf).words(), &before[..]);
        assert_eq!(index.stats().box_rebuilds, stats.box_rebuilds + 1);
        assert_eq!(index.stats().relations_stored, stats.relations_stored);
        assert_eq!(index.slab_words(), words);

        // An indexed run reads the new labels from the circuit.
        let root = root(&t);
        let (gates, empty) = c.gamma(root).boxed_set(tva.final_states());
        let run = |mode| {
            let src = EnumSource::new(&c, &t, Some(&index), mode);
            let mut answers = collect_all(src, root, &gates, empty);
            answers.sort_unstable();
            answers
        };
        let indexed = run(BoxEnumMode::Indexed);
        assert_eq!(indexed, run(BoxEnumMode::Reference), "as sets");
        let token = Topology::leaf_token(&t, leaf).expect("a leaf token");
        let x1 = VarSet::singleton(Var(1));
        assert!(indexed.contains(&vec![(x1, token)]), "{indexed:?}");
        assert!(indexed
            .iter()
            .flatten()
            .all(|&(vars, tok)| tok != token || vars == x1));
    }
}
