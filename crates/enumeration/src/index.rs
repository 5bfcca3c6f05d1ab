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
//! together with the set of target boxes (`closure`: all `fib`/`fbb` values, closed
//! under pairwise lca and sorted by preorder) and the reachability relation
//! `R(D, B)` for every target box `D`.
//!
//! Because every quantity of a box depends only on the box's own wires and on the
//! indexes of its two children, the index can be recomputed for exactly the boxes
//! that a tree hollowing dirties (Lemma 7.3).

use crate::relation::{child_relation, Relation};
use treenum_circuits::{BoxId, Circuit, Side, UnionInput};

/// Sentinel for "undefined" (`fbb` of a gate with no bidirectional box below it).
pub const UNDEFINED: u32 = u32::MAX;

/// The per-box part of the index.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct BoxIndex {
    /// Target boxes (descendants of this box, including possibly the box itself),
    /// sorted by preorder and closed under pairwise lca of the `fib`/`fbb` values.
    pub closure: Vec<BoxId>,
    /// `rel[i]` is the reachability relation `R(closure[i], B)`.
    pub rel: Vec<Relation>,
    /// `fib[g]`: index into `closure` of the first interesting box of gate `g`.
    pub fib: Vec<u32>,
    /// `fbb[g]`: index into `closure` of the first bidirectional box of gate `g`, or
    /// [`UNDEFINED`].
    pub fbb: Vec<u32>,
    /// The single-step relations `R(left child, B)` / `R(right child, B)`
    /// (`None` for leaf boxes).  They only depend on the box's own wires, so
    /// they are recomputed with the entry; storing them lets Algorithm 3's
    /// path walk compose child relations without re-deriving them from the
    /// wires at every step.
    pub child_rel: Option<Box<(Relation, Relation)>>,
}

impl BoxIndex {
    /// The stored child-step relations `(left, right)` of an internal box.
    #[inline]
    pub fn child_rels(&self) -> Option<(&Relation, &Relation)> {
        self.child_rel.as_deref().map(|(l, r)| (l, r))
    }
    /// The first interesting box of a non-empty gate set (Equation (1)): the
    /// preorder-minimal `fib(g)` over the set.  Returns the closure slot.
    pub fn fib_of_set(&self, gates: impl Iterator<Item = usize>) -> Option<u32> {
        gates.map(|g| self.fib[g]).min()
    }
}

/// Counters exposed by [`EnumIndex::stats`], tracking the allocation behaviour of
/// the hot rebuild path.
///
/// `rebuild_box` used to clone both child [`BoxIndex`] values (closures *and* all
/// stored reachability relations) on every call, which dominated per-edit update
/// cost.  The dense slab layout makes the clones structurally unnecessary:
/// `rebuild_box` reads the child entries in place.
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

/// The index structure `I(C)` for a whole circuit: a dense slab of per-box
/// entries parallel to the circuit's box arena (`BoxId` is an arena slot index,
/// so `slots[b.index()]` is the entry of box `b`).  No hashing on the per-answer
/// or per-edit path.
///
/// The index is strictly per-circuit (and hence per-query): when several
/// queries are evaluated over one tree — the serving layer's multiplexed
/// snapshots — each query's engine owns its own circuit and its own
/// `EnumIndex`, and they coexist without sharing mutable state.  Dropping a
/// query's engine (deregistration) drops exactly that query's index slab;
/// the others are untouched.
#[derive(Clone, Debug, Default)]
pub struct EnumIndex {
    slots: Vec<Option<BoxIndex>>,
    live: usize,
    stats: IndexStats,
}

impl EnumIndex {
    /// Builds the index for every box of the circuit, bottom-up.
    pub fn build(circuit: &Circuit) -> Self {
        let mut index = EnumIndex::default();
        index.slots.resize_with(circuit.arena_len(), || None);
        for b in circuit.boxes_postorder() {
            index.rebuild_box(circuit, b);
        }
        index
    }

    /// The index of box `b`.
    ///
    /// # Panics
    /// Panics if the box has no index entry (it was never built or was removed).
    pub fn of(&self, b: BoxId) -> &BoxIndex {
        self.get(b).expect("box has no index entry")
    }

    /// The index of box `b`, if present.
    #[inline]
    pub fn get(&self, b: BoxId) -> Option<&BoxIndex> {
        self.slots.get(b.index()).and_then(Option::as_ref)
    }

    /// `true` iff `b` has an index entry.
    pub fn has(&self, b: BoxId) -> bool {
        self.get(b).is_some()
    }

    /// Removes the index entry of `b` (used when a box is freed by an update).
    ///
    /// Tolerates boxes with no entry: a batch that deletes a whole subtree
    /// run frees boxes whose children were already removed earlier in the
    /// same batch (and arena slots freed then reused can be freed again), so
    /// removal must be idempotent rather than a panic.
    pub fn remove_box(&mut self, b: BoxId) {
        if let Some(slot) = self.slots.get_mut(b.index()) {
            if slot.take().is_some() {
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
    /// The child entries are read in place through shared borrows of the slab —
    /// no `BoxIndex` is cloned.
    // hot-path: the per-edit spine-repair step; the O(polylog) update bound
    // assumes it stays free of per-call allocation.
    pub fn rebuild_box(&mut self, circuit: &Circuit, b: BoxId) -> usize {
        let entry = self.compute_entry(circuit, b);
        let stored = entry.rel.len();
        self.store_entry(circuit, b, entry);
        stored
    }

    /// Like [`EnumIndex::rebuild_box`], but reports whether the stored entry
    /// actually changed.  The update path uses this to stop repairing the spine
    /// as soon as the recomputed entries fixpoint: an unchanged child entry
    /// cannot invalidate its parent's entry (the entry is a function of the
    /// box's own wires, the children's entries, and lca/preorder relationships
    /// between closure boxes, which edge splices below do not alter).
    // hot-path: the fixpoint variant of `rebuild_box`, same discipline.
    pub fn rebuild_box_changed(&mut self, circuit: &Circuit, b: BoxId) -> bool {
        let entry = self.compute_entry(circuit, b);
        if self.get(b) == Some(&entry) {
            self.stats.box_rebuilds += 1;
            return false;
        }
        self.store_entry(circuit, b, entry);
        true
    }

    fn store_entry(&mut self, circuit: &Circuit, b: BoxId, entry: BoxIndex) {
        if b.index() >= self.slots.len() {
            self.slots
                .resize_with(circuit.arena_len().max(b.index() + 1), || None);
        }
        self.stats.box_rebuilds += 1;
        self.stats.relations_stored += entry.rel.len() as u64;
        if self.slots[b.index()].replace(entry).is_none() {
            self.live += 1;
        }
    }

    /// Computes the entry of `b` from the circuit and the children's entries,
    /// without storing it.
    fn compute_entry(&self, circuit: &Circuit, b: BoxId) -> BoxIndex {
        let width = circuit.box_width(b);
        let gates = circuit.union_gates(b);

        // Per-gate wire summaries.
        let mut left_targets: Vec<Vec<u32>> = vec![Vec::new(); width];
        let mut right_targets: Vec<Vec<u32>> = vec![Vec::new(); width];
        let mut has_own: Vec<bool> = vec![false; width];
        for (gi, gate) in gates.iter().enumerate() {
            for input in &gate.inputs {
                match *input {
                    UnionInput::Var { .. } | UnionInput::Times { .. } => has_own[gi] = true,
                    UnionInput::Child {
                        side: Side::Left,
                        gate,
                    } => left_targets[gi].push(gate),
                    UnionInput::Child {
                        side: Side::Right,
                        gate,
                    } => right_targets[gi].push(gate),
                }
            }
        }

        let children = circuit.children(b);
        let left_index = children.map(|(l, _)| self.get(l).expect("child index missing"));
        let right_index = children.map(|(_, r)| self.get(r).expect("child index missing"));

        // fib(g), Equation (3): the box itself if the gate has a non-∪ input, else the
        // preorder-minimal fib over its ∪-inputs.  All left-subtree boxes precede all
        // right-subtree boxes in preorder.
        let mut fib_box: Vec<Option<BoxId>> = vec![None; width];
        let mut fbb_box: Vec<Option<BoxId>> = vec![None; width];
        for gi in 0..width {
            if has_own[gi] {
                fib_box[gi] = Some(b);
            } else if !left_targets[gi].is_empty() {
                let li = left_index.expect("left child wires without a left child");
                let slot = left_targets[gi]
                    .iter()
                    .map(|&g| li.fib[g as usize])
                    .min()
                    .unwrap();
                fib_box[gi] = Some(li.closure[slot as usize]);
            } else if !right_targets[gi].is_empty() {
                let ri = right_index.expect("right child wires without a right child");
                let slot = right_targets[gi]
                    .iter()
                    .map(|&g| ri.fib[g as usize])
                    .min()
                    .unwrap();
                fib_box[gi] = Some(ri.closure[slot as usize]);
            }
            // fbb(g), Equation (4): the box itself if the gate has wires into both
            // children; otherwise the lca of the fbb values of its wire targets
            // (which all live in a single child).
            if !left_targets[gi].is_empty() && !right_targets[gi].is_empty() {
                fbb_box[gi] = Some(b);
            } else if !left_targets[gi].is_empty() {
                let li = left_index.unwrap();
                fbb_box[gi] = lca_of_slots(circuit, li, &left_targets[gi]);
            } else if !right_targets[gi].is_empty() {
                let ri = right_index.unwrap();
                fbb_box[gi] = lca_of_slots(circuit, ri, &right_targets[gi]);
            }
        }

        // The closure: all fib/fbb targets plus pairwise lcas, sorted by preorder.
        let mut targets: Vec<BoxId> = fib_box
            .iter()
            .chain(fbb_box.iter())
            .filter_map(|o| *o)
            .collect();
        targets.sort_unstable();
        targets.dedup();
        let mut closure = targets.clone();
        for i in 0..targets.len() {
            for j in (i + 1)..targets.len() {
                closure.push(circuit.lca(targets[i], targets[j]));
            }
        }
        closure.sort_unstable();
        closure.dedup();
        closure.sort_by(|&x, &y| circuit.preorder_cmp(x, y));

        // Single-step child relations, computed once from the wires and both
        // stored in the entry and shared by the closure-relation computation
        // below (which used to rebuild them once per closure target).
        let child_steps: Option<Box<(Relation, Relation)>> = children.map(|_| {
            Box::new((
                child_relation(circuit, b, Side::Left),
                child_relation(circuit, b, Side::Right),
            ))
        });

        // Reachability relations to every closure box.
        let rel: Vec<Relation> = closure
            .iter()
            .map(|&d| {
                if d == b {
                    return Relation::identity(width);
                }
                let (l, r) = children.expect("a strict descendant needs children");
                let steps = child_steps.as_deref().expect("children imply steps");
                let (child, step) = if circuit.is_ancestor(l, d) {
                    (l, &steps.0)
                } else {
                    (r, &steps.1)
                };
                if child == d {
                    return step.clone();
                }
                // Child closure: every target below the child that this
                // box's closure names is an fib/fbb value of a child gate or
                // an lca of such values, so the child's lca-closed closure
                // holds it and stores its relation.
                let child_index = self.get(child).expect("child index missing");
                let pos = child_index.closure.iter().position(|&c| c == d).expect(
                    "child-closure invariant: a strict descendant target is in the child's closure",
                );
                child_index.rel[pos].compose(step)
            })
            .collect();

        let slot_of = |target: Option<BoxId>| -> u32 {
            match target {
                None => UNDEFINED,
                Some(t) => closure
                    .iter()
                    .position(|&c| c == t)
                    .expect("closure misses a target") as u32,
            }
        };
        let fib: Vec<u32> = fib_box.iter().map(|&t| slot_of(t)).collect();
        let fbb: Vec<u32> = fbb_box.iter().map(|&t| slot_of(t)).collect();

        BoxIndex {
            closure,
            rel,
            fib,
            fbb,
            child_rel: child_steps,
        }
    }
}

fn lca_of_slots(circuit: &Circuit, child_index: &BoxIndex, targets: &[u32]) -> Option<BoxId> {
    let mut boxes: Vec<BoxId> = targets
        .iter()
        .map(|&g| child_index.fbb[g as usize])
        .filter(|&slot| slot != UNDEFINED)
        .map(|slot| child_index.closure[slot as usize])
        .collect();
    if boxes.is_empty() {
        return None;
    }
    boxes.sort_unstable();
    boxes.dedup();
    let mut lca = boxes[0];
    for &b in &boxes[1..] {
        lca = circuit.lca(lca, b);
    }
    Some(lca)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::relation::relation_by_walking;
    use treenum_automata::binary::select_a_leaves;
    use treenum_circuits::build_assignment_circuit;
    use treenum_trees::binary::BinaryTree;
    use treenum_trees::{Alphabet, Var};

    fn build_sample(depth: usize) -> (treenum_circuits::AssignmentCircuit, BinaryTree) {
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

    #[test]
    fn index_builds_for_every_box() {
        let (ac, _t) = build_sample(5);
        let index = EnumIndex::build(&ac.circuit);
        assert_eq!(index.len(), ac.circuit.num_boxes());
        for b in ac.circuit.boxes_preorder() {
            let bi = index.of(b);
            assert_eq!(bi.fib.len(), ac.circuit.box_width(b));
            assert_eq!(bi.fbb.len(), ac.circuit.box_width(b));
            assert_eq!(bi.rel.len(), bi.closure.len());
            // Every fib must be defined (every ∪-gate reaches some var/× gate).
            assert!(bi.fib.iter().all(|&f| f != UNDEFINED));
            // The closure is preorder-sorted.
            for w in bi.closure.windows(2) {
                assert_eq!(
                    ac.circuit.preorder_cmp(w[0], w[1]),
                    std::cmp::Ordering::Less
                );
            }
        }
    }

    #[test]
    fn relations_in_index_match_walking() {
        let (ac, _t) = build_sample(6);
        let index = EnumIndex::build(&ac.circuit);
        for b in ac.circuit.boxes_preorder() {
            let bi = index.of(b);
            for (i, &d) in bi.closure.iter().enumerate() {
                let expected = relation_by_walking(&ac.circuit, b, d);
                assert_eq!(
                    bi.rel[i], expected,
                    "relation mismatch for {:?} -> {:?}",
                    d, b
                );
            }
        }
    }

    #[test]
    fn stored_child_relations_match_wire_derivation() {
        let (ac, _t) = build_sample(6);
        let index = EnumIndex::build(&ac.circuit);
        for b in ac.circuit.boxes_preorder() {
            let bi = index.of(b);
            match ac.circuit.children(b) {
                None => assert!(bi.child_rels().is_none()),
                Some(_) => {
                    let (l, r) = bi.child_rels().expect("internal box stores child steps");
                    assert_eq!(*l, child_relation(&ac.circuit, b, Side::Left));
                    assert_eq!(*r, child_relation(&ac.circuit, b, Side::Right));
                }
            }
        }
    }

    #[test]
    fn rebuild_path_never_clones_child_indexes() {
        // `rebuild_box` reads the child entries in place; rebuilding every
        // box again, as an update spine repair would, reproduces the built
        // entries.
        let (ac, _t) = build_sample(6);
        let mut index = EnumIndex::build(&ac.circuit);
        let built = index.clone();
        let boxes = ac.circuit.boxes_postorder();
        for &b in &boxes {
            index.rebuild_box(&ac.circuit, b);
        }
        let stats = index.stats();
        assert_eq!(stats.box_rebuilds, 2 * boxes.len() as u64);
        assert!(stats.relations_stored > 0);
        for &b in &boxes {
            assert_eq!(index.get(b), built.get(b), "box {b:?}");
        }
    }

    #[test]
    fn slab_tracks_removal_and_reuse() {
        let (ac, _t) = build_sample(4);
        let mut index = EnumIndex::build(&ac.circuit);
        let n = index.len();
        let root = ac.circuit.root();
        index.remove_box(root);
        assert_eq!(index.len(), n - 1);
        assert!(!index.has(root));
        index.rebuild_box(&ac.circuit, root);
        assert_eq!(index.len(), n);
        assert!(index.has(root));
    }

    #[test]
    fn remove_box_tolerates_already_removed_entries() {
        let (ac, _t) = build_sample(4);
        let mut index = EnumIndex::build(&ac.circuit);
        let n = index.len();
        let boxes = ac.circuit.boxes_postorder();
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
        for &b in &boxes {
            index.rebuild_box(&ac.circuit, b);
        }
        assert_eq!(index.len(), n);
    }

    #[test]
    fn record_batch_accumulates_counters() {
        let (ac, _t) = build_sample(3);
        let mut index = EnumIndex::build(&ac.circuit);
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
        let (ac, _t) = build_sample(4);
        let mut index = EnumIndex::build(&ac.circuit);
        let root = ac.circuit.root();
        let before = index.of(root).clone();
        index.rebuild_box(&ac.circuit, root);
        let after = index.of(root);
        assert_eq!(before.closure, after.closure);
        assert_eq!(before.fib, after.fib);
        assert_eq!(before.fbb, after.fbb);
    }
}
