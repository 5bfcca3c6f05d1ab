//! An `Iterator` over the resumable enumeration machine.
//!
//! The paper presents the enumeration as a process that pauses after each
//! output until the next value is requested (Section 4).  The machine
//! ([`crate::machine`]) is that process with its state kept in an
//! [`EnumScratch`], so the iterator simply advances it once per `next()`:
//! nothing runs ahead of the consumer, and dropping the iterator stops the
//! enumeration where it is.

use crate::dedup::OutputAssignment;
use crate::machine::EnumSource;
use crate::scratch::{EnumScratch, EnumStats};
use treenum_circuits::BoxId;
use treenum_trees::Topology;

/// A pull-based iterator over the assignments of a circuit root (see
/// [`crate::dedup::enumerate_root`] for the arguments).
pub struct AssignmentIter<'a, S> {
    src: EnumSource<'a, S>,
    scratch: EnumScratch,
}

impl<'a, S: Topology<BoxId>> AssignmentIter<'a, S> {
    /// Starts the enumeration of the root gates `root_gates` of `root_box`
    /// (preceded by the empty assignment when `empty_accepted` holds).
    pub fn new(
        src: EnumSource<'a, S>,
        root_box: BoxId,
        root_gates: &[u32],
        empty_accepted: bool,
    ) -> Self {
        let mut scratch = EnumScratch::new();
        scratch.start_root(src, root_box, root_gates, empty_accepted);
        AssignmentIter { src, scratch }
    }

    /// The counters of the iterator's scratch: `answers` is the number of
    /// answers produced so far.
    pub fn stats(&self) -> EnumStats {
        self.scratch.stats()
    }
}

impl<S: Topology<BoxId>> Iterator for AssignmentIter<'_, S> {
    type Item = OutputAssignment;

    fn next(&mut self) -> Option<Self::Item> {
        self.scratch
            .next_answer(self.src)
            .then(|| self.scratch.answer().clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::boxenum::BoxEnumMode;
    use crate::dedup::collect_all;
    use crate::index::EnumIndex;
    use treenum_automata::binary::select_a_leaves;
    use treenum_circuits::{build_assignment_circuit, Circuit};
    use treenum_trees::binary::BinaryTree;
    use treenum_trees::{Alphabet, Label, Var};

    /// A comb of `n + 1` `a`-leaves (or `f`-leaves when `a_leaves` is
    /// false) under `f`-nodes, with the select-`a`-leaves query.
    fn comb(n: usize, a_leaves: bool) -> (Circuit, BinaryTree, EnumIndex, Vec<u32>, bool) {
        let sigma = Alphabet::from_names(["a", "f"]);
        let a = sigma.get("a").unwrap();
        let f = sigma.get("f").unwrap();
        let leaf: Label = if a_leaves { a } else { f };
        let tva = select_a_leaves(a, f, Var(0));
        let mut t = BinaryTree::leaf(leaf);
        let mut cur = t.root();
        for _ in 0..n {
            let l = t.add_leaf(leaf);
            cur = t.add_internal(f, cur, l);
        }
        t.set_root(cur);
        let c = build_assignment_circuit(&tva, &t);
        let index = EnumIndex::build(&c, &t);
        let (gates, empty) = c.gamma(BoxId(cur.0)).boxed_set(tva.final_states());
        (c, t, index, gates, empty)
    }

    #[test]
    fn yields_all_items_then_ends() {
        let (c, t, index, gates, empty) = comb(4, true);
        let src = EnumSource::new(&c, &t, Some(&index), BoxEnumMode::Indexed);
        let root = BoxId(t.root().0);
        let items: Vec<_> = AssignmentIter::new(src, root, &gates, empty).collect();
        assert_eq!(items.len(), 5);
        let expected = collect_all(src, root, &gates, empty);
        assert_eq!(
            items, expected,
            "same answers, same order as the callback driver"
        );
    }

    #[test]
    fn dropping_the_iterator_stops_the_producer() {
        let (c, t, index, gates, empty) = comb(64, true);
        let src = EnumSource::new(&c, &t, Some(&index), BoxEnumMode::Indexed);
        let mut iter = AssignmentIter::new(src, BoxId(t.root().0), &gates, empty);
        assert!(iter.next().is_some());
        assert!(iter.next().is_some());
        // Pull-based: nothing was produced beyond what the consumer asked for.
        assert_eq!(iter.stats().answers, 2);
        drop(iter); // must not hang
    }

    #[test]
    fn empty_producer_yields_nothing() {
        let (c, t, index, gates, empty) = comb(3, false);
        assert!(gates.is_empty() && !empty, "no a-leaf, no answer");
        let src = EnumSource::new(&c, &t, Some(&index), BoxEnumMode::Indexed);
        let iter = AssignmentIter::new(src, BoxId(t.root().0), &gates, empty);
        assert_eq!(iter.count(), 0);
    }
}
