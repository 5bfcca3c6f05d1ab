//! The word / document-spanner specialization (Theorem 8.5, Corollary 8.4).
//!
//! A word is encoded as an unranked tree: a virtual root whose children are the word
//! positions, one leaf per letter, in order.  A WVA (extended sequential variable-set
//! automaton) is converted to a stepwise TVA with [`treenum_automata::Wva::to_stepwise`],
//! and everything else is the tree machinery — which is exactly how the paper derives
//! its word results from the tree results.  Word edits (insert / delete / replace a
//! letter) become tree edits on the position leaves.

use crate::engine::TreeEnumerator;
use std::ops::ControlFlow;
use treenum_automata::Wva;
use treenum_trees::edit::EditOp;
use treenum_trees::unranked::{NodeId, UnrankedTree};
use treenum_trees::valuation::Var;
use treenum_trees::Label;

/// An edit on a word (Section 8: "the usual local edits").
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum WordEdit {
    /// Insert `letter` at position `at` (`at` may equal the current length to append).
    Insert { at: usize, letter: Label },
    /// Delete the letter at position `at`.
    Delete { at: usize },
    /// Replace the letter at position `at` by `letter`.
    Replace { at: usize, letter: Label },
}

/// The update-aware spanner evaluation structure for words (Theorem 8.5).
pub struct WordEnumerator {
    engine: TreeEnumerator,
    /// The position leaves, in word order.
    positions: Vec<NodeId>,
    root_label: Label,
}

impl WordEnumerator {
    /// Preprocessing: builds the enumeration structure for the spanner `wva` on
    /// `word`.  `alphabet_len` is the number of letters; the virtual root uses a
    /// fresh label `alphabet_len`.
    pub fn new(word: &[Label], wva: &Wva, alphabet_len: usize) -> Self {
        let root_label = Label(alphabet_len as u32);
        let stepwise = wva.to_stepwise(root_label);
        let mut tree = UnrankedTree::new(root_label);
        let mut positions = Vec::with_capacity(word.len());
        let root = tree.root();
        for &letter in word {
            positions.push(tree.insert_last_child(root, letter));
        }
        let engine = TreeEnumerator::new(tree, &stepwise, alphabet_len + 1);
        WordEnumerator {
            engine,
            positions,
            root_label,
        }
    }

    /// Current word length.
    pub fn len(&self) -> usize {
        self.positions.len()
    }

    /// `true` iff the word is empty.
    pub fn is_empty(&self) -> bool {
        self.positions.is_empty()
    }

    /// The current word.
    pub fn word(&self) -> Vec<Label> {
        self.positions
            .iter()
            .map(|&n| self.engine.tree().label(n))
            .collect()
    }

    /// Structural statistics of the underlying enumeration structure.
    pub fn stats(&self) -> crate::engine::EnumerationStats {
        self.engine.stats()
    }

    /// Enumerates every spanner match as a list of `(variable, position)` pairs,
    /// without duplicates.
    pub fn for_each(&self, sink: &mut dyn FnMut(Vec<(Var, usize)>) -> ControlFlow<()>) {
        // Map node ids back to current positions (a slab indexed by node id).
        let slots = self.positions.iter().map(|n| n.index() + 1).max();
        let mut position_of = vec![usize::MAX; slots.unwrap_or(0)];
        for (i, &n) in self.positions.iter().enumerate() {
            position_of[n.index()] = i;
        }
        self.engine.for_each(&mut |assignment| {
            let mut tuple: Vec<(Var, usize)> = assignment
                .singletons()
                .iter()
                .map(|s| (s.var, position_of[s.node.index()]))
                .collect();
            tuple.sort_unstable();
            sink(tuple)
        });
    }

    /// Collects all matches.
    pub fn matches(&self) -> Vec<Vec<(Var, usize)>> {
        let mut out = Vec::new();
        self.for_each(&mut |m| {
            out.push(m);
            ControlFlow::Continue(())
        });
        out
    }

    /// Counts the matches.
    pub fn count(&self) -> usize {
        let mut c = 0;
        self.for_each(&mut |_| {
            c += 1;
            ControlFlow::Continue(())
        });
        c
    }

    /// Applies a word edit, updating the enumeration structure in logarithmic time.
    pub fn apply(&mut self, edit: WordEdit) {
        match edit {
            WordEdit::Replace { at, letter } => {
                let node = self.positions[at];
                self.engine.apply(&EditOp::Relabel {
                    node,
                    label: letter,
                });
            }
            WordEdit::Delete { at } => {
                let node = self.positions.remove(at);
                self.engine.apply(&EditOp::DeleteLeaf { node });
            }
            WordEdit::Insert { at, letter } => {
                assert!(at <= self.positions.len());
                let op = if at == 0 {
                    EditOp::InsertFirstChild {
                        parent: self.engine.tree().root(),
                        label: letter,
                    }
                } else {
                    EditOp::InsertRightSibling {
                        sibling: self.positions[at - 1],
                        label: letter,
                    }
                };
                let fresh = self
                    .engine
                    .apply(&op)
                    .expect("insertion returns the new node");
                self.positions.insert(at, fresh);
            }
        }
        debug_assert_eq!(self.engine.tree().len(), self.positions.len() + 1);
        let _ = self.root_label;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;
    use treenum_automata::wva::spanners;

    fn letters(word: &str) -> Vec<Label> {
        word.bytes().map(|b| Label((b - b'a') as u32)).collect()
    }

    fn oracle(wva: &Wva, word: &[Label]) -> HashSet<Vec<(Var, usize)>> {
        wva.satisfying_assignments(word)
    }

    #[test]
    fn spanner_matches_agree_with_oracle() {
        let a = Label(0);
        let wva = spanners::select_letter(3, a, Var(0));
        let word = letters("abcabca");
        let engine = WordEnumerator::new(&word, &wva, 3);
        let produced: HashSet<_> = engine.matches().into_iter().collect();
        assert_eq!(produced, oracle(&wva, &word));
        assert_eq!(engine.count(), 3);
    }

    #[test]
    fn runs_spanner_agrees_with_oracle() {
        let a = Label(0);
        let wva = spanners::runs_of(3, a, Var(0), Var(1));
        let word = letters("baacab");
        let engine = WordEnumerator::new(&word, &wva, 3);
        let produced: HashSet<_> = engine.matches().into_iter().collect();
        assert_eq!(produced, oracle(&wva, &word));
    }

    #[test]
    fn word_edits_keep_matches_correct() {
        let a = Label(0);
        let b = Label(1);
        let wva = spanners::select_letter(3, a, Var(0));
        let word = letters("abcab");
        let mut engine = WordEnumerator::new(&word, &wva, 3);
        // Replace position 1 by 'a': now 3 matches.
        engine.apply(WordEdit::Replace { at: 1, letter: a });
        assert_eq!(engine.count(), 3);
        // Insert 'a' at the front: 4 matches.
        engine.apply(WordEdit::Insert { at: 0, letter: a });
        assert_eq!(engine.count(), 4);
        // Append 'b' then delete it again.
        let len = engine.len();
        engine.apply(WordEdit::Insert { at: len, letter: b });
        assert_eq!(engine.count(), 4);
        engine.apply(WordEdit::Delete {
            at: engine.len() - 1,
        });
        assert_eq!(engine.count(), 4);
        // Cross-check against the oracle on the final word.
        let produced: HashSet<_> = engine.matches().into_iter().collect();
        assert_eq!(produced, oracle(&wva, &engine.word()));
    }

    #[test]
    fn kth_from_end_spanner_under_updates() {
        let a = Label(0);
        let wva = spanners::kth_from_end(2, 3, a, Var(0));
        let word = letters("abbb");
        let mut engine = WordEnumerator::new(&word, &wva, 2);
        assert_eq!(engine.count(), oracle(&wva, &word).len());
        // Appending a letter shifts the "k-th from the end" position.
        engine.apply(WordEdit::Insert { at: 4, letter: a });
        let produced: HashSet<_> = engine.matches().into_iter().collect();
        assert_eq!(produced, oracle(&wva, &engine.word()));
    }
}
