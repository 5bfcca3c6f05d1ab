//! Construction of assignment circuits (Lemma 3.7 and its appendix refinement).
//!
//! The construction is strictly bottom-up: the content of a box depends only on the
//! automaton, the label of the corresponding tree node, and the `γ` mappings of the
//! two child boxes.  This is the property that makes the circuit updatable along tree
//! hollowings (Lemma 7.3): after an update, only the boxes of the trunk need to be
//! recomputed.

use crate::circuit::{
    child_word, header_words, push_var_words, set_gate_start, times_word, BoxContent, BoxId,
    Circuit, Gamma, Side, StateGate,
};
use treenum_automata::BinaryTva;
use treenum_trees::binary::BinaryTree;
use treenum_trees::valuation::VarSet;
use treenum_trees::Label;

/// Reusable buffers the content builders write a record into, so building
/// a box's content allocates nothing once they have grown to the largest
/// box.
#[derive(Clone, Debug, Default)]
pub struct ContentStaging {
    /// `(state, key)` per input: `Y` of a var-gate, or the input word of a
    /// ×-gate or wire (see [`crate::circuit`]).
    inputs: Vec<(u32, u64)>,
    words: Vec<u64>,
}

impl ContentStaging {
    /// Starts a record over `num_states` states: `γ` all `⊥`, no inputs.
    fn begin(&mut self, num_states: usize) {
        self.inputs.clear();
        self.words.clear();
        self.words.resize(header_words(num_states, 0), 0);
    }

    /// Sets `γ(q) = ⊤`.
    #[inline]
    fn set_top(&mut self, q: usize) {
        self.words[q / 64] |= 1 << (q % 64);
    }

    /// Completes the record: one ∪-gate per state with inputs (in state
    /// order, unless the state is `⊤`), each gate's inputs sorted by key
    /// and deduplicated.  `var_keys` tells whether keys are var-gate sets
    /// (a leaf box) or input words (an internal box).
    // hot-path: the bulk of both builders; it writes only the staging
    // vectors.
    fn finish(&mut self, num_states: usize, var_keys: bool) -> BoxContent<'_> {
        let ContentStaging { inputs, words } = self;
        inputs.sort_unstable();
        inputs.dedup();
        // A `⊤` state gets no ∪-gate (and has no inputs when the automaton
        // is homogenized).
        inputs.retain(|&(q, _)| {
            let top = words[q as usize / 64] >> (q % 64) & 1 != 0;
            debug_assert!(
                !top,
                "automaton is not homogenized: state {q} captures both the empty and a non-empty assignment"
            );
            !top
        });
        let width = inputs.chunk_by(|a, b| a.0 == b.0).count();
        words.resize(header_words(num_states, width), 0);
        for (g, gate) in inputs.chunk_by(|a, b| a.0 == b.0).enumerate() {
            let i = num_states + gate[0].0 as usize;
            words[i / 64] |= 1 << (i % 64);
            if g > 0 {
                let at = words.len();
                set_gate_start(words, num_states, g, at);
            }
            for &(_, key) in gate {
                if var_keys {
                    push_var_words(words, VarSet(key));
                } else {
                    words.push(key);
                }
            }
        }
        BoxContent::new(words, num_states)
    }
}

/// Builds the content of a *leaf* box for a leaf with the given `label`,
/// following the leaf case of the appendix proof of Lemma 3.7:
///
/// * a 0-state `q` gets `⊤` iff `(l, ∅, q) ∈ ι`, else `⊥`;
/// * a 1-state `q` gets a ∪-gate over one var-gate `⟨Y : n⟩` per `(l, Y, q) ∈ ι`
///   with `Y ≠ ∅`, or `⊥` if there is none.
///
/// The record is written into `staging`.  It names no leaf: a var-gate's
/// leaf token is the token of the box the record is stored in.  The
/// automaton must be homogenized; mixed entries trigger a debug assertion.
// hot-path: runs once per rebuilt leaf box; every buffer it writes is a
// reused staging vector.
pub fn leaf_box_content<'s>(
    tva: &BinaryTva,
    label: Label,
    staging: &'s mut ContentStaging,
) -> BoxContent<'s> {
    let num_states = tva.num_states();
    staging.begin(num_states);
    for &(y, q) in tva.initial_for(label) {
        if y.is_empty() {
            staging.set_top(q.index());
        } else {
            staging.inputs.push((q.0, y.0));
        }
    }
    staging.finish(num_states, true)
}

/// Builds the content of an *internal* box for a node with the given `label`, from
/// the `γ` mappings of its two child boxes, following the internal case of the
/// appendix proof of Lemma 3.7:
///
/// * a 0-state `q` gets `⊤` iff some transition `(q₁, q₂, q) ∈ δ_l` has both children
///   mapped to `⊤`, else `⊥`;
/// * a 1-state `q` gets a ∪-gate over one input per transition `(q₁, q₂, q) ∈ δ_l`
///   whose children gates are not `⊥`: a `×`-gate when both are ∪-gates, or a direct
///   wire to the non-`⊤` side when the other side is `⊤` (this is how `⊤`-gates are
///   kept out of gate inputs).
///
/// The record is written into `staging`.
// hot-path: runs once per recomputed internal box; every buffer it writes
// is a reused staging vector.
pub fn internal_box_content<'s>(
    tva: &BinaryTva,
    label: Label,
    left_gamma: Gamma<'_>,
    right_gamma: Gamma<'_>,
    staging: &'s mut ContentStaging,
) -> BoxContent<'s> {
    let num_states = tva.num_states();
    debug_assert_eq!(left_gamma.num_states(), num_states);
    debug_assert_eq!(right_gamma.num_states(), num_states);
    staging.begin(num_states);
    for &(q1, q2, q) in tva.transitions_for(label) {
        let key = match (left_gamma.get(q1.index()), right_gamma.get(q2.index())) {
            (StateGate::Bot, _) | (_, StateGate::Bot) => continue,
            (StateGate::Top, StateGate::Top) => {
                staging.set_top(q.index());
                continue;
            }
            (StateGate::Top, StateGate::Union(u)) => child_word(Side::Right, u),
            (StateGate::Union(u), StateGate::Top) => child_word(Side::Left, u),
            (StateGate::Union(u1), StateGate::Union(u2)) => times_word(u1, u2),
        };
        staging.inputs.push((q.0, key));
    }
    staging.finish(num_states, false)
}

/// Builds the assignment circuit of a homogenized binary TVA on a binary tree
/// (Lemma 3.7): one box per tree node, named by the node's arena index,
/// processed bottom-up, in time `O(|T| × |A|)`.  The tree is the circuit's
/// [`treenum_trees::Topology`]; leaf tokens are the binary node identifiers.
/// The gates `γ(root, q)` of the final states (see [`Gamma::boxed_set`])
/// capture the non-empty satisfying assignments.
pub fn build_assignment_circuit(tva: &BinaryTva, tree: &BinaryTree) -> Circuit {
    let mut circuit = Circuit::new(tva.num_states());
    let mut staging = ContentStaging::default();
    for n in tree.postorder() {
        let label = tree.label(n);
        let content = match tree.children(n) {
            None => leaf_box_content(tva, label, &mut staging),
            Some((l, r)) => internal_box_content(
                tva,
                label,
                circuit.gamma(BoxId(l.0)),
                circuit.gamma(BoxId(r.0)),
                &mut staging,
            ),
        };
        circuit.set_content(BoxId(n.0), content);
    }
    circuit
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::circuit::UnionInput;
    use crate::semantics::capture_state;
    use treenum_automata::binary::select_a_leaves;
    use treenum_automata::State;
    use treenum_trees::valuation::{Var, VarSet};
    use treenum_trees::{Alphabet, Topology};

    fn chain_tree(depth: usize, leaf_label: Label, internal_label: Label) -> BinaryTree {
        let mut t = BinaryTree::leaf(leaf_label);
        let mut current = t.root();
        for _ in 0..depth {
            let l = t.add_leaf(leaf_label);
            current = t.add_internal(internal_label, current, l);
        }
        t.set_root(current);
        t
    }

    #[test]
    fn circuit_width_is_bounded_by_states_and_depth_by_height() {
        let sigma = Alphabet::from_names(["a", "f"]);
        let a = sigma.get("a").unwrap();
        let f = sigma.get("f").unwrap();
        let tva = select_a_leaves(a, f, Var(0));
        assert!(tva.is_homogenized());
        let tree = chain_tree(6, a, f);
        let circuit = build_assignment_circuit(&tva, &tree);
        circuit.validate(&tree);
        assert!(circuit.width() <= tva.num_states());
        assert_eq!(circuit.num_boxes(), tree.len());
        // The boxes' topology is the tree's.
        let depth = |n: BoxId| Topology::depth(&tree, n);
        assert_eq!(circuit.boxes().map(depth).max(), Some(tree.height()));
    }

    #[test]
    fn captured_sets_match_brute_force() {
        let sigma = Alphabet::from_names(["a", "f"]);
        let a = sigma.get("a").unwrap();
        let f = sigma.get("f").unwrap();
        let tva = select_a_leaves(a, f, Var(0));
        let tree = chain_tree(3, a, f);
        let circuit = build_assignment_circuit(&tva, &tree);
        // The root gate for the final state q1 must capture exactly the singletons
        // {⟨x : leaf⟩} for every a-leaf.
        let captured = capture_state(&circuit, &tree, BoxId(tree.root().0), State(1));
        let expected: std::collections::HashSet<_> = tva
            .satisfying_assignments(&tree)
            .into_iter()
            .map(|ass| {
                ass.into_iter()
                    .map(|(v, n)| (v, n.0))
                    .collect::<std::collections::BTreeSet<(Var, u32)>>()
            })
            .collect();
        assert_eq!(captured, expected);
        assert_eq!(captured.len(), tree.leaves().len());
    }

    #[test]
    fn leaf_box_content_respects_homogenization() {
        let sigma = Alphabet::from_names(["a", "f"]);
        let a = sigma.get("a").unwrap();
        let f = sigma.get("f").unwrap();
        let tva = select_a_leaves(a, f, Var(0));
        let mut staging = ContentStaging::default();
        let content = leaf_box_content(&tva, a, &mut staging);
        // State 0 (zero-state) gets ⊤, state 1 gets a ∪-gate over one var-gate.
        assert!(content.gamma().get(0).is_top());
        assert_eq!(content.gamma().get(1), StateGate::Union(0));
        assert_eq!(
            content.inputs(0, 7).collect::<Vec<_>>(),
            vec![UnionInput::Var {
                vars: VarSet::singleton(Var(0)),
                leaf_token: 7
            }]
        );
    }

    #[test]
    fn internal_box_uses_child_wires_for_top_sides() {
        let sigma = Alphabet::from_names(["a", "f"]);
        let a = sigma.get("a").unwrap();
        let f = sigma.get("f").unwrap();
        let tva = select_a_leaves(a, f, Var(0));
        let mut staging = ContentStaging::default();
        let leaf = leaf_box_content(&tva, a, &mut staging).words().to_vec();
        let leaf = BoxContent::new(&leaf, tva.num_states());
        let content = internal_box_content(&tva, f, leaf.gamma(), leaf.gamma(), &mut staging);
        // For the final state 1 the transitions are (q1,q0,q1) and (q0,q1,q1); both
        // have one ⊤ side, so the gate has two Child inputs and no ×-gate.
        let gate = content.gamma().get(1).union_index().unwrap() as usize;
        let inputs: Vec<_> = content.inputs(gate, 0).collect();
        assert_eq!(inputs.len(), 2);
        assert!(inputs.iter().all(|i| matches!(i, UnionInput::Child { .. })));
    }

    #[test]
    fn root_query_reports_empty_assignment_acceptance() {
        let sigma = Alphabet::from_names(["a", "f"]);
        let a = sigma.get("a").unwrap();
        let f = sigma.get("f").unwrap();
        // An automaton that accepts everything with the empty valuation: one 0-state, final.
        let mut tva = BinaryTva::new(1, 2, VarSet::empty());
        tva.add_initial(a, VarSet::empty(), State(0));
        tva.add_transition(f, State(0), State(0), State(0));
        tva.add_final(State(0));
        let tree = chain_tree(2, a, f);
        let circuit = build_assignment_circuit(&tva, &tree);
        let root = circuit.gamma(BoxId(tree.root().0));
        let (gates, empty) = root.boxed_set(tva.final_states());
        assert!(gates.is_empty());
        assert!(empty);
    }
}
