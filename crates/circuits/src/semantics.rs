//! Set semantics of circuits (Definition 3.1), used as a test oracle.
//!
//! The captured set `S(g)` of every gate is computed explicitly as a set of
//! assignments, where an assignment is a `BTreeSet` of `(Var, leaf_token)` singletons.
//! This is exponential in general and only meant for validating the construction and
//! the enumeration algorithms on small circuits.

use crate::circuit::{BoxId, Circuit, Side, StateGate, UnionInput};
use std::collections::{BTreeSet, HashSet};
use treenum_automata::State;
use treenum_trees::valuation::Var;
use treenum_trees::Topology;

/// An explicit assignment: a set of `(variable, leaf token)` singletons.
pub type ExplicitAssignment = BTreeSet<(Var, u32)>;

/// The captured set of ∪-gate `gate` of box `b` of `circuit` over the tree
/// `shape`.
pub fn capture_union<S: Topology<BoxId>>(
    circuit: &Circuit,
    shape: &S,
    b: BoxId,
    gate: u32,
) -> HashSet<ExplicitAssignment> {
    let mut out = HashSet::new();
    for input in circuit.gate_inputs(shape, b, gate as usize) {
        match input {
            UnionInput::Var { vars, leaf_token } => {
                let assignment: ExplicitAssignment = vars.iter().map(|v| (v, leaf_token)).collect();
                out.insert(assignment);
            }
            UnionInput::Times { left, right } => {
                let (lb, rb) = shape.children(b).expect("×-gate in a leaf box");
                let ls = capture_union(circuit, shape, lb, left);
                let rs = capture_union(circuit, shape, rb, right);
                for a in &ls {
                    for c in &rs {
                        out.insert(a.union(c).cloned().collect());
                    }
                }
            }
            UnionInput::Child { side, gate } => {
                let (lb, rb) = shape.children(b).expect("child wire in a leaf box");
                let target = match side {
                    Side::Left => lb,
                    Side::Right => rb,
                };
                out.extend(capture_union(circuit, shape, target, gate));
            }
        }
    }
    out
}

/// The captured set `S(γ(b, q))` of the gate associated with state `q` in box `b`.
pub fn capture_state<S: Topology<BoxId>>(
    circuit: &Circuit,
    shape: &S,
    b: BoxId,
    q: State,
) -> HashSet<ExplicitAssignment> {
    match circuit.gamma(b).get(q.index()) {
        StateGate::Bot => HashSet::new(),
        StateGate::Top => {
            let mut s = HashSet::new();
            s.insert(ExplicitAssignment::new());
            s
        }
        StateGate::Union(u) => capture_union(circuit, shape, b, u),
    }
}

/// The captured set of a *boxed set*: the union over a set of ∪-gates of the same box
/// (Section 5).
pub fn capture_boxed_set<S: Topology<BoxId>>(
    circuit: &Circuit,
    shape: &S,
    b: BoxId,
    gates: &[u32],
) -> HashSet<ExplicitAssignment> {
    let mut out = HashSet::new();
    for &g in gates {
        out.extend(capture_union(circuit, shape, b, g));
    }
    out
}

/// Checks the key semantic invariant of structured DNNFs used by Lemma 5.1: for every
/// `×`-gate, the captured sets of its two inputs never share a leaf token (strict
/// decomposability along the v-tree).  Panics on violation.
pub fn check_decomposability<S: Topology<BoxId>>(circuit: &Circuit, shape: &S) {
    for b in shape.postorder() {
        for gi in 0..circuit.box_width(b) {
            for input in circuit.gate_inputs(shape, b, gi) {
                if let UnionInput::Times { left, right } = input {
                    let (lb, rb) = shape.children(b).expect("×-gate in a leaf box");
                    let ls = capture_union(circuit, shape, lb, left);
                    let rs = capture_union(circuit, shape, rb, right);
                    let l_tokens: HashSet<u32> = ls.iter().flatten().map(|&(_, t)| t).collect();
                    let r_tokens: HashSet<u32> = rs.iter().flatten().map(|&(_, t)| t).collect();
                    assert!(
                        l_tokens.is_disjoint(&r_tokens),
                        "×-gate in {:?} mixes leaf tokens from both sides",
                        b
                    );
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::build::build_assignment_circuit;
    use treenum_automata::binary::select_a_leaves;
    use treenum_trees::binary::BinaryTree;
    use treenum_trees::Alphabet;

    #[test]
    fn decomposability_holds_for_constructed_circuits() {
        let sigma = Alphabet::from_names(["a", "f"]);
        let a = sigma.get("a").unwrap();
        let f = sigma.get("f").unwrap();
        let tva = select_a_leaves(a, f, Var(0));
        let mut t = BinaryTree::leaf(a);
        let l1 = t.root();
        let l2 = t.add_leaf(a);
        let i1 = t.add_internal(f, l1, l2);
        let l3 = t.add_leaf(a);
        let root = t.add_internal(f, i1, l3);
        t.set_root(root);
        let circuit = build_assignment_circuit(&tva, &t);
        check_decomposability(&circuit, &t);
    }

    #[test]
    fn capture_state_of_top_and_bot() {
        let sigma = Alphabet::from_names(["a", "f"]);
        let a = sigma.get("a").unwrap();
        let f = sigma.get("f").unwrap();
        let tva = select_a_leaves(a, f, Var(0));
        let t = BinaryTree::leaf(a);
        let circuit = build_assignment_circuit(&tva, &t);
        let b = BoxId(t.root().0);
        // State 0 is a ⊤ (empty assignment only).
        let s0 = capture_state(&circuit, &t, b, State(0));
        assert_eq!(s0.len(), 1);
        assert!(s0.contains(&ExplicitAssignment::new()));
        // State 1 captures exactly {⟨x : root⟩}.
        let s1 = capture_state(&circuit, &t, b, State(1));
        assert_eq!(s1.len(), 1);
    }
}
