//! The simple enumeration algorithm *with duplicates* (Algorithm 1, Section 4).
//!
//! Kept as a baseline and as a cross-check for the duplicate-free algorithm: the
//! *set* of assignments it produces must coincide with Algorithm 2's output, and the
//! number of copies of each assignment equals the number of runs of the automaton
//! that produce it (the remark at the end of Section 4).

use crate::dedup::OutputAssignment;
use treenum_circuits::{BoxId, Circuit, Side, StateGate, UnionInput};
use treenum_trees::Topology;

/// Enumerates (by collecting) the assignments captured by ∪-gate `gate` of box `b`
/// of `circuit` over the tree `shape`, *with duplicates*, following Algorithm 1.
pub fn enumerate_union_with_duplicates<S: Topology<BoxId>>(
    circuit: &Circuit,
    shape: &S,
    b: BoxId,
    gate: u32,
) -> Vec<OutputAssignment> {
    let mut out = Vec::new();
    for input in circuit.gate_inputs(shape, b, gate as usize) {
        match input {
            UnionInput::Var { vars, leaf_token } => out.push(vec![(vars, leaf_token)]),
            UnionInput::Child { side, gate } => {
                let (l, r) = shape.children(b).expect("child wire in a leaf box");
                let target = match side {
                    Side::Left => l,
                    Side::Right => r,
                };
                out.extend(enumerate_union_with_duplicates(
                    circuit, shape, target, gate,
                ));
            }
            UnionInput::Times { left, right } => {
                let (l, r) = shape.children(b).expect("×-gate in a leaf box");
                let left_assignments = enumerate_union_with_duplicates(circuit, shape, l, left);
                let right_assignments = enumerate_union_with_duplicates(circuit, shape, r, right);
                for a in &left_assignments {
                    for c in &right_assignments {
                        let mut merged = a.clone();
                        merged.extend(c.iter().copied());
                        out.push(merged);
                    }
                }
            }
        }
    }
    out
}

/// Enumerates (with duplicates) the assignments captured by the gate `γ(b, q)` of a
/// state, including the `⊤` / `⊥` cases.
pub fn enumerate_state_with_duplicates<S: Topology<BoxId>>(
    circuit: &Circuit,
    shape: &S,
    b: BoxId,
    gamma_entry: StateGate,
) -> Vec<OutputAssignment> {
    match gamma_entry {
        StateGate::Bot => Vec::new(),
        StateGate::Top => vec![Vec::new()],
        StateGate::Union(u) => enumerate_union_with_duplicates(circuit, shape, b, u),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bitset::GateSet;
    use crate::boxenum::BoxEnumMode;
    use crate::dedup::enumerate_boxed_set;
    use crate::index::EnumIndex;
    use crate::machine::EnumSource;
    use std::collections::BTreeSet;
    use std::collections::HashSet;
    use std::ops::ControlFlow;
    use treenum_automata::binary::select_a_leaves;
    use treenum_circuits::build_assignment_circuit;
    use treenum_trees::binary::BinaryTree;
    use treenum_trees::valuation::Var;
    use treenum_trees::Alphabet;

    fn to_set(s: &OutputAssignment) -> BTreeSet<(Var, u32)> {
        s.iter()
            .flat_map(|&(vs, t)| vs.iter().map(move |v| (v, t)))
            .collect()
    }

    #[test]
    fn with_and_without_duplicates_agree_as_sets() {
        let sigma = Alphabet::from_names(["a", "f"]);
        let a = sigma.get("a").unwrap();
        let f = sigma.get("f").unwrap();
        let tva = select_a_leaves(a, f, Var(0));
        let mut t = BinaryTree::leaf(a);
        let mut cur = t.root();
        for _ in 0..6 {
            let l = t.add_leaf(a);
            cur = t.add_internal(f, cur, l);
        }
        t.set_root(cur);
        let c = build_assignment_circuit(&tva, &t);
        let index = EnumIndex::build(&c, &t);
        let root = BoxId(t.root().0);
        let width = c.box_width(root);
        for g in 0..width as u32 {
            let dupes = enumerate_union_with_duplicates(&c, &t, root, g);
            let dupe_set: HashSet<_> = dupes.iter().map(to_set).collect();
            let mut dedup: Vec<OutputAssignment> = Vec::new();
            let _ = enumerate_boxed_set(
                EnumSource::new(&c, &t, Some(&index), BoxEnumMode::Indexed),
                root,
                &GateSet::singleton(width, g as usize),
                &mut |s, _| {
                    dedup.push(s.clone());
                    ControlFlow::Continue(())
                },
            );
            let dedup_set: HashSet<_> = dedup.iter().map(to_set).collect();
            assert_eq!(dupe_set, dedup_set);
            assert_eq!(dedup.len(), dedup_set.len());
        }
    }

    #[test]
    fn top_and_bot_states() {
        let sigma = Alphabet::from_names(["a", "f"]);
        let a = sigma.get("a").unwrap();
        let f = sigma.get("f").unwrap();
        let tva = select_a_leaves(a, f, Var(0));
        let t = BinaryTree::leaf(a);
        let c = build_assignment_circuit(&tva, &t);
        let b = BoxId(t.root().0);
        assert_eq!(
            enumerate_state_with_duplicates(&c, &t, b, c.gamma(b).get(0)),
            vec![Vec::new()]
        );
    }
}
