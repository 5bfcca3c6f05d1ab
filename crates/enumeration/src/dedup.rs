//! Duplicate-free enumeration with provenance (Algorithm 2, Theorem 5.3).
//!
//! Given a boxed set `Γ`, [`enumerate_boxed_set`] enumerates `S(Γ)` without
//! duplicates.  For every produced assignment `S` it also reports the provenance
//! `Prov(S, Γ) = {g ∈ Γ | S ∈ S(g)}`, which is what the nested enumerations of
//! the inputs of ×-gates need in order to avoid duplicates across multiple
//! ×-gates (see Section 5 of the paper).
//!
//! These entry points are callback-driven drivers of the resumable
//! enumeration machine ([`crate::machine`]): the caller supplies a sink that
//! may stop the enumeration early by returning [`ControlFlow::Break`].  All
//! grouping, provenance and assignment storage lives in an [`EnumScratch`]
//! and is reused across answers, so a warm steady-state enumeration performs
//! no heap allocation (the [`crate::scratch::EnumStats`] counters guard
//! this).  Use the `*_with` entry points to reuse a scratch across
//! enumerations; the plain entry points create a throwaway one.

use crate::bitset::GateSet;
use crate::machine::EnumSource;
use crate::scratch::EnumScratch;
use std::ops::ControlFlow;
use treenum_circuits::BoxId;
use treenum_trees::valuation::VarSet;
use treenum_trees::Topology;

/// An assignment as produced by the enumerator: a list of `⟨Y : leaf_token⟩` parts.
/// Leaf tokens are distinct across parts (decomposability), so the total size `|S|`
/// is the sum of the `VarSet` sizes.
pub type OutputAssignment = Vec<(VarSet, u32)>;

/// The sink type receiving `(assignment, provenance)` pairs.
pub type AssignmentSink<'s> = dyn FnMut(&OutputAssignment, &GateSet) -> ControlFlow<()> + 's;

/// Enumerates `S(Γ)` for the boxed set `gamma` of box `b` of `src`, without
/// duplicates, reporting each assignment together with its provenance
/// relative to `gamma`.
///
/// Creates a throwaway [`EnumScratch`]; callers with repeated enumerations
/// should use [`enumerate_boxed_set_with`] to keep the pools warm.
pub fn enumerate_boxed_set<S: Topology<BoxId>>(
    src: EnumSource<'_, S>,
    b: BoxId,
    gamma: &GateSet,
    sink: &mut AssignmentSink<'_>,
) -> ControlFlow<()> {
    enumerate_boxed_set_with(&mut EnumScratch::new(), src, b, gamma, sink)
}

/// [`enumerate_boxed_set`] with a caller-provided scratch (the allocation-free
/// steady-state entry point).
pub fn enumerate_boxed_set_with<S: Topology<BoxId>>(
    scratch: &mut EnumScratch,
    src: EnumSource<'_, S>,
    b: BoxId,
    gamma: &GateSet,
    sink: &mut AssignmentSink<'_>,
) -> ControlFlow<()> {
    scratch.start_boxed_set(src, b, gamma);
    drive(scratch, src, &mut |s: &EnumScratch| {
        sink(s.answer(), s.provenance())
    })
}

/// Enumerates all satisfying assignments represented by the root of an assignment
/// circuit: the empty assignment first when `empty_accepted` holds, then the
/// assignments captured by the root gates `root_gates` (the ∪-gates `γ(root, q_f)`
/// of the final states).
pub fn enumerate_root<S: Topology<BoxId>>(
    src: EnumSource<'_, S>,
    root_box: BoxId,
    root_gates: &[u32],
    empty_accepted: bool,
    sink: &mut dyn FnMut(&OutputAssignment) -> ControlFlow<()>,
) -> ControlFlow<()> {
    enumerate_root_with(
        &mut EnumScratch::new(),
        src,
        root_box,
        root_gates,
        empty_accepted,
        sink,
    )
}

/// [`enumerate_root`] with a caller-provided scratch (the allocation-free
/// steady-state entry point).
pub fn enumerate_root_with<S: Topology<BoxId>>(
    scratch: &mut EnumScratch,
    src: EnumSource<'_, S>,
    root_box: BoxId,
    root_gates: &[u32],
    empty_accepted: bool,
    sink: &mut dyn FnMut(&OutputAssignment) -> ControlFlow<()>,
) -> ControlFlow<()> {
    scratch.start_root(src, root_box, root_gates, empty_accepted);
    drive(scratch, src, &mut |s: &EnumScratch| sink(s.answer()))
}

/// Feeds every answer of the started run to `sink`; a break abandons the
/// run, returning its buffers to the pools.
fn drive<S: Topology<BoxId>>(
    scratch: &mut EnumScratch,
    src: EnumSource<'_, S>,
    sink: &mut dyn FnMut(&EnumScratch) -> ControlFlow<()>,
) -> ControlFlow<()> {
    while scratch.next_answer(src) {
        if sink(scratch).is_break() {
            scratch.abandon();
            return ControlFlow::Break(());
        }
    }
    ControlFlow::Continue(())
}

/// Convenience wrapper collecting all assignments into a vector (tests, baselines,
/// small outputs).
pub fn collect_all<S: Topology<BoxId>>(
    src: EnumSource<'_, S>,
    root_box: BoxId,
    root_gates: &[u32],
    empty_accepted: bool,
) -> Vec<OutputAssignment> {
    let mut out = Vec::new();
    let _ = enumerate_root(src, root_box, root_gates, empty_accepted, &mut |s| {
        out.push(s.clone());
        ControlFlow::Continue(())
    });
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::boxenum::BoxEnumMode;
    use crate::index::EnumIndex;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use std::collections::BTreeSet;
    use std::collections::HashSet;
    use treenum_automata::binary::select_a_leaves;
    use treenum_automata::{BinaryTva, State};
    use treenum_circuits::build_assignment_circuit;
    use treenum_circuits::semantics::capture_boxed_set;
    use treenum_circuits::Circuit;
    use treenum_trees::binary::BinaryTree;
    use treenum_trees::valuation::{Var, VarSet};
    use treenum_trees::{Alphabet, Label};

    fn to_explicit(s: &OutputAssignment) -> BTreeSet<(Var, u32)> {
        s.iter()
            .flat_map(|&(vars, token)| vars.iter().map(move |v| (v, token)))
            .collect()
    }

    fn random_binary_tree(size: usize, num_labels: usize, seed: u64) -> BinaryTree {
        let mut rng = StdRng::seed_from_u64(seed);
        let label = |rng: &mut StdRng| Label(rng.gen_range(0..num_labels as u32));
        let l0 = label(&mut rng);
        let mut t = BinaryTree::leaf(l0);
        let mut roots = vec![t.root()];
        while roots.len() < size {
            if roots.len() >= 2 && rng.gen_bool(0.5) {
                let i = rng.gen_range(0..roots.len());
                let a = roots.swap_remove(i);
                let j = rng.gen_range(0..roots.len());
                let b = roots.swap_remove(j);
                roots.push(t.add_internal(label(&mut rng), a, b));
            } else {
                roots.push(t.add_leaf(label(&mut rng)));
            }
        }
        while roots.len() > 1 {
            let a = roots.pop().unwrap();
            let b = roots.pop().unwrap();
            roots.push(t.add_internal(label(&mut rng), a, b));
        }
        t.set_root(roots[0]);
        t
    }

    fn random_tva(num_labels: usize, num_states: usize, num_vars: usize, seed: u64) -> BinaryTva {
        let mut rng = StdRng::seed_from_u64(seed);
        let vars = VarSet::first_n(num_vars);
        let var_subsets = treenum_trees::valuation::subsets(vars);
        let mut tva = BinaryTva::new(num_states, num_labels, vars);
        for l in 0..num_labels as u32 {
            for q in 0..num_states as u32 {
                for &y in &var_subsets {
                    if rng.gen_bool(0.35) {
                        tva.add_initial(Label(l), y, State(q));
                    }
                }
            }
            for _ in 0..(num_states * num_states) {
                let q1 = State(rng.gen_range(0..num_states as u32));
                let q2 = State(rng.gen_range(0..num_states as u32));
                let q = State(rng.gen_range(0..num_states as u32));
                tva.add_transition(Label(l), q1, q2, q);
            }
        }
        for q in 0..num_states as u32 {
            if rng.gen_bool(0.5) {
                tva.add_final(State(q));
            }
        }
        tva.homogenize()
    }

    #[test]
    fn enumeration_matches_brute_force_on_select_query() {
        let sigma = Alphabet::from_names(["a", "f"]);
        let a = sigma.get("a").unwrap();
        let f = sigma.get("f").unwrap();
        let tva = select_a_leaves(a, f, Var(0));
        let tree = random_binary_tree(21, 1, 7);
        // Relabel internal nodes to f, leaves to a (random tree uses only label 0).
        let mut tree2 = BinaryTree::leaf(a);
        fn rebuild(
            src: &BinaryTree,
            n: treenum_trees::binary::BinaryNodeId,
            dst: &mut BinaryTree,
            a: Label,
            f: Label,
        ) -> treenum_trees::binary::BinaryNodeId {
            match src.children(n) {
                None => dst.add_leaf(a),
                Some((l, r)) => {
                    let nl = rebuild(src, l, dst, a, f);
                    let nr = rebuild(src, r, dst, a, f);
                    dst.add_internal(f, nl, nr)
                }
            }
        }
        let root = rebuild(&tree, tree.root(), &mut tree2, a, f);
        tree2.set_root(root);

        let c = build_assignment_circuit(&tva, &tree2);
        let index = EnumIndex::build(&c, &tree2);
        let root = BoxId(tree2.root().0);
        let (gates, empty) = c.gamma(root).boxed_set(tva.final_states());
        for mode in [BoxEnumMode::Reference, BoxEnumMode::Indexed] {
            let src = EnumSource::new(&c, &tree2, Some(&index), mode);
            let produced = collect_all(src, root, &gates, empty);
            let as_sets: HashSet<_> = produced.iter().map(to_explicit).collect();
            assert_eq!(
                as_sets.len(),
                produced.len(),
                "duplicates produced in mode {:?}",
                mode
            );
            let expected: HashSet<_> = tva
                .satisfying_assignments(&tree2)
                .into_iter()
                .map(|ass| {
                    ass.into_iter()
                        .map(|(v, n)| (v, n.0))
                        .collect::<BTreeSet<_>>()
                })
                .collect();
            assert_eq!(as_sets, expected, "mode {:?}", mode);
        }
    }

    /// Random automata occasionally capture a combinatorially exploding answer
    /// set, and the oracle cross-checks materialize every assignment — so the
    /// tests below probe with a capped reference enumeration first and skip
    /// instances too large to check exhaustively.
    fn answer_count_exceeds(
        circuit: &Circuit,
        tree: &BinaryTree,
        root: BoxId,
        gamma: &GateSet,
        cap: usize,
    ) -> bool {
        let mut count = 0usize;
        let src = EnumSource::new(circuit, tree, None, BoxEnumMode::Reference);
        enumerate_boxed_set(src, root, gamma, &mut |_s, _p| {
            count += 1;
            if count > cap {
                ControlFlow::Break(())
            } else {
                ControlFlow::Continue(())
            }
        })
        .is_break()
    }

    const MAX_ORACLE_ANSWERS: usize = 5_000;

    #[test]
    fn enumeration_matches_circuit_semantics_on_random_instances() {
        // Debug builds run a third of the seeds (set TREENUM_FULL_ORACLE for
        // all of them): the exhaustive set-semantics oracle dominates the
        // crate's unoptimized test time.
        let seeds = treenum_trees::generate::oracle_scale(60, 20) as u64;
        let mut tested = 0;
        for seed in 0..seeds {
            let num_vars = 1 + (seed % 2) as usize;
            let tva = random_tva(2, 2 + (seed % 2) as usize, num_vars, seed);
            if tva.num_states() == 0 {
                continue;
            }
            // Sizes are kept small: the answer set grows combinatorially in the
            // number of leaves (sharply so with two free variables), and the
            // oracle below is exhaustive.
            let size = if num_vars == 2 {
                5 + (seed % 3) as usize
            } else {
                7 + (seed % 5) as usize
            };
            let tree = random_binary_tree(size, 2, seed + 1000);
            let c = build_assignment_circuit(&tva, &tree);
            let index = EnumIndex::build(&c, &tree);
            let root = BoxId(tree.root().0);
            let width = c.box_width(root);
            if width == 0 {
                continue;
            }
            let gamma = GateSet::full(width);
            if answer_count_exceeds(&c, &tree, root, &gamma, MAX_ORACLE_ANSWERS) {
                continue;
            }
            tested += 1;
            let expected: HashSet<BTreeSet<(Var, u32)>> =
                capture_boxed_set(&c, &tree, root, &(0..width as u32).collect::<Vec<_>>())
                    .into_iter()
                    .collect();
            for mode in [BoxEnumMode::Reference, BoxEnumMode::Indexed] {
                let mut produced: Vec<OutputAssignment> = Vec::new();
                let src = EnumSource::new(&c, &tree, Some(&index), mode);
                let _ = enumerate_boxed_set(src, root, &gamma, &mut |s, _p| {
                    produced.push(s.clone());
                    ControlFlow::Continue(())
                });
                let as_sets: HashSet<_> = produced.iter().map(to_explicit).collect();
                assert_eq!(
                    as_sets.len(),
                    produced.len(),
                    "duplicates (seed {seed}, mode {:?})",
                    mode
                );
                assert_eq!(
                    as_sets, expected,
                    "wrong answer set (seed {seed}, mode {:?})",
                    mode
                );
            }
        }
        assert!(
            tested > seeds / 6,
            "too few random instances were exercised"
        );
    }

    #[test]
    fn provenance_is_correct_on_random_instances() {
        let seeds = &[3u64, 11, 17, 23, 29, 31, 37, 41, 43, 47]
            [..treenum_trees::generate::oracle_scale(10, 5)];
        let mut tested = 0;
        for &seed in seeds {
            let tva = random_tva(2, 3, 1, seed);
            let tree = random_binary_tree(8, 2, seed + 5);
            let c = build_assignment_circuit(&tva, &tree);
            let index = EnumIndex::build(&c, &tree);
            let root = BoxId(tree.root().0);
            let width = c.box_width(root);
            if width == 0 {
                continue;
            }
            let gamma = GateSet::full(width);
            if answer_count_exceeds(&c, &tree, root, &gamma, MAX_ORACLE_ANSWERS) {
                continue;
            }
            tested += 1;
            // Hoist the oracle out of the sink: one set-semantics evaluation per
            // gate, then constant-time membership checks per produced answer.
            let per_gate: Vec<HashSet<BTreeSet<(Var, u32)>>> = (0..width)
                .map(|g| {
                    capture_boxed_set(&c, &tree, root, &[g as u32])
                        .into_iter()
                        .collect()
                })
                .collect();
            let src = EnumSource::new(&c, &tree, Some(&index), BoxEnumMode::Indexed);
            let _ = enumerate_boxed_set(src, root, &gamma, &mut |s, prov| {
                let explicit = to_explicit(s);
                for (g, captured) in per_gate.iter().enumerate() {
                    assert_eq!(
                        prov.contains(g),
                        captured.contains(&explicit),
                        "provenance wrong for gate {g} (seed {seed})"
                    );
                }
                ControlFlow::Continue(())
            });
        }
        assert!(tested >= 2, "too few random instances were exercised");
    }

    #[test]
    fn early_termination_stops_enumeration() {
        let sigma = Alphabet::from_names(["a", "f"]);
        let a = sigma.get("a").unwrap();
        let f = sigma.get("f").unwrap();
        let tva = select_a_leaves(a, f, Var(0));
        let mut t = BinaryTree::leaf(a);
        let mut cur = t.root();
        for _ in 0..10 {
            let l = t.add_leaf(a);
            cur = t.add_internal(f, cur, l);
        }
        t.set_root(cur);
        let c = build_assignment_circuit(&tva, &t);
        let index = EnumIndex::build(&c, &t);
        let root = BoxId(t.root().0);
        let (gates, empty) = c.gamma(root).boxed_set(tva.final_states());
        let mut count = 0;
        let _ = enumerate_root(
            EnumSource::new(&c, &t, Some(&index), BoxEnumMode::Indexed),
            root,
            &gates,
            empty,
            &mut |_s| {
                count += 1;
                if count == 3 {
                    ControlFlow::Break(())
                } else {
                    ControlFlow::Continue(())
                }
            },
        );
        assert_eq!(count, 3);
    }
}
