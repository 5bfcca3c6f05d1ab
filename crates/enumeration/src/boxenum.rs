//! The `box-enum` procedure (Sections 5–6).
//!
//! Given a boxed set `Γ` in a box `B`, `box-enum(Γ)` enumerates every box `B'` that
//! contains a var- or ×-gate ∪-reachable from `Γ` ("interesting boxes"), and produces
//! for each one the ∪-reachability relation `R(B', Γ)`.
//!
//! Both implementations run as the walk frames of the resumable enumeration
//! machine ([`crate::machine`]), on the [`EnumScratch`] pools:
//!
//! * [`BoxEnumMode::Reference`]: the straightforward walk of the box tree
//!   described at the end of Section 5, with delay `O(depth(C) · w²/64)`;
//! * [`BoxEnumMode::Indexed`]: Algorithm 3, which uses the precomputed
//!   `fib`/`fbb` jump pointers of the index (Definition 6.1) to skip
//!   uninteresting boxes, making the delay essentially independent of the
//!   circuit depth (Lemma 6.4).  This is the hot path: every child-step
//!   relation comes precomposed from the index, so a warm steady-state run
//!   performs no heap allocation (guarded by [`crate::scratch::EnumStats`]).
//!
//! [`box_enum`] runs either one alone and hands every interesting box to a
//! sink; the allocating recursive walk [`box_enum_reference`] stays as the
//! box-level test oracle both are checked against.

use crate::bitset::GateSet;
use crate::machine::EnumSource;
use crate::relation::{child_relation, Relation};
use crate::scratch::EnumScratch;
use std::ops::ControlFlow;
use treenum_circuits::{BoxId, Circuit, Side, UnionInput};
use treenum_trees::Topology;

/// Which `box-enum` implementation the enumerator should use.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum BoxEnumMode {
    /// Algorithm 3 with the jump-pointer index (the paper's algorithm).
    #[default]
    Indexed,
    /// The naive depth-bounded walk (Section 5), used as reference.
    Reference,
}

/// The callback type receiving `(B', R(B', Γ))` pairs (plus the scratch, which
/// the sink may use for its own pooled storage).
pub type BoxSink<'s> = dyn FnMut(&mut EnumScratch, BoxId, &Relation) -> ControlFlow<()> + 's;

/// `true` iff ∪-gate `gi` of box `b` has a var- or ×-input.
fn has_own_input<S: Topology<BoxId>>(circuit: &Circuit, shape: &S, b: BoxId, gi: usize) -> bool {
    circuit
        .gate_inputs(shape, b, gi)
        .any(|i| matches!(i, UnionInput::Var { .. } | UnionInput::Times { .. }))
}

fn is_interesting<S: Topology<BoxId>>(
    circuit: &Circuit,
    shape: &S,
    b: BoxId,
    sources: &GateSet,
) -> bool {
    sources
        .iter()
        .any(|gi| has_own_input(circuit, shape, b, gi))
}

/// [`is_interesting`] reading the reachable sources straight off the
/// relation's rows, so the pooled reference walk needs no materialized
/// source [`GateSet`].
pub(crate) fn is_interesting_rel<S: Topology<BoxId>>(
    circuit: &Circuit,
    shape: &S,
    b: BoxId,
    r: &Relation,
) -> bool {
    (0..r.rows()).any(|gi| !r.row_is_empty(gi) && has_own_input(circuit, shape, b, gi))
}

/// The initial relation `R(B, Γ) = {(g, g) | g ∈ Γ}` for a boxed set `Γ` of box `B`.
pub fn initial_relation(circuit: &Circuit, b: BoxId, gamma: &GateSet) -> Relation {
    let w = circuit.box_width(b);
    Relation::from_pairs(w, w, gamma.iter().map(|g| (g, g)))
}

/// Reference implementation: walk the subtree of `box(Γ)` in the tree `shape`
/// top-down, maintaining the reachability relation, and emit it at every
/// interesting box.
pub fn box_enum_reference<S: Topology<BoxId>>(
    circuit: &Circuit,
    shape: &S,
    scratch: &mut EnumScratch,
    b: BoxId,
    gamma: &GateSet,
    sink: &mut BoxSink<'_>,
) -> ControlFlow<()> {
    let r = initial_relation(circuit, b, gamma);
    walk_reference(circuit, shape, scratch, b, &r, sink)
}

fn walk_reference<S: Topology<BoxId>>(
    circuit: &Circuit,
    shape: &S,
    scratch: &mut EnumScratch,
    b: BoxId,
    r: &Relation,
    sink: &mut BoxSink<'_>,
) -> ControlFlow<()> {
    let sources = r.project_sources();
    if sources.is_empty() {
        return ControlFlow::Continue(());
    }
    if is_interesting(circuit, shape, b, &sources) {
        sink(scratch, b, r)?;
    }
    if let Some((l, rt)) = shape.children(b) {
        let rl = child_relation(circuit, shape, b, Side::Left).compose(r);
        if !rl.is_empty() {
            walk_reference(circuit, shape, scratch, l, &rl, sink)?;
        }
        let rr = child_relation(circuit, shape, b, Side::Right).compose(r);
        if !rr.is_empty() {
            walk_reference(circuit, shape, scratch, rt, &rr, sink)?;
        }
    }
    ControlFlow::Continue(())
}

/// Runs either implementation depending on `src`'s mode (the index may be `None`
/// only in reference mode), on the [`EnumScratch`] pools:
///
/// * [`BoxEnumMode::Indexed`] is Algorithm 3: jump to the first interesting box
///   with `fib`, cover its subtree, then walk the path down to it, covering the
///   off-path subtrees of the bidirectional boxes;
/// * [`BoxEnumMode::Reference`] is the top-down walk of [`box_enum_reference`]
///   (emission order included), so a warm steady-state run performs no heap
///   allocation.
pub fn box_enum<S: Topology<BoxId>>(
    src: EnumSource<'_, S>,
    scratch: &mut EnumScratch,
    b: BoxId,
    gamma: &GateSet,
    sink: &mut BoxSink<'_>,
) -> ControlFlow<()> {
    scratch.walk_boxes(src, b, gamma, sink)
}

/// Collects the output of a `box-enum` run (for tests).
pub fn collect_box_enum<S: Topology<BoxId>>(
    src: EnumSource<'_, S>,
    b: BoxId,
    gamma: &GateSet,
) -> Vec<(BoxId, Relation)> {
    let mut out = Vec::new();
    let mut scratch = EnumScratch::new();
    let _ = box_enum(src, &mut scratch, b, gamma, &mut |scratch, bx, r| {
        out.push((bx, scratch.clone_relation(r)));
        ControlFlow::Continue(())
    });
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::index::EnumIndex;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use treenum_automata::binary::select_a_leaves;
    use treenum_automata::BinaryTva;
    use treenum_automata::State;
    use treenum_circuits::build_assignment_circuit;
    use treenum_trees::binary::BinaryTree;
    use treenum_trees::valuation::VarSet;
    use treenum_trees::{Alphabet, Label, Var};

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
        // Join the remaining roots into a single tree.
        while roots.len() > 1 {
            let a = roots.pop().unwrap();
            let b = roots.pop().unwrap();
            roots.push(t.add_internal(label(&mut rng), a, b));
        }
        t.set_root(roots[0]);
        t
    }

    /// A small random homogenized TVA over `num_labels` labels and one variable.
    fn random_tva(num_labels: usize, num_states: usize, seed: u64) -> BinaryTva {
        let mut rng = StdRng::seed_from_u64(seed);
        let x = Var(0);
        let mut tva = BinaryTva::new(num_states, num_labels, VarSet::singleton(x));
        for l in 0..num_labels as u32 {
            for q in 0..num_states as u32 {
                if rng.gen_bool(0.5) {
                    tva.add_initial(Label(l), VarSet::empty(), State(q));
                }
                if rng.gen_bool(0.4) {
                    tva.add_initial(Label(l), VarSet::singleton(x), State(q));
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
    fn reference_and_indexed_agree_on_chain_circuits() {
        let sigma = Alphabet::from_names(["a", "f"]);
        let a = sigma.get("a").unwrap();
        let f = sigma.get("f").unwrap();
        let tva = select_a_leaves(a, f, Var(0));
        let mut t = BinaryTree::leaf(a);
        let mut cur = t.root();
        for _ in 0..8 {
            let l = t.add_leaf(a);
            cur = t.add_internal(f, cur, l);
        }
        t.set_root(cur);
        let c = build_assignment_circuit(&tva, &t);
        let shape = &t;
        let index = EnumIndex::build(&c, shape);
        let root: BoxId = Topology::root(shape);
        for g in 0..c.box_width(root) {
            let gamma = GateSet::singleton(c.box_width(root), g);
            let reference = collect_box_enum(
                EnumSource::new(&c, shape, None, BoxEnumMode::Reference),
                root,
                &gamma,
            );
            let indexed = collect_box_enum(
                EnumSource::new(&c, shape, Some(&index), BoxEnumMode::Indexed),
                root,
                &gamma,
            );
            let mut ref_sorted: Vec<_> = reference.clone();
            let mut idx_sorted: Vec<_> = indexed.clone();
            ref_sorted.sort_by_key(|(b, _)| *b);
            idx_sorted.sort_by_key(|(b, _)| *b);
            assert_eq!(ref_sorted, idx_sorted, "box sets differ for gate {g}");
        }
    }

    #[test]
    fn reference_and_indexed_agree_on_random_circuits() {
        // Debug builds run fewer seeds; TREENUM_FULL_ORACLE restores all.
        let seeds = treenum_trees::generate::oracle_scale(30, 12) as u64;
        for seed in 0..seeds {
            let num_states = 2 + (seed % 3) as usize;
            let tva = random_tva(2, num_states, seed);
            if tva.num_states() == 0 {
                continue;
            }
            let tree = random_binary_tree(15 + (seed % 10) as usize, 2, seed * 7 + 1);
            let c = build_assignment_circuit(&tva, &tree);
            let shape = &tree;
            c.validate(shape);
            let index = EnumIndex::build(&c, shape);
            let root: BoxId = Topology::root(shape);
            let width = c.box_width(root);
            if width == 0 {
                continue;
            }
            // All non-empty subsets over up to the first 4 gates.
            let limit = width.min(4);
            for mask in 1u32..(1 << limit) {
                let gamma =
                    GateSet::from_indices(width, (0..limit).filter(|i| mask & (1 << i) != 0));
                let mut reference = collect_box_enum(
                    EnumSource::new(&c, shape, None, BoxEnumMode::Reference),
                    root,
                    &gamma,
                );
                let mut indexed = collect_box_enum(
                    EnumSource::new(&c, shape, Some(&index), BoxEnumMode::Indexed),
                    root,
                    &gamma,
                );
                reference.sort_by_key(|(b, _)| *b);
                indexed.sort_by_key(|(b, _)| *b);
                assert_eq!(
                    reference, indexed,
                    "seed {seed}, mask {mask}: box-enum implementations disagree"
                );
            }
        }
    }

    /// Collects a run of the *unpooled* reference walk (test oracle).
    fn collect_reference_unpooled(
        circuit: &Circuit,
        shape: &BinaryTree,
        b: BoxId,
        gamma: &GateSet,
    ) -> Vec<(BoxId, Relation)> {
        let mut out = Vec::new();
        let mut scratch = EnumScratch::new();
        let _ = box_enum_reference(circuit, shape, &mut scratch, b, gamma, &mut |_s, bx, r| {
            out.push((bx, r.clone()));
            ControlFlow::Continue(())
        });
        out
    }

    #[test]
    fn pooled_reference_matches_unpooled_reference() {
        let seeds = treenum_trees::generate::oracle_scale(20, 8) as u64;
        for seed in 0..seeds {
            let tva = random_tva(2, 2 + (seed % 3) as usize, seed + 500);
            if tva.num_states() == 0 {
                continue;
            }
            let tree = random_binary_tree(12 + (seed % 12) as usize, 2, seed * 3 + 2);
            let c = build_assignment_circuit(&tva, &tree);
            let shape = &tree;
            let root: BoxId = Topology::root(shape);
            let width = c.box_width(root);
            if width == 0 {
                continue;
            }
            let limit = width.min(4);
            for mask in 1u32..(1 << limit) {
                let gamma =
                    GateSet::from_indices(width, (0..limit).filter(|i| mask & (1 << i) != 0));
                let unpooled = collect_reference_unpooled(&c, shape, root, &gamma);
                let mut scratch = EnumScratch::new();
                let mut pooled = Vec::new();
                let _ = box_enum(
                    EnumSource::new(&c, shape, None, BoxEnumMode::Reference),
                    &mut scratch,
                    root,
                    &gamma,
                    &mut |scratch, bx, r| {
                        pooled.push((bx, scratch.clone_relation(r)));
                        ControlFlow::Continue(())
                    },
                );
                assert_eq!(
                    unpooled, pooled,
                    "seed {seed}, mask {mask}: pooled reference diverged (emission order included)"
                );
            }
        }
    }

    #[test]
    fn pooled_reference_is_allocation_free_when_warm() {
        let tva = random_tva(2, 3, 7);
        let tree = random_binary_tree(40, 2, 8);
        let c = build_assignment_circuit(&tva, &tree);
        let shape = &tree;
        let root: BoxId = Topology::root(shape);
        let width = c.box_width(root);
        if width == 0 {
            return;
        }
        let gamma = GateSet::full(width);
        let mut scratch = EnumScratch::new();
        let run = |scratch: &mut EnumScratch| {
            let mut count = 0usize;
            let _ = box_enum(
                EnumSource::new(&c, shape, None, BoxEnumMode::Reference),
                scratch,
                root,
                &gamma,
                &mut |_s, _b, _r| {
                    count += 1;
                    ControlFlow::Continue(())
                },
            );
            count
        };
        // Two warm-up passes per the warm-up protocol, then steady state.
        let first = run(&mut scratch);
        let _ = run(&mut scratch);
        let warm = scratch.stats();
        for _ in 0..3 {
            assert_eq!(run(&mut scratch), first);
        }
        let steady = scratch.stats();
        assert_eq!(
            steady.per_answer_allocs, warm.per_answer_allocs,
            "warm pooled reference walk must not allocate"
        );
        assert_eq!(steady.relation_clones, warm.relation_clones);
    }

    #[test]
    fn pooled_reference_releases_pools_on_early_break() {
        let tva = random_tva(2, 3, 21);
        let tree = random_binary_tree(30, 2, 22);
        let c = build_assignment_circuit(&tva, &tree);
        let shape = &tree;
        let root: BoxId = Topology::root(shape);
        let width = c.box_width(root);
        if width == 0 {
            return;
        }
        let gamma = GateSet::full(width);
        let mut scratch = EnumScratch::new();
        let run = |scratch: &mut EnumScratch, stop_after: usize| {
            let mut count = 0usize;
            let _ = box_enum(
                EnumSource::new(&c, shape, None, BoxEnumMode::Reference),
                scratch,
                root,
                &gamma,
                &mut |_s, _b, _r| {
                    count += 1;
                    if count >= stop_after {
                        ControlFlow::Break(())
                    } else {
                        ControlFlow::Continue(())
                    }
                },
            );
            count
        };
        let total = run(&mut scratch, usize::MAX);
        let _ = run(&mut scratch, usize::MAX);
        let warm = scratch.stats();
        // Early-terminated runs must return every pooled object, or the next
        // full run re-allocates.
        for stop in [1usize, total / 2, total] {
            let _ = run(&mut scratch, stop.max(1));
        }
        let _ = run(&mut scratch, usize::MAX);
        assert_eq!(scratch.stats().per_answer_allocs, warm.per_answer_allocs);
    }

    #[test]
    fn indexed_emits_each_box_once() {
        let tva = random_tva(2, 3, 99);
        let tree = random_binary_tree(25, 2, 100);
        let c = build_assignment_circuit(&tva, &tree);
        let shape = &tree;
        let index = EnumIndex::build(&c, shape);
        let root: BoxId = Topology::root(shape);
        let width = c.box_width(root);
        if width == 0 {
            return;
        }
        let gamma = GateSet::full(width);
        let boxes: Vec<BoxId> = collect_box_enum(
            EnumSource::new(&c, shape, Some(&index), BoxEnumMode::Indexed),
            root,
            &gamma,
        )
        .into_iter()
        .map(|(b, _)| b)
        .collect();
        let mut dedup = boxes.clone();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(dedup.len(), boxes.len(), "a box was emitted twice");
    }

    #[test]
    fn indexed_box_enum_is_allocation_free_when_warm() {
        let tva = random_tva(2, 3, 7);
        let tree = random_binary_tree(40, 2, 8);
        let c = build_assignment_circuit(&tva, &tree);
        let shape = &tree;
        let index = EnumIndex::build(&c, shape);
        let root: BoxId = Topology::root(shape);
        let width = c.box_width(root);
        if width == 0 {
            return;
        }
        let gamma = GateSet::full(width);
        let mut scratch = EnumScratch::new();
        let run = |scratch: &mut EnumScratch| {
            let mut count = 0usize;
            let _ = box_enum(
                EnumSource::new(&c, shape, Some(&index), BoxEnumMode::Indexed),
                scratch,
                root,
                &gamma,
                &mut |_s, _b, _r| {
                    count += 1;
                    ControlFlow::Continue(())
                },
            );
            count
        };
        let first = run(&mut scratch);
        let warm = scratch.stats();
        let second = run(&mut scratch);
        assert_eq!(first, second);
        let steady = scratch.stats();
        assert_eq!(
            steady.per_answer_allocs, warm.per_answer_allocs,
            "warm box-enum must not allocate"
        );
        assert_eq!(steady.relation_clones, warm.relation_clones);
    }
}
