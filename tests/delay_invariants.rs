//! Property tests guarding the flattened per-answer enumeration path (E2):
//!
//! * the pooled/scratch-based enumerator produces answer sets identical — as
//!   multisets, order-insensitive — to the capped brute-force oracle and to
//!   the naive reference box-enum, across the same four query families as
//!   `perf_invariants.rs`;
//! * after a warm-up enumeration, steady-state enumeration performs **zero**
//!   per-answer heap allocations, zero relation clones and zero group-table
//!   rebuilds (`EnumStats`), including after edits and for early-terminated
//!   (`first_k`) runs — the regression guard for the allocation-free delay
//!   discipline;
//! * skewed (hot-subtree) and bursty edit streams interleaved with full
//!   re-enumeration keep the incremental engine answer-identical to the
//!   brute-force oracle and to a from-scratch rebuild.

use std::ops::ControlFlow;
use treenum::automata::{queries, StepwiseTva};
use treenum::core::TreeEnumerator;
use treenum::enumeration::boxenum::BoxEnumMode;
use treenum::enumeration::EnumStats;
use treenum::trees::generate::{oracle_scale, random_tree, TreeShape};
use treenum::trees::valuation::Assignment;
use treenum::trees::{Alphabet, EditStream, Var};

fn query_families(sigma: &Alphabet) -> Vec<(&'static str, StepwiseTva)> {
    let a = sigma.get("a").unwrap();
    let b = sigma.get("b").unwrap();
    let c = sigma.get("c").unwrap();
    vec![
        ("select_b", queries::select_label(sigma.len(), b, Var(0))),
        ("exists_c", queries::exists_label(sigma.len(), c)),
        (
            "ancestor_descendant",
            queries::ancestor_descendant(sigma.len(), a, Var(0), b, Var(1)),
        ),
        (
            "marked_ancestor",
            queries::marked_ancestor(sigma.len(), a, c, Var(0)),
        ),
    ]
}

fn sorted(mut v: Vec<Assignment>) -> Vec<Assignment> {
    v.sort();
    v
}

/// The reference enumeration capped at `cap` answers; `None` when the
/// instance is too large to oracle-check exhaustively.
fn capped_reference(engine: &mut TreeEnumerator, cap: usize) -> Option<Vec<Assignment>> {
    engine.set_box_enum_mode(BoxEnumMode::Reference);
    let mut out = Vec::new();
    let mut overflowed = false;
    engine.for_each(&mut |a| {
        if out.len() >= cap {
            overflowed = true;
            ControlFlow::Break(())
        } else {
            out.push(a);
            ControlFlow::Continue(())
        }
    });
    engine.set_box_enum_mode(BoxEnumMode::Indexed);
    (!overflowed).then_some(out)
}

const ORACLE_CAP: usize = 20_000;

/// The steady-state counters must not move once the scratch is warm.
fn assert_flat(name: &str, context: &str, warm: EnumStats, steady: EnumStats) {
    assert_eq!(
        steady.per_answer_allocs, warm.per_answer_allocs,
        "{name}: {context}: steady-state enumeration allocated \
         ({} → {})",
        warm.per_answer_allocs, steady.per_answer_allocs
    );
    assert_eq!(
        steady.group_map_rebuilds, warm.group_map_rebuilds,
        "{name}: {context}: steady-state enumeration rebuilt the group table"
    );
    assert_eq!(
        steady.relation_clones, 0,
        "{name}: {context}: the engine's enumeration path cloned a relation"
    );
}

#[test]
fn flat_path_matches_capped_reference_oracle_across_query_families() {
    let mut sigma = Alphabet::from_names(["a", "b", "c"]);
    let instances = oracle_scale(6, 3) as u64;
    for (name, query) in query_families(&sigma) {
        for seed in 0..instances {
            let shape = match seed % 3 {
                0 => TreeShape::Random,
                1 => TreeShape::Deep,
                _ => TreeShape::Wide,
            };
            let tree = random_tree(&mut sigma, 25 + (seed as usize % 3) * 10, shape, 40 + seed);
            let mut engine = TreeEnumerator::new(tree.clone(), &query, sigma.len());
            let Some(reference) = capped_reference(&mut engine, ORACLE_CAP) else {
                continue;
            };
            let flat = engine.assignments();
            // Multiset equality, order-insensitive: both sides sorted.
            assert_eq!(
                sorted(flat.clone()),
                sorted(reference),
                "{name} seed {seed}: flat path diverged from reference box-enum"
            );
            // No duplicates (sorted multiset equality alone would not catch
            // a duplicate paired with a dropped answer on the same side —
            // dedup'd cardinality pins it).
            let mut dedup = sorted(flat.clone());
            dedup.dedup();
            assert_eq!(dedup.len(), flat.len(), "{name} seed {seed}: duplicates");
            // And against the brute-force automaton oracle.
            let brute = sorted(query.satisfying_assignments(&tree).into_iter().collect());
            assert_eq!(
                sorted(flat),
                brute,
                "{name} seed {seed}: flat path diverged from brute force"
            );
        }
    }
}

#[test]
fn steady_state_enumeration_is_allocation_free() {
    // Zero-alloc parity on *both* box-enum modes: the indexed hot path and
    // the scratch-pooled reference walk obey the same steady-state
    // discipline (the unpooled reference oracle stays allocation-agnostic).
    let mut sigma = Alphabet::from_names(["a", "b", "c"]);
    for mode in [BoxEnumMode::Indexed, BoxEnumMode::Reference] {
        for (name, query) in query_families(&sigma) {
            let tree = random_tree(&mut sigma, 120, TreeShape::Random, 9);
            let mut engine = TreeEnumerator::new(tree, &query, sigma.len());
            engine.set_box_enum_mode(mode);
            let context = |what: &str| format!("{what} [{mode:?}]");
            // Warm-up protocol (see EXPERIMENTS.md): two full enumerations.
            // The first fills the scratch pools; the second pads every pooled
            // buffer to the high-water capacity, after which buffer↔call-site
            // matching cannot cause growth regardless of pool order.
            let first = engine.assignments();
            let _ = engine.assignments();
            let warm = engine.enum_stats();
            // Steady state: repeated full enumerations reuse the pools.
            for round in 0..3 {
                let again = engine.assignments();
                assert_eq!(again.len(), first.len());
                assert_flat(
                    name,
                    &context(&format!("full run {round}")),
                    warm,
                    engine.enum_stats(),
                );
            }
            let steady = engine.enum_stats();
            assert_eq!(
                steady.answers,
                warm.answers + 3 * first.len() as u64,
                "{name}: every answer goes through the counted emission path"
            );
            // Early-terminated runs must release every pooled object too —
            // otherwise the next run re-allocates.
            if first.len() > 2 {
                let _ = engine.first_k(first.len() / 2);
                let _ = engine.assignments();
                assert_flat(name, &context("after first_k"), warm, engine.enum_stats());
            }
        }
    }
}

#[test]
fn steady_state_stays_flat_across_apply_and_reenumeration_cycles() {
    let mut sigma = Alphabet::from_names(["a", "b", "c"]);
    let labels: Vec<_> = sigma.labels().collect();
    for (name, query) in query_families(&sigma) {
        let tree = random_tree(&mut sigma, 60, TreeShape::Random, 77);
        let mut engine = TreeEnumerator::new(tree, &query, sigma.len());
        let mut stream = EditStream::balanced_mix(labels.clone(), 55);
        for _ in 0..40 {
            let op = stream.next_for(engine.tree());
            engine.apply(&op);
            let _ = engine.assignments();
        }
        // Warm-up after the edit phase (growth may have deepened the
        // recursion, legitimately growing the pools once; two passes per the
        // warm-up protocol)…
        let _ = engine.assignments();
        let _ = engine.assignments();
        let warm = engine.enum_stats();
        // …then re-enumeration of the settled structure is allocation-free.
        for round in 0..3 {
            let _ = engine.assignments();
            assert_flat(
                name,
                &format!("post-edit run {round}"),
                warm,
                engine.enum_stats(),
            );
        }
        // Relabelings never change the structure sizes: enumeration right
        // after them stays flat with no extra warm-up.
        for step in 0..10 {
            let node = engine.tree().root();
            let label = labels[step % labels.len()];
            engine.apply(&treenum::trees::EditOp::Relabel { node, label });
            let _ = engine.assignments();
            assert_flat(
                name,
                &format!("post-relabel step {step}"),
                warm,
                engine.enum_stats(),
            );
        }
    }
}

/// Skewed and bursty streams interleaved with full re-enumeration: the
/// incremental engine must match the brute-force oracle at every step and a
/// from-scratch rebuild at the end (closing the "update-heavy workloads
/// beyond `balanced_mix`" gap).
fn edit_stream_oracle(make: fn(Vec<treenum::trees::Label>, u64) -> EditStream, tag: &str) {
    let mut sigma = Alphabet::from_names(["a", "b", "c"]);
    let labels: Vec<_> = sigma.labels().collect();
    let steps = oracle_scale(120, 60);
    for (name, query) in query_families(&sigma) {
        for seed in 0..2u64 {
            let tree = random_tree(&mut sigma, 25, TreeShape::Random, 31 + seed);
            let mut engine = TreeEnumerator::new(tree, &query, sigma.len());
            let mut stream = make(labels.clone(), 400 + seed);
            for step in 0..steps {
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
                    "{tag}/{name} seed {seed}: divergence after step {step} ({op:?})"
                );
            }
            engine.check_consistency();
            let cold = TreeEnumerator::new(engine.tree().clone(), &query, sigma.len());
            assert_eq!(
                sorted(engine.assignments()),
                sorted(cold.assignments()),
                "{tag}/{name} seed {seed}: final state diverged from cold rebuild"
            );
        }
    }
}

#[test]
fn skewed_edit_streams_interleaved_with_enumeration_match_oracle() {
    edit_stream_oracle(EditStream::skewed, "skewed");
}

#[test]
fn burst_edit_streams_interleaved_with_enumeration_match_oracle() {
    edit_stream_oracle(EditStream::burst, "burst");
}
