//! Property tests guarding the flattened enumeration hot path:
//!
//! * the process-wide plan cache holds exactly the translation a fresh
//!   `translate_stepwise` run produces, and engines for the same query share
//!   one `QueryPlan`;
//! * after long random edit streams, the spine-only repair (content-equality
//!   early exits, index-entry fixpoint propagation) leaves the engine with the
//!   same answer set as a from-scratch `TreeEnumerator::new` on the edited
//!   tree, for several query families;
//! * long batched streams on ~2k-node trees (`balanced_mix`, `skewed`,
//!   `burst`; k ∈ {1, 16, 256}) leave a `check_consistency`-clean structure
//!   after every batch — the repair's content skips never leave a stale
//!   box — and end with a cold rebuild's answers;
//! * a first-child chain flood through `apply` rebuilds `O(log n)` index
//!   entries per edit (scapegoat rebuilds stay local instead of rebuilding
//!   the whole term) and ends consistent with a from-scratch rebuild.

use std::sync::Arc;
use treenum::automata::{queries, StepwiseTva};
use treenum::balance::translate_stepwise;
use treenum::core::{QueryPlan, TreeEnumerator};
use treenum::trees::generate::{oracle_scale, random_tree, EditStream, TreeShape};
use treenum::trees::valuation::Assignment;
use treenum::trees::{Alphabet, EditOp, Label, NodeSampler, Var};

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

#[test]
fn cached_translation_is_identical_to_fresh_translation() {
    let sigma = Alphabet::from_names(["a", "b", "c"]);
    for (name, query) in query_families(&sigma) {
        let fresh = translate_stepwise(&query, sigma.len());
        let cached = QueryPlan::for_query(&query, sigma.len());
        assert_eq!(
            **cached.translated(),
            fresh,
            "cached translation differs for {name}"
        );
        // A second lookup must serve the same shared value.
        let again = QueryPlan::for_query(&query, sigma.len());
        assert!(Arc::ptr_eq(&cached, &again), "cache did not share {name}");
        // An equal automaton built independently hits the same entry (the key
        // is canonical, not pointer-based).
        let rebuilt = query.clone();
        let via_clone = QueryPlan::for_query(&rebuilt, sigma.len());
        assert!(Arc::ptr_eq(&cached, &via_clone));
    }
}

#[test]
fn engines_for_the_same_query_share_one_plan() {
    let mut sigma = Alphabet::from_names(["a", "b", "c"]);
    let b = sigma.get("b").unwrap();
    let query = queries::select_label(sigma.len(), b, Var(0));
    let t1 = random_tree(&mut sigma, 40, TreeShape::Random, 1);
    let t2 = random_tree(&mut sigma, 25, TreeShape::Deep, 2);
    let e1 = TreeEnumerator::new(t1, &query, sigma.len());
    let e2 = TreeEnumerator::new(t2, &query, sigma.len());
    assert!(
        Arc::ptr_eq(e1.plan(), e2.plan()),
        "two engines for the same query must share the plan"
    );
    // A plan built from a fresh (uncached) translation gives the same circuits:
    // the two engines enumerate the same answers on the same tree.
    let t3 = random_tree(&mut sigma, 30, TreeShape::Wide, 3);
    let fresh_plan = Arc::new(QueryPlan::build(Arc::new(translate_stepwise(
        &query,
        sigma.len(),
    ))));
    let via_fresh = TreeEnumerator::with_plan(t3.clone(), fresh_plan);
    let via_cache = TreeEnumerator::new(t3, &query, sigma.len());
    assert_eq!(
        sorted(via_fresh.assignments()),
        sorted(via_cache.assignments())
    );
}

#[test]
fn long_edit_streams_match_from_scratch_rebuilds() {
    let mut sigma = Alphabet::from_names(["a", "b", "c"]);
    let labels: Vec<_> = sigma.labels().collect();
    let steps = oracle_scale(220, 120);
    for (name, query) in query_families(&sigma) {
        for seed in 0..2u64 {
            let tree = random_tree(&mut sigma, 30, TreeShape::Random, 7 + seed);
            let mut engine = TreeEnumerator::new(tree, &query, sigma.len());
            let mut stream = EditStream::balanced_mix(labels.clone(), 101 + seed);
            for step in 0..steps {
                let op = stream.next_for(engine.tree());
                engine.apply(&op);
                // Cross-check against a cold engine at a few points and at the
                // end; every intermediate state is covered by the engine's own
                // oracle tests on smaller streams.
                if step % 37 == 36 || step == steps - 1 {
                    let cold = TreeEnumerator::new(engine.tree().clone(), &query, sigma.len());
                    assert_eq!(
                        sorted(engine.assignments()),
                        sorted(cold.assignments()),
                        "{name}, seed {seed}: divergence after step {step} ({op:?})"
                    );
                }
            }
            engine.check_consistency();
        }
    }
}

/// The differential oracle of the repair's content skip: long batched
/// streams over a ~2k-node tree, `check_consistency` (every box content and
/// index entry against a from-scratch recompute) after every batch, and the
/// answers of a cold rebuild at the end.  Burst delete-runs free boxes whose
/// slots later inserts reuse within the same stream.
#[test]
fn long_batched_streams_stay_consistent_after_every_batch() {
    let mut sigma = Alphabet::from_names(["a", "b", "c"]);
    let labels: Vec<Label> = sigma.labels().collect();
    let (a, b, c) = (
        sigma.get("a").unwrap(),
        sigma.get("b").unwrap(),
        sigma.get("c").unwrap(),
    );
    let queries = [
        ("select_b", queries::select_label(sigma.len(), b, Var(0))),
        (
            "ancestor_descendant",
            queries::ancestor_descendant(sigma.len(), a, Var(0), b, Var(1)),
        ),
        // Width 0: a Boolean query, whose γ rarely moves.
        ("exists_c", queries::exists_label(sigma.len(), c)),
    ];
    let batches = oracle_scale(12, 4);
    let tree = random_tree(&mut sigma, 2000, TreeShape::Random, 71);
    for (sname, make) in [
        (
            "balanced_mix",
            EditStream::balanced_mix as fn(Vec<Label>, u64) -> EditStream,
        ),
        ("skewed", EditStream::skewed),
        ("burst", EditStream::burst),
    ] {
        for k in [1usize, 16, 256] {
            for (qname, query) in &queries {
                let mut engine = TreeEnumerator::new(tree.clone(), query, sigma.len());
                let mut shadow = tree.clone();
                let mut sampler = NodeSampler::new(&shadow);
                let mut stream = make(labels.clone(), 900 + k as u64);
                for batch in 0..batches {
                    let ops = stream.next_batch_sampled(&mut shadow, &mut sampler, k);
                    engine.apply_batch(&ops);
                    let check = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                        engine.check_consistency()
                    }));
                    assert!(
                        check.is_ok(),
                        "{sname}/{qname} k={k}: inconsistent after batch {batch}"
                    );
                }
                assert!(engine.tree().structurally_equal(&shadow));
                let cold = TreeEnumerator::new(shadow, query, sigma.len());
                assert_eq!(
                    sorted(engine.assignments()),
                    sorted(cold.assignments()),
                    "{sname}/{qname} k={k}: answers differ from a cold rebuild"
                );
                if k > 1 {
                    let stats = engine.index_stats();
                    assert!(
                        stats.boxes_skipped > 0,
                        "{sname}/{qname} k={k}: the stream never took the content skip"
                    );
                }
            }
        }
    }
}

/// A first-child chain flood through `apply` (each edit a one-op batch) must
/// keep its repair logarithmic: every scapegoat rebuild is the lowest
/// too-deep subterm, not the whole term, so the index entries rebuilt per
/// edit stay within a constant times `log₂ n`.
#[test]
fn chain_flood_repair_stays_logarithmic_per_edit() {
    let mut sigma = Alphabet::from_names(["a", "b", "c"]);
    let b = sigma.get("b").unwrap();
    let query = queries::select_label(sigma.len(), b, Var(0));
    let tree = random_tree(&mut sigma, 3000, TreeShape::Random, 5);
    let mut engine = TreeEnumerator::new(tree, &query, sigma.len());
    let flood = 1500;
    let before = engine.index_stats().box_rebuilds;
    let mut anchor = engine.tree().root();
    for _ in 0..flood {
        let op = EditOp::InsertFirstChild {
            parent: anchor,
            label: b,
        };
        anchor = engine.apply(&op).expect("an insertion yields a node");
    }
    let n = engine.tree().len();
    let per_edit = (engine.index_stats().box_rebuilds - before) as f64 / flood as f64;
    let bound = 4.0 * ((n as f64).log2() + 1.0);
    assert!(
        per_edit <= bound,
        "chain flood rebuilt {per_edit:.1} index entries per edit (bound {bound:.1} for n = {n})"
    );
    engine.check_consistency();
    let cold = TreeEnumerator::new(engine.tree().clone(), &query, sigma.len());
    assert_eq!(sorted(engine.assignments()), sorted(cold.assignments()));
}

/// The index slab reuses the blocks of freed and resized records: under a
/// size-stationary `balanced_mix` stream (inserts and deletes equally
/// likely), the slab's words and its free words stay within a fixed bound
/// after warm-up instead of growing with the number of edits.
#[test]
fn index_slab_stays_bounded_under_stationary_churn() {
    let mut sigma = Alphabet::from_names(["a", "b", "c"]);
    let labels: Vec<Label> = sigma.labels().collect();
    let (a, b) = (sigma.get("a").unwrap(), sigma.get("b").unwrap());
    let queries = [
        ("select_b", queries::select_label(sigma.len(), b, Var(0))),
        (
            "ancestor_descendant",
            queries::ancestor_descendant(sigma.len(), a, Var(0), b, Var(1)),
        ),
    ];
    let tree = random_tree(&mut sigma, 2000, TreeShape::Random, 13);
    for (name, query) in &queries {
        let mut engine = TreeEnumerator::new(tree.clone(), query, sigma.len());
        let mut shadow = tree.clone();
        let mut sampler = NodeSampler::new(&shadow);
        let mut stream = EditStream::balanced_mix(labels.clone(), 77);
        let mut churn = |engine: &mut TreeEnumerator, batches: usize| {
            let (mut words, mut free) = (0, 0);
            for _ in 0..batches {
                let ops = stream.next_batch_sampled(&mut shadow, &mut sampler, 16);
                engine.apply_batch(&ops);
                let (w, f) = engine.index_slab_words();
                (words, free) = (words.max(w), free.max(f));
            }
            (words, free)
        };
        let (warm_words, warm_free) = churn(&mut engine, oracle_scale(100, 40));
        let edits_after = oracle_scale(400, 160) * 16;
        let (words, free) = churn(&mut engine, oracle_scale(400, 160));
        let size = engine.tree().len();
        eprintln!(
            "{name}: warm-up {warm_words} words ({warm_free} free), then {words} ({free} free) \
             over {edits_after} edits, {size} nodes"
        );
        assert!(
            words <= warm_words + warm_words / 4,
            "{name}: the slab grew from {warm_words} to {words} words under stationary churn"
        );
        assert!(
            free <= warm_words / 4,
            "{name}: {free} free words of {words} after warm-up"
        );
    }
}
