//! Host-independent complexity-shape checks: the paper's bounds asserted on
//! work counters instead of on timings, so they hold on any machine.
//!
//! * **Delay** (Theorem 6.5): the work per answer does not depend on the
//!   tree.  `EnumStats::compositions` counts the relation compositions of
//!   Algorithm 3's walk (the jump to the first interesting box, each child
//!   step and each path step); per answer it must stay flat, within 10%,
//!   from n = 2¹⁰ to 2¹⁶ nodes (2⁸ to 2¹² in debug builds, see
//!   `oracle_scale`).
//! * **Space** (Lemma 3.7 keeps the circuit polynomial in the automaton):
//!   the circuit's bytes per box, counted from its own slots and slab
//!   words (`Footprint`), stay under a fixed budget per query and flat,
//!   within 10%, over the same sizes; a small query index holds a small
//!   slab.

use treenum::automata::{queries, StepwiseTva};
use treenum::core::{Footprint, TreeEnumerator};
use treenum::trees::generate::{oracle_scale, random_tree, TreeShape};
use treenum::trees::{Alphabet, UnrankedTree, Var};

#[test]
fn compositions_per_answer_stay_flat_as_the_tree_grows() {
    let mut sigma = Alphabet::from_names(["a", "b", "c"]);
    let (a, b) = (sigma.get("a").unwrap(), sigma.get("b").unwrap());
    let queries = [
        ("select_b", queries::select_label(sigma.len(), b, Var(0))),
        (
            "ancestor_descendant",
            queries::ancestor_descendant(sigma.len(), a, Var(0), b, Var(1)),
        ),
    ];
    let (lo, step) = (oracle_scale(10, 8), oracle_scale(3, 2));
    for (name, query) in &queries {
        let mut per_answer = Vec::new();
        for e in [lo, lo + step, lo + 2 * step] {
            let n = 1usize << e;
            let tree = random_tree(&mut sigma, n, TreeShape::Random, 7);
            let engine = TreeEnumerator::new(tree, query, sigma.len());
            let before = engine.enum_stats();
            let answers = engine.count();
            let after = engine.enum_stats();
            assert_eq!(after.answers - before.answers, answers as u64);
            assert!(answers > 0, "{name} has answers at n = {n}");
            per_answer.push((
                n,
                (after.compositions - before.compositions) as f64 / answers as f64,
            ));
        }
        eprintln!("{name}: compositions per answer {per_answer:?}");
        let max = per_answer.iter().map(|p| p.1).fold(f64::MIN, f64::max);
        let min = per_answer.iter().map(|p| p.1).fold(f64::MAX, f64::min);
        assert!(min > 0.0, "{name}: the walk composes");
        assert!(
            max / min <= 1.1,
            "{name}: compositions per answer grow with the tree: {per_answer:?}"
        );
    }
}

#[test]
fn circuit_bytes_per_box_stay_small_and_flat_as_the_tree_grows() {
    let mut sigma = Alphabet::from_names(["a", "b", "c"]);
    let (a, b) = (sigma.get("a").unwrap(), sigma.get("b").unwrap());
    // (name, query, circuit budget in bytes per box)
    let queries = [
        (
            "select_label",
            queries::select_label(sigma.len(), b, Var(0)),
            36,
        ),
        ("exists_label", queries::exists_label(sigma.len(), b), 24),
        (
            "pair_query",
            queries::ancestor_descendant(sigma.len(), a, Var(0), b, Var(1)),
            76,
        ),
    ];
    let (lo, step) = (oracle_scale(10, 8), oracle_scale(3, 2));
    for (name, query, budget) in &queries {
        let mut per_box = Vec::new();
        for e in [lo, lo + step, lo + 2 * step] {
            let n = 1usize << e;
            let tree = random_tree(&mut sigma, n, TreeShape::Random, 7);
            let engine = TreeEnumerator::new(tree, query, sigma.len());
            let fp: Footprint = engine.footprint();
            assert_eq!(fp.boxes, engine.stats().circuit_boxes);
            assert!(fp.boxes >= n, "one box per term node");
            assert!(
                8 * fp.slab_words < fp.circuit_bytes + fp.index_bytes,
                "the slabs are part of the two figures"
            );
            let circuit = fp.circuit_bytes as f64 / fp.boxes as f64;
            let index = fp.index_bytes as f64 / fp.boxes as f64;
            assert!(
                circuit <= *budget as f64,
                "{name}: the circuit costs {circuit:.1} B per box at n = {n} (budget {budget})"
            );
            per_box.push((n, circuit, index));
        }
        eprintln!("{name}: (n, circuit, index) bytes per box {per_box:?}");
        let max = per_box.iter().map(|p| p.1).fold(f64::MIN, f64::max);
        let min = per_box.iter().map(|p| p.1).fold(f64::MAX, f64::min);
        assert!(
            max / min <= 1.1,
            "{name}: circuit bytes per box grow with the tree: {per_box:?}"
        );
    }
}

/// Slabs start with small chunks, so a query index over a small tree holds
/// little: under 64 KiB of slab words for `exists_label` over 10³ nodes,
/// and for every query no more slab words per box over 10³ nodes than
/// over 2¹⁶ (2¹² in debug builds) plus 10%, i.e. no fixed reservation.
#[test]
fn a_small_query_index_holds_a_small_slab() {
    let mut sigma = Alphabet::from_names(["a", "b", "c"]);
    let (a, b) = (sigma.get("a").unwrap(), sigma.get("b").unwrap());
    let small = random_tree(&mut sigma, 1000, TreeShape::Random, 7);
    let large = random_tree(&mut sigma, 1 << oracle_scale(16, 12), TreeShape::Random, 7);
    let words_per_box = |tree: &UnrankedTree, query: &StepwiseTva| {
        let fp = TreeEnumerator::new(tree.clone(), query, sigma.len()).footprint();
        (fp.slab_words, fp.slab_words as f64 / fp.boxes as f64)
    };
    for (name, query) in [
        ("exists_label", queries::exists_label(sigma.len(), b)),
        (
            "select_label",
            queries::select_label(sigma.len(), b, Var(0)),
        ),
        (
            "pair_query",
            queries::ancestor_descendant(sigma.len(), a, Var(0), b, Var(1)),
        ),
    ] {
        let (words, small_per_box) = words_per_box(&small, &query);
        let (_, large_per_box) = words_per_box(&large, &query);
        eprintln!(
            "{name}: {words} slab words over 10³ nodes; per box {small_per_box:.2} vs \
             {large_per_box:.2} over {} nodes",
            large.len()
        );
        if name == "exists_label" {
            assert!(8 * words < 64 << 10, "{words} slab words over 10³ nodes");
        }
        assert!(
            small_per_box <= 1.1 * large_per_box,
            "{name}: a small index holds {small_per_box:.2} slab words per box, a large one \
             {large_per_box:.2}"
        );
    }
}
