//! Host-independent complexity-shape checks: the paper's bounds asserted on
//! work counters instead of on timings, so they hold on any machine.
//!
//! * **Delay** (Theorem 6.5): the work per answer does not depend on the
//!   tree.  `EnumStats::compositions` counts the relation compositions of
//!   Algorithm 3's walk (the jump to the first interesting box, each child
//!   step and each path step); per answer it must stay flat, within 10%,
//!   from n = 2¹⁰ to 2¹⁶ nodes (2⁸ to 2¹² in debug builds, see
//!   `oracle_scale`).

use treenum::automata::queries;
use treenum::core::TreeEnumerator;
use treenum::trees::generate::{oracle_scale, random_tree, TreeShape};
use treenum::trees::{Alphabet, Var};

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
