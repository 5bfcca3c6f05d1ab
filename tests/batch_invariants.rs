//! Property tests guarding the batch update path (`TreeEnumerator::apply_batch`):
//!
//! * batch-vs-sequential-vs-from-scratch oracle — applying 200+-op streams
//!   (`oracle_scale`: 80 in debug builds) in batches of k ∈ {1, 2, 7, 64}
//!   must produce the same inserted nodes and answer multisets as k
//!   sequential `apply` calls (each a one-op batch), and after **every**
//!   batch the same answers as a from-scratch `TreeEnumerator::new` on the
//!   independently edited shadow tree and a `check_consistency`-clean
//!   structure — across the `balanced_mix`, `skewed` and `burst` strategies and
//!   two query families;
//! * batches that insert and then delete the same node (net no-op batches)
//!   leave the structure consistent and the answers unchanged;
//! * burst delete-run batches that erase a whole subtree in one pass exercise
//!   `EnumIndex::remove_box` on boxes whose children were already removed
//!   earlier in the same batch;
//! * clustered (skewed) batches actually share spines: the batch dedup
//!   counters (`IndexStats::spine_nodes_deduped` / `batch_rebuilds`) must
//!   prove the shared ancestors were repaired once, not k times.

use treenum::automata::{queries, StepwiseTva};
use treenum::core::TreeEnumerator;
use treenum::trees::generate::{oracle_scale, random_tree, TreeShape};
use treenum::trees::valuation::Assignment;
use treenum::trees::{Alphabet, EditOp, EditStream, Label, NodeSampler, Var};

fn sorted(mut v: Vec<Assignment>) -> Vec<Assignment> {
    v.sort();
    v
}

fn query_families(sigma: &Alphabet) -> Vec<(&'static str, StepwiseTva)> {
    let a = sigma.get("a").unwrap();
    let b = sigma.get("b").unwrap();
    vec![
        ("select_b", queries::select_label(sigma.len(), b, Var(0))),
        (
            "ancestor_descendant",
            queries::ancestor_descendant(sigma.len(), a, Var(0), b, Var(1)),
        ),
    ]
}

/// Drives `total_ops`+ operations through both engines in batches of `k`,
/// comparing answers with each other and with a from-scratch engine on the
/// shadow tree after every batch, and the full state at the end.
fn batch_vs_sequential(
    make: fn(Vec<Label>, u64) -> EditStream,
    tag: &str,
    k: usize,
    total_ops: usize,
) {
    let mut sigma = Alphabet::from_names(["a", "b", "c"]);
    let labels: Vec<Label> = sigma.labels().collect();
    for (name, query) in query_families(&sigma) {
        let tree = random_tree(&mut sigma, 30, TreeShape::Random, 19);
        let mut batch_engine = TreeEnumerator::new(tree.clone(), &query, sigma.len());
        let mut seq_engine = TreeEnumerator::new(tree.clone(), &query, sigma.len());
        let mut shadow = tree;
        let mut sampler = NodeSampler::new(&shadow);
        let mut stream = make(labels.clone(), 600 + k as u64);
        let mut applied = 0usize;
        let mut batch_no = 0usize;
        while applied < total_ops {
            let ops = stream.next_batch_sampled(&mut shadow, &mut sampler, k);
            let batch_inserted = batch_engine.apply_batch(&ops);
            let seq_inserted: Vec<_> = ops.iter().filter_map(|op| seq_engine.apply(op)).collect();
            assert_eq!(
                batch_inserted, seq_inserted,
                "{tag}/{name} k={k}: inserted nodes diverged in batch {batch_no}"
            );
            // Every batch, not only the last: a stale box content that does
            // not yet change the answers must fail here, at its batch.
            batch_engine.check_consistency();
            let answers = sorted(batch_engine.assignments());
            assert_eq!(
                answers,
                sorted(seq_engine.assignments()),
                "{tag}/{name} k={k}: answers diverged after batch {batch_no}"
            );
            let cold = TreeEnumerator::new(shadow.clone(), &query, sigma.len());
            assert_eq!(
                answers,
                sorted(cold.assignments()),
                "{tag}/{name} k={k}: answers differ from a rebuild after batch {batch_no}"
            );
            applied += ops.len();
            batch_no += 1;
        }
        seq_engine.check_consistency();
        assert!(batch_engine.tree().structurally_equal(&shadow));
        // Against the brute-force oracle and a cold rebuild as well.
        let expected = sorted(
            query
                .satisfying_assignments(batch_engine.tree())
                .into_iter()
                .collect(),
        );
        assert_eq!(sorted(batch_engine.assignments()), expected);
        let cold = TreeEnumerator::new(batch_engine.tree().clone(), &query, sigma.len());
        assert_eq!(
            sorted(batch_engine.assignments()),
            sorted(cold.assignments())
        );
        let stats = batch_engine.index_stats();
        assert_eq!(stats.batch_rebuilds, batch_no as u64);
    }
}

#[test]
fn balanced_mix_batches_match_sequential() {
    let total = oracle_scale(220, 80);
    for k in [1usize, 2, 7, 64] {
        batch_vs_sequential(EditStream::balanced_mix, "balanced_mix", k, total);
    }
}

#[test]
fn skewed_batches_match_sequential() {
    let total = oracle_scale(220, 80);
    for k in [1usize, 2, 7, 64] {
        batch_vs_sequential(EditStream::skewed, "skewed", k, total);
    }
}

#[test]
fn burst_batches_match_sequential() {
    let total = oracle_scale(220, 80);
    for k in [1usize, 2, 7, 64] {
        batch_vs_sequential(EditStream::burst, "burst", k, total);
    }
}

#[test]
fn insert_then_delete_same_node_in_one_batch() {
    let mut sigma = Alphabet::from_names(["a", "b"]);
    let b = sigma.get("b").unwrap();
    let query = queries::select_label(sigma.len(), b, Var(0));
    let tree = random_tree(&mut sigma, 20, TreeShape::Random, 33);
    let mut engine = TreeEnumerator::new(tree.clone(), &query, sigma.len());
    let before = sorted(engine.assignments());
    // Craft the batch on a shadow copy so the fresh NodeIds are known before
    // the engine sees the ops: grow a two-node chain, then unwind it — the
    // batch is a net no-op.
    let mut shadow = tree;
    let anchor = shadow.root();
    let mut ops = Vec::new();
    let op = EditOp::InsertFirstChild {
        parent: anchor,
        label: b,
    };
    let a = shadow.apply(&op).unwrap();
    ops.push(op);
    let op = EditOp::InsertFirstChild {
        parent: a,
        label: b,
    };
    let c = shadow.apply(&op).unwrap();
    ops.push(op);
    for node in [c, a] {
        let op = EditOp::DeleteLeaf { node };
        shadow.apply(&op);
        ops.push(op);
    }
    let inserted = engine.apply_batch(&ops);
    assert_eq!(inserted, vec![a, c]);
    engine.check_consistency();
    assert!(engine.tree().structurally_equal(&shadow));
    assert_eq!(sorted(engine.assignments()), before);
}

#[test]
fn burst_delete_run_batch_erases_a_whole_subtree() {
    let mut sigma = Alphabet::from_names(["a", "b", "c"]);
    let b = sigma.get("b").unwrap();
    let query = queries::select_label(sigma.len(), b, Var(0));
    let tree = random_tree(&mut sigma, 60, TreeShape::Random, 12);
    let mut engine = TreeEnumerator::new(tree.clone(), &query, sigma.len());
    // Pick the largest non-root subtree and delete it leaf by leaf in ONE
    // batch: every interior deletion frees boxes whose children's entries
    // were already removed earlier in the same batch.
    let mut shadow = tree;
    let root = shadow.root();
    let target = shadow
        .preorder()
        .into_iter()
        .filter(|&n| n != root)
        .max_by_key(|&n| subtree_size(&shadow, n))
        .unwrap();
    let mut ops = Vec::new();
    while shadow.is_live(target) {
        // Descend to a leaf of the target subtree and delete it.
        let mut cur = target;
        while let Some(child) = shadow.children(cur).next() {
            cur = child;
        }
        let op = EditOp::DeleteLeaf { node: cur };
        shadow.apply(&op);
        ops.push(op);
    }
    assert!(ops.len() > 3, "target subtree too small to be interesting");
    engine.apply_batch(&ops);
    engine.check_consistency();
    assert!(engine.tree().structurally_equal(&shadow));
    let expected = sorted(
        query
            .satisfying_assignments(engine.tree())
            .into_iter()
            .collect(),
    );
    assert_eq!(sorted(engine.assignments()), expected);
}

fn subtree_size(tree: &treenum::trees::UnrankedTree, n: treenum::trees::NodeId) -> usize {
    let mut count = 0;
    let mut stack = vec![n];
    while let Some(m) = stack.pop() {
        count += 1;
        stack.extend(tree.children(m));
    }
    count
}

#[test]
fn clustered_batches_dedup_shared_spines() {
    let mut sigma = Alphabet::from_names(["a", "b"]);
    let labels: Vec<Label> = sigma.labels().collect();
    let b = sigma.get("b").unwrap();
    let query = queries::select_label(sigma.len(), b, Var(0));
    let tree = random_tree(&mut sigma, 400, TreeShape::Random, 77);
    let mut engine = TreeEnumerator::new(tree.clone(), &query, sigma.len());
    let mut shadow = tree;
    let mut sampler = NodeSampler::new(&shadow);
    let mut stream = EditStream::skewed(labels, 91);
    for _ in 0..6 {
        let ops = stream.next_batch_sampled(&mut shadow, &mut sampler, 64);
        engine.apply_batch(&ops);
    }
    let stats = engine.index_stats();
    assert_eq!(stats.batch_rebuilds, 6);
    assert!(
        stats.spine_nodes_deduped > 0,
        "clustered 64-op batches on a 400-node tree must share spine nodes \
         (deduped = {})",
        stats.spine_nodes_deduped
    );
    // The whole point: far fewer entry rebuilds than sequential repair would
    // pay.  Shared ancestors were repaired once per batch, so the dedup count
    // must be a large multiple of the rebuild-pass count.
    assert!(
        stats.spine_nodes_deduped >= 6 * 32,
        "expected heavy spine sharing, got {} deduped nodes over 6 batches",
        stats.spine_nodes_deduped
    );
    engine.check_consistency();
}

/// Circuits wider than 64 ∪-gates store relation rows of several words
/// (`⌈w/64⌉` per row).  `kth_child_from_end(·, 32, a, x)` has width 77; on
/// a tree of eight nodes with 40–47 children each it has answers.  After
/// every batch of an edit stream, the indexed and the reference walks must
/// give the same answer multiset and the structure must be
/// `check_consistency`-clean.
#[test]
fn wide_circuits_agree_with_the_reference_walk_after_every_batch() {
    use treenum::enumeration::boxenum::BoxEnumMode;
    use treenum::trees::UnrankedTree;
    let sigma = Alphabet::from_names(["a", "b"]);
    let labels: Vec<Label> = sigma.labels().collect();
    let (a, b) = (sigma.get("a").unwrap(), sigma.get("b").unwrap());
    let query = queries::kth_child_from_end(sigma.len(), 32, a, Var(0));
    let mut tree = UnrankedTree::new(b);
    for i in 0..8usize {
        let x = tree.insert_last_child(tree.root(), b);
        for j in 0..40 + i {
            tree.insert_last_child(x, if (i * j + j / 3) % 2 == 0 { a } else { b });
        }
    }
    let mut engine = TreeEnumerator::new(tree.clone(), &query, sigma.len());
    assert!(engine.count() > 1, "the tree has answers");
    let width = engine.stats().circuit_width;
    assert!(
        width > 64,
        "width {width} must take multi-word relation rows"
    );
    let mut shadow = tree;
    let mut sampler = NodeSampler::new(&shadow);
    let mut stream = EditStream::balanced_mix(labels, 41);
    for batch in 0..oracle_scale(12, 4) {
        let ops = stream.next_batch_sampled(&mut shadow, &mut sampler, 8);
        engine.apply_batch(&ops);
        engine.check_consistency();
        let indexed = sorted(engine.assignments());
        engine.set_box_enum_mode(BoxEnumMode::Reference);
        let reference = sorted(engine.assignments());
        engine.set_box_enum_mode(BoxEnumMode::Indexed);
        assert_eq!(indexed, reference, "batch {batch}: indexed ≠ reference");
    }
}
