//! Maintenance of balanced terms under the edit operations of Definition 7.1.
//!
//! Every edit is first realized by an `O(1)` splice of term nodes anchored at the
//! term leaf of the edited tree node (this is the paper's *tree hollowing*: the new
//! term reuses all untouched subterms).  The splice can degrade balance, so
//! [`apply_edits`] then applies scapegoat-style partial rebuilding: while some
//! touched node is too deep relative to `log₂` of the term weight, the lowest
//! ancestor whose subterm is too deep for its own weight is rebuilt from scratch
//! with the balanced construction of [`crate::build`].  This gives amortized
//! logarithmic work per edit and keeps the term height logarithmic, which is what
//! the circuit-repair cost of Lemma 7.3 depends on.  A single edit is a one-op
//! batch.
//!
//! [`apply_edits`] reports every term node whose subterm changed (`dirty`,
//! bottom-up), every node that got new children (`relinked`) and every freed
//! node, so the engine can repair the assignment circuit and the enumeration
//! index for exactly those boxes.

use crate::build::{build_context_subterm, build_forest_subterm, set_phi, Phi};
use crate::term::{Sort, Term, TermNodeId, TermNodeKind, TermOp};
use treenum_trees::edit::EditOp;
use treenum_trees::unranked::{NodeId, UnrankedTree};

/// Multiplier on `log₂(n)` above which a spliced leaf triggers a rebuild.
const DEPTH_SLACK: usize = 4;

/// The outcome of applying one edit to the term.
#[derive(Clone, Debug, Default)]
pub struct UpdateReport {
    /// Term nodes whose subterm changed, in bottom-up order (children before
    /// parents).  The engine must recompute the circuit box and index entry of each.
    pub dirty: Vec<TermNodeId>,
    /// Term nodes that were removed from the term (their boxes must be freed).
    pub freed: Vec<TermNodeId>,
    /// Internal term nodes that got new children, in splice order, each
    /// with the children it had before (a node made in this edit is new
    /// anyway and not listed).  A relinked node may keep both children's
    /// `γ` — a deletion hoists an unchanged sibling under its grandparent —
    /// so its box must be recomputed even then.
    pub relinked: Vec<Relink>,
    /// The tree node created by an insertion, if any.
    pub inserted: Option<NodeId>,
}

/// A term node that got new children, and the children it had before.
pub type Relink = (TermNodeId, (TermNodeId, TermNodeId));

/// `term.replace_child(parent, old, new)`, returning the relink it makes.
fn relink(term: &mut Term, parent: TermNodeId, old: TermNodeId, new: TermNodeId) -> Relink {
    let before = term.children(parent).expect("a parent is internal");
    term.replace_child(parent, old, new);
    (parent, before)
}

/// The merged outcome of applying a batch of edits ([`apply_edits`]).
///
/// The per-edit reports are kept in application order because the order is
/// semantically meaningful: a term arena slot freed by one edit can be reused
/// by a later edit of the same batch, so a consumer repairing derived
/// structures (circuit boxes, index entries) must replay the `(freed, dirty)`
/// pairs sequentially — a slot is "currently freed" only until a later report
/// dirties it again.  The engine's `TreeEnumerator::apply_batch` folds the
/// replay into one epoch-marked dirty set and repairs the union of the spines
/// once, which is the whole point of batching.
#[derive(Clone, Debug, Default)]
pub struct BatchReport {
    /// One [`UpdateReport`] per edit, in application order.
    pub reports: Vec<UpdateReport>,
}

impl BatchReport {
    /// The tree nodes created by the batch's insertions, in application order.
    pub fn inserted(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.reports.iter().filter_map(|r| r.inserted)
    }

    /// Total number of dirty entries across all reports (before any dedup);
    /// sequential repair would visit exactly this many spine nodes.
    pub fn dirty_len(&self) -> usize {
        self.reports.iter().map(|r| r.dirty.len()).sum()
    }
}

/// Applies every edit of `ops` in order, deferring the scapegoat rebalancing
/// to **one** end-of-batch sweep, and returns the per-edit reports (plus one
/// report per end-of-batch rebuild) bundled for a single deduplicated
/// downstream repair pass.  This is the only term update: a single edit is a
/// one-op batch.
///
/// The resulting *tree* does not depend on how `ops` is split into batches;
/// the *term* may (it is rebalanced once per batch instead of once per op)
/// but satisfies the same invariants and the same height bound once the
/// batch completes.  Deferring matters for clustered batches: an insert
/// flood into one hot subtree would otherwise pay several rebuilds of a
/// growing pocket, where the batch pays for at most a few rebuilds of the
/// final shape.  Mid-batch the term can transiently exceed the depth limit
/// by at most `ops.len()`, which only lengthens the spines of the batch's
/// own dirty reports.
pub fn apply_edits(
    tree: &mut UnrankedTree,
    term: &mut Term,
    phi: &mut Phi,
    ops: &[EditOp],
) -> BatchReport {
    let mut reports: Vec<UpdateReport> = ops
        .iter()
        .map(|op| splice_edit(tree, term, phi, op))
        .collect();
    // One rebalancing sweep over everything the batch touched, repeated
    // until no touched node is too deep (each pass rebuilds the lowest
    // violating ancestor of the currently deepest violator — the flooded
    // pocket, see `rebalance_scapegoat`; a rebuilt subtree is internally
    // balanced, so at most a few passes run even for floods).  The touched
    // set holds k near-complete spines, so depths go through the term's memo
    // — bare `term.depth` walks would cost O(k · log²n) per sweep.
    let mut touched: Vec<TermNodeId> =
        Vec::with_capacity(reports.iter().map(|r| r.dirty.len()).sum());
    touched.extend(reports.iter().flat_map(|r| r.dirty.iter().copied()));
    loop {
        touched.retain(|&n| term.is_live(n));
        let deepest = touched.iter().map(|&n| (term.depth_memoized(n), n)).max();
        let Some((depth, deepest)) = deepest else {
            break;
        };
        match rebalance_scapegoat(tree, term, phi, deepest, depth as usize) {
            None => break,
            Some(extra) => {
                touched.extend(extra.dirty.iter().copied());
                reports.push(extra);
            }
        }
    }
    BatchReport { reports }
}

/// The `O(1)` splice realizing `op` on both the unranked tree and its balanced
/// term (keeping the `φ` mapping up to date), *without* rebalancing —
/// [`apply_edits`] rebalances once per batch.
fn splice_edit(
    tree: &mut UnrankedTree,
    term: &mut Term,
    phi: &mut Phi,
    op: &EditOp,
) -> UpdateReport {
    match *op {
        EditOp::Relabel { node, label } => {
            tree.relabel(node, label);
            let leaf = leaf_of(phi, node);
            let kind = match term.kind(leaf) {
                TermNodeKind::TreeLeaf { node, .. } => TermNodeKind::TreeLeaf { label, node },
                TermNodeKind::ContextLeaf { node, .. } => TermNodeKind::ContextLeaf { label, node },
                TermNodeKind::Op(_) => unreachable!("φ maps tree nodes to term leaves"),
            };
            term.set_leaf_kind(leaf, kind);
            UpdateReport {
                dirty: ancestors_inclusive(term, leaf).collect(),
                ..UpdateReport::default()
            }
        }
        EditOp::InsertFirstChild { parent, label } => {
            let was_leaf = tree.is_leaf(parent);
            let fresh = tree.insert_first_child(parent, label);
            let report = if was_leaf {
                insert_below_leaf(tree, term, phi, parent, fresh)
            } else {
                // Anchor at the previous first child (now the second child).
                let anchor = tree.children(parent).nth(1).expect("parent had children");
                insert_left_of(tree, term, phi, anchor, fresh)
            };
            UpdateReport {
                inserted: Some(fresh),
                ..report
            }
        }
        EditOp::InsertRightSibling { sibling, label } => {
            let fresh = tree.insert_right_sibling(sibling, label);
            let report = insert_right_of(tree, term, phi, sibling, fresh);
            UpdateReport {
                inserted: Some(fresh),
                ..report
            }
        }
        EditOp::DeleteLeaf { node } => delete_leaf(tree, term, phi, node),
    }
}

/// The term leaf encoding the live tree node `n`.
fn leaf_of(phi: &Phi, n: NodeId) -> TermNodeId {
    phi[n.index()].expect("φ maps every live tree node")
}

/// `from` and then its ancestors, bottom-up.
fn ancestors_inclusive(term: &Term, from: TermNodeId) -> impl Iterator<Item = TermNodeId> + '_ {
    std::iter::successors(Some(from), |&n| term.parent(n))
}

/// A throwaway leaf of `sort`, holding an operand slot while a splice moves the
/// real operand.
fn placeholder(term: &mut Term, sort: Sort) -> TermNodeId {
    let (label, node) = (treenum_trees::Label(0), NodeId(u32::MAX));
    term.add_leaf(match sort {
        Sort::Forest => TermNodeKind::TreeLeaf { label, node },
        Sort::Context => TermNodeKind::ContextLeaf { label, node },
    })
}

/// Wraps `target` under a fresh `op` node whose other operand is `sibling`
/// (`sibling_on_left` selects the operand order), keeping the term attached.
/// Returns the new operator node and its parent's relink, if it has one.
fn wrap_above(
    term: &mut Term,
    target: TermNodeId,
    op: TermOp,
    sibling: TermNodeId,
    sibling_on_left: bool,
) -> (TermNodeId, Option<Relink>) {
    let parent = term.parent(target);
    // A placeholder of the same sort as `target` so the sort checks in `add_op` pass.
    let sort = term.sort(target);
    let placeholder = placeholder(term, sort);
    let new_op = if sibling_on_left {
        term.add_op(op, sibling, placeholder)
    } else {
        term.add_op(op, placeholder, sibling)
    };
    let relinked = match parent {
        Some(p) => Some(relink(term, p, target, new_op)),
        None => {
            term.replace_root(new_op);
            None
        }
    };
    term.replace_child(new_op, placeholder, target);
    term.free_subtree(placeholder);
    if let Some(p) = parent {
        term.recompute_weights_upwards(p);
    }
    (new_op, relinked)
}

/// `fresh` becomes the only child of the (previous) tree leaf `parent`:
/// `parent_t` turns into `⊙VH(parent_□, fresh_t)`.
fn insert_below_leaf(
    tree: &UnrankedTree,
    term: &mut Term,
    phi: &mut Phi,
    parent: NodeId,
    fresh: NodeId,
) -> UpdateReport {
    let old_leaf = leaf_of(phi, parent);
    term.set_leaf_kind(
        old_leaf,
        TermNodeKind::ContextLeaf {
            label: tree.label(parent),
            node: parent,
        },
    );
    let fresh_leaf = term.add_leaf(TermNodeKind::TreeLeaf {
        label: tree.label(fresh),
        node: fresh,
    });
    let (new_op, relinked) = wrap_above(term, old_leaf, TermOp::OdotVH, fresh_leaf, false);
    set_phi(phi, fresh, fresh_leaf);
    let mut dirty = vec![old_leaf, fresh_leaf];
    dirty.extend(ancestors_inclusive(term, new_op));
    UpdateReport {
        dirty,
        relinked: relinked.into_iter().collect(),
        ..UpdateReport::default()
    }
}

/// Inserts `fresh` (a new tree leaf) immediately left of `anchor` in sibling order.
fn insert_left_of(
    tree: &UnrankedTree,
    term: &mut Term,
    phi: &mut Phi,
    anchor: NodeId,
    fresh: NodeId,
) -> UpdateReport {
    let anchor_leaf = leaf_of(phi, anchor);
    let fresh_leaf = term.add_leaf(TermNodeKind::TreeLeaf {
        label: tree.label(fresh),
        node: fresh,
    });
    let op = match term.sort(anchor_leaf) {
        Sort::Forest => TermOp::OplusHH,
        Sort::Context => TermOp::OplusHV,
    };
    let (new_op, relinked) = wrap_above(term, anchor_leaf, op, fresh_leaf, true);
    set_phi(phi, fresh, fresh_leaf);
    let mut dirty = vec![fresh_leaf];
    dirty.extend(ancestors_inclusive(term, new_op));
    UpdateReport {
        dirty,
        relinked: relinked.into_iter().collect(),
        ..UpdateReport::default()
    }
}

/// Inserts `fresh` (a new tree leaf) immediately right of `anchor` in sibling order.
fn insert_right_of(
    tree: &UnrankedTree,
    term: &mut Term,
    phi: &mut Phi,
    anchor: NodeId,
    fresh: NodeId,
) -> UpdateReport {
    let anchor_leaf = leaf_of(phi, anchor);
    let fresh_leaf = term.add_leaf(TermNodeKind::TreeLeaf {
        label: tree.label(fresh),
        node: fresh,
    });
    let op = match term.sort(anchor_leaf) {
        Sort::Forest => TermOp::OplusHH,
        Sort::Context => TermOp::OplusVH,
    };
    let (new_op, relinked) = wrap_above(term, anchor_leaf, op, fresh_leaf, false);
    set_phi(phi, fresh, fresh_leaf);
    let mut dirty = vec![fresh_leaf];
    dirty.extend(ancestors_inclusive(term, new_op));
    UpdateReport {
        dirty,
        relinked: relinked.into_iter().collect(),
        ..UpdateReport::default()
    }
}

fn delete_leaf(
    tree: &mut UnrankedTree,
    term: &mut Term,
    phi: &mut Phi,
    node: NodeId,
) -> UpdateReport {
    let leaf = leaf_of(phi, node);
    let parent = term.parent(leaf).expect("the tree root cannot be deleted");
    let kind = term.kind(parent);
    tree.delete_leaf(node);
    phi[node.index()] = None;
    match kind {
        TermNodeKind::Op(TermOp::OplusHH)
        | TermNodeKind::Op(TermOp::OplusHV)
        | TermNodeKind::Op(TermOp::OplusVH) => {
            // Hoist the sibling operand over the ⊕ node.
            let (l, r) = term.children(parent).unwrap();
            let sibling = if l == leaf { r } else { l };
            let sibling_sort = term.sort(sibling);
            let placeholder = placeholder(term, sibling_sort);
            term.replace_child(parent, sibling, placeholder);
            let grand = term.parent(parent);
            let relinked = match grand {
                Some(g) => vec![relink(term, g, parent, sibling)],
                None => {
                    term.replace_root(sibling);
                    Vec::new()
                }
            };
            term.free_subtree(parent);
            let dirty = match grand {
                Some(g) => ancestors_inclusive(term, g).collect(),
                None => Vec::new(),
            };
            UpdateReport {
                dirty,
                freed: vec![parent, leaf, placeholder],
                relinked,
                inserted: None,
            }
        }
        TermNodeKind::Op(TermOp::OdotVH) => {
            // The deleted leaf was the entire hole filler: the hole-parent node loses
            // its last child.  Rebuild the forest represented by the ⊙VH node from the
            // (already edited) tree; the hole-parent automatically becomes an `a_t`.
            rebuild_subterm(tree, term, phi, parent)
        }
        _ => unreachable!("a forest-sorted leaf cannot be an operand of {:?}", kind),
    }
}

/// Rebuilds the subterm rooted at `z` from the current tree, replacing it in place.
/// Returns the dirty (new) nodes and the freed (old) nodes.
fn rebuild_subterm(
    tree: &UnrankedTree,
    term: &mut Term,
    phi: &mut Phi,
    z: TermNodeId,
) -> UpdateReport {
    // The hole of a context-sorted subterm.
    let hole = match term.sort(z) {
        Sort::Context => term.leaf_tree_node(term.hole_leaf(z)),
        Sort::Forest => None,
    };
    let roots = forest_roots(term, z);
    let parent_of_z = term.parent(z);
    let new_sub = match hole {
        None => build_forest_subterm(tree, &roots, term, phi),
        Some(h) => build_context_subterm(tree, &roots, h, term, phi),
    };
    let relinked = match parent_of_z {
        Some(p) => vec![relink(term, p, z, new_sub)],
        None => {
            term.replace_root(new_sub);
            Vec::new()
        }
    };
    let freed = term.subtree_postorder(z);
    term.free_subtree(z);
    if let Some(p) = parent_of_z {
        term.recompute_weights_upwards(p);
    }
    let mut dirty = term.subtree_postorder(new_sub);
    dirty.extend(ancestors_inclusive(term, new_sub).skip(1));
    UpdateReport {
        dirty,
        freed,
        relinked,
        inserted: None,
    }
}

/// The tree roots, in sibling order, of the forest or context that the subterm at
/// `z` encodes: a leaf's own node; the roots of both operands of a `⊕`; the roots
/// of the outer context of a `⊙`, whose other operand fills the hole below them.
fn forest_roots(term: &Term, z: TermNodeId) -> Vec<NodeId> {
    let mut roots = Vec::new();
    let mut stack = vec![z];
    while let Some(x) = stack.pop() {
        match term.kind(x) {
            TermNodeKind::Op(op) => {
                let (l, r) = term.children(x).expect("an operator has two operands");
                match op {
                    TermOp::OdotVV | TermOp::OdotVH => stack.push(l),
                    TermOp::OplusHH | TermOp::OplusHV | TermOp::OplusVH => stack.extend([r, l]),
                }
            }
            TermNodeKind::TreeLeaf { node, .. } | TermNodeKind::ContextLeaf { node, .. } => {
                roots.push(node)
            }
        }
    }
    roots
}

/// Scapegoat-style rebalancing, with the deepest touched node (and its depth)
/// already determined by the caller: if that depth exceeds
/// `DEPTH_SLACK · (log₂(n) + 1)`, walks the ancestors of `deepest` and rebuilds
/// the lowest one whose subterm is too deep relative to its own weight — the
/// flooded pocket itself.  Pocket rebuilds are small and land inside the
/// batch's shared dirty spine; the caller's sweep re-checks until no touched
/// node violates the global limit, which restores the height bound.
fn rebalance_scapegoat(
    tree: &UnrankedTree,
    term: &mut Term,
    phi: &mut Phi,
    deepest: TermNodeId,
    depth: usize,
) -> Option<UpdateReport> {
    let total = term.weight(term.root()).max(2);
    let limit = DEPTH_SLACK * (total.ilog2() as usize + 1);
    if depth <= limit {
        return None;
    }
    let mut below = 0usize;
    let mut cur = deepest;
    while let Some(p) = term.parent(cur) {
        below += 1;
        cur = p;
        let w = term.weight(p).max(2);
        if below > DEPTH_SLACK * (w.ilog2() as usize + 1) {
            break;
        }
    }
    // Without a violating ancestor the walk ends at the root: the absolute
    // depth comes from accumulated slack, and rebuilding the whole term
    // restores the bound regardless.
    Some(rebuild_subterm(tree, term, phi, cur))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::build::{build_balanced_term, check_phi, decode_term};
    use treenum_trees::generate::{random_tree, EditStream, TreeShape};
    use treenum_trees::Alphabet;

    fn check_consistency(tree: &UnrankedTree, term: &Term, phi: &Phi) {
        term.check_invariants();
        check_phi(tree, term, phi);
        let decoded = decode_term(term, tree);
        assert!(
            decoded.structurally_equal(tree),
            "term no longer represents the tree"
        );
    }

    /// One edit as a one-op batch, its reports merged into one.
    fn apply_one(
        tree: &mut UnrankedTree,
        term: &mut Term,
        phi: &mut Phi,
        op: &EditOp,
    ) -> UpdateReport {
        let batch = apply_edits(tree, term, phi, std::slice::from_ref(op));
        let mut merged = UpdateReport::default();
        for r in batch.reports {
            merged.dirty.extend(r.dirty);
            merged.freed.extend(r.freed);
            merged.inserted = merged.inserted.or(r.inserted);
        }
        merged
    }

    #[test]
    fn single_edits_keep_the_term_consistent() {
        let sigma = Alphabet::from_names(["a", "b", "c"]);
        let a = sigma.get("a").unwrap();
        let b = sigma.get("b").unwrap();
        let mut tree = UnrankedTree::new(a);
        let (mut term, mut phi) = build_balanced_term(&tree);
        // insert below the (leaf) root
        let r = tree.root();
        let rep = apply_one(
            &mut tree,
            &mut term,
            &mut phi,
            &EditOp::InsertFirstChild {
                parent: r,
                label: b,
            },
        );
        let c1 = rep.inserted.unwrap();
        check_consistency(&tree, &term, &phi);
        // insert a right sibling
        apply_one(
            &mut tree,
            &mut term,
            &mut phi,
            &EditOp::InsertRightSibling {
                sibling: c1,
                label: b,
            },
        );
        check_consistency(&tree, &term, &phi);
        // insert a new first child (anchored left of c1)
        apply_one(
            &mut tree,
            &mut term,
            &mut phi,
            &EditOp::InsertFirstChild {
                parent: r,
                label: b,
            },
        );
        check_consistency(&tree, &term, &phi);
        // relabel
        apply_one(
            &mut tree,
            &mut term,
            &mut phi,
            &EditOp::Relabel { node: c1, label: a },
        );
        check_consistency(&tree, &term, &phi);
        assert_eq!(tree.label(c1), a);
        // delete a leaf whose parent keeps other children
        apply_one(
            &mut tree,
            &mut term,
            &mut phi,
            &EditOp::DeleteLeaf { node: c1 },
        );
        check_consistency(&tree, &term, &phi);
        // delete down to a single node again
        let remaining: Vec<NodeId> = tree.children(r).collect();
        for n in remaining {
            apply_one(
                &mut tree,
                &mut term,
                &mut phi,
                &EditOp::DeleteLeaf { node: n },
            );
            check_consistency(&tree, &term, &phi);
        }
        assert_eq!(tree.len(), 1);
    }

    #[test]
    fn random_edit_sequences_preserve_consistency() {
        let mut sigma = Alphabet::from_names(["a", "b", "c"]);
        let labels: Vec<_> = sigma.labels().collect();
        for seed in 0..6u64 {
            let mut tree = random_tree(&mut sigma, 25, TreeShape::Random, seed);
            let (mut term, mut phi) = build_balanced_term(&tree);
            let mut stream = EditStream::balanced_mix(labels.clone(), seed * 31 + 7);
            for step in 0..120 {
                let op = stream.next_for(&tree);
                apply_one(&mut tree, &mut term, &mut phi, &op);
                if step % 20 == 19 {
                    check_consistency(&tree, &term, &phi);
                }
            }
            check_consistency(&tree, &term, &phi);
        }
    }

    #[test]
    fn repeated_insertions_keep_height_logarithmic() {
        let sigma = Alphabet::from_names(["a"]);
        let a = sigma.get("a").unwrap();
        let mut tree = UnrankedTree::new(a);
        let (mut term, mut phi) = build_balanced_term(&tree);
        // Build a path of 400 nodes purely through updates.
        let mut cur = tree.root();
        for _ in 0..400 {
            let op = EditOp::InsertFirstChild {
                parent: cur,
                label: a,
            };
            let rep = apply_one(&mut tree, &mut term, &mut phi, &op);
            cur = rep.inserted.unwrap();
        }
        check_consistency(&tree, &term, &phi);
        let h = term.height();
        let n = term.weight(term.root());
        assert!(
            h <= 6 * ((n as f64).log2() as usize + 1) + 8,
            "height {h} too large for weight {n}"
        );
    }

    /// Chunked batches against one-op batches of the same ops: the trees
    /// evolve identically (same inserted `NodeId`s), and after every chunk
    /// the batch term decodes to an independently edited shadow tree.
    #[test]
    fn apply_edits_matches_one_op_batches_on_the_tree() {
        let mut sigma = Alphabet::from_names(["a", "b", "c"]);
        let labels: Vec<_> = sigma.labels().collect();
        let chunks = treenum_trees::generate::oracle_scale(18, 9);
        for seed in 0..4u64 {
            let mut tree_batch = random_tree(&mut sigma, 20, TreeShape::Random, seed);
            let mut tree_seq = tree_batch.clone();
            let (mut term_batch, mut phi_batch) = build_balanced_term(&tree_batch);
            let (mut term_seq, mut phi_seq) = build_balanced_term(&tree_seq);
            // Each chunk is generated on the shadow copy just before it is
            // applied, so the shadow is the expected tree after every chunk.
            let mut shadow = tree_batch.clone();
            let mut stream = EditStream::balanced_mix(labels.clone(), seed * 13 + 5);
            for _ in 0..chunks {
                let chunk: Vec<EditOp> = (0..7).map(|_| stream.next_applied(&mut shadow)).collect();
                let batch = apply_edits(&mut tree_batch, &mut term_batch, &mut phi_batch, &chunk);
                // One report per op, plus possibly end-of-batch rebalance
                // reports (which never carry an insertion).
                assert!(batch.reports.len() >= chunk.len());
                let mut seq_inserted = Vec::new();
                for op in &chunk {
                    let seq_rep = apply_one(&mut tree_seq, &mut term_seq, &mut phi_seq, op);
                    seq_inserted.extend(seq_rep.inserted);
                }
                // The trees evolve identically (same NodeIds); the terms may
                // differ structurally (rebalancing runs once per batch) but
                // both must stay consistent encodings of the shadow tree.
                assert_eq!(batch.inserted().collect::<Vec<_>>(), seq_inserted);
                check_consistency(&tree_batch, &term_batch, &phi_batch);
                check_consistency(&tree_seq, &term_seq, &phi_seq);
                assert!(tree_batch.structurally_equal(&tree_seq));
                assert!(decode_term(&term_batch, &tree_batch).structurally_equal(&shadow));
            }
        }
    }

    #[test]
    fn batched_insert_floods_keep_height_logarithmic() {
        // The deferred end-of-batch rebalancing must restore the same height
        // bound one-op batches maintain, even for pure insert floods at one
        // spot (the adversarial case for deferral).
        let sigma = Alphabet::from_names(["a"]);
        let a = sigma.get("a").unwrap();
        let mut tree = UnrankedTree::new(a);
        let (mut term, mut phi) = build_balanced_term(&tree);
        let mut cur = tree.root();
        for _ in 0..12 {
            // One batch = a 32-op first-child chain flood below `cur`.
            let mut shadow = tree.clone();
            let mut anchor = cur;
            let mut ops = Vec::new();
            for _ in 0..32 {
                let op = EditOp::InsertFirstChild {
                    parent: anchor,
                    label: a,
                };
                anchor = shadow.apply(&op).unwrap();
                ops.push(op);
            }
            let batch = apply_edits(&mut tree, &mut term, &mut phi, &ops);
            cur = batch.inserted().last().unwrap();
            check_consistency(&tree, &term, &phi);
        }
        let h = term.height();
        let n = term.weight(term.root());
        assert_eq!(n, 12 * 32 + 1);
        assert!(
            h <= 6 * ((n as f64).log2() as usize + 1) + 8,
            "height {h} too large for weight {n} after batched floods"
        );
    }

    #[test]
    fn dirty_sets_cover_changed_structure() {
        let sigma = Alphabet::from_names(["a", "b"]);
        let a = sigma.get("a").unwrap();
        let b = sigma.get("b").unwrap();
        let mut tree = UnrankedTree::new(a);
        let (mut term, mut phi) = build_balanced_term(&tree);
        let root = tree.root();
        let rep = apply_one(
            &mut tree,
            &mut term,
            &mut phi,
            &EditOp::InsertFirstChild {
                parent: root,
                label: b,
            },
        );
        // Every dirty node must be live, and the root must be dirty (its content
        // depends on everything below).
        for &d in &rep.dirty {
            assert!(term.is_live(d));
        }
        assert!(rep.dirty.contains(&term.root()));
        // Bottom-up order: a node never appears before one of its descendants appears.
        for (i, &d) in rep.dirty.iter().enumerate() {
            for &later in &rep.dirty[i + 1..] {
                assert!(
                    !(term.is_live(later)
                        && term.is_live(d)
                        && is_strict_descendant(&term, later, d)),
                    "dirty list is not bottom-up"
                );
            }
        }
    }

    fn is_strict_descendant(term: &Term, maybe_desc: TermNodeId, anc: TermNodeId) -> bool {
        let mut cur = term.parent(maybe_desc);
        while let Some(p) = cur {
            if p == anc {
                return true;
            }
            cur = term.parent(p);
        }
        false
    }
}
