//! Balanced construction of forest-algebra terms (the encoding scheme of Lemma 7.4).
//!
//! `build_balanced_term` produces, for an unranked tree `T`, a term of height
//! `O(log |T|)` that represents it.  The construction splits forests horizontally at
//! weight midpoints and single trees at (approximate) centroids, peeling off either a
//! heavy subtree (`⊙VH` at a node whose children forest has weight between `W/3` and
//! `2W/3`) or the whole children forest of the deepest heavy node (which the next
//! horizontal split then halves), so every O(1) levels the weight drops by a constant
//! factor.
//!
//! Each top-level call flattens its piece once into a preorder table sized to the
//! piece: a subtree, and a forest of consecutive siblings, is then a range of the
//! table, and every weight the splits read is O(1) arithmetic on it.  One level of
//! the recursion scans at most its own piece (the roots of a forest, the children
//! along a heavy path), and the pieces of one level are disjoint, so a build of `n`
//! nodes costs `O(n log n)` time and `O(n)` space.
//!
//! The same routines are reused by the update machinery to rebuild subterms when an
//! edit makes them weight-unbalanced.

use crate::term::{Term, TermNodeId, TermNodeKind, TermOp};
use treenum_trees::unranked::{NodeId, UnrankedTree};

/// The `φ` mapping from tree nodes to their term leaves, dense over the tree's node
/// arena: `phi[n.index()]` is the leaf encoding `n`, `None` for a freed slot.
pub type Phi = Vec<Option<TermNodeId>>;

/// Records `φ(n) = leaf`, growing the slab to cover `n`.
pub(crate) fn set_phi(phi: &mut Phi, n: NodeId, leaf: TermNodeId) {
    if phi.len() <= n.index() {
        phi.resize(n.index() + 1, None);
    }
    phi[n.index()] = Some(leaf);
}

/// Builds a balanced term for the whole tree.  Returns the term and the `φ` mapping
/// from tree nodes to their term leaves.
pub fn build_balanced_term(tree: &UnrankedTree) -> (Term, Phi) {
    let mut term = Term::new();
    let mut phi = Vec::with_capacity(tree.len());
    let root = build_forest_subterm(tree, &[tree.root()], &mut term, &mut phi);
    term.set_root(root);
    (term, phi)
}

/// Builds a balanced subterm for the forest made of the subtrees rooted at the
/// consecutive siblings `roots` (within `tree`), registering the `φ` mapping of every
/// node it encodes.  Exposed for the rebuilding step of the update machinery.
pub fn build_forest_subterm(
    tree: &UnrankedTree,
    roots: &[NodeId],
    term: &mut Term,
    phi: &mut Phi,
) -> TermNodeId {
    assert!(
        !roots.is_empty(),
        "a forest subterm needs at least one tree"
    );
    let (mut piece, _) = Piece::flatten(tree, roots, None, term, phi);
    piece.forest(0, piece.order.len())
}

/// Builds a balanced subterm for the context made of the subtrees rooted at `roots`,
/// where the children of `hole` (a descendant of one of the roots, possibly a root
/// itself) are excluded and supplied later through the hole.
pub fn build_context_subterm(
    tree: &UnrankedTree,
    roots: &[NodeId],
    hole: NodeId,
    term: &mut Term,
    phi: &mut Phi,
) -> TermNodeId {
    assert!(!roots.is_empty());
    let (mut piece, h) = Piece::flatten(tree, roots, Some(hole), term, phi);
    let h = h.expect("the hole must lie under one of the roots");
    piece.context(0, piece.order.len(), h)
}

/// One piece's preorder table plus the term under construction.  `order[i]` is the
/// `i`-th node of the piece in preorder and `size[i]` the size of its subtree, so
/// that subtree is the range `i..i + size[i]` and consecutive siblings span a range
/// too.  The table stops at the piece's hole, whose children are supplied through
/// the hole.
struct Piece<'a> {
    tree: &'a UnrankedTree,
    order: Vec<NodeId>,
    size: Vec<usize>,
    term: &'a mut Term,
    phi: &'a mut Phi,
}

impl<'a> Piece<'a> {
    /// Flattens the subtrees of `roots`, without the children of `hole`, and returns
    /// the piece and the table position of `hole`.
    fn flatten(
        tree: &'a UnrankedTree,
        roots: &[NodeId],
        hole: Option<NodeId>,
        term: &'a mut Term,
        phi: &'a mut Phi,
    ) -> (Self, Option<usize>) {
        let (mut order, mut size, mut hole_at) = (Vec::new(), Vec::new(), None);
        // Table positions of the nodes whose subtree is still being flattened.
        let mut open = Vec::new();
        for &root in roots {
            let mut n = root;
            'walk: loop {
                let below = if Some(n) == hole {
                    hole_at = Some(order.len());
                    None
                } else {
                    tree.first_child(n)
                };
                open.push(order.len());
                order.push(n);
                size.push(1);
                if let Some(c) = below {
                    n = c;
                    continue;
                }
                // Close `n`, and each ancestor whose last child closes with it.
                loop {
                    let i = open.pop().expect("an open node");
                    size[i] = order.len() - i;
                    if n == root {
                        break 'walk;
                    }
                    if let Some(s) = tree.next_sibling(n) {
                        n = s;
                        continue 'walk;
                    }
                    n = tree.parent(n).expect("inside the root's subtree");
                }
            }
        }
        let piece = Piece {
            tree,
            order,
            size,
            term,
            phi,
        };
        (piece, hole_at)
    }

    fn leaf(&mut self, i: usize, as_context: bool) -> TermNodeId {
        let node = self.order[i];
        let label = self.tree.label(node);
        let kind = if as_context {
            TermNodeKind::ContextLeaf { label, node }
        } else {
            TermNodeKind::TreeLeaf { label, node }
        };
        let id = self.term.add_leaf(kind);
        set_phi(self.phi, node, id);
        id
    }

    /// The roots of the forest `lo..hi`, in sibling order.
    fn roots(&self, lo: usize, hi: usize) -> impl Iterator<Item = usize> + '_ {
        let within = move |r: usize| Some(r).filter(|&r| r < hi);
        std::iter::successors(within(lo), move |&r| within(r + self.size[r]))
    }

    /// The children of `i`, in sibling order.
    fn children(&self, i: usize) -> impl Iterator<Item = usize> + '_ {
        self.roots(i + 1, i + self.size[i])
    }

    /// Builds the forest `lo..hi`, which holds no hole: weights are subtree sizes.
    fn forest(&mut self, lo: usize, hi: usize) -> TermNodeId {
        if lo + self.size[lo] < hi {
            let mid = self.split_roots(lo, hi);
            let l = self.forest(lo, mid);
            let r = self.forest(mid, hi);
            return self.term.add_op(TermOp::OplusHH, l, r);
        }
        let w = self.size[lo];
        if w == 1 {
            // A single node: a_t.
            return self.leaf(lo, false);
        }
        // A single tree with children: find a split node whose children forest has weight
        // between W/3 and 2W/3 if possible; otherwise split off the whole children forest
        // of the deepest "heavy" node (the next horizontal split rebalances it).
        let split = self.tree_split(lo, w);
        let context = self.top_context(lo, split);
        let forest = self.forest(split + 1, split + self.size[split]);
        self.term.add_op(TermOp::OdotVH, context, forest)
    }

    /// Splits the roots of `lo..hi` (at least two) into two non-empty halves of
    /// (approximately) equal weight; returns where the right half starts.
    fn split_roots(&self, lo: usize, hi: usize) -> usize {
        let mut last = lo;
        for r in self.roots(lo, hi).skip(1) {
            if (r - lo) * 2 >= hi - lo {
                return r;
            }
            last = r;
        }
        // The midpoint falls inside the last root: it alone forms the right half.
        last
    }

    /// Finds the node at which to split the single tree at `root` of weight `w ≥ 2`:
    /// walk down the heaviest children while the children forest is heavier than
    /// `2w/3`; if the node we stop at has children forest weight `≥ w/3` use it,
    /// otherwise use its parent on the walk (splitting off a heavy children forest
    /// that the horizontal split then halves).
    fn tree_split(&self, root: usize, w: usize) -> usize {
        let (mut prev, mut cur) = (root, root);
        loop {
            let cw = self.size[cur] - 1;
            if cw * 3 <= 2 * w {
                // cur's children forest is light enough; if it is too light, split
                // at the parent instead.
                return if cw * 3 >= w || prev == cur {
                    cur
                } else {
                    prev
                };
            }
            // Descend into the heaviest child (the last one on ties).
            let heaviest = self
                .children(cur)
                .max_by_key(|&c| self.size[c])
                .expect("a heavy children forest is non-empty");
            prev = cur;
            cur = heaviest;
        }
    }

    /// Builds the context `lo..hi` whose hole is `h`.  The nodes below `h` are not
    /// part of it, so a node `m` on the path to the hole weighs
    /// `size[m] + 1 - size[h]` and its children forest `size[m] - size[h]`.
    fn context(&mut self, lo: usize, hi: usize, h: usize) -> TermNodeId {
        // The root holding the hole (`r` is an ancestor of `h` iff `h < r + size[r]`).
        let p = self
            .roots(lo, hi)
            .find(|&r| h < r + self.size[r])
            .expect("the hole lies in the context");
        let end = p + self.size[p];
        if lo < p || end < hi {
            // Split off the plain trees left and right of the hole tree; each side is a
            // balanced forest, the hole tree is a single-tree context handled below.
            let mut ctx = self.context(p, end, h);
            if end < hi {
                let rf = self.forest(end, hi);
                ctx = self.term.add_op(TermOp::OplusVH, ctx, rf);
            }
            if lo < p {
                let lf = self.forest(lo, p);
                ctx = self.term.add_op(TermOp::OplusHV, lf, ctx);
            }
            return ctx;
        }
        if lo == h {
            return self.leaf(lo, true);
        }
        // Split the hole path: find the first node `m` on the path from the root whose
        // children weight drops to ≤ 2w/3.  If that weight is ≥ w/3 split there with
        // ⊙VV; otherwise split at its parent on the path (peeling a light context top,
        // the recursion on the heavy children forest rebalances horizontally).  The
        // hole itself has children weight 0 < w/3, so the split is a strict ancestor.
        let w = self.size[lo] + 1 - self.size[h];
        let (mut prev, mut m) = (lo, lo);
        let split = loop {
            let cw = self.size[m] - self.size[h];
            if cw * 3 <= 2 * w {
                break if cw * 3 >= w || m == lo { m } else { prev };
            }
            prev = m;
            m = self
                .children(m)
                .find(|&c| h < c + self.size[c])
                .expect("the path continues to the hole");
        };
        debug_assert_ne!(split, h);
        // Upper part: the context of the root with the children of `split` removed.
        // Lower part: the children forest of `split` as a context with the original hole.
        let upper = self.top_context(lo, split);
        let lower = self.context(split + 1, split + self.size[split], h);
        self.term.add_op(TermOp::OdotVV, upper, lower)
    }

    /// Builds the context "the subtree of `root` with the children of `cut` removed",
    /// where `cut` is a descendant-or-self of `root`: `root_□` when `cut == root`,
    /// otherwise a context with its hole at `cut`.
    fn top_context(&mut self, root: usize, cut: usize) -> TermNodeId {
        if cut == root {
            return self.leaf(root, true);
        }
        self.context(root, root + self.size[root], cut)
    }
}

/// Checks that `phi` is the bijection between the live nodes of `tree` and the
/// leaves of `term`: every live node maps to a live leaf of the term that encodes
/// it, as an `a_□` leaf iff the node has children, and every freed slot maps to
/// nothing.
///
/// # Panics
/// Panics on any violation.
pub fn check_phi(tree: &UnrankedTree, term: &Term, phi: &Phi) {
    let leaves = term.subtree_leaves(term.root());
    assert_eq!(
        leaves.len(),
        tree.len(),
        "term leaves and tree nodes differ in number"
    );
    for leaf in leaves {
        let n = term
            .leaf_tree_node(leaf)
            .expect("a term leaf encodes a tree node");
        assert!(
            tree.is_live(n),
            "term leaf {leaf:?} encodes the freed node {n:?}"
        );
        assert_eq!(
            phi.get(n.index()).copied().flatten(),
            Some(leaf),
            "φ({n:?}) is not its leaf"
        );
        let is_context = matches!(term.kind(leaf), TermNodeKind::ContextLeaf { .. });
        assert_eq!(is_context, !tree.is_leaf(n), "leaf kind mismatch for {n:?}");
    }
    for (i, leaf) in phi.iter().enumerate() {
        assert!(
            leaf.is_none() || tree.is_live(NodeId(i as u32)),
            "φ maps the freed slot n{i}"
        );
    }
}

/// Decodes a term back into the unranked tree it represents (test oracle): returns
/// the forest of the root as a fresh [`UnrankedTree`] (which must be a single tree).
pub fn decode_term(term: &Term, original: &UnrankedTree) -> UnrankedTree {
    // Evaluate the term bottom-up into forests/contexts of "shapes".
    #[derive(Clone, Debug)]
    enum Piece {
        Forest(Vec<Shape>),
        Context(Vec<Shape>),
    }
    #[derive(Clone, Debug)]
    struct Shape {
        node: NodeId,
        children: Vec<Shape>,
        is_hole: bool,
    }
    fn eval(term: &Term, n: TermNodeId) -> Piece {
        match term.kind(n) {
            TermNodeKind::TreeLeaf { node, .. } => Piece::Forest(vec![Shape {
                node,
                children: vec![],
                is_hole: false,
            }]),
            TermNodeKind::ContextLeaf { node, .. } => Piece::Context(vec![Shape {
                node,
                children: vec![Shape {
                    node: NodeId(u32::MAX),
                    children: vec![],
                    is_hole: true,
                }],
                is_hole: false,
            }]),
            TermNodeKind::Op(op) => {
                let (l, r) = term.children(n).unwrap();
                let pl = eval(term, l);
                let pr = eval(term, r);
                fn plug(shapes: &mut Vec<Shape>, filler: &[Shape]) -> bool {
                    for i in 0..shapes.len() {
                        if shapes[i].is_hole {
                            shapes.splice(i..=i, filler.iter().cloned());
                            return true;
                        }
                        if plug(&mut shapes[i].children, filler) {
                            return true;
                        }
                    }
                    false
                }
                match (op, pl, pr) {
                    (TermOp::OplusHH, Piece::Forest(mut a), Piece::Forest(b)) => {
                        a.extend(b);
                        Piece::Forest(a)
                    }
                    (TermOp::OplusHV, Piece::Forest(mut a), Piece::Context(b)) => {
                        a.extend(b);
                        Piece::Context(a)
                    }
                    (TermOp::OplusVH, Piece::Context(mut a), Piece::Forest(b)) => {
                        a.extend(b);
                        Piece::Context(a)
                    }
                    (TermOp::OdotVV, Piece::Context(mut a), Piece::Context(b)) => {
                        assert!(plug(&mut a, &b), "no hole found for ⊙VV");
                        Piece::Context(a)
                    }
                    (TermOp::OdotVH, Piece::Context(mut a), Piece::Forest(b)) => {
                        assert!(plug(&mut a, &b), "no hole found for ⊙VH");
                        Piece::Forest(a)
                    }
                    other => panic!("sort mismatch while decoding: {:?}", other.0),
                }
            }
        }
    }
    let piece = eval(term, term.root());
    let Piece::Forest(shapes) = piece else {
        panic!("the root of a term must be forest-sorted");
    };
    assert_eq!(shapes.len(), 1, "the term must represent a single tree");
    // Rebuild an UnrankedTree with the original labels.
    fn rebuild(shape: &Shape, original: &UnrankedTree, out: &mut UnrankedTree, at: NodeId) {
        for child in &shape.children {
            assert!(!child.is_hole, "unfilled hole in a decoded term");
            let c = out.insert_last_child(at, original.label(child.node));
            rebuild(child, original, out, c);
        }
    }
    let root_shape = &shapes[0];
    let mut out = UnrankedTree::new(original.label(root_shape.node));
    let root = out.root();
    rebuild(root_shape, original, &mut out, root);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use treenum_trees::generate::{random_tree, TreeShape};
    use treenum_trees::Alphabet;

    fn check_round_trip(tree: &UnrankedTree) {
        let (term, phi) = build_balanced_term(tree);
        term.check_invariants();
        check_phi(tree, &term, &phi);
        assert_eq!(term.weight(term.root()), tree.len());
        let decoded = decode_term(&term, tree);
        assert!(
            decoded.structurally_equal(tree),
            "decoded term differs from the original tree"
        );
    }

    #[test]
    fn round_trip_small_trees() {
        let mut sigma = Alphabet::from_names(["a", "b", "c"]);
        let a = sigma.get("a").unwrap();
        let b = sigma.get("b").unwrap();
        // single node
        check_round_trip(&UnrankedTree::new(a));
        // a(b)
        let mut t = UnrankedTree::new(a);
        t.insert_last_child(t.root(), b);
        check_round_trip(&t);
        // a(b, b, b)
        let mut t2 = UnrankedTree::new(a);
        for _ in 0..3 {
            t2.insert_last_child(t2.root(), b);
        }
        check_round_trip(&t2);
        // random shapes
        for shape in [TreeShape::Random, TreeShape::Deep, TreeShape::Wide] {
            for seed in 0..5 {
                let t = random_tree(&mut sigma, 40, shape, seed);
                check_round_trip(&t);
            }
        }
    }

    /// A context piece with its hole at a random internal node, plugged with the
    /// forest of the hole's children, encodes the original tree.
    #[test]
    fn context_pieces_round_trip() {
        let mut sigma = Alphabet::from_names(["a", "b", "c"]);
        for shape in [TreeShape::Random, TreeShape::Deep, TreeShape::Wide] {
            for seed in 0..4u64 {
                let n = 300 + 550 * seed as usize;
                let tree = random_tree(&mut sigma, n, shape, seed);
                let internal: Vec<NodeId> = tree
                    .preorder()
                    .into_iter()
                    .filter(|&v| !tree.is_leaf(v))
                    .collect();
                for k in 0..6u64 {
                    let pick = (seed * 7 + k).wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 32;
                    let hole = internal[pick as usize % internal.len()];
                    let mut term = Term::new();
                    let mut phi = Phi::new();
                    let ctx =
                        build_context_subterm(&tree, &[tree.root()], hole, &mut term, &mut phi);
                    assert_eq!(term.weight(ctx), n - (tree.subtree_size(hole) - 1));
                    let children: Vec<NodeId> = tree.children(hole).collect();
                    let forest = build_forest_subterm(&tree, &children, &mut term, &mut phi);
                    let root = term.add_op(TermOp::OdotVH, ctx, forest);
                    term.set_root(root);
                    term.check_invariants();
                    check_phi(&tree, &term, &phi);
                    assert!(decode_term(&term, &tree).structurally_equal(&tree));
                    let h = term.height();
                    assert!(
                        h <= 4 * (n.ilog2() as usize + 1),
                        "height {h} for {n} nodes"
                    );
                }
            }
        }
    }

    #[test]
    fn deep_trees_get_logarithmic_height() {
        let sigma = Alphabet::from_names(["a"]);
        let a = sigma.get("a").unwrap();
        // A pure path of length 512.
        let mut t = UnrankedTree::new(a);
        let mut cur = t.root();
        for _ in 0..511 {
            cur = t.insert_last_child(cur, a);
        }
        let (term, _) = build_balanced_term(&t);
        term.check_invariants();
        let h = term.height();
        assert!(
            h <= 6 * 10,
            "height {h} is not logarithmic for a path of 512 nodes"
        );
        assert!(decode_term(&term, &t).structurally_equal(&t));
    }

    #[test]
    fn wide_trees_get_logarithmic_height() {
        let sigma = Alphabet::from_names(["a"]);
        let a = sigma.get("a").unwrap();
        // A star with 512 leaves.
        let mut t = UnrankedTree::new(a);
        for _ in 0..512 {
            t.insert_last_child(t.root(), a);
        }
        let (term, _) = build_balanced_term(&t);
        let h = term.height();
        assert!(
            h <= 60,
            "height {h} is not logarithmic for a star of 513 nodes"
        );
        assert!(decode_term(&term, &t).structurally_equal(&t));
    }

    #[test]
    fn random_trees_height_scales_logarithmically() {
        let mut sigma = Alphabet::from_names(["a", "b"]);
        let t_small = random_tree(&mut sigma, 128, TreeShape::Random, 7);
        let t_large = random_tree(&mut sigma, 4096, TreeShape::Random, 7);
        let (term_small, _) = build_balanced_term(&t_small);
        let (term_large, _) = build_balanced_term(&t_large);
        // 32x more nodes should cost only a constant number of extra levels per
        // doubling, far less than 32x the height.
        assert!(term_large.height() < term_small.height() + 60);
        assert!(decode_term(&term_large, &t_large).structurally_equal(&t_large));
    }
}
