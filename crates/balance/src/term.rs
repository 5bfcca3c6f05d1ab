//! Forest-algebra terms (appendix E of the paper).
//!
//! A term is a binary tree whose leaves are `a_t` (a single tree node) or `a_□`
//! (a single node whose children will be supplied through the hole) and whose
//! internal nodes are the five forest-algebra operators.  Every node of the term has
//! a *sort*: `Forest` (a forest, no hole) or `Context` (a forest with exactly one
//! hole).  Each term leaf corresponds to exactly one node of the encoded unranked
//! tree: `a_t` leaves to leaf nodes, `a_□` leaves to internal nodes.

use std::fmt;
use treenum_trees::unranked::NodeId;
use treenum_trees::{ChunkedVec, Label, Topology};

/// The five forest-algebra operators.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum TermOp {
    /// Forest concatenation: forest ⊕ forest → forest.
    OplusHH,
    /// Forest–context concatenation: forest ⊕ context → context.
    OplusHV,
    /// Context–forest concatenation: context ⊕ forest → context.
    OplusVH,
    /// Context composition: context ⊙ context → context (plug the right context into
    /// the left context's hole).
    OdotVV,
    /// Context application: context ⊙ forest → forest (plug the forest into the
    /// hole).
    OdotVH,
}

impl TermOp {
    /// All five operators, in the label order used by [`TermAlphabet`].
    pub const ALL: [TermOp; 5] = [
        TermOp::OplusHH,
        TermOp::OplusHV,
        TermOp::OplusVH,
        TermOp::OdotVV,
        TermOp::OdotVH,
    ];

    /// The sort of the result of this operator.
    pub fn result_sort(self) -> Sort {
        match self {
            TermOp::OplusHH | TermOp::OdotVH => Sort::Forest,
            _ => Sort::Context,
        }
    }

    /// The expected sorts of the two operands.
    pub fn operand_sorts(self) -> (Sort, Sort) {
        match self {
            TermOp::OplusHH => (Sort::Forest, Sort::Forest),
            TermOp::OplusHV => (Sort::Forest, Sort::Context),
            TermOp::OplusVH => (Sort::Context, Sort::Forest),
            TermOp::OdotVV => (Sort::Context, Sort::Context),
            TermOp::OdotVH => (Sort::Context, Sort::Forest),
        }
    }
}

/// The sort of a term node: a forest (no hole) or a context (exactly one hole).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Sort {
    /// A forest.
    Forest,
    /// A context.
    Context,
}

/// The kind of a term node.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TermNodeKind {
    /// A leaf `a_t`: the single-node tree labelled `label`, encoding tree node `node`.
    TreeLeaf { label: Label, node: NodeId },
    /// A leaf `a_□`: the single-node context labelled `label`, encoding tree node
    /// `node` (whose children are supplied through the hole).
    ContextLeaf { label: Label, node: NodeId },
    /// An internal operator node.
    Op(TermOp),
}

/// Identifier of a term node.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TermNodeId(pub u32);

impl TermNodeId {
    /// Arena index.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Debug for TermNodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t{}", self.0)
    }
}

/// The alphabet `Λ'` of forest-algebra terms over a base alphabet `Λ`:
/// labels `0..5` are the operators (in the order of [`TermOp::ALL`]), then `a_t` and
/// `a_□` for every base label `a`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TermAlphabet {
    base_len: usize,
}

impl TermAlphabet {
    /// The term alphabet for a base alphabet of `base_len` labels.
    pub fn new(base_len: usize) -> Self {
        TermAlphabet { base_len }
    }

    /// Number of base labels.
    pub fn base_len(&self) -> usize {
        self.base_len
    }

    /// Total number of term labels: 5 operators + 2 per base label.
    pub fn len(&self) -> usize {
        5 + 2 * self.base_len
    }

    /// `true` iff the base alphabet is empty (the term alphabet never is).
    pub fn is_empty(&self) -> bool {
        false
    }

    /// The term label of an operator.
    pub fn op_label(&self, op: TermOp) -> Label {
        Label(TermOp::ALL.iter().position(|&o| o == op).unwrap() as u32)
    }

    /// The term label of `a_t` for base label `a`.
    pub fn tree_leaf_label(&self, a: Label) -> Label {
        Label(5 + 2 * a.0)
    }

    /// The term label of `a_□` for base label `a`.
    pub fn context_leaf_label(&self, a: Label) -> Label {
        Label(5 + 2 * a.0 + 1)
    }

    /// The term label of a node kind.
    pub fn label_of(&self, kind: TermNodeKind) -> Label {
        match kind {
            TermNodeKind::TreeLeaf { label, .. } => self.tree_leaf_label(label),
            TermNodeKind::ContextLeaf { label, .. } => self.context_leaf_label(label),
            TermNodeKind::Op(op) => self.op_label(op),
        }
    }

    /// Decodes a term label back into "operator or (base label, is_context)".
    pub fn decode(&self, label: Label) -> Result<TermOp, (Label, bool)> {
        if label.0 < 5 {
            Ok(TermOp::ALL[label.index()])
        } else {
            let rest = label.0 - 5;
            Err((Label(rest / 2), rest % 2 == 1))
        }
    }
}

/// A `u32` link to no node.
const NONE: u32 = u32::MAX;

/// One term node's kind and weight.
#[derive(Clone, Debug)]
struct Node {
    kind: TermNodeKind,
    /// Number of term leaves (= encoded tree nodes) in this subterm; 0 for
    /// a freed slot.
    weight: u32,
}

/// One term node's links (12 bytes), plain indices with [`NONE`] for none.
/// They sit apart from the rest of the node because every walk over the
/// term — each query's enumeration walks it — reads only them.
#[derive(Clone, Copy, Debug)]
struct Links {
    parent: u32,
    /// The left operand; [`NONE`] for a leaf.
    left: u32,
    right: u32,
}

impl Links {
    const NONE: Links = Links {
        parent: NONE,
        left: NONE,
        right: NONE,
    };

    #[inline]
    fn parent(&self) -> Option<TermNodeId> {
        (self.parent != NONE).then_some(TermNodeId(self.parent))
    }

    #[inline]
    fn children(&self) -> Option<(TermNodeId, TermNodeId)> {
        (self.left != NONE).then_some((TermNodeId(self.left), TermNodeId(self.right)))
    }
}

/// An arena of forest-algebra term nodes with a designated root.
#[derive(Clone, Debug, Default)]
pub struct Term {
    /// A `Vec`, not a [`ChunkedVec`]: the term's splices and builds are
    /// node-access bound, and the chunk lookup made them 10–40% slower.
    nodes: Vec<Node>,
    /// The links of each node, parallel to `nodes`.
    links: Vec<Links>,
    free_list: Vec<u32>,
    root: Option<TermNodeId>,
    /// Memo of [`Term::depth_memoized`], parallel to `nodes`: slot `i` holds
    /// `(e, d)`, and node `i` has depth `d` iff `e == depth_epoch`.
    depth_memo: ChunkedVec<(u32, u32)>,
    /// Bumped by every change of shape, which forgets every memoized depth.
    /// Never 0 once a node exists, so never-written slots never match.
    depth_epoch: u32,
}

impl Term {
    /// Creates an empty term arena.
    pub fn new() -> Self {
        Self::default()
    }

    /// The root node.
    ///
    /// # Panics
    /// Panics if no root has been set.
    pub fn root(&self) -> TermNodeId {
        self.root.expect("term has no root")
    }

    /// Declares `n` the root.
    pub fn set_root(&mut self, n: TermNodeId) {
        assert!(self.parent(n).is_none());
        self.forget_depths();
        self.root = Some(n);
    }

    #[inline]
    fn node(&self, n: TermNodeId) -> &Node {
        let node = &self.nodes[n.index()];
        debug_assert!(node.weight != 0, "access to freed term node {:?}", n);
        node
    }

    fn node_mut(&mut self, n: TermNodeId) -> &mut Node {
        let node = &mut self.nodes[n.index()];
        debug_assert!(node.weight != 0, "access to freed term node {:?}", n);
        node
    }

    #[inline]
    fn links(&self, n: TermNodeId) -> &Links {
        &self.links[n.index()]
    }

    fn alloc(&mut self, node: Node, links: Links) -> TermNodeId {
        self.forget_depths();
        if let Some(i) = self.free_list.pop() {
            self.nodes[i as usize] = node;
            self.links[i as usize] = links;
            TermNodeId(i)
        } else {
            self.nodes.push(node);
            self.links.push(links);
            TermNodeId(self.nodes.len() as u32 - 1)
        }
    }

    /// Adds a leaf node.
    pub fn add_leaf(&mut self, kind: TermNodeKind) -> TermNodeId {
        assert!(
            !matches!(kind, TermNodeKind::Op(_)),
            "leaves cannot be operators"
        );
        self.alloc(Node { kind, weight: 1 }, Links::NONE)
    }

    /// Adds an operator node over two detached operands, checking sorts.
    pub fn add_op(&mut self, op: TermOp, left: TermNodeId, right: TermNodeId) -> TermNodeId {
        assert!(self.parent(left).is_none(), "left operand already attached");
        assert!(
            self.parent(right).is_none(),
            "right operand already attached"
        );
        // A real assert (not debug_assert): the sort discipline is what keeps
        // the hole-chasing and update splices sound, and checking it is two
        // O(1) matches per node — negligible next to the allocation below.
        let (sl, sr) = op.operand_sorts();
        assert_eq!(
            self.sort(left),
            sl,
            "left operand of {:?} has the wrong sort",
            op
        );
        assert_eq!(
            self.sort(right),
            sr,
            "right operand of {:?} has the wrong sort",
            op
        );
        let weight = self.node(left).weight + self.node(right).weight;
        let links = Links {
            parent: NONE,
            left: left.0,
            right: right.0,
        };
        let id = self.alloc(
            Node {
                kind: TermNodeKind::Op(op),
                weight,
            },
            links,
        );
        self.links[left.index()].parent = id.0;
        self.links[right.index()].parent = id.0;
        id
    }

    /// The kind of node `n`.
    #[inline]
    pub fn kind(&self, n: TermNodeId) -> TermNodeKind {
        self.node(n).kind
    }

    /// Changes the kind of a *leaf* node (used by relabeling and by leaf deletions
    /// that turn an `a_□` back into an `a_t`).
    pub fn set_leaf_kind(&mut self, n: TermNodeId, kind: TermNodeKind) {
        assert!(
            self.children(n).is_none(),
            "set_leaf_kind on an internal node"
        );
        assert!(!matches!(kind, TermNodeKind::Op(_)));
        self.node_mut(n).kind = kind;
    }

    /// The sort of node `n`.
    pub fn sort(&self, n: TermNodeId) -> Sort {
        match self.node(n).kind {
            TermNodeKind::TreeLeaf { .. } => Sort::Forest,
            TermNodeKind::ContextLeaf { .. } => Sort::Context,
            TermNodeKind::Op(op) => op.result_sort(),
        }
    }

    /// Parent of `n`.
    #[inline]
    pub fn parent(&self, n: TermNodeId) -> Option<TermNodeId> {
        self.links(n).parent()
    }

    /// Children of `n`, if internal.
    #[inline]
    pub fn children(&self, n: TermNodeId) -> Option<(TermNodeId, TermNodeId)> {
        self.links(n).children()
    }

    /// `true` iff `n` is a leaf.
    pub fn is_leaf(&self, n: TermNodeId) -> bool {
        self.links(n).left == NONE
    }

    /// Weight (number of term leaves, i.e. encoded tree nodes) of the subterm at `n`.
    pub fn weight(&self, n: TermNodeId) -> usize {
        self.node(n).weight as usize
    }

    /// `true` iff the slot is live.
    pub fn is_live(&self, n: TermNodeId) -> bool {
        self.nodes
            .get(n.index())
            .is_some_and(|node| node.weight != 0)
    }

    /// Number of live nodes.
    pub fn len(&self) -> usize {
        self.nodes.iter().filter(|n| n.weight != 0).count()
    }

    /// `true` iff the arena has no live nodes.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Depth of `n` below the root.
    pub fn depth(&self, n: TermNodeId) -> usize {
        let mut d = 0;
        let mut cur = n;
        while let Some(p) = self.parent(cur) {
            d += 1;
            cur = p;
        }
        d
    }

    /// Depth of `n` below the root, memoized until the term next changes
    /// shape.
    ///
    /// A lookup walks up only until a memoized ancestor (or the root) and
    /// memoizes the walked path on the way back, so the depths of many nodes
    /// that share spines — a batch's dirty union — cost `O(nodes visited)`
    /// overall instead of `O(nodes · height)`.
    pub fn depth_memoized(&mut self, n: TermNodeId) -> u32 {
        self.depth_memo.grow_to(self.nodes.len(), (0, 0));
        let epoch = self.depth_epoch;
        // Up: count the unmemoized nodes until a memoized ancestor or past
        // the root.
        let mut unset = 0u32;
        let mut cur = Some(n);
        let mut above = None;
        while let Some(c) = cur {
            let (e, d) = self.depth_memo[c.index()];
            if e == epoch {
                above = Some(d);
                break;
            }
            unset += 1;
            cur = self.parent(c);
        }
        let depth = match above {
            Some(d) => d + unset,
            None => unset - 1,
        };
        // Down the same path, memoizing the `unset` walked nodes.
        let mut c = n;
        for d in (depth + 1 - unset..=depth).rev() {
            self.depth_memo[c.index()] = (epoch, d);
            if let Some(p) = self.parent(c) {
                c = p;
            }
        }
        depth
    }

    fn forget_depths(&mut self) {
        self.depth_epoch = self.depth_epoch.wrapping_add(1);
        if self.depth_epoch == 0 {
            // A wrapped epoch would revive stale slots: clear them instead.
            self.depth_memo.fill((0, 0));
            self.depth_epoch = 1;
        }
    }

    /// Height of the term.
    pub fn height(&self) -> usize {
        self.subtree_postorder(self.root())
            .iter()
            .map(|&n| self.depth(n))
            .max()
            .unwrap_or(0)
    }

    /// Replaces child `old` of node `parent` by `new` (which must be detached),
    /// updating weights up to the root.
    pub fn replace_child(&mut self, parent: TermNodeId, old: TermNodeId, new: TermNodeId) {
        assert!(self.parent(new).is_none(), "replacement must be detached");
        let (l, r) = self.children(parent).expect("replace_child on a leaf");
        let children = if l == old {
            (new, r)
        } else {
            assert_eq!(r, old, "old is not a child of parent");
            (l, new)
        };
        self.forget_depths();
        let p = &mut self.links[parent.index()];
        (p.left, p.right) = (children.0 .0, children.1 .0);
        self.links[old.index()].parent = NONE;
        self.links[new.index()].parent = parent.0;
        self.recompute_weights_upwards(parent);
    }

    /// Replaces the root of the term by a detached node.
    pub fn replace_root(&mut self, new: TermNodeId) {
        assert!(self.parent(new).is_none());
        self.forget_depths();
        self.root = Some(new);
    }

    /// Recomputes the weights of `n` and all its ancestors.
    pub fn recompute_weights_upwards(&mut self, n: TermNodeId) {
        let mut cur = Some(n);
        while let Some(x) = cur {
            if let Some((l, r)) = self.children(x) {
                let w = self.node(l).weight + self.node(r).weight;
                self.node_mut(x).weight = w;
            }
            cur = self.parent(x);
        }
    }

    /// Frees the subterm rooted at `n` (which must be detached).
    pub fn free_subtree(&mut self, n: TermNodeId) {
        assert!(self.parent(n).is_none(), "free_subtree on an attached node");
        self.forget_depths();
        let mut stack = vec![n];
        while let Some(x) = stack.pop() {
            if let Some((l, r)) = self.children(x) {
                stack.push(l);
                stack.push(r);
            }
            self.nodes[x.index()].weight = 0;
            self.links[x.index()] = Links::NONE;
            self.free_list.push(x.0);
        }
    }

    /// Postorder traversal of the subterm rooted at `n` (children before parents).
    pub fn subtree_postorder(&self, n: TermNodeId) -> Vec<TermNodeId> {
        let mut out = Vec::new();
        let mut stack = vec![n];
        while let Some(x) = stack.pop() {
            out.push(x);
            if let Some((l, r)) = self.children(x) {
                stack.push(l);
                stack.push(r);
            }
        }
        out.reverse();
        out
    }

    /// The leaves of the subterm at `n`, in left-to-right order.
    pub fn subtree_leaves(&self, n: TermNodeId) -> Vec<TermNodeId> {
        let mut out = Vec::new();
        let mut stack = vec![n];
        while let Some(x) = stack.pop() {
            match self.children(x) {
                None => out.push(x),
                Some((l, r)) => {
                    stack.push(r);
                    stack.push(l);
                }
            }
        }
        out
    }

    /// The hole leaf (`a_□`) of a context-sorted subterm: reached by always descending
    /// into the context-sorted operand.
    pub fn hole_leaf(&self, n: TermNodeId) -> TermNodeId {
        debug_assert_eq!(
            self.sort(n),
            Sort::Context,
            "hole_leaf of a forest-sorted term"
        );
        let mut cur = n;
        loop {
            match self.kind(cur) {
                TermNodeKind::ContextLeaf { .. } => return cur,
                TermNodeKind::TreeLeaf { .. } => {
                    unreachable!("forest leaf reached while chasing the hole")
                }
                TermNodeKind::Op(op) => {
                    let (l, r) = self.children(cur).unwrap();
                    cur = match op {
                        TermOp::OplusHV => r,
                        TermOp::OplusVH => l,
                        TermOp::OdotVV => r,
                        TermOp::OplusHH | TermOp::OdotVH => {
                            unreachable!("forest-sorted operator reached while chasing the hole")
                        }
                    };
                }
            }
        }
    }

    /// Checks the sort discipline and weight bookkeeping of the whole term.
    ///
    /// # Panics
    /// Panics on any violation.
    pub fn check_invariants(&self) {
        let root = self.root();
        assert_eq!(
            self.sort(root),
            Sort::Forest,
            "the root of a term must be a forest"
        );
        for n in self.subtree_postorder(root) {
            if let Some((l, r)) = self.children(n) {
                assert_eq!(self.parent(l), Some(n));
                assert_eq!(self.parent(r), Some(n));
                let TermNodeKind::Op(op) = self.kind(n) else {
                    panic!("internal node without an operator");
                };
                let (sl, sr) = op.operand_sorts();
                assert_eq!(self.sort(l), sl, "left operand sort mismatch at {:?}", n);
                assert_eq!(self.sort(r), sr, "right operand sort mismatch at {:?}", n);
                assert_eq!(
                    self.weight(n),
                    self.weight(l) + self.weight(r),
                    "weight bookkeeping broken at {:?}",
                    n
                );
            } else {
                assert_eq!(self.weight(n), 1);
            }
        }
    }

    /// The `φ` mapping: term leaf → encoded tree node.
    #[inline]
    pub fn leaf_tree_node(&self, n: TermNodeId) -> Option<NodeId> {
        match self.kind(n) {
            TermNodeKind::TreeLeaf { node, .. } | TermNodeKind::ContextLeaf { node, .. } => {
                Some(node)
            }
            TermNodeKind::Op(_) => None,
        }
    }
}

/// The shape every query's circuit, index and enumeration read: a box is
/// its term node, named by the node's arena index, and a leaf's token is
/// the tree node it encodes.
impl<I: Copy + Eq + From<u32> + Into<u32>> Topology<I> for Term {
    #[inline]
    fn root(&self) -> I {
        I::from(Term::root(self).0)
    }

    #[inline]
    fn parent(&self, n: I) -> Option<I> {
        Term::parent(self, TermNodeId(n.into())).map(|p| I::from(p.0))
    }

    #[inline]
    fn children(&self, n: I) -> Option<(I, I)> {
        let children = Term::children(self, TermNodeId(n.into()));
        children.map(|(l, r)| (I::from(l.0), I::from(r.0)))
    }

    #[inline]
    fn leaf_token(&self, n: I) -> Option<u32> {
        self.leaf_tree_node(TermNodeId(n.into())).map(|node| node.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn leaf_t(term: &mut Term, l: u32, n: u32) -> TermNodeId {
        term.add_leaf(TermNodeKind::TreeLeaf {
            label: Label(l),
            node: NodeId(n),
        })
    }

    fn leaf_c(term: &mut Term, l: u32, n: u32) -> TermNodeId {
        term.add_leaf(TermNodeKind::ContextLeaf {
            label: Label(l),
            node: NodeId(n),
        })
    }

    #[test]
    fn build_and_check_small_term() {
        // a_□ ⊙VH (b_t ⊕HH c_t)  — encodes a(b, c)
        let mut term = Term::new();
        let a = leaf_c(&mut term, 0, 0);
        let b = leaf_t(&mut term, 1, 1);
        let c = leaf_t(&mut term, 2, 2);
        let forest = term.add_op(TermOp::OplusHH, b, c);
        let root = term.add_op(TermOp::OdotVH, a, forest);
        term.set_root(root);
        term.check_invariants();
        assert_eq!(term.weight(root), 3);
        assert_eq!(term.sort(root), Sort::Forest);
        assert_eq!(term.sort(a), Sort::Context);
        assert_eq!(term.subtree_leaves(root), vec![a, b, c]);
        assert_eq!(term.height(), 2);
        assert_eq!(std::mem::size_of::<Links>(), 12);
    }

    #[test]
    fn hole_leaf_is_found_through_context_operands() {
        // (x_t ⊕HV a_□) ⊙VV b_□   : context whose hole is b's children position
        let mut term = Term::new();
        let x = leaf_t(&mut term, 0, 0);
        let a = leaf_c(&mut term, 1, 1);
        let left = term.add_op(TermOp::OplusHV, x, a);
        let b = leaf_c(&mut term, 2, 2);
        let comp = term.add_op(TermOp::OdotVV, left, b);
        assert_eq!(term.hole_leaf(comp), b);
        assert_eq!(term.hole_leaf(left), a);
    }

    #[test]
    fn replace_child_updates_weights() {
        let mut term = Term::new();
        let a = leaf_c(&mut term, 0, 0);
        let b = leaf_t(&mut term, 1, 1);
        let root = term.add_op(TermOp::OdotVH, a, b);
        term.set_root(root);
        // Replace b by (b ⊕HH c).
        let b2 = leaf_t(&mut term, 1, 1);
        let c = leaf_t(&mut term, 2, 2);
        let forest = term.add_op(TermOp::OplusHH, b2, c);
        term.replace_child(root, b, forest);
        term.free_subtree(b);
        term.recompute_weights_upwards(root);
        term.check_invariants();
        assert_eq!(term.weight(root), 3);
    }

    #[test]
    fn memoized_depths_follow_shape_changes() {
        let mut term = Term::new();
        let a = leaf_c(&mut term, 0, 0);
        let b = leaf_t(&mut term, 1, 1);
        let root = term.add_op(TermOp::OdotVH, a, b);
        term.set_root(root);
        assert_eq!(term.depth_memoized(b), 1);
        assert_eq!(term.depth_memoized(root), 0);
        // Splice (b2 ⊕HH c) in for b: b2 is memoized deeper than b was.
        let b2 = leaf_t(&mut term, 1, 1);
        let c = leaf_t(&mut term, 2, 2);
        let forest = term.add_op(TermOp::OplusHH, b2, c);
        term.replace_child(root, b, forest);
        term.free_subtree(b);
        for n in term.subtree_postorder(root) {
            assert_eq!(term.depth_memoized(n) as usize, term.depth(n));
        }
        // A new root above the old one shifts every memoized depth.
        let x = leaf_t(&mut term, 0, 3);
        let top = term.add_op(TermOp::OplusHH, x, root);
        term.replace_root(top);
        for n in term.subtree_postorder(top) {
            assert_eq!(term.depth_memoized(n) as usize, term.depth(n));
        }
    }

    #[test]
    fn term_alphabet_round_trips() {
        let ta = TermAlphabet::new(3);
        assert_eq!(ta.len(), 11);
        for op in TermOp::ALL {
            assert_eq!(ta.decode(ta.op_label(op)), Ok(op));
        }
        assert_eq!(
            ta.decode(ta.tree_leaf_label(Label(2))),
            Err((Label(2), false))
        );
        assert_eq!(
            ta.decode(ta.context_leaf_label(Label(1))),
            Err((Label(1), true))
        );
    }

    #[test]
    #[should_panic]
    fn sort_mismatch_is_rejected() {
        let mut term = Term::new();
        let a = leaf_t(&mut term, 0, 0);
        let b = leaf_t(&mut term, 1, 1);
        // ⊙VH needs a context on the left.
        term.add_op(TermOp::OdotVH, a, b);
    }
}
