//! Rooted, ordered, labelled *binary* trees (Section 2).
//!
//! In the paper, every internal node of a binary tree has exactly two children
//! (left and right); leaves carry the variable annotations.  Binary trees are the
//! model on which assignment circuits are built (Lemma 3.7), and also serve as the
//! shape of v-trees and of forest-algebra terms.

use crate::label::Label;
use crate::topology::Topology;
use crate::unranked::{NodeId, UnrankedTree};
use std::fmt;

/// Identifier of a node of a [`BinaryTree`].
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct BinaryNodeId(pub u32);

impl BinaryNodeId {
    /// Arena index of this node.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// The shape read by a circuit built on the tree, whose boxes are named by
/// their node's arena index; a leaf's token is its node id.
impl<I: Copy + Eq + From<u32> + Into<u32>> Topology<I> for BinaryTree {
    fn root(&self) -> I {
        I::from(self.root.0)
    }

    fn parent(&self, n: I) -> Option<I> {
        self.nodes[n.into() as usize].parent.map(|p| I::from(p.0))
    }

    fn children(&self, n: I) -> Option<(I, I)> {
        let children = self.nodes[n.into() as usize].children;
        children.map(|(l, r)| (I::from(l.0), I::from(r.0)))
    }

    fn leaf_token(&self, n: I) -> Option<u32> {
        let n = n.into();
        self.nodes[n as usize].children.is_none().then_some(n)
    }
}

impl fmt::Debug for BinaryNodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "b{}", self.0)
    }
}

#[derive(Clone, Debug)]
struct BNode {
    label: Label,
    parent: Option<BinaryNodeId>,
    /// `None` for a leaf; `Some((left, right))` for an internal node.
    children: Option<(BinaryNodeId, BinaryNodeId)>,
}

/// A full binary tree: every internal node has exactly two children.
#[derive(Clone, Debug)]
pub struct BinaryTree {
    nodes: Vec<BNode>,
    root: BinaryNodeId,
}

impl BinaryTree {
    /// Creates a binary tree consisting of a single leaf.
    pub fn leaf(label: Label) -> Self {
        BinaryTree {
            nodes: vec![BNode {
                label,
                parent: None,
                children: None,
            }],
            root: BinaryNodeId(0),
        }
    }

    /// The root node.
    #[inline]
    pub fn root(&self) -> BinaryNodeId {
        self.root
    }

    /// Number of nodes.
    #[inline]
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Binary trees are never empty.
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Label of node `n`.
    #[inline]
    pub fn label(&self, n: BinaryNodeId) -> Label {
        self.nodes[n.index()].label
    }

    /// Changes the label of node `n`.
    pub fn relabel(&mut self, n: BinaryNodeId, label: Label) {
        self.nodes[n.index()].label = label;
    }

    /// Parent of node `n`.
    #[inline]
    pub fn parent(&self, n: BinaryNodeId) -> Option<BinaryNodeId> {
        self.nodes[n.index()].parent
    }

    /// The two children of `n` if it is internal.
    #[inline]
    pub fn children(&self, n: BinaryNodeId) -> Option<(BinaryNodeId, BinaryNodeId)> {
        self.nodes[n.index()].children
    }

    /// Left child of `n`.
    pub fn left(&self, n: BinaryNodeId) -> Option<BinaryNodeId> {
        self.children(n).map(|(l, _)| l)
    }

    /// Right child of `n`.
    pub fn right(&self, n: BinaryNodeId) -> Option<BinaryNodeId> {
        self.children(n).map(|(_, r)| r)
    }

    /// `true` iff `n` is a leaf.
    #[inline]
    pub fn is_leaf(&self, n: BinaryNodeId) -> bool {
        self.nodes[n.index()].children.is_none()
    }

    /// Adds a fresh leaf (detached; becomes part of the tree once used as a child).
    pub fn add_leaf(&mut self, label: Label) -> BinaryNodeId {
        self.nodes.push(BNode {
            label,
            parent: None,
            children: None,
        });
        BinaryNodeId(self.nodes.len() as u32 - 1)
    }

    /// Adds a fresh internal node with children `left` and `right`.
    ///
    /// # Panics
    /// Panics if either child already has a parent.
    pub fn add_internal(
        &mut self,
        label: Label,
        left: BinaryNodeId,
        right: BinaryNodeId,
    ) -> BinaryNodeId {
        assert!(
            self.nodes[left.index()].parent.is_none(),
            "left child already attached"
        );
        assert!(
            self.nodes[right.index()].parent.is_none(),
            "right child already attached"
        );
        self.nodes.push(BNode {
            label,
            parent: None,
            children: Some((left, right)),
        });
        let id = BinaryNodeId(self.nodes.len() as u32 - 1);
        self.nodes[left.index()].parent = Some(id);
        self.nodes[right.index()].parent = Some(id);
        id
    }

    /// Declares `n` to be the root of the tree.
    ///
    /// # Panics
    /// Panics if `n` has a parent.
    pub fn set_root(&mut self, n: BinaryNodeId) {
        assert!(
            self.nodes[n.index()].parent.is_none(),
            "the root cannot have a parent"
        );
        self.root = n;
    }

    /// All nodes in preorder (node before left subtree before right subtree).
    pub fn preorder(&self) -> Vec<BinaryNodeId> {
        let mut out = Vec::with_capacity(self.nodes.len());
        let mut stack = vec![self.root];
        while let Some(n) = stack.pop() {
            out.push(n);
            if let Some((l, r)) = self.children(n) {
                stack.push(r);
                stack.push(l);
            }
        }
        out
    }

    /// All nodes in postorder (children before parent), i.e. a valid bottom-up order.
    pub fn postorder(&self) -> Vec<BinaryNodeId> {
        let mut out = Vec::with_capacity(self.nodes.len());
        // Reverse preorder with children swapped gives postorder.
        let mut stack = vec![self.root];
        while let Some(n) = stack.pop() {
            out.push(n);
            if let Some((l, r)) = self.children(n) {
                stack.push(l);
                stack.push(r);
            }
        }
        out.reverse();
        out
    }

    /// Leaves of the tree in left-to-right order.
    pub fn leaves(&self) -> Vec<BinaryNodeId> {
        self.preorder()
            .into_iter()
            .filter(|&n| self.is_leaf(n))
            .collect()
    }

    /// Number of nodes reachable from the root (should equal `len()` when all nodes
    /// are attached).
    pub fn reachable_len(&self) -> usize {
        self.preorder().len()
    }

    /// Depth of `n` (root has depth 0).
    pub fn depth(&self, n: BinaryNodeId) -> usize {
        let mut d = 0;
        let mut cur = n;
        while let Some(p) = self.parent(cur) {
            d += 1;
            cur = p;
        }
        d
    }

    /// Height of the tree (a single leaf has height 0).
    pub fn height(&self) -> usize {
        self.preorder()
            .iter()
            .map(|&n| self.depth(n))
            .max()
            .unwrap_or(0)
    }

    /// Size of the subtree rooted at `n`.
    pub fn subtree_size(&self, n: BinaryNodeId) -> usize {
        let mut count = 0usize;
        let mut stack = vec![n];
        while let Some(m) = stack.pop() {
            count += 1;
            if let Some((l, r)) = self.children(m) {
                stack.push(l);
                stack.push(r);
            }
        }
        count
    }

    /// Checks the full-binary-tree invariant and parent pointers; used by tests.
    pub fn check_invariants(&self) {
        for n in self.preorder() {
            if let Some((l, r)) = self.children(n) {
                assert_eq!(self.parent(l), Some(n));
                assert_eq!(self.parent(r), Some(n));
                assert_ne!(l, r);
            }
        }
        assert!(self.parent(self.root).is_none());
    }

    /// Renders the tree as a bracketed term, e.g. `f(a,g(b,c))`.
    pub fn to_term_string(&self, names: impl Fn(Label) -> String) -> String {
        fn go(t: &BinaryTree, n: BinaryNodeId, names: &dyn Fn(Label) -> String, out: &mut String) {
            out.push_str(&names(t.label(n)));
            if let Some((l, r)) = t.children(n) {
                out.push('(');
                go(t, l, names, out);
                out.push(',');
                go(t, r, names, out);
                out.push(')');
            }
        }
        let mut out = String::new();
        go(self, self.root(), &names, &mut out);
        out
    }
}

/// A mapping from leaves of a binary encoding back to nodes of the unranked original.
///
/// Produced by encodings such as [`left_child_right_sibling`]; used to translate
/// valuations and assignments between the two trees (the bijection `φ_{T'}` of
/// Section 7).
#[derive(Clone, Debug, Default)]
pub struct LeafMap {
    entries: Vec<(BinaryNodeId, NodeId)>,
}

impl LeafMap {
    /// Creates an empty mapping.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records that binary leaf `leaf` encodes unranked node `node`.
    pub fn insert(&mut self, leaf: BinaryNodeId, node: NodeId) {
        self.entries.push((leaf, node));
    }

    /// The unranked node encoded by `leaf`, if any.
    pub fn to_unranked(&self, leaf: BinaryNodeId) -> Option<NodeId> {
        self.entries
            .iter()
            .find(|(l, _)| *l == leaf)
            .map(|&(_, n)| n)
    }

    /// The binary leaf encoding `node`, if any.
    pub fn to_binary(&self, node: NodeId) -> Option<BinaryNodeId> {
        self.entries
            .iter()
            .find(|(_, n)| *n == node)
            .map(|&(l, _)| l)
    }

    /// Iterates over all `(leaf, node)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (BinaryNodeId, NodeId)> + '_ {
        self.entries.iter().copied()
    }

    /// Number of mapped leaves.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// `true` iff no leaf is mapped.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

/// Encodes an unranked tree as a binary tree using the classic left-child /
/// right-sibling encoding, with explicit `nil` leaves.
///
/// Every unranked node becomes an internal binary node whose left subtree encodes its
/// first child (or a `nil_label` leaf) and whose right subtree encodes its next
/// sibling (or a `nil_label` leaf); unranked leaves become binary leaves directly when
/// they have no sibling, otherwise internal nodes with `nil` left children.  The
/// returned [`LeafMap`] maps each *binary node carrying an unranked label* (leaf or
/// internal) — for simplicity we map the binary node that represents the unranked
/// node — restricted to binary *leaves* only where the unranked node is represented
/// by a leaf.
///
/// This encoding is **unbalanced** (its height is linear in the worst case) and is
/// used by the `unbalanced` baseline to demonstrate why the forest-algebra balancing
/// of Section 7 matters.
pub fn left_child_right_sibling(
    tree: &UnrankedTree,
    nil_label: Label,
) -> (BinaryTree, Vec<(BinaryNodeId, NodeId)>) {
    // We build bottom-up: encode(n) returns the binary node encoding the forest of
    // `n` and its following siblings.
    let mut out = BinaryTree::leaf(nil_label);
    // Remove the placeholder root later by setting a real root; the arena keeps it.
    let mut mapping: Vec<(BinaryNodeId, NodeId)> = Vec::new();

    fn encode_forest(
        tree: &UnrankedTree,
        first: Option<NodeId>,
        nil_label: Label,
        out: &mut BinaryTree,
        mapping: &mut Vec<(BinaryNodeId, NodeId)>,
    ) -> BinaryNodeId {
        match first {
            None => out.add_leaf(nil_label),
            Some(n) => {
                let children = encode_forest(tree, tree.first_child(n), nil_label, out, mapping);
                let siblings = encode_forest(tree, tree.next_sibling(n), nil_label, out, mapping);
                let id = out.add_internal(tree.label(n), children, siblings);
                mapping.push((id, n));
                id
            }
        }
    }

    let root = encode_forest(tree, Some(tree.root()), nil_label, &mut out, &mut mapping);
    out.set_root(root);
    (out, mapping)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::label::Alphabet;

    #[test]
    fn build_and_traverse() {
        let sigma = Alphabet::from_names(["f", "a", "b"]);
        let f = sigma.get("f").unwrap();
        let a = sigma.get("a").unwrap();
        let b = sigma.get("b").unwrap();
        let mut t = BinaryTree::leaf(a);
        let l1 = t.root();
        let l2 = t.add_leaf(b);
        let i1 = t.add_internal(f, l1, l2);
        let l3 = t.add_leaf(a);
        let root = t.add_internal(f, i1, l3);
        t.set_root(root);
        t.check_invariants();
        assert_eq!(t.len(), 5);
        assert_eq!(t.height(), 2);
        assert_eq!(t.leaves(), vec![l1, l2, l3]);
        assert_eq!(t.preorder(), vec![root, i1, l1, l2, l3]);
        assert_eq!(t.postorder(), vec![l1, l2, i1, l3, root]);
        assert_eq!(
            t.to_term_string(|l| sigma.name(l).to_owned()),
            "f(f(a,b),a)"
        );
    }

    #[test]
    fn postorder_children_before_parents() {
        let sigma = Alphabet::from_names(["f", "a"]);
        let f = sigma.get("f").unwrap();
        let a = sigma.get("a").unwrap();
        let mut t = BinaryTree::leaf(a);
        let mut current = t.root();
        for _ in 0..10 {
            let l = t.add_leaf(a);
            current = t.add_internal(f, current, l);
        }
        t.set_root(current);
        let post = t.postorder();
        let pos: std::collections::HashMap<_, _> =
            post.iter().enumerate().map(|(i, &n)| (n, i)).collect();
        for n in t.preorder() {
            if let Some((l, r)) = t.children(n) {
                assert!(pos[&l] < pos[&n]);
                assert!(pos[&r] < pos[&n]);
            }
        }
    }

    #[test]
    #[should_panic]
    fn attaching_a_node_twice_panics() {
        let sigma = Alphabet::from_names(["f", "a"]);
        let f = sigma.get("f").unwrap();
        let a = sigma.get("a").unwrap();
        let mut t = BinaryTree::leaf(a);
        let l1 = t.root();
        let l2 = t.add_leaf(a);
        let _i1 = t.add_internal(f, l1, l2);
        let l3 = t.add_leaf(a);
        // l1 already has a parent.
        let _bad = t.add_internal(f, l1, l3);
    }

    #[test]
    fn lcrs_encoding_counts_nodes() {
        let sigma = Alphabet::from_names(["a", "b", "nil"]);
        let a = sigma.get("a").unwrap();
        let b = sigma.get("b").unwrap();
        let nil = sigma.get("nil").unwrap();
        let mut u = UnrankedTree::new(a);
        let r = u.root();
        let c1 = u.insert_last_child(r, b);
        u.insert_last_child(r, b);
        u.insert_last_child(c1, a);
        let (bt, mapping) = left_child_right_sibling(&u, nil);
        bt.check_invariants();
        // Every unranked node appears exactly once in the mapping.
        assert_eq!(mapping.len(), u.len());
        // Internal nodes = unranked nodes; leaves = unranked nodes + 1 nil leaves.
        assert_eq!(bt.reachable_len(), 2 * u.len() + 1);
    }

    #[test]
    fn subtree_size_and_depth() {
        let sigma = Alphabet::from_names(["f", "a"]);
        let f = sigma.get("f").unwrap();
        let a = sigma.get("a").unwrap();
        let mut t = BinaryTree::leaf(a);
        let l1 = t.root();
        let l2 = t.add_leaf(a);
        let root = t.add_internal(f, l1, l2);
        t.set_root(root);
        assert_eq!(t.subtree_size(root), 3);
        assert_eq!(t.subtree_size(l1), 1);
        assert_eq!(t.depth(l2), 1);
    }
}
