//! Rooted, ordered, labelled unranked trees (the input model of Section 7).
//!
//! Nodes live in an arena with a free list; node identifiers remain stable across
//! the edit operations of Definition 7.1, which is what an incremental enumeration
//! structure needs (answers refer to node identifiers of the *current* tree).

use crate::edit::EditOp;
use crate::label::Label;
use std::fmt;

/// Identifier of a node of an [`UnrankedTree`].
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeId(pub u32);

impl NodeId {
    /// Arena index of this node.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Debug for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

#[derive(Clone, Debug)]
pub(crate) struct Node {
    pub(crate) label: Label,
    pub(crate) parent: Option<NodeId>,
    pub(crate) first_child: Option<NodeId>,
    pub(crate) last_child: Option<NodeId>,
    pub(crate) prev_sibling: Option<NodeId>,
    pub(crate) next_sibling: Option<NodeId>,
    /// Slot is free (node has been deleted).
    pub(crate) free: bool,
}

/// A rooted, ordered, labelled unranked tree.
///
/// ```
/// use treenum_trees::{Alphabet, UnrankedTree};
/// let mut sigma = Alphabet::new();
/// let (a, b) = (sigma.intern("a"), sigma.intern("b"));
/// let mut t = UnrankedTree::new(a);
/// let root = t.root();
/// let c1 = t.insert_first_child(root, b);
/// let c2 = t.insert_right_sibling(c1, b);
/// assert_eq!(t.children(root).collect::<Vec<_>>(), vec![c1, c2]);
/// assert_eq!(t.len(), 3);
/// ```
#[derive(Clone, Debug)]
pub struct UnrankedTree {
    pub(crate) nodes: Vec<Node>,
    pub(crate) free_list: Vec<u32>,
    pub(crate) root: NodeId,
    pub(crate) len: usize,
}

impl UnrankedTree {
    /// Creates a tree with a single root node labelled `label`.
    pub fn new(label: Label) -> Self {
        UnrankedTree {
            nodes: vec![Node {
                label,
                parent: None,
                first_child: None,
                last_child: None,
                prev_sibling: None,
                next_sibling: None,
                free: false,
            }],
            free_list: Vec::new(),
            root: NodeId(0),
            len: 1,
        }
    }

    /// The root node.
    #[inline]
    pub fn root(&self) -> NodeId {
        self.root
    }

    /// Number of (live) nodes.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// `true` iff the tree has exactly its root (trees are never empty).
    pub fn is_empty(&self) -> bool {
        false
    }

    /// `true` iff `n` refers to a live node of this tree.
    pub fn is_live(&self, n: NodeId) -> bool {
        n.index() < self.nodes.len() && !self.nodes[n.index()].free
    }

    fn node(&self, n: NodeId) -> &Node {
        let node = &self.nodes[n.index()];
        debug_assert!(!node.free, "access to deleted node {:?}", n);
        node
    }

    fn node_mut(&mut self, n: NodeId) -> &mut Node {
        let node = &mut self.nodes[n.index()];
        debug_assert!(!node.free, "access to deleted node {:?}", n);
        node
    }

    /// Label of `n`.
    #[inline]
    pub fn label(&self, n: NodeId) -> Label {
        self.node(n).label
    }

    /// Parent of `n` (`None` for the root).
    #[inline]
    pub fn parent(&self, n: NodeId) -> Option<NodeId> {
        self.node(n).parent
    }

    /// First child of `n`.
    #[inline]
    pub fn first_child(&self, n: NodeId) -> Option<NodeId> {
        self.node(n).first_child
    }

    /// Last child of `n`.
    #[inline]
    pub fn last_child(&self, n: NodeId) -> Option<NodeId> {
        self.node(n).last_child
    }

    /// Next sibling of `n`.
    #[inline]
    pub fn next_sibling(&self, n: NodeId) -> Option<NodeId> {
        self.node(n).next_sibling
    }

    /// Previous sibling of `n`.
    #[inline]
    pub fn prev_sibling(&self, n: NodeId) -> Option<NodeId> {
        self.node(n).prev_sibling
    }

    /// `true` iff `n` is a leaf.
    #[inline]
    pub fn is_leaf(&self, n: NodeId) -> bool {
        self.node(n).first_child.is_none()
    }

    /// Number of children of `n`.
    pub fn arity(&self, n: NodeId) -> usize {
        self.children(n).count()
    }

    /// Iterates over the children of `n` in order.
    pub fn children(&self, n: NodeId) -> impl Iterator<Item = NodeId> + '_ {
        let mut current = self.node(n).first_child;
        std::iter::from_fn(move || {
            let c = current?;
            current = self.node(c).next_sibling;
            Some(c)
        })
    }

    /// Iterates over all live nodes in document (preorder) order.
    pub fn preorder(&self) -> Vec<NodeId> {
        let mut out = Vec::with_capacity(self.len);
        let mut stack = vec![self.root];
        while let Some(n) = stack.pop() {
            out.push(n);
            // Push children in reverse so they pop in order.
            let children: Vec<NodeId> = self.children(n).collect();
            for c in children.into_iter().rev() {
                stack.push(c);
            }
        }
        out
    }

    /// Iterates over all live nodes in an arbitrary order (arena order).
    pub fn nodes(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.nodes
            .iter()
            .enumerate()
            .filter(|(_, node)| !node.free)
            .map(|(i, _)| NodeId(i as u32))
    }

    /// Leaves of the tree, in preorder.
    pub fn leaves(&self) -> Vec<NodeId> {
        self.preorder()
            .into_iter()
            .filter(|&n| self.is_leaf(n))
            .collect()
    }

    /// Depth of `n` (root has depth 0).
    pub fn depth(&self, n: NodeId) -> usize {
        let mut d = 0;
        let mut cur = n;
        while let Some(p) = self.parent(cur) {
            d += 1;
            cur = p;
        }
        d
    }

    /// Height of the tree (a single node has height 0).
    pub fn height(&self) -> usize {
        self.preorder()
            .iter()
            .map(|&n| self.depth(n))
            .max()
            .unwrap_or(0)
    }

    fn alloc(&mut self, label: Label) -> NodeId {
        let node = Node {
            label,
            parent: None,
            first_child: None,
            last_child: None,
            prev_sibling: None,
            next_sibling: None,
            free: false,
        };
        self.len += 1;
        if let Some(slot) = self.free_list.pop() {
            self.nodes[slot as usize] = node;
            NodeId(slot)
        } else {
            self.nodes.push(node);
            NodeId(self.nodes.len() as u32 - 1)
        }
    }

    /// Edit operation `insert(n, l)`: inserts a fresh `l`-labelled leaf as the *first*
    /// child of `n` and returns its identifier.
    pub fn insert_first_child(&mut self, n: NodeId, label: Label) -> NodeId {
        let fresh = self.alloc(label);
        let old_first = self.node(n).first_child;
        {
            let f = self.node_mut(fresh);
            f.parent = Some(n);
            f.next_sibling = old_first;
        }
        if let Some(old) = old_first {
            self.node_mut(old).prev_sibling = Some(fresh);
        } else {
            self.node_mut(n).last_child = Some(fresh);
        }
        self.node_mut(n).first_child = Some(fresh);
        fresh
    }

    /// Inserts a fresh `l`-labelled leaf as the *last* child of `n`.
    pub fn insert_last_child(&mut self, n: NodeId, label: Label) -> NodeId {
        match self.last_child(n) {
            None => self.insert_first_child(n, label),
            Some(last) => self.insert_right_sibling(last, label),
        }
    }

    /// Edit operation `insertR(n, l)`: inserts a fresh `l`-labelled leaf as the right
    /// sibling of `n` and returns its identifier.
    ///
    /// # Panics
    /// Panics if `n` is the root (the root has no siblings).
    pub fn insert_right_sibling(&mut self, n: NodeId, label: Label) -> NodeId {
        let parent = self.parent(n).expect("the root has no right sibling");
        let fresh = self.alloc(label);
        let old_next = self.node(n).next_sibling;
        {
            let f = self.node_mut(fresh);
            f.parent = Some(parent);
            f.prev_sibling = Some(n);
            f.next_sibling = old_next;
        }
        self.node_mut(n).next_sibling = Some(fresh);
        if let Some(next) = old_next {
            self.node_mut(next).prev_sibling = Some(fresh);
        } else {
            self.node_mut(parent).last_child = Some(fresh);
        }
        fresh
    }

    /// Edit operation `delete(n)`: removes the leaf `n`.
    ///
    /// # Panics
    /// Panics if `n` is not a leaf or is the root.
    pub fn delete_leaf(&mut self, n: NodeId) {
        assert!(self.is_leaf(n), "delete(n) only applies to leaves");
        let parent = self.parent(n).expect("cannot delete the root");
        let prev = self.node(n).prev_sibling;
        let next = self.node(n).next_sibling;
        match prev {
            Some(p) => self.node_mut(p).next_sibling = next,
            None => self.node_mut(parent).first_child = next,
        }
        match next {
            Some(x) => self.node_mut(x).prev_sibling = prev,
            None => self.node_mut(parent).last_child = prev,
        }
        let slot = &mut self.nodes[n.index()];
        slot.free = true;
        slot.parent = None;
        slot.first_child = None;
        slot.last_child = None;
        slot.prev_sibling = None;
        slot.next_sibling = None;
        self.free_list.push(n.0);
        self.len -= 1;
    }

    /// Edit operation `relabel(n, l)`.
    pub fn relabel(&mut self, n: NodeId, label: Label) {
        self.node_mut(n).label = label;
    }

    /// Applies an [`EditOp`], returning the identifier of the inserted node if any.
    pub fn apply(&mut self, op: &EditOp) -> Option<NodeId> {
        match *op {
            EditOp::InsertFirstChild { parent, label } => {
                Some(self.insert_first_child(parent, label))
            }
            EditOp::InsertRightSibling { sibling, label } => {
                Some(self.insert_right_sibling(sibling, label))
            }
            EditOp::DeleteLeaf { node } => {
                self.delete_leaf(node);
                None
            }
            EditOp::Relabel { node, label } => {
                self.relabel(node, label);
                None
            }
        }
    }

    /// Structural + label equality as abstract trees (ignores node identifiers).
    pub fn structurally_equal(&self, other: &UnrankedTree) -> bool {
        fn eq(a: &UnrankedTree, na: NodeId, b: &UnrankedTree, nb: NodeId) -> bool {
            if a.label(na) != b.label(nb) {
                return false;
            }
            let ca: Vec<_> = a.children(na).collect();
            let cb: Vec<_> = b.children(nb).collect();
            if ca.len() != cb.len() {
                return false;
            }
            ca.iter().zip(cb.iter()).all(|(&x, &y)| eq(a, x, b, y))
        }
        eq(self, self.root(), other, other.root())
    }

    /// Renders the tree as a bracketed term, e.g. `a(b,c(d))`, using `names`.
    pub fn to_term_string(&self, names: impl Fn(Label) -> String) -> String {
        fn go(t: &UnrankedTree, n: NodeId, names: &dyn Fn(Label) -> String, out: &mut String) {
            out.push_str(&names(t.label(n)));
            let children: Vec<_> = t.children(n).collect();
            if !children.is_empty() {
                out.push('(');
                for (i, c) in children.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    go(t, *c, names, out);
                }
                out.push(')');
            }
        }
        let mut out = String::new();
        go(self, self.root(), &names, &mut out);
        out
    }

    /// Counts the nodes in the subtree rooted at `n`.
    pub fn subtree_size(&self, n: NodeId) -> usize {
        let mut count = 0usize;
        let mut stack = vec![n];
        while let Some(m) = stack.pop() {
            count += 1;
            for c in self.children(m) {
                stack.push(c);
            }
        }
        count
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::label::Alphabet;

    fn setup() -> (Alphabet, UnrankedTree) {
        let mut sigma = Alphabet::from_names(["a", "b", "c"]);
        let a = sigma.intern("a");
        (sigma, UnrankedTree::new(a))
    }

    #[test]
    fn single_node_tree() {
        let (_s, t) = setup();
        assert_eq!(t.len(), 1);
        assert!(t.is_leaf(t.root()));
        assert_eq!(t.height(), 0);
        assert_eq!(t.preorder(), vec![t.root()]);
    }

    #[test]
    fn insert_first_child_prepends() {
        let (sigma, mut t) = setup();
        let b = sigma.get("b").unwrap();
        let r = t.root();
        let c1 = t.insert_first_child(r, b);
        let c2 = t.insert_first_child(r, b);
        assert_eq!(t.children(r).collect::<Vec<_>>(), vec![c2, c1]);
        assert_eq!(t.parent(c1), Some(r));
        assert_eq!(t.first_child(r), Some(c2));
        assert_eq!(t.last_child(r), Some(c1));
    }

    #[test]
    fn insert_right_sibling_chains() {
        let (sigma, mut t) = setup();
        let b = sigma.get("b").unwrap();
        let r = t.root();
        let c1 = t.insert_first_child(r, b);
        let c2 = t.insert_right_sibling(c1, b);
        let c3 = t.insert_right_sibling(c2, b);
        let mid = t.insert_right_sibling(c1, b);
        assert_eq!(t.children(r).collect::<Vec<_>>(), vec![c1, mid, c2, c3]);
        assert_eq!(t.prev_sibling(c2), Some(mid));
        assert_eq!(t.last_child(r), Some(c3));
    }

    #[test]
    fn delete_leaf_relinks_siblings() {
        let (sigma, mut t) = setup();
        let b = sigma.get("b").unwrap();
        let r = t.root();
        let c1 = t.insert_last_child(r, b);
        let c2 = t.insert_last_child(r, b);
        let c3 = t.insert_last_child(r, b);
        t.delete_leaf(c2);
        assert_eq!(t.children(r).collect::<Vec<_>>(), vec![c1, c3]);
        assert_eq!(t.len(), 3);
        assert!(!t.is_live(c2));
        t.delete_leaf(c1);
        t.delete_leaf(c3);
        assert!(t.is_leaf(r));
        assert_eq!(t.len(), 1);
    }

    #[test]
    #[should_panic]
    fn delete_internal_node_panics() {
        let (sigma, mut t) = setup();
        let b = sigma.get("b").unwrap();
        let r = t.root();
        let c1 = t.insert_first_child(r, b);
        let _c2 = t.insert_first_child(c1, b);
        t.delete_leaf(c1);
    }

    #[test]
    fn freed_slots_are_reused() {
        let (sigma, mut t) = setup();
        let b = sigma.get("b").unwrap();
        let r = t.root();
        let c1 = t.insert_first_child(r, b);
        t.delete_leaf(c1);
        let c2 = t.insert_first_child(r, b);
        assert_eq!(c1, c2, "the freed slot should be reused");
    }

    #[test]
    fn relabel_changes_label() {
        let (sigma, mut t) = setup();
        let c = sigma.get("c").unwrap();
        t.relabel(t.root(), c);
        assert_eq!(t.label(t.root()), c);
    }

    #[test]
    fn preorder_and_depth() {
        let (sigma, mut t) = setup();
        let b = sigma.get("b").unwrap();
        let r = t.root();
        let c1 = t.insert_last_child(r, b);
        let c2 = t.insert_last_child(r, b);
        let g1 = t.insert_last_child(c1, b);
        assert_eq!(t.preorder(), vec![r, c1, g1, c2]);
        assert_eq!(t.depth(g1), 2);
        assert_eq!(t.height(), 2);
        assert_eq!(t.subtree_size(c1), 2);
    }

    #[test]
    fn term_string_rendering() {
        let (sigma, mut t) = setup();
        let b = sigma.get("b").unwrap();
        let c = sigma.get("c").unwrap();
        let r = t.root();
        let c1 = t.insert_last_child(r, b);
        t.insert_last_child(r, c);
        t.insert_last_child(c1, c);
        let s = t.to_term_string(|l| sigma.name(l).to_owned());
        assert_eq!(s, "a(b(c),c)");
    }

    #[test]
    fn structural_equality_ignores_ids() {
        let (sigma, mut t1) = setup();
        let b = sigma.get("b").unwrap();
        let r1 = t1.root();
        let x = t1.insert_last_child(r1, b);
        t1.delete_leaf(x);
        t1.insert_last_child(r1, b);

        let (_s2, mut t2) = setup();
        let r2 = t2.root();
        t2.insert_last_child(r2, b);
        assert!(t1.structurally_equal(&t2));
        t2.insert_last_child(r2, b);
        assert!(!t1.structurally_equal(&t2));
    }

    #[test]
    fn apply_edit_ops() {
        let (sigma, mut t) = setup();
        let b = sigma.get("b").unwrap();
        let c = sigma.get("c").unwrap();
        let r = t.root();
        let n1 = t
            .apply(&EditOp::InsertFirstChild {
                parent: r,
                label: b,
            })
            .unwrap();
        let n2 = t
            .apply(&EditOp::InsertRightSibling {
                sibling: n1,
                label: c,
            })
            .unwrap();
        t.apply(&EditOp::Relabel { node: n2, label: b });
        assert_eq!(t.label(n2), b);
        t.apply(&EditOp::DeleteLeaf { node: n1 });
        assert_eq!(t.len(), 2);
    }
}
