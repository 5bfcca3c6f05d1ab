//! The shape of a rooted full binary tree, read by the structures built over
//! it.
//!
//! An assignment circuit has one box per node of the tree it is built on
//! (Lemma 3.7: the structuring function maps every gate to a tree node), and
//! the enumeration index and the enumeration machine walk that same tree.
//! So the circuit keeps content only, and every walk reads the shape through
//! [`Topology`], implemented by the tree itself: the balanced
//! forest-algebra term of `treenum-balance`, or a [`crate::BinaryTree`].
//!
//! A node is named by its arena index, wrapped in any `u32` newtype `I`
//! (the circuit's box ids, say), so one tree serves every structure built
//! over it without a translation table.

use std::cmp::Ordering;

/// Read access to the shape of a rooted full binary tree whose nodes are
/// named by `I`.  Implementors supply the four links; the derived queries
/// climb them, in `O(height)` each.
pub trait Topology<I: Copy + Eq> {
    /// The root node.
    fn root(&self) -> I;

    /// The parent of `n`, `None` for the root.
    fn parent(&self, n: I) -> Option<I>;

    /// The left and right children of `n`, `None` for a leaf.
    fn children(&self, n: I) -> Option<(I, I)>;

    /// The token a leaf's singletons `⟨Y : token⟩` carry, `None` for an
    /// internal node.
    fn leaf_token(&self, n: I) -> Option<u32>;

    /// Depth of `n` below the root (the root has depth 0).
    fn depth(&self, n: I) -> usize {
        let mut d = 0;
        let mut cur = n;
        while let Some(p) = self.parent(cur) {
            d += 1;
            cur = p;
        }
        d
    }

    /// Least common ancestor of `a` and `b`.
    fn lca(&self, a: I, b: I) -> I {
        let (mut x, mut y) = (a, b);
        let (mut dx, mut dy) = (self.depth(x), self.depth(y));
        while dx > dy {
            x = self.parent(x).expect("depth accounting broken");
            dx -= 1;
        }
        while dy > dx {
            y = self.parent(y).expect("depth accounting broken");
            dy -= 1;
        }
        while x != y {
            x = self.parent(x).expect("nodes are in different trees");
            y = self.parent(y).expect("nodes are in different trees");
        }
        x
    }

    /// `true` iff `ancestor` is an ancestor of `n` (a node is an ancestor
    /// of itself).
    fn is_ancestor(&self, ancestor: I, n: I) -> bool {
        let mut cur = Some(n);
        while let Some(x) = cur {
            if x == ancestor {
                return true;
            }
            cur = self.parent(x);
        }
        false
    }

    /// Compares two nodes by their position in preorder: `Less` if `a`
    /// comes strictly before `b`.
    fn preorder_cmp(&self, a: I, b: I) -> Ordering {
        if a == b {
            return Ordering::Equal;
        }
        let lca = self.lca(a, b);
        if lca == a {
            return Ordering::Less; // ancestors come first in preorder
        }
        if lca == b {
            return Ordering::Greater;
        }
        // The child of the lca on the path to `target`.
        let child_towards = |target: I| -> I {
            let mut cur = target;
            loop {
                let p = self.parent(cur).expect("lca computation broken");
                if p == lca {
                    return cur;
                }
                cur = p;
            }
        };
        let (l, _) = self
            .children(lca)
            .expect("an lca of two distinct descendants is internal");
        if child_towards(a) == l {
            Ordering::Less
        } else {
            Ordering::Greater
        }
    }

    /// Every node reachable from the root, children before parents (left
    /// subtree, right subtree, node).
    fn postorder(&self) -> Vec<I> {
        let mut out = Vec::new();
        let mut stack = vec![self.root()];
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
}
