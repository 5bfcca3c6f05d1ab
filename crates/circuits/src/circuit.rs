//! The box-structured circuit representation.

use std::fmt;
use treenum_trees::valuation::VarSet;

/// Identifier of a box (equivalently, of a v-tree node) of a [`Circuit`].
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct BoxId(pub u32);

impl BoxId {
    /// Arena index of this box.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Debug for BoxId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "B{}", self.0)
    }
}

/// Which child box a cross-box wire points into.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Side {
    /// The left child box.
    Left,
    /// The right child box.
    Right,
}

/// An input of a ∪-gate.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum UnionInput {
    /// A `var`-gate labelled by the set of singletons `⟨vars : leaf_token⟩`
    /// (leaf boxes only).  `leaf_token` is an opaque identifier of the tree leaf the
    /// singleton refers to; callers map it back to their node identifiers.
    Var { vars: VarSet, leaf_token: u32 },
    /// A `×`-gate whose left input is ∪-gate `left` of the left child box and whose
    /// right input is ∪-gate `right` of the right child box.
    Times { left: u32, right: u32 },
    /// A wire directly to ∪-gate `gate` of the `side` child box (used when the other
    /// side of a transition captures exactly the empty assignment).
    Child { side: Side, gate: u32 },
}

/// A ∪-gate: the union of the sets captured by its inputs.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct UnionGate {
    /// The inputs of the gate.  Never empty in a well-formed circuit.
    pub inputs: Vec<UnionInput>,
}

/// The gate `γ(n, q)` associated with a state in a box: either the constant gates
/// `⊤` / `⊥`, or a reference to one of the box's ∪-gates.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum StateGate {
    /// Captures exactly `{∅}` (the empty assignment).
    Top,
    /// Captures the empty set of assignments.
    Bot,
    /// Captures the set of the referenced ∪-gate of the same box.
    Union(u32),
}

impl StateGate {
    /// `true` iff this is a `⊤`-gate.
    pub fn is_top(self) -> bool {
        matches!(self, StateGate::Top)
    }

    /// `true` iff this is a `⊥`-gate.
    pub fn is_bot(self) -> bool {
        matches!(self, StateGate::Bot)
    }

    /// The ∪-gate index, if any.
    pub fn union_index(self) -> Option<u32> {
        match self {
            StateGate::Union(i) => Some(i),
            _ => None,
        }
    }
}

/// The contents of one box: its ∪-gates and the mapping `γ(n, ·)` from automaton
/// states to gates.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct BoxContent {
    /// The ∪-gates of the box.
    pub union_gates: Vec<UnionGate>,
    /// `gamma[q]` is the gate `γ(n, q)` for state `q`.
    pub gamma: Vec<StateGate>,
}

impl BoxContent {
    /// Number of ∪-gates (the box's contribution to the circuit width).
    pub fn width(&self) -> usize {
        self.union_gates.len()
    }
}

#[derive(Clone, Debug)]
struct BoxSlot {
    content: BoxContent,
    parent: Option<BoxId>,
    left: Option<BoxId>,
    right: Option<BoxId>,
    /// Leaf boxes carry the token of the tree leaf they correspond to.
    leaf_token: Option<u32>,
    free: bool,
}

/// Slots per chunk of the box arena (a power of two).
const CHUNK: usize = 1 << 10;

/// The box arena: slots in fixed-size chunks of [`CHUNK`], the slots past
/// `len` free placeholders.  No slot ever moves, so a circuit that outgrows
/// its capacity writes one new chunk instead of copying the whole arena
/// (at 2¹⁸ slots a doubling `Vec` copies ~23 MB in one repair, and the
/// allocator keeps the old block resident).
#[derive(Clone, Debug, Default)]
struct Slots {
    chunks: Vec<Box<[BoxSlot; CHUNK]>>,
    len: usize,
}

impl Slots {
    fn len(&self) -> usize {
        self.len
    }

    fn push(&mut self, slot: BoxSlot) {
        if self.len.is_multiple_of(CHUNK) {
            let placeholder = BoxSlot {
                content: BoxContent::default(),
                parent: None,
                left: None,
                right: None,
                leaf_token: None,
                free: true,
            };
            let chunk = vec![placeholder; CHUNK].into_boxed_slice();
            self.chunks
                .push(chunk.try_into().expect("a chunk of CHUNK slots"));
        }
        let i = self.len;
        self.len += 1;
        self[i] = slot;
    }

    fn iter(&self) -> impl Iterator<Item = &BoxSlot> {
        self.chunks.iter().flat_map(|c| c.iter()).take(self.len)
    }
}

impl std::ops::Index<usize> for Slots {
    type Output = BoxSlot;

    #[inline]
    fn index(&self, i: usize) -> &BoxSlot {
        &self.chunks[i / CHUNK][i % CHUNK]
    }
}

impl std::ops::IndexMut<usize> for Slots {
    #[inline]
    fn index_mut(&mut self, i: usize) -> &mut BoxSlot {
        &mut self.chunks[i / CHUNK][i % CHUNK]
    }
}

/// A box-structured complete structured DNNF (set circuit).
///
/// The tree of boxes *is* the v-tree: leaf boxes are labelled (implicitly) by the
/// singletons of their leaf token, and the structuring function maps every gate to
/// the box containing it.
#[derive(Clone, Debug, Default)]
pub struct Circuit {
    slots: Slots,
    free_list: Vec<u32>,
    root: Option<BoxId>,
    num_states: usize,
}

impl Circuit {
    /// Creates an empty circuit for an automaton with `num_states` states.
    pub fn new(num_states: usize) -> Self {
        Circuit {
            slots: Slots::default(),
            free_list: Vec::new(),
            root: None,
            num_states,
        }
    }

    /// The number of automaton states each box's `gamma` is indexed by.
    pub fn num_states(&self) -> usize {
        self.num_states
    }

    /// The root box.
    ///
    /// # Panics
    /// Panics if no root has been declared yet.
    pub fn root(&self) -> BoxId {
        self.root.expect("circuit has no root box")
    }

    /// Declares `b` as the root box.
    pub fn set_root(&mut self, b: BoxId) {
        assert!(
            self.slot(b).parent.is_none(),
            "the root box cannot have a parent"
        );
        self.root = Some(b);
    }

    /// Number of live boxes.
    pub fn num_boxes(&self) -> usize {
        self.slots.iter().filter(|s| !s.free).count()
    }

    /// `true` iff the circuit has no boxes yet.
    pub fn is_empty(&self) -> bool {
        self.num_boxes() == 0
    }

    fn slot(&self, b: BoxId) -> &BoxSlot {
        let s = &self.slots[b.index()];
        debug_assert!(!s.free, "access to freed box {:?}", b);
        s
    }

    fn slot_mut(&mut self, b: BoxId) -> &mut BoxSlot {
        let s = &mut self.slots[b.index()];
        debug_assert!(!s.free, "access to freed box {:?}", b);
        s
    }

    fn alloc(&mut self, slot: BoxSlot) -> BoxId {
        if let Some(i) = self.free_list.pop() {
            self.slots[i as usize] = slot;
            BoxId(i)
        } else {
            self.slots.push(slot);
            BoxId(self.slots.len() as u32 - 1)
        }
    }

    /// Adds a leaf box with the given content and leaf token.
    pub fn add_leaf_box(&mut self, content: BoxContent, leaf_token: u32) -> BoxId {
        debug_assert_eq!(content.gamma.len(), self.num_states);
        self.alloc(BoxSlot {
            content,
            parent: None,
            left: None,
            right: None,
            leaf_token: Some(leaf_token),
            free: false,
        })
    }

    /// Adds an internal box with the given content and children.
    ///
    /// # Panics
    /// Panics if either child already has a parent.
    pub fn add_internal_box(&mut self, content: BoxContent, left: BoxId, right: BoxId) -> BoxId {
        debug_assert_eq!(content.gamma.len(), self.num_states);
        assert!(
            self.slot(left).parent.is_none(),
            "left child box already attached"
        );
        assert!(
            self.slot(right).parent.is_none(),
            "right child box already attached"
        );
        let id = self.alloc(BoxSlot {
            content,
            parent: None,
            left: Some(left),
            right: Some(right),
            leaf_token: None,
            free: false,
        });
        self.slot_mut(left).parent = Some(id);
        self.slot_mut(right).parent = Some(id);
        id
    }

    /// Replaces the content of box `b` (used by the update machinery when a box is
    /// recomputed bottom-up after a tree hollowing).
    pub fn replace_content(&mut self, b: BoxId, content: BoxContent) {
        debug_assert_eq!(content.gamma.len(), self.num_states);
        self.slot_mut(b).content = content;
    }

    /// The parent box of `b`.
    pub fn parent(&self, b: BoxId) -> Option<BoxId> {
        self.slot(b).parent
    }

    /// The two child boxes of `b`, if it is internal.
    pub fn children(&self, b: BoxId) -> Option<(BoxId, BoxId)> {
        match (self.slot(b).left, self.slot(b).right) {
            (Some(l), Some(r)) => Some((l, r)),
            _ => None,
        }
    }

    /// `true` iff `b` is a leaf box.
    pub fn is_leaf(&self, b: BoxId) -> bool {
        self.slot(b).left.is_none() && self.slot(b).right.is_none()
    }

    /// The leaf token of `b`, if it is a leaf box.
    pub fn leaf_token(&self, b: BoxId) -> Option<u32> {
        self.slot(b).leaf_token
    }

    /// The content (∪-gates and `γ` mapping) of box `b`.
    pub fn content(&self, b: BoxId) -> &BoxContent {
        &self.slot(b).content
    }

    /// The `γ(n, ·)` mapping of box `b`.
    pub fn gamma(&self, b: BoxId) -> &[StateGate] {
        &self.slot(b).content.gamma
    }

    /// The ∪-gates of box `b`.
    pub fn union_gates(&self, b: BoxId) -> &[UnionGate] {
        &self.slot(b).content.union_gates
    }

    /// Number of ∪-gates of box `b`.
    pub fn box_width(&self, b: BoxId) -> usize {
        self.slot(b).content.union_gates.len()
    }

    /// The circuit's width: the maximum number of ∪-gates over all boxes
    /// (Definition 3.6).
    pub fn width(&self) -> usize {
        self.boxes().map(|b| self.box_width(b)).max().unwrap_or(0)
    }

    /// Depth of box `b` below the root (root has depth 0), computed by climbing.
    pub fn depth(&self, b: BoxId) -> usize {
        let mut d = 0;
        let mut cur = b;
        while let Some(p) = self.parent(cur) {
            d += 1;
            cur = p;
        }
        d
    }

    /// Height of the box tree.
    pub fn height(&self) -> usize {
        self.boxes_preorder()
            .iter()
            .map(|&b| self.depth(b))
            .max()
            .unwrap_or(0)
    }

    /// Iterates over all live boxes (arena order, includes floating boxes).
    pub fn boxes(&self) -> impl Iterator<Item = BoxId> + '_ {
        self.slots
            .iter()
            .enumerate()
            .filter(|(_, s)| !s.free)
            .map(|(i, _)| BoxId(i as u32))
    }

    /// The boxes of the tree rooted at the root box, in preorder.
    pub fn boxes_preorder(&self) -> Vec<BoxId> {
        let Some(root) = self.root else {
            return Vec::new();
        };
        self.subtree_preorder(root)
    }

    /// The boxes of the subtree rooted at `b`, in preorder (node, left, right).
    pub fn subtree_preorder(&self, b: BoxId) -> Vec<BoxId> {
        let mut out = Vec::new();
        let mut stack = vec![b];
        while let Some(x) = stack.pop() {
            out.push(x);
            if let Some((l, r)) = self.children(x) {
                stack.push(r);
                stack.push(l);
            }
        }
        out
    }

    /// The boxes of the tree rooted at the root box, in postorder (children first).
    pub fn boxes_postorder(&self) -> Vec<BoxId> {
        let Some(root) = self.root else {
            return Vec::new();
        };
        let mut out = Vec::new();
        let mut stack = vec![root];
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

    /// Least common ancestor of `a` and `b` in the box tree, computed by climbing
    /// (`O(height)`).
    pub fn lca(&self, a: BoxId, b: BoxId) -> BoxId {
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
            x = self.parent(x).expect("boxes are in different trees");
            y = self.parent(y).expect("boxes are in different trees");
        }
        x
    }

    /// `true` iff `ancestor` is an ancestor of `b` (a box is an ancestor of itself).
    pub fn is_ancestor(&self, ancestor: BoxId, b: BoxId) -> bool {
        let mut cur = Some(b);
        while let Some(x) = cur {
            if x == ancestor {
                return true;
            }
            cur = self.parent(x);
        }
        false
    }

    /// Compares two boxes by their position in the preorder traversal of the box tree
    /// (`O(height)`).  Returns `Less` if `a` comes strictly before `b`.
    pub fn preorder_cmp(&self, a: BoxId, b: BoxId) -> std::cmp::Ordering {
        use std::cmp::Ordering;
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
        // Find the children of the lca on the paths to a and b.
        let child_towards = |target: BoxId| -> BoxId {
            let mut cur = target;
            loop {
                let p = self.parent(cur).expect("lca computation broken");
                if p == lca {
                    return cur;
                }
                cur = p;
            }
        };
        let ca = child_towards(a);
        let cb = child_towards(b);
        let (l, _r) = self
            .children(lca)
            .expect("lca with two distinct descendants must be internal");
        if ca == l {
            debug_assert_ne!(cb, l);
            Ordering::Less
        } else {
            Ordering::Greater
        }
    }

    /// Validates the structural invariants of a complete structured DNNF:
    /// parent/child pointers are consistent, `γ` entries reference existing ∪-gates,
    /// `×`-gates reference existing ∪-gates of the child boxes, `var`-gates appear
    /// only in leaf boxes, cross-box wires point to existing gates of child boxes,
    /// and every ∪-gate has at least one input.
    ///
    /// # Panics
    /// Panics (with a descriptive message) if an invariant is violated.
    pub fn validate(&self) {
        for b in self.boxes_preorder() {
            let content = self.content(b);
            assert_eq!(
                content.gamma.len(),
                self.num_states,
                "gamma has wrong arity in {:?}",
                b
            );
            if let Some((l, r)) = self.children(b) {
                assert_eq!(self.parent(l), Some(b));
                assert_eq!(self.parent(r), Some(b));
            }
            for gate in &content.gamma {
                if let StateGate::Union(i) = gate {
                    assert!(
                        (*i as usize) < content.union_gates.len(),
                        "gamma references missing gate in {:?}",
                        b
                    );
                }
            }
            for (gi, gate) in content.union_gates.iter().enumerate() {
                assert!(
                    !gate.inputs.is_empty(),
                    "∪-gate {} of {:?} has no inputs",
                    gi,
                    b
                );
                for input in &gate.inputs {
                    match *input {
                        UnionInput::Var { .. } => {
                            assert!(self.is_leaf(b), "var-gate outside a leaf box in {:?}", b);
                        }
                        UnionInput::Times { left, right } => {
                            let (l, r) = self.children(b).expect("×-gate in a leaf box");
                            assert!(
                                (left as usize) < self.box_width(l),
                                "dangling × left wire in {:?}",
                                b
                            );
                            assert!(
                                (right as usize) < self.box_width(r),
                                "dangling × right wire in {:?}",
                                b
                            );
                        }
                        UnionInput::Child { side, gate } => {
                            let (l, r) = self.children(b).expect("child wire in a leaf box");
                            let target = match side {
                                Side::Left => l,
                                Side::Right => r,
                            };
                            assert!(
                                (gate as usize) < self.box_width(target),
                                "dangling child wire in {:?}",
                                b
                            );
                        }
                    }
                }
            }
        }
    }
}

impl Circuit {
    /// `true` iff `b` refers to a live (non-freed) box slot.
    pub fn is_live(&self, b: BoxId) -> bool {
        b.index() < self.slots.len() && !self.slots[b.index()].free
    }

    /// The arena capacity: one more than the largest `BoxId` ever allocated
    /// (freed slots included).  Parallel dense structures — the enumeration
    /// index slab, the engine's dirty bitmaps — size themselves by this.
    pub fn arena_len(&self) -> usize {
        self.slots.len()
    }

    /// Adds a detached box with no children; `leaf_token` marks leaf boxes.
    /// Used by the incremental engine, which wires children explicitly with
    /// [`Circuit::set_children`].
    pub fn add_orphan_box(&mut self, content: BoxContent, leaf_token: Option<u32>) -> BoxId {
        debug_assert_eq!(content.gamma.len(), self.num_states);
        self.alloc(BoxSlot {
            content,
            parent: None,
            left: None,
            right: None,
            leaf_token,
            free: false,
        })
    }

    /// Overwrites the children of `b` (and the parent pointers of the new children).
    /// Old children are left untouched; the caller is responsible for freeing or
    /// re-attaching them.  Used by the incremental engine when repairing the box tree
    /// after a tree hollowing.
    pub fn set_children(&mut self, b: BoxId, children: Option<(BoxId, BoxId)>) {
        self.slot_mut(b).left = children.map(|(l, _)| l);
        self.slot_mut(b).right = children.map(|(_, r)| r);
        if let Some((l, r)) = children {
            self.slot_mut(l).parent = Some(b);
            self.slot_mut(r).parent = Some(b);
        }
    }

    /// Marks a single box slot as free (no recursion into children).
    pub fn free_single(&mut self, b: BoxId) {
        let slot = &mut self.slots[b.index()];
        if slot.free {
            return;
        }
        slot.free = true;
        slot.parent = None;
        slot.left = None;
        slot.right = None;
        self.free_list.push(b.0);
        if self.root == Some(b) {
            self.root = None;
        }
    }

    /// Declares `b` the root box, clearing its parent pointer unconditionally.
    pub fn set_root_force(&mut self, b: BoxId) {
        self.slot_mut(b).parent = None;
        self.root = Some(b);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_content(num_states: usize) -> BoxContent {
        BoxContent {
            union_gates: vec![UnionGate {
                inputs: vec![UnionInput::Var {
                    vars: VarSet::singleton(treenum_trees::Var(0)),
                    leaf_token: 0,
                }],
            }],
            gamma: {
                let mut g = vec![StateGate::Bot; num_states];
                g[0] = StateGate::Top;
                if num_states > 1 {
                    g[1] = StateGate::Union(0);
                }
                g
            },
        }
    }

    #[test]
    fn build_a_small_box_tree() {
        let mut c = Circuit::new(2);
        let l1 = c.add_leaf_box(tiny_content(2), 10);
        let l2 = c.add_leaf_box(tiny_content(2), 11);
        let root_content = BoxContent {
            union_gates: vec![UnionGate {
                inputs: vec![UnionInput::Times { left: 0, right: 0 }],
            }],
            gamma: vec![StateGate::Bot, StateGate::Union(0)],
        };
        let root = c.add_internal_box(root_content, l1, l2);
        c.set_root(root);
        c.validate();
        assert_eq!(c.num_boxes(), 3);
        assert_eq!(c.width(), 1);
        assert_eq!(c.height(), 1);
        assert_eq!(c.boxes_preorder(), vec![root, l1, l2]);
        assert_eq!(c.boxes_postorder(), vec![l1, l2, root]);
        assert_eq!(c.leaf_token(l1), Some(10));
        assert!(c.is_leaf(l2));
        assert_eq!(c.lca(l1, l2), root);
        assert_eq!(c.preorder_cmp(l1, l2), std::cmp::Ordering::Less);
        assert_eq!(c.preorder_cmp(root, l2), std::cmp::Ordering::Less);
        assert_eq!(c.preorder_cmp(l2, l1), std::cmp::Ordering::Greater);
    }

    #[test]
    fn detach_and_free_subtrees() {
        let mut c = Circuit::new(1);
        let mk = || BoxContent {
            union_gates: vec![],
            gamma: vec![StateGate::Top],
        };
        let l1 = c.add_leaf_box(mk(), 0);
        let l2 = c.add_leaf_box(mk(), 1);
        let root = c.add_internal_box(
            BoxContent {
                union_gates: vec![],
                gamma: vec![StateGate::Top],
            },
            l1,
            l2,
        );
        c.set_root(root);
        assert_eq!(c.num_boxes(), 3);
        // Detach the children the way the engine's repair does, then free
        // one slot.
        c.set_children(root, None);
        assert_eq!(c.children(root), None);
        c.free_single(l2);
        assert_eq!(c.num_boxes(), 2);
        // The freed slot is reused.
        let l3 = c.add_leaf_box(mk(), 2);
        assert_eq!(l3, l2);
    }

    #[test]
    fn arena_spans_chunks_clones_and_reuses_slots() {
        let mk = || BoxContent {
            union_gates: vec![],
            gamma: vec![StateGate::Top],
        };
        let n = 2 * CHUNK + 5;
        let mut c = Circuit::new(1);
        for token in 0..n as u32 {
            assert_eq!(c.add_leaf_box(mk(), token), BoxId(token));
        }
        assert_eq!((c.arena_len(), c.num_boxes()), (n, n));
        // A clone grows on its own; the original is untouched.
        let mut d = c.clone();
        let extra = d.add_leaf_box(mk(), n as u32);
        assert_eq!(extra, BoxId(n as u32));
        assert_eq!(c.arena_len(), n);
        assert!(!c.is_live(extra) && d.is_live(extra));
        // A freed slot in a middle chunk is reused, and every slot still
        // reads back its own token, in arena order.
        let mid = BoxId(CHUNK as u32 + 7);
        d.free_single(mid);
        assert_eq!(d.add_leaf_box(mk(), 7_000_000), mid);
        assert_eq!(d.leaf_token(mid), Some(7_000_000));
        for (i, b) in d.boxes().enumerate() {
            assert_eq!(b, BoxId(i as u32));
            if b != mid {
                assert_eq!(d.leaf_token(b), Some(i as u32));
            }
        }
    }

    #[test]
    #[should_panic]
    fn validate_rejects_dangling_wires() {
        let mut c = Circuit::new(1);
        let l1 = c.add_leaf_box(
            BoxContent {
                union_gates: vec![],
                gamma: vec![StateGate::Top],
            },
            0,
        );
        let l2 = c.add_leaf_box(
            BoxContent {
                union_gates: vec![],
                gamma: vec![StateGate::Top],
            },
            1,
        );
        let bad = BoxContent {
            union_gates: vec![UnionGate {
                inputs: vec![UnionInput::Times { left: 3, right: 0 }],
            }],
            gamma: vec![StateGate::Union(0)],
        };
        let root = c.add_internal_box(bad, l1, l2);
        c.set_root(root);
        c.validate();
    }
}
