//! The box-structured circuit representation.
//!
//! # Records
//!
//! Each box's content — its ∪-gates and the map `γ(n, ·)` from automaton
//! states to gates — is **one plain-data record of `u64` words** in a
//! [`Slab`] per circuit.  With `|Q|` the number of states and `w` the
//! box's width, a record is:
//!
//! | bits | content |
//! |---|---|
//! | `2|Q|` | `γ` as two `|Q|`-bit sets: bit `q` is set iff `γ(q) = ⊤`, bit `|Q| + q` iff `γ(q)` is a ∪-gate |
//! | `32(w − 1)`, from the next 32-bit boundary | the offset table: the record offset of the first input of gates `1..w` (gate 0's inputs start right after the header) |
//! | whole words | the inputs of every gate, in gate order |
//!
//! The header — `γ` and the table — fills whole words, at least one, and
//! the table starts in the spare half of `γ`'s last word when `γ` leaves
//! one (as it does for 16 states).  ∪-gates are numbered in state order, so
//! `γ(q) = Union(r)` with `r` the number of ∪ bits below `q`, and no
//! per-state reference is stored.  Each input is one word with a 2-bit tag
//! in bits 62–63:
//!
//! * `00` — a ×-gate: left input in bits 31–61, right input in bits 0–30;
//! * `01` — a wire to a child box's ∪-gate: the side in bit 32 (set for
//!   right), the gate in bits 0–31;
//! * `10` — a var-gate `⟨Y : n⟩` whose `Y` fits in bits 0–61;
//! * `11` — a var-gate whose `Y` is the next word.
//!
//! A var-gate's leaf token is the box's own leaf token, so it is not
//! stored.  The content builders emit each gate's inputs sorted by word,
//! i.e. ×-gates, then left wires, then right wires, or var-gates by `Y`.
//!
//! A box's slot in the arena is `Copy` topology (parent, children, leaf
//! token), the record's [`Block`] and the width, so [`Circuit::box_width`]
//! is one slot load and a clone of the circuit copies chunks of plain
//! data.

use crate::slab::{Block, Slab};
use std::fmt;
use treenum_automata::State;
use treenum_trees::valuation::VarSet;
use treenum_trees::ChunkedVec;

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

/// An input of a ∪-gate, as decoded from a record.
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

const TAG_CHILD: u64 = 1 << 62;
const TAG_VAR: u64 = 2 << 62;
const TAG_VAR_WIDE: u64 = 3 << 62;
/// The payload bits below the tag.
const PAYLOAD: u64 = (1 << 62) - 1;

/// The input word of a ×-gate (tag `00`).
#[inline]
pub(crate) fn times_word(left: u32, right: u32) -> u64 {
    debug_assert!(left < 1 << 31 && right < 1 << 31, "gate index past 31 bits");
    (left as u64) << 31 | right as u64
}

/// The input word of a wire into the `side` child (tag `01`).
#[inline]
pub(crate) fn child_word(side: Side, gate: u32) -> u64 {
    TAG_CHILD | ((side == Side::Right) as u64) << 32 | gate as u64
}

/// Appends the input words of var-gate `⟨vars : ·⟩` (tag `10`, or `11`
/// and a second word when `vars` uses bit 62 or 63).
#[inline]
pub(crate) fn push_var_words(out: &mut Vec<u64>, vars: VarSet) {
    if vars.0 & !PAYLOAD == 0 {
        out.push(TAG_VAR | vars.0);
    } else {
        out.push(TAG_VAR_WIDE);
        out.push(vars.0);
    }
}

/// Words holding a record's `γ` bits for `num_states` states.
#[inline]
fn gamma_words(num_states: usize) -> usize {
    (2 * num_states).div_ceil(64).max(1)
}

/// First bit of a record's offset table: after `γ`'s `2|Q|` bits, at a
/// 32-bit boundary.
#[inline]
fn table_bit(num_states: usize) -> usize {
    (2 * num_states).next_multiple_of(32)
}

/// Words of the header (`γ` and the offset table) of a record of a
/// width-`w` box.
#[inline]
pub(crate) fn header_words(num_states: usize, w: usize) -> usize {
    let table_end = table_bit(num_states) + 32 * w.saturating_sub(1);
    gamma_words(num_states).max(table_end.div_ceil(64))
}

/// Writes the table entry of gate `g ≥ 1`: `at`, the record offset of
/// its first input.
#[inline]
pub(crate) fn set_gate_start(words: &mut [u64], num_states: usize, g: usize, at: usize) {
    let bit = table_bit(num_states) + 32 * (g - 1);
    debug_assert!(at < 1 << 32, "a record of {at} words");
    words[bit / 64] |= (at as u64) << (bit % 64);
}

/// The record offset of the first input of gate `g ≥ 1`.
#[inline]
fn gate_start(words: &[u64], num_states: usize, g: usize) -> usize {
    let bit = table_bit(num_states) + 32 * (g - 1);
    (words[bit / 64] >> (bit % 64)) as u32 as usize
}

#[inline]
fn bit(words: &[u64], i: usize) -> bool {
    words[i / 64] >> (i % 64) & 1 != 0
}

/// Number of set bits at positions `from..to`.
#[inline]
fn ones(words: &[u64], from: usize, to: usize) -> usize {
    let mut count = 0;
    let mut i = from;
    while i < to {
        let (w, lo) = (i / 64, i % 64);
        let hi = (to - w * 64).min(64);
        let below_hi = if hi == 64 { !0 } else { (1u64 << hi) - 1 };
        count += (words[w] & below_hi & !((1u64 << lo) - 1)).count_ones() as usize;
        i = (w + 1) * 64;
    }
    count
}

/// A borrowed view of a box's `γ(n, ·)` (see the module docs).  Two views
/// are equal iff their `γ` bits are (a word compare; the offset table's
/// bits that share `γ`'s last word are masked out).
#[derive(Clone, Copy, Debug)]
pub struct Gamma<'a> {
    words: &'a [u64],
    num_states: usize,
}

impl PartialEq for Gamma<'_> {
    #[inline]
    fn eq(&self, other: &Self) -> bool {
        let bits = 2 * self.num_states;
        let (full, rest) = (bits / 64, bits % 64);
        self.num_states == other.num_states
            && self.words[..full] == other.words[..full]
            && (rest == 0 || (self.words[full] ^ other.words[full]) & ((1 << rest) - 1) == 0)
    }
}

impl Eq for Gamma<'_> {}

impl<'a> Gamma<'a> {
    /// The gate `γ(n, q)`.
    #[inline]
    pub fn get(&self, q: usize) -> StateGate {
        debug_assert!(q < self.num_states, "state {q} out of range");
        let n = self.num_states;
        if bit(self.words, q) {
            StateGate::Top
        } else if bit(self.words, n + q) {
            StateGate::Union(ones(self.words, n, n + q) as u32)
        } else {
            StateGate::Bot
        }
    }

    /// Number of states `γ` maps.
    pub fn num_states(&self) -> usize {
        self.num_states
    }

    /// Number of ∪-gates `γ` refers to (the box's width).
    #[inline]
    pub fn width(&self) -> usize {
        ones(self.words, self.num_states, 2 * self.num_states)
    }

    /// The ∪-gates `γ(n, q)` of `states`, each once in first-seen order,
    /// and whether some state maps to `⊤`: at the root box and for the
    /// final states, the boxed set of a query's non-empty answers and
    /// whether it accepts the empty assignment.
    pub fn boxed_set(&self, states: &[State]) -> (Vec<u32>, bool) {
        let (mut gates, mut top) = (Vec::new(), false);
        for q in states {
            match self.get(q.index()) {
                StateGate::Top => top = true,
                StateGate::Bot => {}
                StateGate::Union(u) if !gates.contains(&u) => gates.push(u),
                StateGate::Union(_) => {}
            }
        }
        (gates, top)
    }

    /// The gates `γ(n, q)` for every state `q`, in state order.
    pub fn iter(&self) -> impl Iterator<Item = StateGate> + 'a {
        let g = *self;
        (0..self.num_states).map(move |q| g.get(q))
    }
}

/// A borrowed view of one box's content record (see the module docs): the
/// output of the content builders and what [`Circuit::content`] returns.
/// Two views are equal iff their records are word-for-word equal.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct BoxContent<'a> {
    words: &'a [u64],
    num_states: usize,
}

impl<'a> BoxContent<'a> {
    /// Views `words` as the content record of a box over `num_states`
    /// states.
    pub fn new(words: &'a [u64], num_states: usize) -> Self {
        assert!(words.len() >= gamma_words(num_states), "a record without γ");
        BoxContent { words, num_states }
    }

    /// The record's words.
    #[inline]
    pub fn words(&self) -> &'a [u64] {
        self.words
    }

    /// The `γ(n, ·)` mapping.
    #[inline]
    pub fn gamma(&self) -> Gamma<'a> {
        Gamma {
            words: &self.words[..gamma_words(self.num_states)],
            num_states: self.num_states,
        }
    }

    /// Number of ∪-gates (the box's contribution to the circuit width).
    #[inline]
    pub fn width(&self) -> usize {
        self.gamma().width()
    }

    /// The inputs of ∪-gate `g`, var-gates carrying `leaf_token`.
    pub fn inputs(&self, g: usize, leaf_token: u32) -> GateInputs<'a> {
        self.inputs_of(g, self.width(), leaf_token)
    }

    /// [`BoxContent::inputs`] for a box of known width `w`.
    #[inline]
    fn inputs_of(&self, g: usize, w: usize, leaf_token: u32) -> GateInputs<'a> {
        debug_assert!(g < w, "gate {g} of a width-{w} box");
        let n = self.num_states;
        let start = if g == 0 {
            header_words(n, w)
        } else {
            gate_start(self.words, n, g)
        };
        let end = if g + 1 < w {
            gate_start(self.words, n, g + 1)
        } else {
            self.words.len()
        };
        GateInputs {
            words: &self.words[start..end],
            leaf_token,
        }
    }
}

/// The decoded inputs of one ∪-gate, in record order.
#[derive(Clone, Debug)]
pub struct GateInputs<'a> {
    words: &'a [u64],
    leaf_token: u32,
}

impl Iterator for GateInputs<'_> {
    type Item = UnionInput;

    #[inline]
    fn next(&mut self) -> Option<UnionInput> {
        let (&word, rest) = self.words.split_first()?;
        self.words = rest;
        let payload = word & PAYLOAD;
        Some(match word & !PAYLOAD {
            0 => UnionInput::Times {
                left: (payload >> 31) as u32,
                right: (payload & 0x7FFF_FFFF) as u32,
            },
            TAG_CHILD => UnionInput::Child {
                side: if payload >> 32 & 1 == 0 {
                    Side::Left
                } else {
                    Side::Right
                },
                gate: payload as u32,
            },
            TAG_VAR => UnionInput::Var {
                vars: VarSet(payload),
                leaf_token: self.leaf_token,
            },
            _ => {
                let (&vars, rest) = self.words.split_first().expect("a wide var-gate's Y word");
                self.words = rest;
                UnionInput::Var {
                    vars: VarSet(vars),
                    leaf_token: self.leaf_token,
                }
            }
        })
    }
}

/// A `u32` link with no box (or no leaf token).
const NONE: u32 = u32::MAX;

/// One box: `Copy` topology, where its record lives, and its width (24
/// bytes).  A free slot has no record.
#[derive(Clone, Copy, Debug)]
struct BoxSlot {
    parent: u32,
    /// The left child; [`NONE`] for a leaf box.
    left: u32,
    /// The right child of an internal box.  A leaf box keeps here the
    /// token of the tree leaf it corresponds to ([`NONE`] if it has none).
    right: u32,
    record: Block,
    width: u16,
}

#[inline]
fn link(x: u32) -> Option<BoxId> {
    (x != NONE).then_some(BoxId(x))
}

/// A box-structured complete structured DNNF (set circuit).
///
/// The tree of boxes *is* the v-tree: leaf boxes are labelled (implicitly) by the
/// singletons of their leaf token, and the structuring function maps every gate to
/// the box containing it.  Box contents are word records in one slab (see
/// the module docs).
#[derive(Clone, Debug, Default)]
pub struct Circuit {
    slots: ChunkedVec<BoxSlot>,
    slab: Slab,
    free_list: Vec<u32>,
    root: Option<BoxId>,
    num_states: usize,
}

impl Circuit {
    /// Creates an empty circuit for an automaton with `num_states` states.
    pub fn new(num_states: usize) -> Self {
        Circuit {
            num_states,
            ..Circuit::default()
        }
    }

    /// The number of automaton states each box's `γ` is indexed by.
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
            self.parent(b).is_none(),
            "the root box cannot have a parent"
        );
        self.root = Some(b);
    }

    /// Number of live boxes.
    pub fn num_boxes(&self) -> usize {
        self.slots.iter().filter(|s| !s.record.is_none()).count()
    }

    /// `true` iff the circuit has no boxes yet.
    pub fn is_empty(&self) -> bool {
        self.num_boxes() == 0
    }

    #[inline]
    fn slot(&self, b: BoxId) -> &BoxSlot {
        let s = &self.slots[b.index()];
        debug_assert!(!s.record.is_none(), "access to freed box {:?}", b);
        s
    }

    #[inline]
    fn slot_mut(&mut self, b: BoxId) -> &mut BoxSlot {
        let s = &mut self.slots[b.index()];
        debug_assert!(!s.record.is_none(), "access to freed box {:?}", b);
        s
    }

    /// Stores `content` as a new box with the given links (see
    /// [`BoxSlot`]).
    fn alloc(&mut self, content: BoxContent<'_>, left: u32, right: u32) -> BoxId {
        debug_assert_eq!(content.num_states, self.num_states);
        let width = content.width();
        assert!(width <= u16::MAX as usize, "box of width {width}");
        let slot = BoxSlot {
            parent: NONE,
            left,
            right,
            record: self.slab.store(Block::NONE, content.words),
            width: width as u16,
        };
        if let Some(i) = self.free_list.pop() {
            self.slots[i as usize] = slot;
            BoxId(i)
        } else {
            self.slots.push(slot);
            BoxId(self.slots.len() as u32 - 1)
        }
    }

    /// Adds a leaf box with the given content and leaf token.
    pub fn add_leaf_box(&mut self, content: BoxContent<'_>, leaf_token: u32) -> BoxId {
        self.alloc(content, NONE, leaf_token)
    }

    /// Adds an internal box with the given content and children.
    ///
    /// # Panics
    /// Panics if either child already has a parent.
    pub fn add_internal_box(
        &mut self,
        content: BoxContent<'_>,
        left: BoxId,
        right: BoxId,
    ) -> BoxId {
        assert!(
            self.parent(left).is_none(),
            "left child box already attached"
        );
        assert!(
            self.parent(right).is_none(),
            "right child box already attached"
        );
        let id = self.alloc(content, left.0, right.0);
        self.slot_mut(left).parent = id.0;
        self.slot_mut(right).parent = id.0;
        id
    }

    /// Replaces the content of box `b` (used by the update machinery when a box is
    /// recomputed bottom-up after a tree hollowing): a word copy into the
    /// box's block, or into a new block if the record no longer fits.
    // hot-path: runs once per changed box on the repair path.
    pub fn replace_content(&mut self, b: BoxId, content: BoxContent<'_>) {
        debug_assert_eq!(content.num_states, self.num_states);
        let width = content.width();
        assert!(width <= u16::MAX as usize, "box of width {width}");
        let old = self.slot(b).record;
        let record = self.slab.store(old, content.words);
        let slot = self.slot_mut(b);
        slot.record = record;
        slot.width = width as u16;
    }

    /// The parent box of `b`.
    #[inline]
    pub fn parent(&self, b: BoxId) -> Option<BoxId> {
        link(self.slot(b).parent)
    }

    /// The two child boxes of `b`, if it is internal.
    #[inline]
    pub fn children(&self, b: BoxId) -> Option<(BoxId, BoxId)> {
        let s = self.slot(b);
        (s.left != NONE).then_some((BoxId(s.left), BoxId(s.right)))
    }

    /// `true` iff `b` is a leaf box.
    pub fn is_leaf(&self, b: BoxId) -> bool {
        self.slot(b).left == NONE
    }

    /// The leaf token of `b`, if it is a leaf box.
    pub fn leaf_token(&self, b: BoxId) -> Option<u32> {
        let s = self.slot(b);
        if s.left == NONE {
            link(s.right).map(|t| t.0)
        } else {
            None
        }
    }

    /// The content record of box `b`.
    #[inline]
    pub fn content(&self, b: BoxId) -> BoxContent<'_> {
        BoxContent {
            words: self.slab.get(self.slot(b).record),
            num_states: self.num_states,
        }
    }

    /// The `γ(n, ·)` mapping of box `b`.
    #[inline]
    pub fn gamma(&self, b: BoxId) -> Gamma<'_> {
        self.content(b).gamma()
    }

    /// The decoded inputs of ∪-gate `g` of box `b`, in record order.
    #[inline]
    pub fn gate_inputs(&self, b: BoxId, g: usize) -> GateInputs<'_> {
        let s = self.slot(b);
        let leaf_token = if s.left == NONE { s.right } else { NONE };
        self.content(b).inputs_of(g, s.width as usize, leaf_token)
    }

    /// Number of ∪-gates of box `b`.
    #[inline]
    pub fn box_width(&self, b: BoxId) -> usize {
        self.slot(b).width as usize
    }

    /// The circuit's width: the maximum number of ∪-gates over all boxes
    /// (Definition 3.6).
    pub fn width(&self) -> usize {
        self.boxes().map(|b| self.box_width(b)).max().unwrap_or(0)
    }

    /// Words held by the content slab: records and free blocks.
    pub fn slab_words(&self) -> usize {
        self.slab.words()
    }

    /// Bytes of the box arena: one slot per box ever allocated.
    pub fn slot_bytes(&self) -> usize {
        self.slots.len() * std::mem::size_of::<BoxSlot>()
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
            .filter(|(_, s)| !s.record.is_none())
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
    /// parent/child pointers are consistent, `γ` maps no state to both `⊤`
    /// and a ∪-gate and refers to exactly the box's ∪-gates, `×`-gates
    /// reference existing ∪-gates of the child boxes, `var`-gates appear
    /// only in leaf boxes, cross-box wires point to existing gates of child
    /// boxes, and every ∪-gate has at least one input.
    ///
    /// # Panics
    /// Panics (with a descriptive message) if an invariant is violated.
    pub fn validate(&self) {
        let n = self.num_states;
        for b in self.boxes_preorder() {
            let gamma = self.gamma(b);
            assert!(
                (0..n).all(|q| !(bit(gamma.words, q) && bit(gamma.words, n + q))),
                "a state is both ⊤ and a ∪-gate in {b:?}"
            );
            assert_eq!(
                gamma.width(),
                self.box_width(b),
                "γ and the slot disagree on the width of {b:?}"
            );
            if let Some((l, r)) = self.children(b) {
                assert_eq!(self.parent(l), Some(b));
                assert_eq!(self.parent(r), Some(b));
            }
            for gi in 0..self.box_width(b) {
                assert!(
                    self.gate_inputs(b, gi).next().is_some(),
                    "∪-gate {gi} of {b:?} has no inputs"
                );
                for input in self.gate_inputs(b, gi) {
                    match input {
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
        self.slots
            .get(b.index())
            .is_some_and(|s| !s.record.is_none())
    }

    /// The arena capacity: one more than the largest `BoxId` ever allocated
    /// (freed slots included).  Parallel dense structures — the enumeration
    /// index's address table, the engine's repair marks — size themselves
    /// by this.
    pub fn arena_len(&self) -> usize {
        self.slots.len()
    }

    /// Adds a detached box with no children; `leaf_token` marks leaf boxes.
    /// Used by the incremental engine, which wires children explicitly with
    /// [`Circuit::set_children`].
    pub fn add_orphan_box(&mut self, content: BoxContent<'_>, leaf_token: Option<u32>) -> BoxId {
        self.alloc(content, NONE, leaf_token.unwrap_or(NONE))
    }

    /// Overwrites the children of `b` (and the parent pointers of the new children).
    /// Old children are left untouched; the caller is responsible for freeing or
    /// re-attaching them.  Used by the incremental engine when repairing the box tree
    /// after a tree hollowing.  A leaf box set to have no children keeps its
    /// leaf token.
    pub fn set_children(&mut self, b: BoxId, children: Option<(BoxId, BoxId)>) {
        let slot = self.slot_mut(b);
        match children {
            Some((l, r)) => (slot.left, slot.right) = (l.0, r.0),
            None if slot.left != NONE => (slot.left, slot.right) = (NONE, NONE),
            None => {}
        }
        if let Some((l, r)) = children {
            self.slot_mut(l).parent = b.0;
            self.slot_mut(r).parent = b.0;
        }
    }

    /// Marks a single box slot as free (no recursion into children),
    /// returning its record's block to the slab.
    pub fn free_single(&mut self, b: BoxId) {
        let slot = &mut self.slots[b.index()];
        if slot.record.is_none() {
            return;
        }
        self.slab.release(slot.record);
        slot.record = Block::NONE;
        slot.parent = NONE;
        slot.left = NONE;
        slot.right = NONE;
        self.free_list.push(b.0);
        if self.root == Some(b) {
            self.root = None;
        }
    }

    /// Declares `b` the root box, clearing its parent pointer unconditionally.
    pub fn set_root_force(&mut self, b: BoxId) {
        self.slot_mut(b).parent = NONE;
        self.root = Some(b);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use treenum_trees::chunked::CHUNK;

    /// A record over `num_states` states: `γ` bits, the offset table and
    /// the inputs, in the module docs' layout.
    fn record(num_states: usize, top: &[usize], gates: &[(usize, Vec<u64>)]) -> Vec<u64> {
        let mut words = vec![0; header_words(num_states, gates.len())];
        for &q in top {
            words[q / 64] |= 1 << (q % 64);
        }
        for (q, _) in gates {
            let i = num_states + q;
            words[i / 64] |= 1 << (i % 64);
        }
        for (g, (_, inputs)) in gates.iter().enumerate() {
            if g > 0 {
                let at = words.len();
                set_gate_start(&mut words, num_states, g, at);
            }
            words.extend_from_slice(inputs);
        }
        words
    }

    fn var_words(vars: VarSet) -> Vec<u64> {
        let mut out = Vec::new();
        push_var_words(&mut out, vars);
        out
    }

    #[test]
    fn records_decode_gamma_by_rank_and_every_input_kind() {
        let wide = VarSet(1 << 63 | 1);
        let inputs_1 = [
            times_word(3, 5),
            child_word(Side::Left, 2),
            child_word(Side::Right, 0),
        ];
        let words = record(
            70,
            &[0, 69],
            &[
                (4, var_words(VarSet(0b101))),
                (40, inputs_1.to_vec()),
                (68, var_words(wide)),
            ],
        );
        assert_eq!(words.len(), 4 + 1 + 3 + 2, "header (γ, table), inputs");
        let content = BoxContent::new(&words, 70);
        let gamma = content.gamma();
        assert_eq!(content.width(), 3);
        assert_eq!(gamma.get(0), StateGate::Top);
        assert_eq!(gamma.get(69), StateGate::Top);
        assert_eq!(gamma.get(1), StateGate::Bot);
        assert_eq!(gamma.get(4), StateGate::Union(0));
        assert_eq!(gamma.get(40), StateGate::Union(1));
        assert_eq!(gamma.get(68), StateGate::Union(2));
        assert_eq!(gamma.iter().filter(|g| !g.is_bot()).count(), 5);
        let var = |vars| UnionInput::Var {
            vars,
            leaf_token: 9,
        };
        assert_eq!(
            content.inputs(0, 9).collect::<Vec<_>>(),
            [var(VarSet(0b101))]
        );
        assert_eq!(
            content.inputs(1, 9).collect::<Vec<_>>(),
            [
                UnionInput::Times { left: 3, right: 5 },
                UnionInput::Child {
                    side: Side::Left,
                    gate: 2
                },
                UnionInput::Child {
                    side: Side::Right,
                    gate: 0
                },
            ]
        );
        assert_eq!(content.inputs(2, 9).collect::<Vec<_>>(), [var(wide)]);
        assert!(times_word(0, 1) < times_word(1, 0));
        assert!(times_word(u32::MAX >> 1, 0) < child_word(Side::Left, 0));
        assert!(child_word(Side::Left, 7) < child_word(Side::Right, 0));
    }

    fn tiny(num_states: usize) -> Vec<u64> {
        record(num_states, &[0], &[(1, var_words(VarSet(1)))])
    }

    fn top(num_states: usize) -> Vec<u64> {
        record(num_states, &[0], &[])
    }

    #[test]
    fn build_a_small_box_tree() {
        let mut c = Circuit::new(2);
        let leaf = tiny(2);
        let l1 = c.add_leaf_box(BoxContent::new(&leaf, 2), 10);
        let l2 = c.add_leaf_box(BoxContent::new(&leaf, 2), 11);
        let root_content = record(2, &[], &[(1, vec![times_word(0, 0)])]);
        let root = c.add_internal_box(BoxContent::new(&root_content, 2), l1, l2);
        c.set_root(root);
        c.validate();
        assert_eq!(c.num_boxes(), 3);
        assert_eq!(c.width(), 1);
        assert_eq!(c.height(), 1);
        assert_eq!(c.boxes_preorder(), vec![root, l1, l2]);
        assert_eq!(c.boxes_postorder(), vec![l1, l2, root]);
        assert_eq!(c.leaf_token(l1), Some(10));
        assert_eq!(c.leaf_token(root), None);
        c.set_children(l1, None);
        assert_eq!(c.leaf_token(l1), Some(10), "a leaf keeps its token");
        assert_eq!(std::mem::size_of::<BoxSlot>(), 24);
        assert!(c.is_leaf(l2));
        assert_eq!(
            c.gate_inputs(l2, 0).collect::<Vec<_>>(),
            [UnionInput::Var {
                vars: VarSet(1),
                leaf_token: 11
            }],
            "a var-gate carries its box's token"
        );
        assert_eq!(c.lca(l1, l2), root);
        assert_eq!(c.preorder_cmp(l1, l2), std::cmp::Ordering::Less);
        assert_eq!(c.preorder_cmp(root, l2), std::cmp::Ordering::Less);
        assert_eq!(c.preorder_cmp(l2, l1), std::cmp::Ordering::Greater);
    }

    #[test]
    fn detach_and_free_subtrees() {
        let mut c = Circuit::new(1);
        let t = top(1);
        let mk = || BoxContent::new(&t, 1);
        let l1 = c.add_leaf_box(mk(), 0);
        let l2 = c.add_leaf_box(mk(), 1);
        let root = c.add_internal_box(mk(), l1, l2);
        c.set_root(root);
        assert_eq!(c.num_boxes(), 3);
        // Detach the children the way the engine's repair does, then free
        // one slot.
        c.set_children(root, None);
        assert_eq!(c.children(root), None);
        assert_eq!(c.leaf_token(root), None, "a detached box has no token");
        let words = c.slab_words();
        c.free_single(l2);
        assert_eq!(c.num_boxes(), 2);
        // The freed slot and its record's block are reused.
        let l3 = c.add_leaf_box(mk(), 2);
        assert_eq!(l3, l2);
        assert_eq!(c.slab_words(), words);
    }

    #[test]
    fn replaced_content_moves_only_when_it_outgrows_its_block() {
        let mut c = Circuit::new(2);
        let (t, leaf) = (top(2), tiny(2));
        let b = c.add_leaf_box(BoxContent::new(&t, 2), 4);
        c.replace_content(b, BoxContent::new(&leaf, 2));
        assert_eq!((c.box_width(b), c.content(b).words()), (1, &leaf[..]));
        let words = c.slab_words();
        c.replace_content(b, BoxContent::new(&t, 2));
        assert_eq!((c.box_width(b), c.content(b).words()), (0, &t[..]));
        assert_eq!(c.slab_words(), words, "a smaller record stays in its block");
    }

    #[test]
    fn arena_spans_chunks_clones_and_reuses_slots() {
        let t = top(1);
        let mk = || BoxContent::new(&t, 1);
        let n = 2 * CHUNK + 5;
        let mut c = Circuit::new(1);
        for token in 0..n as u32 {
            assert_eq!(c.add_leaf_box(mk(), token), BoxId(token));
        }
        assert_eq!((c.arena_len(), c.num_boxes()), (n, n));
        assert_eq!(c.slab_words(), n, "one word per width-0 box");
        assert_eq!(c.slot_bytes(), n * std::mem::size_of::<BoxSlot>());
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
        let t = top(1);
        let l1 = c.add_leaf_box(BoxContent::new(&t, 1), 0);
        let l2 = c.add_leaf_box(BoxContent::new(&t, 1), 1);
        let bad = record(1, &[], &[(0, vec![times_word(3, 0)])]);
        let root = c.add_internal_box(BoxContent::new(&bad, 1), l1, l2);
        c.set_root(root);
        c.validate();
    }
}
