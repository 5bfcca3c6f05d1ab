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
//! A box's slot in the arena is the record's [`Block`] and the width, so
//! [`Circuit::box_width`] is one slot load and a clone of the circuit
//! copies chunks of plain data.  The slot holds no links: a box is named by
//! the arena index of its tree node, and the tree's [`Topology`] is its
//! parent, children and leaf token.

use crate::slab::{Block, Slab};
use std::fmt;
use treenum_automata::State;
use treenum_trees::valuation::VarSet;
use treenum_trees::{ChunkedVec, Topology};

/// Identifier of a box of a [`Circuit`]: the arena index of the tree node
/// (equivalently, v-tree node) the box belongs to.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct BoxId(pub u32);

impl From<u32> for BoxId {
    #[inline]
    fn from(i: u32) -> Self {
        BoxId(i)
    }
}

impl From<BoxId> for u32 {
    #[inline]
    fn from(b: BoxId) -> Self {
        b.0
    }
}

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

/// A var-gate's leaf token in a box with none (an internal box).
const NO_TOKEN: u32 = u32::MAX;

/// One box: where its record lives and its width (12 bytes).  A slot with
/// no record has no box.
#[derive(Clone, Copy, Debug, Default)]
struct BoxSlot {
    record: Block,
    width: u16,
}

/// A box-structured complete structured DNNF (set circuit).
///
/// The circuit keeps box *content* only, in a slot per [`BoxId`]; the tree
/// of boxes is the tree the circuit is built on, read through
/// [`Topology`]: the v-tree and the structuring function of Lemma 3.7 map
/// every gate to the tree node its box is named by, and a leaf box's
/// var-gates carry that node's leaf token.  Box contents are word records
/// in one slab (see the module docs).
#[derive(Clone, Debug, Default)]
pub struct Circuit {
    slots: ChunkedVec<BoxSlot>,
    slab: Slab,
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

    /// Number of boxes.
    pub fn num_boxes(&self) -> usize {
        self.slots.iter().filter(|s| !s.record.is_none()).count()
    }

    #[inline]
    fn slot(&self, b: BoxId) -> &BoxSlot {
        let s = &self.slots[b.index()];
        debug_assert!(!s.record.is_none(), "access to missing box {:?}", b);
        s
    }

    /// Stores `content` as the content of box `b`, which becomes a box if
    /// it was none: a word copy into the box's block, or into a new block
    /// if the record no longer fits.
    // hot-path: runs once per built or changed box on the repair path.
    pub fn set_content(&mut self, b: BoxId, content: BoxContent<'_>) {
        debug_assert_eq!(content.num_states, self.num_states);
        let width = content.width();
        assert!(width <= u16::MAX as usize, "box of width {width}");
        let slot = self.slots.at_mut(b.index(), BoxSlot::default());
        slot.record = self.slab.store(slot.record, content.words);
        slot.width = width as u16;
    }

    /// Removes box `b`, returning its record's block to the slab (a no-op
    /// if `b` has no box).
    pub fn free(&mut self, b: BoxId) {
        if let Some(slot) = self.slots.get_mut(b.index()) {
            self.slab.release(std::mem::take(slot).record);
        }
    }

    /// `true` iff `b` is a box (has content).
    pub fn is_live(&self, b: BoxId) -> bool {
        self.slots
            .get(b.index())
            .is_some_and(|s| !s.record.is_none())
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

    /// The decoded inputs of ∪-gate `g` of box `b` in the tree `shape`, in
    /// record order.
    #[inline]
    pub fn gate_inputs<S: Topology<BoxId>>(&self, shape: &S, b: BoxId, g: usize) -> GateInputs<'_> {
        let leaf_token = shape.leaf_token(b).unwrap_or(NO_TOKEN);
        self.content(b)
            .inputs_of(g, self.slot(b).width as usize, leaf_token)
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

    /// Bytes of the box arena: one slot per id up to the largest box.
    pub fn slot_bytes(&self) -> usize {
        self.slots.len() * std::mem::size_of::<BoxSlot>()
    }

    /// Iterates over all boxes, in id order.
    pub fn boxes(&self) -> impl Iterator<Item = BoxId> + '_ {
        self.slots
            .iter()
            .enumerate()
            .filter(|(_, s)| !s.record.is_none())
            .map(|(i, _)| BoxId(i as u32))
    }

    /// Validates the structural invariants of a complete structured DNNF
    /// over the tree `shape`: every node has a box, `γ` maps no state to
    /// both `⊤` and a ∪-gate and refers to exactly the box's ∪-gates,
    /// `×`-gates reference existing ∪-gates of the child boxes, `var`-gates
    /// appear only in leaf boxes, cross-box wires point to existing gates
    /// of child boxes, and every ∪-gate has at least one input.
    ///
    /// # Panics
    /// Panics (with a descriptive message) if an invariant is violated.
    pub fn validate<S: Topology<BoxId>>(&self, shape: &S) {
        let n = self.num_states;
        for b in shape.postorder() {
            assert!(self.is_live(b), "tree node {b:?} has no box");
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
            let children = shape.children(b);
            let child = |side| {
                let (l, r) = children.expect("a wire into a leaf box's children");
                if side == Side::Left {
                    l
                } else {
                    r
                }
            };
            for gi in 0..self.box_width(b) {
                assert!(
                    self.gate_inputs(shape, b, gi).next().is_some(),
                    "∪-gate {gi} of {b:?} has no inputs"
                );
                for input in self.gate_inputs(shape, b, gi) {
                    let dangling = match input {
                        UnionInput::Var { .. } => {
                            assert!(children.is_none(), "var-gate outside a leaf box in {b:?}");
                            false
                        }
                        UnionInput::Times { left, right } => {
                            left as usize >= self.box_width(child(Side::Left))
                                || right as usize >= self.box_width(child(Side::Right))
                        }
                        UnionInput::Child { side, gate } => {
                            gate as usize >= self.box_width(child(side))
                        }
                    };
                    assert!(!dangling, "dangling wire in {b:?}");
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use treenum_trees::chunked::CHUNK;
    use treenum_trees::{BinaryTree, Label};

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

    /// Two leaves under a root, and their boxes.
    fn cherry() -> (BinaryTree, [BoxId; 3]) {
        let mut t = BinaryTree::leaf(Label(0));
        let l1 = t.root();
        let l2 = t.add_leaf(Label(0));
        let root = t.add_internal(Label(1), l1, l2);
        t.set_root(root);
        (t, [l1, l2, root].map(|n| BoxId(n.0)))
    }

    #[test]
    fn build_a_small_box_tree() {
        let (t, [l1, l2, root]) = cherry();
        let mut c = Circuit::new(2);
        let leaf = tiny(2);
        c.set_content(l1, BoxContent::new(&leaf, 2));
        c.set_content(l2, BoxContent::new(&leaf, 2));
        let root_content = record(2, &[], &[(1, vec![times_word(0, 0)])]);
        c.set_content(root, BoxContent::new(&root_content, 2));
        c.validate(&t);
        assert_eq!(c.num_boxes(), 3);
        assert_eq!(c.width(), 1);
        assert_eq!(std::mem::size_of::<BoxSlot>(), 12);
        assert_eq!(
            c.gate_inputs(&t, l2, 0).collect::<Vec<_>>(),
            [UnionInput::Var {
                vars: VarSet(1),
                leaf_token: l2.0
            }],
            "a var-gate carries its tree node's token"
        );
    }

    #[test]
    fn a_freed_box_leaves_its_block_for_the_next_box() {
        let mut c = Circuit::new(1);
        let t = top(1);
        for b in 0..3 {
            c.set_content(BoxId(b), BoxContent::new(&t, 1));
        }
        let words = c.slab_words();
        c.free(BoxId(1));
        c.free(BoxId(1));
        c.free(BoxId(7));
        assert_eq!(c.num_boxes(), 2);
        assert!(!c.is_live(BoxId(1)) && !c.is_live(BoxId(7)));
        c.set_content(BoxId(1), BoxContent::new(&t, 1));
        assert_eq!(c.slab_words(), words, "the freed block is reused");
    }

    #[test]
    fn replaced_content_moves_only_when_it_outgrows_its_block() {
        let mut c = Circuit::new(2);
        let (t, leaf) = (top(2), tiny(2));
        let b = BoxId(4);
        c.set_content(b, BoxContent::new(&t, 2));
        c.set_content(b, BoxContent::new(&leaf, 2));
        assert_eq!((c.box_width(b), c.content(b).words()), (1, &leaf[..]));
        let words = c.slab_words();
        c.set_content(b, BoxContent::new(&t, 2));
        assert_eq!((c.box_width(b), c.content(b).words()), (0, &t[..]));
        assert_eq!(c.slab_words(), words, "a smaller record stays in its block");
    }

    #[test]
    fn arena_spans_chunks_clones_and_reuses_slots() {
        let (t, wide) = (top(1), record(1, &[], &[(0, var_words(VarSet(1)))]));
        let n = 2 * CHUNK + 5;
        let mut c = Circuit::new(1);
        for b in 0..n as u32 {
            c.set_content(BoxId(b), BoxContent::new(&t, 1));
        }
        assert_eq!(c.num_boxes(), n);
        assert_eq!(c.slab_words(), n, "one word per width-0 box");
        assert_eq!(c.slot_bytes(), n * std::mem::size_of::<BoxSlot>());
        // A clone grows on its own; the original is untouched.
        let mut d = c.clone();
        let (extra, mid) = (BoxId(n as u32), BoxId(CHUNK as u32 + 7));
        d.set_content(extra, BoxContent::new(&t, 1));
        d.set_content(mid, BoxContent::new(&wide, 1));
        assert!(!c.is_live(extra) && d.is_live(extra));
        assert_eq!((c.box_width(mid), d.box_width(mid)), (0, 1));
        assert!(d.boxes().eq((0..=n as u32).map(BoxId)));
        // A freed slot in a middle chunk takes a box again.
        d.free(mid);
        assert!(!d.is_live(mid) && d.num_boxes() == n);
        d.set_content(mid, BoxContent::new(&t, 1));
        assert_eq!((d.num_boxes(), d.box_width(mid)), (n + 1, 0));
    }

    #[test]
    #[should_panic]
    fn validate_rejects_dangling_wires() {
        let (t, [l1, l2, root]) = cherry();
        let mut c = Circuit::new(1);
        let top = top(1);
        c.set_content(l1, BoxContent::new(&top, 1));
        c.set_content(l2, BoxContent::new(&top, 1));
        let bad = record(1, &[], &[(0, vec![times_word(3, 0)])]);
        c.set_content(root, BoxContent::new(&bad, 1));
        c.validate(&t);
    }
}
