//! ∪-reachability relations between boxes (Section 5–6).
//!
//! `R(B', B)` relates the ∪-gates of a descendant box `B'` to the ∪-gates of `B`:
//! `(g', g) ∈ R(B', B)` iff there is a path of ∪-gates from `g'` up to `g`.
//! Relations are boolean matrices; composition is the bottleneck operation, bounded
//! by `O(w^ω)` in the paper.  We implement the word-blocked product (`w³/64`), which
//! is the practical analogue.
//!
//! The matrix is stored as **one flat word buffer** (row-major, 64-bit blocked
//! rows): a relation costs a single allocation however many rows it has, which
//! lets the enumeration scratch recycle relations without per-row allocator
//! traffic.  The index stores its relations in the same row layout inside
//! each box's record and hands them out as borrowed [`RelRef`] views.

use crate::bitset::GateSet;
use treenum_circuits::{BoxId, Circuit, Side, UnionInput};
use treenum_trees::Topology;

/// A boolean matrix relating `rows` source gates (a descendant box, or Γ itself) to
/// `cols` target gates (an ancestor box, or the boxed set Γ).
///
/// Row `i` occupies words `[i·wpr, (i+1)·wpr)` of the flat buffer, where
/// `wpr = ⌈cols/64⌉`.
#[derive(Clone, PartialEq, Eq, Debug, Default)]
pub struct Relation {
    rows: usize,
    cols: usize,
    words_per_row: usize,
    /// Invariant: `words.len() == rows * words_per_row` (derived equality
    /// relies on it; the scratch pool maintains it through
    /// [`Relation::reset`]).
    words: Vec<u64>,
}

impl Relation {
    /// The empty (all-zero) relation.
    pub fn zero(rows: usize, cols: usize) -> Self {
        let words_per_row = cols.div_ceil(64);
        Relation {
            rows,
            cols,
            words_per_row,
            words: vec![0; rows * words_per_row],
        }
    }

    /// The identity relation on `n` gates.
    pub fn identity(n: usize) -> Self {
        let mut r = Self::zero(n, n);
        for i in 0..n {
            r.set(i, i);
        }
        r
    }

    /// Builds a relation from `(source, target)` pairs.
    pub fn from_pairs<I: IntoIterator<Item = (usize, usize)>>(
        rows: usize,
        cols: usize,
        pairs: I,
    ) -> Self {
        let mut r = Self::zero(rows, cols);
        for (i, j) in pairs {
            r.set(i, j);
        }
        r
    }

    /// Number of source gates.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of target gates.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Re-dimensions to a cleared `rows × cols` matrix, reusing the buffer
    /// when it is large enough.  Returns `true` iff the buffer had to grow
    /// (a heap allocation) — used by the scratch pool's counters.
    pub(crate) fn reset(&mut self, rows: usize, cols: usize) -> bool {
        let words_per_row = cols.div_ceil(64);
        let needed = rows * words_per_row;
        let grew = needed > self.words.capacity();
        self.rows = rows;
        self.cols = cols;
        self.words_per_row = words_per_row;
        self.words.clear();
        self.words.resize(needed, 0);
        grew
    }

    /// Grows the buffer capacity to at least `words` without changing the
    /// relation; returns `true` iff an allocation happened (see
    /// [`GateSet::ensure_word_capacity`] for the pool-padding rationale).
    /// `reserve_exact`, not `reserve`: the amortized-doubling overshoot of
    /// `reserve` would defeat the pool's capacity-fixpoint reasoning.
    pub(crate) fn ensure_word_capacity(&mut self, words: usize) -> bool {
        if words <= self.words.capacity() {
            return false;
        }
        self.words.reserve_exact(words - self.words.len());
        true
    }

    /// The words of row `i`.
    #[inline]
    pub(crate) fn row_words(&self, i: usize) -> &[u64] {
        &self.words[i * self.words_per_row..(i + 1) * self.words_per_row]
    }

    /// Adds the pair `(i, j)`.
    #[inline]
    pub fn set(&mut self, i: usize, j: usize) {
        debug_assert!(i < self.rows && j < self.cols);
        self.words[i * self.words_per_row + j / 64] |= 1u64 << (j % 64);
    }

    /// Membership test.
    #[inline]
    pub fn contains(&self, i: usize, j: usize) -> bool {
        debug_assert!(i < self.rows && j < self.cols);
        self.words[i * self.words_per_row + j / 64] & (1u64 << (j % 64)) != 0
    }

    /// `true` iff row `i` relates to no target gate.
    #[inline]
    pub fn row_is_empty(&self, i: usize) -> bool {
        self.row_words(i).iter().all(|&w| w == 0)
    }

    /// Row `i` as an owned set of target gates (tests/diagnostics; the hot
    /// paths use the word-level accessors / [`Relation::row_is_empty`]).
    pub fn row(&self, i: usize) -> GateSet {
        GateSet::from_indices(
            self.cols,
            bit_indices(self.row_words(i)).collect::<Vec<_>>(),
        )
    }

    /// `true` iff the relation is empty.
    pub fn is_empty(&self) -> bool {
        self.words.iter().all(|&w| w == 0)
    }

    /// The projection to the first component: the source gates related to at least one
    /// target gate (`π₁(R)` in the paper).
    pub fn project_sources(&self) -> GateSet {
        GateSet::from_indices(self.rows, (0..self.rows).filter(|&i| !self.row_is_empty(i)))
    }

    /// The projection to the second component: the target gates related to at least
    /// one source gate.
    pub fn project_targets(&self) -> GateSet {
        let mut out = GateSet::empty(self.cols);
        for i in 0..self.rows {
            for (w, &bits) in out.words_mut().iter_mut().zip(self.row_words(i)) {
                *w |= bits;
            }
        }
        out
    }

    /// The union of the rows selected by `sources` (used to compute provenance sets
    /// `G ∘ W ∘ R`).
    pub fn image_of(&self, sources: &GateSet) -> GateSet {
        let mut out = GateSet::empty(self.cols);
        self.image_of_into(sources, &mut out);
        out
    }

    /// [`Relation::image_of`] into a caller-provided set (sized to `cols` and
    /// cleared first), so the per-answer provenance computation does not
    /// allocate.
    pub fn image_of_into(&self, sources: &GateSet, out: &mut GateSet) {
        debug_assert_eq!(out.universe_len(), self.cols);
        out.clear();
        for i in sources.iter() {
            for (w, &bits) in out.words_mut().iter_mut().zip(self.row_words(i)) {
                *w |= bits;
            }
        }
    }

    /// Relational composition: `self` relates `A → B`, `upper` relates `B → C`; the
    /// result relates `A → C`.  This is a boolean matrix product with 64-bit word
    /// blocking over the columns of `upper`.
    pub fn compose(&self, upper: &Relation) -> Relation {
        let mut out = Relation::zero(self.rows, upper.cols);
        self.compose_into(upper, &mut out);
        out
    }

    /// [`Relation::compose`] into a caller-provided relation (pre-sized to
    /// `self.rows × upper.cols`, cleared first), so composition on the
    /// per-answer enumeration path reuses pooled storage instead of
    /// allocating.
    pub fn compose_into(&self, upper: &Relation, out: &mut Relation) {
        self.view().compose_into(upper, out);
    }

    /// A borrowed view of the relation, the shape index records hand out.
    #[inline]
    pub fn view(&self) -> RelRef<'_> {
        RelRef::new(self.rows, self.cols, &self.words)
    }

    /// Copies `other` into `self` (dimensions must already match) without
    /// allocating.
    pub fn copy_from(&mut self, other: &Relation) {
        debug_assert_eq!(self.rows, other.rows);
        debug_assert_eq!(self.cols, other.cols);
        self.words.copy_from_slice(&other.words);
    }

    /// Restricts the columns to the given target set (keeping dimensions): pairs whose
    /// target is not in `targets` are dropped.
    pub fn restrict_targets(&self, targets: &GateSet) -> Relation {
        let mut out = self.clone();
        for i in 0..out.rows {
            let row = &mut out.words[i * out.words_per_row..(i + 1) * out.words_per_row];
            for (w, &mask) in row.iter_mut().zip(targets.words()) {
                *w &= mask;
            }
        }
        out
    }
}

/// A borrowed `rows × cols` relation in the flat row-major layout of
/// [`Relation`] (`⌈cols/64⌉` words per row): a relation stored inside an
/// index record, read in place.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RelRef<'a> {
    rows: usize,
    cols: usize,
    words: &'a [u64],
}

impl<'a> RelRef<'a> {
    /// Views `words` (exactly `rows · ⌈cols/64⌉` of them) as a relation.
    #[inline]
    pub fn new(rows: usize, cols: usize, words: &'a [u64]) -> Self {
        debug_assert_eq!(words.len(), rows * cols.div_ceil(64));
        RelRef { rows, cols, words }
    }

    /// Number of source gates.
    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of target gates.
    #[inline]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// The row-major words.
    #[inline]
    pub fn words(&self) -> &'a [u64] {
        self.words
    }

    /// An owned copy (tests and diagnostics).
    pub fn to_relation(&self) -> Relation {
        Relation {
            rows: self.rows,
            cols: self.cols,
            words_per_row: self.cols.div_ceil(64),
            words: self.words.to_vec(),
        }
    }

    /// `self ∘ upper` into `out` (pre-sized to `self.rows × upper.cols`):
    /// see [`Relation::compose_into`].
    #[inline]
    pub fn compose_into(&self, upper: &Relation, out: &mut Relation) {
        assert_eq!(self.cols, upper.rows, "composition dimension mismatch");
        debug_assert_eq!(out.rows, self.rows, "output rows mismatch");
        debug_assert_eq!(out.cols, upper.cols, "output cols mismatch");
        compose_rows(
            self.rows,
            self.words,
            self.cols.div_ceil(64),
            &upper.words,
            upper.words_per_row,
            &mut out.words,
        );
    }
}

/// The boolean product of a `rows`-row matrix `lower` (`lower_wpr` words per
/// row) with `upper` (`upper_wpr` words per row, one row per column of
/// `lower`), written over the first `rows · upper_wpr` words of `out`.
/// Rows of one word on both sides (width ≤ 64, every query probed so far)
/// take a branch-light loop: one OR of an `upper` word per set bit.
#[inline]
pub(crate) fn compose_rows(
    rows: usize,
    lower: &[u64],
    lower_wpr: usize,
    upper: &[u64],
    upper_wpr: usize,
    out: &mut [u64],
) {
    if lower_wpr == 1 && upper_wpr == 1 {
        for (o, &row) in out[..rows].iter_mut().zip(&lower[..rows]) {
            let mut bits = row;
            let mut acc = 0;
            while bits != 0 {
                acc |= upper[bits.trailing_zeros() as usize];
                bits &= bits - 1;
            }
            *o = acc;
        }
        return;
    }
    for i in 0..rows {
        let out_row = &mut out[i * upper_wpr..(i + 1) * upper_wpr];
        out_row.fill(0);
        for j in bit_indices(&lower[i * lower_wpr..(i + 1) * lower_wpr]) {
            for (w, &bits) in out_row
                .iter_mut()
                .zip(&upper[j * upper_wpr..(j + 1) * upper_wpr])
            {
                *w |= bits;
            }
        }
    }
}

/// Iterates the set bit positions of a word slice.
#[inline]
fn bit_indices(words: &[u64]) -> impl Iterator<Item = usize> + '_ {
    words.iter().enumerate().flat_map(|(wi, &w)| {
        let mut bits = w;
        std::iter::from_fn(move || {
            if bits == 0 {
                None
            } else {
                let b = bits.trailing_zeros() as usize;
                bits &= bits - 1;
                Some(wi * 64 + b)
            }
        })
    })
}

/// The single-step relation `R(child, B)` from the ∪-gates of the `side` child box of
/// `b` in the tree `shape` to the ∪-gates of `b`: `(g', g)` iff `g` has a
/// `Child { side, g' }` input.
pub fn child_relation<S: Topology<BoxId>>(
    circuit: &Circuit,
    shape: &S,
    b: BoxId,
    side: Side,
) -> Relation {
    let (l, r) = shape.children(b).expect("child_relation on a leaf box");
    let child = match side {
        Side::Left => l,
        Side::Right => r,
    };
    let rows = circuit.box_width(child);
    let cols = circuit.box_width(b);
    let mut rel = Relation::zero(rows, cols);
    child_relation_into(circuit, shape, b, side, &mut rel);
    rel
}

/// [`child_relation`] into a caller-provided relation (pre-sized to
/// `width(child) × width(b)` and cleared), so pooled callers — the
/// scratch-backed reference box-enum — derive child steps without allocating.
pub fn child_relation_into<S: Topology<BoxId>>(
    circuit: &Circuit,
    shape: &S,
    b: BoxId,
    side: Side,
    out: &mut Relation,
) {
    debug_assert_eq!(out.cols, circuit.box_width(b), "output cols mismatch");
    debug_assert!(out.is_empty(), "output must be cleared");
    for gi in 0..circuit.box_width(b) {
        for input in circuit.gate_inputs(shape, b, gi) {
            if let UnionInput::Child { side: s, gate: g } = input {
                if s == side {
                    out.set(g as usize, gi);
                }
            }
        }
    }
}

/// Computes `R(target, from)` for a descendant box `target` of `from` by walking down
/// the box tree and composing child relations (`O(distance · w³/64)`).  The
/// oracle the index tests check its stored relations against; the index itself
/// composes stored child-closure relations instead.
pub fn relation_by_walking<S: Topology<BoxId>>(
    circuit: &Circuit,
    shape: &S,
    from: BoxId,
    target: BoxId,
) -> Relation {
    // Build the path from `target` up to `from`.
    let mut path = vec![target];
    let mut cur = target;
    while cur != from {
        cur = shape
            .parent(cur)
            .expect("relation_by_walking: target is not a descendant of from");
        path.push(cur);
    }
    // Compose child relations from the bottom up: R(target, from) =
    // R(target, p1) ∘ R(p1, p2) ∘ … ∘ R(pk, from).
    let mut rel = Relation::identity(circuit.box_width(target));
    for pair in path.windows(2) {
        let (lower, upper) = (pair[0], pair[1]);
        let (l, _r) = shape.children(upper).expect("path is broken");
        let side = if l == lower { Side::Left } else { Side::Right };
        let step = child_relation(circuit, shape, upper, side);
        rel = rel.compose(&step);
    }
    rel
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identity_and_compose() {
        let id = Relation::identity(4);
        let r = Relation::from_pairs(4, 3, [(0, 1), (2, 2), (3, 0)]);
        assert_eq!(id.compose(&r), r);
        let s = Relation::from_pairs(3, 2, [(1, 0), (2, 1)]);
        let rs = r.compose(&s);
        assert!(rs.contains(0, 0)); // 0 -> 1 -> 0
        assert!(rs.contains(2, 1)); // 2 -> 2 -> 1
        assert!(!rs.contains(3, 0)); // 3 -> 0 -> nothing
        assert_eq!(rs.rows(), 4);
        assert_eq!(rs.cols(), 2);
    }

    #[test]
    fn projections_and_image() {
        let r = Relation::from_pairs(3, 3, [(0, 1), (0, 2), (2, 0)]);
        assert_eq!(r.project_sources().iter().collect::<Vec<_>>(), vec![0, 2]);
        assert_eq!(
            r.project_targets().iter().collect::<Vec<_>>(),
            vec![0, 1, 2]
        );
        let img = r.image_of(&GateSet::from_indices(3, [0]));
        assert_eq!(img.iter().collect::<Vec<_>>(), vec![1, 2]);
    }

    #[test]
    fn restrict_targets_drops_columns() {
        let r = Relation::from_pairs(2, 3, [(0, 0), (0, 2), (1, 1)]);
        let restricted = r.restrict_targets(&GateSet::from_indices(3, [0, 1]));
        assert!(restricted.contains(0, 0));
        assert!(!restricted.contains(0, 2));
        assert!(restricted.contains(1, 1));
    }

    #[test]
    fn empty_relation_detection() {
        assert!(Relation::zero(3, 3).is_empty());
        assert!(!Relation::identity(1).is_empty());
    }

    #[test]
    fn row_accessors_on_wide_rows() {
        // Rows spanning several words exercise the flat-buffer indexing.
        let mut r = Relation::zero(3, 130);
        r.set(0, 0);
        r.set(0, 129);
        r.set(2, 64);
        assert!(!r.row_is_empty(0));
        assert!(r.row_is_empty(1));
        assert_eq!(r.row(0).iter().collect::<Vec<_>>(), vec![0, 129]);
        assert_eq!(r.row(2).iter().collect::<Vec<_>>(), vec![64]);
        assert_eq!(r.project_sources().iter().collect::<Vec<_>>(), vec![0, 2]);
    }

    #[test]
    fn compose_matches_the_naive_product_on_wide_rows() {
        // Rows of one, two and three words on either side of the product,
        // against the definition (i, k) ∈ R∘S iff ∃j: (i, j) ∈ R, (j, k) ∈ S.
        let mut seed = 0x9e37_79b9_7f4a_7c15u64;
        let mut bit = || {
            seed ^= seed << 13;
            seed ^= seed >> 7;
            seed ^= seed << 17;
            seed.is_multiple_of(5)
        };
        for (a, b, c) in [(70, 130, 100), (9, 64, 65), (65, 3, 150), (40, 20, 10)] {
            let pairs = |rows, cols, bit: &mut dyn FnMut() -> bool| {
                let mut r = Relation::zero(rows, cols);
                for i in 0..rows {
                    for j in 0..cols {
                        if bit() {
                            r.set(i, j);
                        }
                    }
                }
                r
            };
            let r = pairs(a, b, &mut bit);
            let s = pairs(b, c, &mut bit);
            let rs = r.compose(&s);
            for i in 0..a {
                for k in 0..c {
                    let expected = (0..b).any(|j| r.contains(i, j) && s.contains(j, k));
                    assert_eq!(rs.contains(i, k), expected, "({i}, {k}) of {a}×{b}∘{b}×{c}");
                }
            }
        }
    }

    #[test]
    fn compose_into_matches_compose_and_overwrites() {
        let r = Relation::from_pairs(4, 3, [(0, 1), (2, 2), (3, 0)]);
        let s = Relation::from_pairs(3, 2, [(1, 0), (2, 1)]);
        let mut out = Relation::from_pairs(4, 2, [(1, 1)]); // stale content
        r.compose_into(&s, &mut out);
        assert_eq!(out, r.compose(&s), "stale bits must be cleared");
    }

    #[test]
    fn copy_from_and_image_of_into_reuse_buffers() {
        let r = Relation::from_pairs(3, 3, [(0, 1), (0, 2), (2, 0)]);
        let mut copy = Relation::zero(3, 3);
        copy.copy_from(&r);
        assert_eq!(copy, r);
        let mut img = GateSet::full(3); // stale content
        r.image_of_into(&GateSet::from_indices(3, [0]), &mut img);
        assert_eq!(img.iter().collect::<Vec<_>>(), vec![1, 2]);
    }

    #[test]
    fn reset_reuses_capacity_and_reports_growth() {
        let mut r = Relation::default();
        assert!(r.reset(4, 70), "growing from empty allocates");
        r.set(3, 69);
        assert!(!r.reset(2, 100), "8 words fit the existing 8-word buffer");
        assert_eq!(r, Relation::zero(2, 100), "reset clears");
    }
}
