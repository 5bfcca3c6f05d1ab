//! Reusable scratch state for the per-answer enumeration loop.
//!
//! The delay guarantee of Theorem 6.5 is about the *gap between consecutive
//! answers*, so the per-answer loop must not pay for anything proportional to
//! the tree — and in practice must not touch the allocator at all once warm.
//! [`EnumScratch`] carries everything `enum-s` (Algorithm 2) and `b-enum`
//! (Algorithm 3) need between answers:
//!
//! * free pools of [`GateSet`]s, [`Relation`]s, ×-gate triple buffers and
//!   var-part buffers, recycled take/put-style by the enumeration machine
//!   (objects are moved out of the scratch while in use and returned
//!   afterwards — pools never hand out borrows);
//! * an epoch-marked dense grouping table for the var-gate grouping of
//!   Algorithm 2 line 5–7, replacing the per-call
//!   `HashMap<(VarSet, leaf_token), GateSet>` (the epoch trick mirrors the
//!   update path's dirty bitmaps: beginning a new grouping is O(1), no
//!   clearing);
//! * the stacks of the enumeration machine ([`crate::machine`]), including
//!   the shared assignment stack — answers are emitted as the stack
//!   contents, so no assignment vector is cloned per answer — and the key of
//!   a run parked between pages;
//! * the [`EnumStats`] counters that make the discipline observable —
//!   `tests/delay_invariants.rs` asserts they stay flat across steady-state
//!   enumerations.

use crate::bitset::GateSet;
use crate::machine::Machine;
use crate::relation::Relation;
use treenum_trees::valuation::VarSet;

/// Allocation counters of the enumeration hot path (see [`EnumScratch`]).
///
/// After a warm-up enumeration, a steady-state run (same circuit, no edits)
/// must leave `per_answer_allocs`, `relation_clones` and `group_map_rebuilds`
/// unchanged; tests assert the deltas are zero.  Edits that *grow* the tree
/// may legitimately deepen the machine's stacks and grow the pools once —
/// the next run is flat again.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct EnumStats {
    /// Answers emitted through this scratch (top-level `enum-s` emissions).
    pub answers: u64,
    /// Heap allocations performed inside the enumeration loop: pool misses,
    /// pooled-buffer growth, and grouping-table growth.  Zero on the
    /// steady-state path.
    pub per_answer_allocs: u64,
    /// Whole-`Relation` clones on the enumeration path.  The hot path never
    /// clones; the only sanctioned entry point is
    /// [`EnumScratch::clone_relation`], which counts here.
    pub relation_clones: u64,
    /// Times the var-group table had to be rebuilt at a larger capacity.
    /// Grows only while warming up to the widest box seen.
    pub group_map_rebuilds: u64,
    /// Pages served by resuming a run parked in this scratch
    /// ([`EnumScratch::resume_page`] hits): O(k) answers of work, no
    /// re-enumerated prefix.
    pub pages_resumed: u64,
    /// Pages at a non-zero position that found no matching parked run and
    /// had to restart, skipping `position` answers.
    pub pages_restarted: u64,
    /// Relation compositions performed by the walk (Algorithm 3's jump to
    /// the first interesting box, each child step and each path step): the
    /// host-independent work measure of the delay.  Theorem 6.5 bounds it
    /// per answer independently of the tree, which `tests/complexity_shape.rs`
    /// checks.
    pub compositions: u64,
}

/// One var-gate group of Algorithm 2 lines 5–7, drained out of the grouping
/// table with its provenance precomputed (the grouping table is shared scratch
/// and is reused by the next box before the group is emitted).
#[derive(Debug)]
pub(crate) struct VarPart {
    pub vars: VarSet,
    pub token: u32,
    pub prov: GateSet,
}

/// `(left gate, right gate, owner ∪-gate)` of a ×-input (Algorithm 2
/// lines 8–16).
pub(crate) type Triple = (u32, u32, u32);

/// One slot of the epoch-marked grouping table.
#[derive(Debug, Default)]
struct GroupSlot {
    /// Slot is live iff `epoch == GroupTable::epoch`.
    epoch: u64,
    vars: VarSet,
    token: u32,
    owners: GateSet,
}

/// Epoch-marked open-addressing table keyed by `(VarSet, leaf_token)`.
/// `begin` is O(1): bumping the epoch invalidates every slot without touching
/// them.  Capacity is fixed before each grouping pass (≥ 2× the number of
/// insertions), so probing always terminates and the table never grows
/// mid-pass.
#[derive(Debug, Default)]
struct GroupTable {
    epoch: u64,
    slots: Vec<GroupSlot>,
    /// Live slot indices, in insertion order.
    occupied: Vec<u32>,
    /// Reusable buffer for draining the table in deterministic order.
    order: Vec<u32>,
}

#[inline]
fn group_hash(vars: VarSet, token: u32) -> usize {
    let mut h = vars.0 ^ ((token as u64) << 32 | token as u64);
    // SplitMix64 finalizer: cheap and good enough for a tiny scratch table.
    h = (h ^ (h >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
    h = (h ^ (h >> 27)).wrapping_mul(0x94d049bb133111eb);
    (h ^ (h >> 31)) as usize
}

/// The reusable scratch state threaded through one enumeration session.
///
/// A scratch is not tied to a circuit: the same value can serve successive
/// enumerations of an evolving [`treenum_circuits::Circuit`] (that is how
/// `TreeEnumerator` uses it across `apply`/re-enumeration cycles).  It is
/// not tied to a *query* either — the pools hold plain buffers keyed by
/// nothing, so one scratch can drive engines compiled from entirely
/// different automata back to back (the serving layer's multiplexed
/// snapshots rely on this: a reader paging several registered queries on
/// one snapshot carries a single scratch across all of them).  It is
/// cheap to create but only pays off when reused — the pools are empty at
/// birth and fill up during the first (warm-up) run.
#[derive(Debug, Default)]
pub struct EnumScratch {
    gate_sets: Vec<GateSet>,
    relations: Vec<Relation>,
    triples: Vec<Vec<Triple>>,
    parts: Vec<Vec<VarPart>>,
    group: GroupTable,
    /// The enumeration machine's stacks (and its parked position, if any).
    pub(crate) m: Machine,
    /// High-water marks: every pooled buffer is padded towards these on
    /// take, so pooled capacities converge to a fixpoint (one size fits
    /// every call site) and steady-state reuse is allocation-free no matter
    /// in which order the pools hand buffers out.
    max_gate_words: usize,
    max_rel_words: usize,
    max_triples: usize,
    max_parts: usize,
    pub(crate) stats: EnumStats,
}

impl EnumScratch {
    /// A fresh scratch with empty pools.
    pub fn new() -> Self {
        Self::default()
    }

    /// The allocation counters (cumulative since creation).
    pub fn stats(&self) -> EnumStats {
        self.stats
    }

    /// Clones a relation, counting the clone in
    /// [`EnumStats::relation_clones`].  This is the *only* sanctioned way to
    /// copy a relation on the enumeration path; the hot loops never call it.
    // hot-path: sits on the enumeration path so the lint watches it; the one
    // clone below is the sanctioned, counted entry point.
    pub fn clone_relation(&mut self, r: &Relation) -> Relation {
        self.stats.relation_clones += 1;
        // analyze: allow(alloc): the one sanctioned, counted relation clone
        r.clone()
    }

    #[inline]
    pub(crate) fn count_answer(&mut self) {
        self.stats.answers += 1;
    }

    /// Reserves room for one more element, counting a reallocation.
    #[inline]
    pub(crate) fn reserve_one<T>(vec: &mut Vec<T>, stats: &mut EnumStats) {
        if vec.len() == vec.capacity() {
            stats.per_answer_allocs += 1;
            vec.reserve(1);
        }
    }

    pub(crate) fn take_gate_set(&mut self, len: usize) -> GateSet {
        let mut gs = self.gate_sets.pop().unwrap_or_default();
        self.max_gate_words = self.max_gate_words.max(len.div_ceil(64));
        let mut grew = gs.ensure_word_capacity(self.max_gate_words);
        grew |= gs.reset(len);
        if grew {
            self.stats.per_answer_allocs += 1;
        }
        gs
    }

    pub(crate) fn put_gate_set(&mut self, gs: GateSet) {
        Self::reserve_one(&mut self.gate_sets, &mut self.stats);
        self.gate_sets.push(gs);
    }

    /// A cleared `rows × cols` relation from the pool.  Spare rows of pooled
    /// relations are parked in the gate-set pool so pooled relations always
    /// satisfy `bits.len() == rows` (derived equality stays meaningful).
    pub(crate) fn take_relation(&mut self, rows: usize, cols: usize) -> Relation {
        let mut r = self.relations.pop().unwrap_or_default();
        // The high-water mark tracks *requested* sizes only.  Ratcheting it on
        // a pooled buffer's actual capacity would feed allocator rounding back
        // into the target and grow it geometrically (capacity > target →
        // larger target → larger capacity → …).
        self.max_rel_words = self.max_rel_words.max(rows * cols.div_ceil(64));
        let mut grew = r.ensure_word_capacity(self.max_rel_words);
        grew |= r.reset(rows, cols);
        if grew {
            self.stats.per_answer_allocs += 1;
        }
        r
    }

    pub(crate) fn put_relation(&mut self, r: Relation) {
        Self::reserve_one(&mut self.relations, &mut self.stats);
        self.relations.push(r);
    }

    pub(crate) fn take_triples(&mut self) -> Vec<Triple> {
        let mut v = self.triples.pop().unwrap_or_default();
        if v.capacity() < self.max_triples {
            self.stats.per_answer_allocs += 1;
            v.reserve(self.max_triples);
        }
        v
    }

    /// Pushes onto a pooled triple buffer, counting growth.
    #[inline]
    pub(crate) fn push_triple(&mut self, buf: &mut Vec<Triple>, t: Triple) {
        Self::reserve_one(buf, &mut self.stats);
        buf.push(t);
    }

    pub(crate) fn put_triples(&mut self, mut v: Vec<Triple>) {
        self.max_triples = self.max_triples.max(v.len());
        v.clear();
        Self::reserve_one(&mut self.triples, &mut self.stats);
        self.triples.push(v);
    }

    pub(crate) fn take_parts(&mut self) -> Vec<VarPart> {
        let mut v = self.parts.pop().unwrap_or_default();
        if v.capacity() < self.max_parts {
            self.stats.per_answer_allocs += 1;
            v.reserve(self.max_parts);
        }
        v
    }

    pub(crate) fn put_parts(&mut self, mut v: Vec<VarPart>) {
        self.max_parts = self.max_parts.max(v.len());
        for part in v.drain(..) {
            self.put_gate_set(part.prov);
        }
        Self::reserve_one(&mut self.parts, &mut self.stats);
        self.parts.push(v);
    }

    /// Starts a grouping pass that will see at most `expected` insertions of
    /// owner gates over a universe of `width` ∪-gates.
    pub(crate) fn begin_groups(&mut self, expected: usize) {
        let needed = (expected.max(1) * 2).next_power_of_two();
        if self.group.slots.len() < needed {
            self.stats.group_map_rebuilds += 1;
            self.stats.per_answer_allocs += 1;
            self.group.slots.clear();
            self.group.slots.resize_with(needed, GroupSlot::default);
            self.group.epoch = 0;
        }
        self.group.epoch += 1;
        self.group.occupied.clear();
    }

    /// Adds `gate` to the group of `(vars, token)` (claiming a fresh slot on
    /// first sight).  `width` is the ∪-gate universe of the current box.
    pub(crate) fn insert_group(&mut self, vars: VarSet, token: u32, gate: usize, width: usize) {
        self.max_gate_words = self.max_gate_words.max(width.div_ceil(64));
        let mask = self.group.slots.len() - 1;
        let mut i = group_hash(vars, token) & mask;
        loop {
            let slot = &mut self.group.slots[i];
            if slot.epoch != self.group.epoch {
                slot.epoch = self.group.epoch;
                slot.vars = vars;
                slot.token = token;
                let mut grew = slot.owners.ensure_word_capacity(self.max_gate_words);
                grew |= slot.owners.reset(width);
                if grew {
                    self.stats.per_answer_allocs += 1;
                }
                slot.owners.insert(gate);
                Self::reserve_one(&mut self.group.occupied, &mut self.stats);
                self.group.occupied.push(i as u32);
                return;
            }
            if slot.vars == vars && slot.token == token {
                slot.owners.insert(gate);
                return;
            }
            i = (i + 1) & mask;
        }
    }

    /// Drains the live groups in deterministic `(token, vars)` order,
    /// appending one [`VarPart`] per group with its provenance `owners ∘ r`
    /// precomputed.  The table is reusable immediately afterwards (nested
    /// levels may regroup before the drained parts are emitted).
    pub(crate) fn drain_groups_into(&mut self, r: &Relation, parts: &mut Vec<VarPart>) {
        let mut order = std::mem::take(&mut self.group.order);
        order.clear();
        if order.capacity() < self.group.occupied.len() {
            self.stats.per_answer_allocs += 1;
        }
        order.extend_from_slice(&self.group.occupied);
        let slots = &self.group.slots;
        order.sort_unstable_by_key(|&i| {
            let s = &slots[i as usize];
            (s.token, s.vars.0)
        });
        for &i in &order {
            let mut prov = self.take_gate_set(r.cols());
            let slot = &self.group.slots[i as usize];
            r.image_of_into(&slot.owners, &mut prov);
            let part = VarPart {
                vars: slot.vars,
                token: slot.token,
                prov,
            };
            Self::reserve_one(parts, &mut self.stats);
            parts.push(part);
        }
        self.group.order = order;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use treenum_trees::Var;

    #[test]
    fn pools_recycle_without_allocating() {
        let mut scratch = EnumScratch::new();
        // Warm up: first takes allocate.
        let gs = scratch.take_gate_set(100);
        let r = scratch.take_relation(5, 100);
        scratch.put_gate_set(gs);
        scratch.put_relation(r);
        let warm = scratch.stats();
        assert!(warm.per_answer_allocs > 0);
        // Steady state: same shapes come from the pools, no new allocations.
        for _ in 0..32 {
            let gs = scratch.take_gate_set(80);
            let r = scratch.take_relation(4, 64);
            assert!(gs.is_empty() && r.is_empty());
            scratch.put_gate_set(gs);
            scratch.put_relation(r);
        }
        assert_eq!(
            scratch.stats().per_answer_allocs,
            warm.per_answer_allocs,
            "recycling equal-or-smaller shapes must not allocate"
        );
    }

    #[test]
    fn pooled_relations_compare_like_fresh_ones() {
        let mut scratch = EnumScratch::new();
        let big = scratch.take_relation(8, 70);
        scratch.put_relation(big);
        // A smaller take from the same pool entry must equal a fresh zero
        // relation (no spare rows, no stale bits).
        let mut small = scratch.take_relation(3, 10);
        assert_eq!(small, Relation::zero(3, 10));
        small.set(1, 2);
        scratch.put_relation(small);
        let again = scratch.take_relation(3, 10);
        assert_eq!(again, Relation::zero(3, 10), "put/take must clear");
        scratch.put_relation(again);
    }

    #[test]
    fn group_table_groups_and_orders_deterministically() {
        let mut scratch = EnumScratch::new();
        let width = 6;
        let r = Relation::identity(width);
        let x = VarSet::singleton(Var(0));
        let y = VarSet::singleton(Var(1));
        scratch.begin_groups(5);
        scratch.insert_group(y, 7, 0, width);
        scratch.insert_group(x, 7, 1, width);
        scratch.insert_group(x, 3, 2, width);
        scratch.insert_group(x, 7, 4, width); // same group as (x, 7)
        scratch.insert_group(y, 3, 5, width);
        let mut parts = scratch.take_parts();
        scratch.drain_groups_into(&r, &mut parts);
        let keys: Vec<(u32, u64)> = parts.iter().map(|p| (p.token, p.vars.0)).collect();
        assert_eq!(
            keys,
            vec![(3, x.0), (3, y.0), (7, x.0), (7, y.0)],
            "groups sorted by (token, vars)"
        );
        let xg = parts.iter().find(|p| p.token == 7 && p.vars == x).unwrap();
        assert_eq!(
            xg.prov.iter().collect::<Vec<_>>(),
            vec![1, 4],
            "owners of a merged group are unioned (identity relation)"
        );
        scratch.put_parts(parts);

        // A second pass over the same keys (what a steady-state re-enumeration
        // does) is allocation-free: the keys hash to the already-sized slots.
        let before = scratch.stats();
        scratch.begin_groups(5);
        scratch.insert_group(y, 7, 0, width);
        scratch.insert_group(x, 7, 1, width);
        scratch.insert_group(x, 3, 2, width);
        scratch.insert_group(x, 7, 4, width);
        scratch.insert_group(y, 3, 5, width);
        let mut parts = scratch.take_parts();
        scratch.drain_groups_into(&r, &mut parts);
        assert_eq!(parts.len(), 4);
        scratch.put_parts(parts);
        assert_eq!(scratch.stats().per_answer_allocs, before.per_answer_allocs);
        assert_eq!(
            scratch.stats().group_map_rebuilds,
            before.group_map_rebuilds
        );
    }

    #[test]
    fn clone_relation_is_counted() {
        let mut scratch = EnumScratch::new();
        let r = Relation::identity(4);
        let copy = scratch.clone_relation(&r);
        assert_eq!(copy, r);
        assert_eq!(scratch.stats().relation_clones, 1);
    }
}
