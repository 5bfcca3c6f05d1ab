//! The resumable enumeration machine: Algorithm 2 (`enum-s`) driving
//! Algorithm 3 (`box-enum`) as **one explicit stack** that advances one
//! answer at a time.
//!
//! The paper presents enumeration as a process that pauses after every
//! output until the next one is requested (Section 4).  The machine is that
//! process with its state made explicit: everything the recursive
//! formulation kept on the call stack lives in the [`EnumScratch`] instead,
//! so a run can stop after any answer, stay parked in the scratch, and
//! resume later with the same per-answer delay — which is what lets a page
//! cursor continue a suspended walk instead of re-enumerating its prefix.
//!
//! Two stacks make up the state:
//!
//! * **walk frames** — one per pending `box-enum` call.  In
//!   [`BoxEnumMode::Indexed`] a frame jumps to its first interesting box
//!   `b1` with `fib`, covers `b1`'s two subtrees, then walks the path from
//!   its own box down to `b1` and covers the off-path subtrees (Algorithm 3).
//!   The path is recorded **once**, by one parent walk up from `b1`, on a
//!   shared path stack; the per-step side test is then a comparison with the
//!   recorded next path box, not an ancestor query.  In
//!   [`BoxEnumMode::Reference`] a frame is the naive top-down walk of
//!   Section 5 (`b1` is the frame's own box, emitted when interesting).
//! * **levels** — one per pending `enum-s` call.  A level owns a stretch of
//!   the walk stack; for each box its walk emits, it emits the var-gate
//!   groups (Algorithm 2 lines 5–7) and then enumerates the ×-gates (lines
//!   8–16) by pushing a *left* level over the left inputs.  Every left
//!   answer that survives pushes a *right* level over the matching right
//!   inputs; every right answer that finds an owner becomes an answer of
//!   the level itself, with its provenance mapped through the box's
//!   relation.  Answers reaching the root level are the run's output.
//!
//! The assignment under construction is one shared stack: a level records
//! its base length, so resuming a level truncates the stack back to what
//! its own answers extend — left factors of a ×-gate stay pushed while the
//! right factors enumerate above them, and no assignment is ever cloned.
//!
//! Every relation, gate set and buffer comes from the scratch pools, and
//! every stack growth is counted, so a warm run performs no heap allocation
//! ([`crate::EnumStats::per_answer_allocs`] stays flat).  In indexed mode
//! the walk reads each box's jump pointers, relations, child steps, child
//! widths and var-/×-inputs from its index record ([`crate::BoxRecord`]) and
//! composes straight from the record's rows; the links between boxes are
//! the tree's ([`Topology`]), so a walk step reads the table entry, the
//! record and the tree node, and no circuit slot.  Every composition is
//! counted in [`crate::EnumStats::compositions`].

use crate::bitset::GateSet;
use crate::boxenum::{is_interesting_rel, BoxEnumMode, BoxSink};
use crate::dedup::OutputAssignment;
use crate::index::{BoxRecord, EnumIndex};
use crate::relation::{child_relation_into, RelRef, Relation};
use crate::scratch::{EnumScratch, Triple, VarPart};
use std::ops::ControlFlow;
use treenum_circuits::{BoxId, Circuit, Side, UnionInput};
use treenum_trees::Topology;

/// What a machine run reads: the circuit, the tree it is built on (its
/// box topology), its index (required in [`BoxEnumMode::Indexed`]) and the
/// `box-enum` implementation to use.
#[derive(Debug)]
pub struct EnumSource<'a, S> {
    /// The assignment circuit being enumerated.
    pub circuit: &'a Circuit,
    /// The tree the circuit is built on.
    pub shape: &'a S,
    /// The jump-pointer index (Definition 6.1); `None` only in reference mode.
    pub index: Option<&'a EnumIndex>,
    /// Which `box-enum` implementation drives the walk.
    pub mode: BoxEnumMode,
}

impl<S> Clone for EnumSource<'_, S> {
    fn clone(&self) -> Self {
        *self
    }
}

impl<S> Copy for EnumSource<'_, S> {}

impl<'a, S: Topology<BoxId>> EnumSource<'a, S> {
    /// Bundles a run's inputs.  Panics if `mode` is
    /// [`BoxEnumMode::Indexed`] and no index is given.
    pub fn new(
        circuit: &'a Circuit,
        shape: &'a S,
        index: Option<&'a EnumIndex>,
        mode: BoxEnumMode,
    ) -> Self {
        assert!(
            mode == BoxEnumMode::Reference || index.is_some(),
            "indexed box-enum requires the index structure"
        );
        EnumSource {
            circuit,
            shape,
            index,
            mode,
        }
    }

    #[inline]
    fn index(&self) -> &'a EnumIndex {
        self.index
            .expect("indexed box-enum requires the index structure")
    }

    /// Where the var- and ×-inputs of box `b` are read: its index record
    /// in indexed mode, the circuit's content record in reference mode.
    #[inline]
    fn inputs(&self, b: BoxId) -> BoxInputs<'a, S> {
        match self.mode {
            BoxEnumMode::Indexed => BoxInputs::Record(self.index().of(b)),
            BoxEnumMode::Reference => BoxInputs::Circuit(*self, b),
        }
    }

    /// The width of box `b`: from its index record in indexed mode.
    #[inline]
    fn width(&self, b: BoxId) -> usize {
        match self.mode {
            BoxEnumMode::Indexed => self.index().of(b).width(),
            BoxEnumMode::Reference => self.circuit.box_width(b),
        }
    }

    /// The `side` child of internal box `b` and its width.  In indexed mode
    /// the width comes from `b`'s record header, so the step reads no
    /// circuit slot.
    #[inline]
    fn child(&self, b: BoxId, side: Side) -> (BoxId, usize) {
        let (l, r) = self
            .shape
            .children(b)
            .expect("×-gates can only appear in internal boxes");
        let child = if side == Side::Left { l } else { r };
        let width = match self.mode {
            BoxEnumMode::Indexed => {
                let (wl, wr) = self.index().of(b).child_widths();
                if side == Side::Left {
                    wl
                } else {
                    wr
                }
            }
            BoxEnumMode::Reference => self.circuit.box_width(child),
        };
        (child, width)
    }
}

/// The var- and ×-inputs of one box, per ∪-gate.
enum BoxInputs<'a, S> {
    Record(BoxRecord<'a>),
    Circuit(EnumSource<'a, S>, BoxId),
}

impl<S: Topology<BoxId>> BoxInputs<'_, S> {
    fn width(&self) -> usize {
        match self {
            BoxInputs::Record(rec) => rec.width(),
            BoxInputs::Circuit(src, b) => src.circuit.box_width(*b),
        }
    }

    fn var_count(&self, gi: usize) -> usize {
        match self {
            BoxInputs::Record(rec) => rec.var_input_count(gi),
            BoxInputs::Circuit(src, b) => src
                .circuit
                .gate_inputs(src.shape, *b, gi)
                .filter(|i| matches!(i, UnionInput::Var { .. }))
                .count(),
        }
    }

    /// Calls `f` on each var- and ×-input of gate `gi` (a record keeps the
    /// inputs of each kind in input order).
    #[inline]
    fn visit(&self, gi: usize, mut f: impl FnMut(UnionInput)) {
        match self {
            BoxInputs::Record(rec) => {
                for (vars, leaf_token) in rec.var_inputs(gi) {
                    f(UnionInput::Var { vars, leaf_token });
                }
                for (left, right) in rec.times_inputs(gi) {
                    f(UnionInput::Times { left, right });
                }
            }
            BoxInputs::Circuit(src, b) => src.circuit.gate_inputs(src.shape, *b, gi).for_each(f),
        }
    }
}

/// Progress of one walk frame.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Stage {
    /// `b1` not located yet.
    Start,
    /// `b1` emitted (or skipped as uninteresting); next: its left subtree.
    Emitted,
    /// Left subtree of `b1` covered; next: its right subtree.
    LeftDone,
    /// Both subtrees of `b1` covered; next: record the path down to `b1`.
    Covered,
    /// Path walk at `path[at]`, wavefront in `r`: next, cover the off-path
    /// subtree there and step down.
    Path(u32),
}

/// One pending `box-enum` call.
#[derive(Debug)]
struct Walk {
    /// The box the call was made on.
    b: BoxId,
    /// The box this frame covers (`fib` in indexed mode, `b` in reference).
    b1: BoxId,
    /// Indexed: `R(b, Γ)`, then the path-walk wavefront at the current path
    /// box.  Unused in reference mode.
    r: Option<Relation>,
    /// `R(b1, Γ)`.  Lent to the level while it processes the emitted box.
    r1: Option<Relation>,
    /// Where this frame's recorded path starts on the shared path stack
    /// (stored bottom-up: `path[path_start] == b1`).
    path_start: u32,
    stage: Stage,
}

/// How a level's answers feed the level that pushed it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Role {
    /// Answers are the run's output.
    Root,
    /// Enumerates the left inputs of the parent's ×-gates.
    Left,
    /// Enumerates the right inputs of the parent's surviving ×-gates.
    Right,
}

/// Where a level is in processing the box its walk emitted last.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Phase {
    /// No box in hand: advance the walk.
    Idle,
    /// Emitting the var-gate group at this index.
    Parts(u32),
    /// The left level over the ×-gates is (or was) running.
    Times,
}

/// One pending `enum-s` call.
#[derive(Debug)]
struct Level {
    role: Role,
    /// The level whose ×-gates this one enumerates (unused for the root).
    parent: u32,
    /// Assignment-stack length this level's answers extend.
    asg_base: u32,
    /// First walk frame of this level.
    walk_base: u32,
    phase: Phase,
    /// The box being processed, and `R(bprime, Γ)` borrowed from its frame.
    bprime: BoxId,
    rel: Option<Relation>,
    parts: Vec<VarPart>,
    /// `(left, right, owner)` of the box's ×-inputs.
    triples: Vec<Triple>,
    /// The triples whose left input captures the current left answer.
    surviving: Vec<Triple>,
}

/// The machine's stacks, parked in the [`EnumScratch`] between calls.
#[derive(Debug, Default)]
pub(crate) struct Machine {
    levels: Vec<Level>,
    walks: Vec<Walk>,
    path: Vec<BoxId>,
    /// The shared assignment stack; holds the current answer after
    /// [`EnumScratch::next_answer`] returns `true`.
    asg: OutputAssignment,
    /// Provenance of the current answer (boxed-set runs).
    prov: GateSet,
    /// The empty assignment is still to be emitted (root runs).
    empty_pending: bool,
    /// `(stamp, position)` the parked run resumes at, if any.
    parked: Option<(u64, usize)>,
}

impl EnumScratch {
    /// Starts a run over every assignment of a circuit root: the empty
    /// assignment first when `empty_accepted` holds, then `S(Γ)` for the
    /// root gates `root_gates` (the ∪-gates `γ(root, q_f)` of the final
    /// states).  Abandons any run in progress — returning its buffers to the
    /// pools — and forgets any parked position.
    pub fn start_root<S: Topology<BoxId>>(
        &mut self,
        src: EnumSource<'_, S>,
        root_box: BoxId,
        root_gates: &[u32],
        empty_accepted: bool,
    ) {
        self.abandon();
        self.m.empty_pending = empty_accepted;
        if !root_gates.is_empty() {
            let w = src.width(root_box);
            let mut r0 = self.take_relation(w, w);
            for &g in root_gates {
                r0.set(g as usize, g as usize);
            }
            self.push_level(src, Role::Root, 0, root_box, r0);
        }
    }

    /// Starts a run over `S(Γ)` for the boxed set `gamma` of box `b`; each
    /// answer's [`EnumScratch::provenance`] is relative to `gamma`.  Abandons
    /// any run in progress, like [`EnumScratch::start_root`].
    pub fn start_boxed_set<S: Topology<BoxId>>(
        &mut self,
        src: EnumSource<'_, S>,
        b: BoxId,
        gamma: &GateSet,
    ) {
        self.abandon();
        if !gamma.is_empty() {
            let w = src.width(b);
            let mut r0 = self.take_relation(w, w);
            for g in gamma.iter() {
                r0.set(g, g);
            }
            self.push_level(src, Role::Root, 0, b, r0);
        }
    }

    /// The current answer (valid after [`EnumScratch::next_answer`] returned
    /// `true`): `⟨Y : leaf_token⟩` parts with distinct leaf tokens.
    pub fn answer(&self) -> &OutputAssignment {
        &self.m.asg
    }

    /// The provenance of the current answer of a boxed-set run: the gates of
    /// `Γ` that capture it.
    pub fn provenance(&self) -> &GateSet {
        &self.m.prov
    }

    /// Drops the run in progress (if any), returning every buffer it holds
    /// to the pools, and forgets any parked position.
    pub fn abandon(&mut self) {
        while let Some(t) = self.m.levels.len().checked_sub(1) {
            if self.m.levels[t].phase != Phase::Idle {
                self.finish_box(t);
            }
            self.pop_level();
        }
        while !self.m.walks.is_empty() {
            self.pop_walk();
        }
        self.m.asg.clear();
        self.m.empty_pending = false;
        self.m.parked = None;
    }

    /// Parks the run in progress, holding its current answer, as the one to
    /// resume at `position` of the enumeration identified by `stamp`.  The
    /// key lasts until the next [`EnumScratch::resume_page`], start, abandon
    /// or advance of the run.
    pub fn park(&mut self, stamp: u64, position: usize) {
        self.m.parked = Some((stamp, position));
    }

    /// Claims the parked run if it was parked at `(stamp, position)`: the
    /// current answer is then the one at `position`, and the run continues
    /// from there.  Counts the page in [`crate::EnumStats::pages_resumed`]
    /// on a hit, or in [`crate::EnumStats::pages_restarted`] on a miss at a
    /// non-zero position (the caller must then restart and skip).  Either
    /// way the parked key is consumed.
    pub fn resume_page(&mut self, stamp: u64, position: usize) -> bool {
        let hit = self.m.parked.take() == Some((stamp, position));
        if hit {
            self.stats.pages_resumed += 1;
        } else if position > 0 {
            self.stats.pages_restarted += 1;
        }
        hit
    }

    /// Advances the run to its next answer.  Returns `false` once the run
    /// is exhausted (the stacks are then empty).  `src` must be the source
    /// the run was started with.
    // hot-path: the per-answer ENUM-S step; the delay bound assumes zero
    // allocation per emitted assignment (pools come from `EnumScratch`).
    pub fn next_answer<S: Topology<BoxId>>(&mut self, src: EnumSource<'_, S>) -> bool {
        // Advancing moves the run off the answer it was parked on.
        self.m.parked = None;
        if self.m.empty_pending {
            self.m.empty_pending = false;
            self.m.asg.clear();
            self.count_answer();
            return true;
        }
        while let Some(t) = self.m.levels.len().checked_sub(1) {
            let m = &mut self.m;
            m.asg.truncate(m.levels[t].asg_base as usize);
            match m.levels[t].phase {
                Phase::Parts(i) => {
                    let lv = &mut m.levels[t];
                    if let Some(part) = lv.parts.get_mut(i as usize) {
                        lv.phase = Phase::Parts(i + 1);
                        // The part is emitted once: hand its provenance over
                        // instead of copying it.
                        std::mem::swap(&mut m.prov, &mut part.prov);
                        let item = (part.vars, part.token);
                        Self::reserve_one(&mut m.asg, &mut self.stats);
                        m.asg.push(item);
                        let root = self.m.levels[t].role == Role::Root;
                        if root || self.deliver(src, t) {
                            self.count_answer();
                            return true;
                        }
                    } else if lv.triples.is_empty() {
                        self.finish_box(t);
                    } else {
                        lv.phase = Phase::Times;
                        let (bl, w) = src.child(lv.bprime, Side::Left);
                        let mut r0 = self.take_relation(w, w);
                        for &(l, _, _) in &self.m.levels[t].triples {
                            r0.set(l as usize, l as usize);
                        }
                        self.push_level(src, Role::Left, t, bl, r0);
                    }
                }
                Phase::Times => self.finish_box(t),
                Phase::Idle => {
                    let base = m.levels[t].walk_base as usize;
                    match self.walk_next(src, base) {
                        Some(b1) => self.start_box(src, t, b1),
                        None => self.pop_level(),
                    }
                }
            }
        }
        false
    }

    /// Passes the answer just produced by level `t` (provenance in
    /// `m.prov`) up the chain of ×-gate levels.  Returns `true` iff it
    /// reached the root as an output; `false` if it was absorbed (no
    /// surviving ×-gate or owner) or started a right level.
    // hot-path: runs once per level per answer.
    fn deliver<S: Topology<BoxId>>(&mut self, src: EnumSource<'_, S>, mut t: usize) -> bool {
        loop {
            let p = self.m.levels[t].parent as usize;
            match self.m.levels[t].role {
                Role::Root => return true,
                Role::Left => {
                    // ×-gates whose left input captures the left answer.
                    let mut surviving = self.take_triples();
                    let triples = std::mem::take(&mut self.m.levels[p].triples);
                    for &tr in &triples {
                        if self.m.prov.contains(tr.0 as usize) {
                            self.push_triple(&mut surviving, tr);
                        }
                    }
                    self.m.levels[p].triples = triples;
                    if surviving.is_empty() {
                        self.put_triples(surviving);
                        return false;
                    }
                    let (br, w) = src.child(self.m.levels[p].bprime, Side::Right);
                    let mut r0 = self.take_relation(w, w);
                    for &(_, r, _) in &surviving {
                        r0.set(r as usize, r as usize);
                    }
                    self.m.levels[p].surviving = surviving;
                    self.push_level(src, Role::Right, p, br, r0);
                    return false;
                }
                Role::Right => {
                    let width_prime = src.width(self.m.levels[p].bprime);
                    let mut owners = self.take_gate_set(width_prime);
                    for &(_, r, owner) in &self.m.levels[p].surviving {
                        if self.m.prov.contains(r as usize) {
                            owners.insert(owner as usize);
                        }
                    }
                    if owners.is_empty() {
                        self.put_gate_set(owners);
                        return false;
                    }
                    let mut prov = self.take_gate_set(self.box_rel(p).cols());
                    self.box_rel(p).image_of_into(&owners, &mut prov);
                    std::mem::swap(&mut self.m.prov, &mut prov);
                    self.put_gate_set(prov);
                    self.put_gate_set(owners);
                    t = p;
                }
            }
        }
    }

    /// `R(bprime, Γ)` of the box level `t` is processing.
    #[inline]
    fn box_rel(&self, t: usize) -> &Relation {
        let rel = self.m.levels[t].rel.as_ref();
        rel.expect("a level past its box phase has no relation")
    }

    /// Level `t` takes the box `b1` its walk just emitted: groups the
    /// var-inputs of the reachable ∪-gates (provenance precomputed) and
    /// collects the ×-inputs.
    fn start_box<S: Topology<BoxId>>(&mut self, src: EnumSource<'_, S>, t: usize, b1: BoxId) {
        let rel = self.m.walks.last_mut().and_then(|f| f.r1.take());
        let rel = rel.expect("an emitted box carries its relation");
        let inputs = src.inputs(b1);
        let width_prime = inputs.width();
        // Size the grouping table first: its capacity must cover every
        // insertion up front (it never grows mid-pass).
        let mut var_inputs = 0usize;
        for gi in (0..rel.rows()).filter(|&gi| !rel.row_is_empty(gi)) {
            var_inputs += inputs.var_count(gi);
        }
        // Var inputs with identical labels are the same var-gate (S_var is
        // injective): group them and union the owners for the provenance.
        let mut triples = self.take_triples();
        self.begin_groups(var_inputs);
        for gi in (0..rel.rows()).filter(|&gi| !rel.row_is_empty(gi)) {
            inputs.visit(gi, |input| match input {
                UnionInput::Var { vars, leaf_token } => {
                    self.insert_group(vars, leaf_token, gi, width_prime);
                }
                UnionInput::Times { left, right } => {
                    self.push_triple(&mut triples, (left, right, gi as u32));
                }
                UnionInput::Child { .. } => {}
            });
        }
        let mut parts = self.take_parts();
        self.drain_groups_into(&rel, &mut parts);
        let lv = &mut self.m.levels[t];
        lv.bprime = b1;
        lv.rel = Some(rel);
        lv.parts = parts;
        lv.triples = triples;
        lv.phase = Phase::Parts(0);
    }

    /// Level `t` is done with its box: buffers back to the pools, the
    /// relation back to the emitting walk frame (the top one, since every
    /// level above `t` has been popped).
    fn finish_box(&mut self, t: usize) {
        let lv = &mut self.m.levels[t];
        lv.phase = Phase::Idle;
        let parts = std::mem::take(&mut lv.parts);
        let triples = std::mem::take(&mut lv.triples);
        let rel = lv.rel.take();
        if let Some(frame) = self.m.walks.last_mut() {
            frame.r1 = rel;
        }
        self.put_parts(parts);
        self.put_triples(triples);
    }

    /// Pushes an `enum-s` level over `R(b, Γ) = r0`.
    fn push_level<S>(
        &mut self,
        src: EnumSource<'_, S>,
        role: Role,
        parent: usize,
        b: BoxId,
        r0: Relation,
    ) {
        let level = Level {
            role,
            parent: parent as u32,
            asg_base: self.m.asg.len() as u32,
            walk_base: self.m.walks.len() as u32,
            phase: Phase::Idle,
            bprime: b,
            rel: None,
            parts: Vec::new(),
            triples: Vec::new(),
            surviving: Vec::new(),
        };
        Self::reserve_one(&mut self.m.levels, &mut self.stats);
        self.m.levels.push(level);
        self.push_walk(src.mode, b, r0);
    }

    /// Pops the top level (its walk is exhausted, or it is being
    /// abandoned), releasing whatever it still holds.
    fn pop_level(&mut self) {
        let Some(lv) = self.m.levels.pop() else {
            return;
        };
        while self.m.walks.len() > lv.walk_base as usize {
            self.pop_walk();
        }
        if lv.role == Role::Right {
            let surviving = std::mem::take(&mut self.m.levels[lv.parent as usize].surviving);
            self.put_triples(surviving);
        }
    }

    /// Pushes a `box-enum` frame over `R(b, Γ) = r0`.
    fn push_walk(&mut self, mode: BoxEnumMode, b: BoxId, r0: Relation) {
        let (r, r1) = match mode {
            BoxEnumMode::Indexed => (Some(r0), None),
            BoxEnumMode::Reference => (None, Some(r0)),
        };
        let frame = Walk {
            b,
            b1: b,
            r,
            r1,
            path_start: self.m.path.len() as u32,
            stage: Stage::Start,
        };
        Self::reserve_one(&mut self.m.walks, &mut self.stats);
        self.m.walks.push(frame);
    }

    fn pop_walk(&mut self) {
        if let Some(frame) = self.m.walks.pop() {
            self.m.path.truncate(frame.path_start as usize);
            for r in [frame.r, frame.r1].into_iter().flatten() {
                self.put_relation(r);
            }
        }
    }

    /// Advances the walk frames above `base` to the next interesting box,
    /// whose relation is left in the top frame's `r1`.  Returns `None` once
    /// every frame above `base` has been popped.
    ///
    /// Every child relation is composed only when its subtree is next, as
    /// in the recursive formulation, so a run stopped early pays for no
    /// subtree it does not visit.
    // hot-path: the per-answer B-ENUM step; every relation it touches must
    // come from (and return to) the `EnumScratch` pools, never the allocator.
    fn walk_next<S: Topology<BoxId>>(
        &mut self,
        src: EnumSource<'_, S>,
        base: usize,
    ) -> Option<BoxId> {
        loop {
            let top = self.m.walks.len().checked_sub(1).filter(|&t| t >= base)?;
            let frame = &mut self.m.walks[top];
            let (mode, b, b1) = (src.mode, frame.b, frame.b1);
            match frame.stage {
                Stage::Start if mode == BoxEnumMode::Reference => {
                    frame.stage = Stage::Emitted;
                    let r1 = frame.r1.as_ref().expect("reference frame relation");
                    if is_interesting_rel(src.circuit, src.shape, b, r1) {
                        return Some(b);
                    }
                }
                Stage::Start => {
                    // Algorithm 3 lines 4–6: jump to the first interesting
                    // box and emit its relation.
                    let rec = src.index().of(b);
                    let r = frame.r.as_ref().expect("indexed frame relation");
                    let slot = rec
                        .fib_of_rows(r)
                        .expect("every ∪-gate reaches an interesting box");
                    let b1 = rec.closure_box(slot);
                    frame.b1 = b1;
                    frame.stage = Stage::Emitted;
                    if b1 == b {
                        // `R(b, b)` is the identity: `R(b1, Γ)` is the
                        // call's own relation, and no path walk follows.
                        frame.r1 = frame.r.take();
                        return Some(b1);
                    }
                    let cols = r.cols();
                    let rel1 = rec.closure_rel(slot);
                    let mut r1 = self.take_relation(rel1.rows(), cols);
                    self.stats.compositions += 1;
                    let frame = &mut self.m.walks[top];
                    rel1.compose_into(frame.r.as_ref().expect("indexed frame relation"), &mut r1);
                    frame.r1 = Some(r1);
                    return Some(b1);
                }
                // Lines 7–10: cover both subtrees of `b1`.
                Stage::Emitted | Stage::LeftDone => {
                    let left = frame.stage == Stage::Emitted;
                    let Some((bl, br)) = src.shape.children(b1) else {
                        if mode == BoxEnumMode::Reference || b == b1 {
                            // A leaf with no path above it: the frame is done.
                            self.pop_walk();
                        } else {
                            frame.stage = Stage::Covered;
                        }
                        continue;
                    };
                    frame.stage = if left {
                        Stage::LeftDone
                    } else {
                        Stage::Covered
                    };
                    let r1 = frame.r1.take().expect("emitted box relation returned");
                    let (side, child) = if left {
                        (Side::Left, bl)
                    } else {
                        (Side::Right, br)
                    };
                    let rc = self.step(src, mode, b1, side, &r1);
                    self.m.walks[top].r1 = Some(r1);
                    self.push_nonempty(mode, child, rc);
                }
                Stage::Covered => {
                    if let Some(r1) = frame.r1.take() {
                        self.put_relation(r1);
                    }
                    if mode == BoxEnumMode::Reference || b == b1 {
                        self.pop_walk();
                        continue;
                    }
                    // Lines 11–17: walk the path from `b` down to `b1` and
                    // cover the off-path subtrees.  Path boxes strictly
                    // above `b1` are never interesting (`fib` would have
                    // returned them), so the walk only branches off.  The
                    // path is recorded once, bottom-up, by one parent walk.
                    let mut x = b1;
                    loop {
                        Self::reserve_one(&mut self.m.path, &mut self.stats);
                        self.m.path.push(x);
                        if x == b {
                            break;
                        }
                        x = src
                            .shape
                            .parent(x)
                            .expect("the first interesting box lies below its call box");
                    }
                    self.m.walks[top].stage = Stage::Path(self.m.path.len() as u32 - 1);
                }
                // Indexed mode only (a reference frame never records a path).
                // Steps whose off-path relation is empty run back to back.
                Stage::Path(at) => {
                    let start = frame.path_start;
                    let mut at = at;
                    let Some(mut cur) = frame.r.take() else {
                        self.pop_walk();
                        continue;
                    };
                    loop {
                        if at == start || cur.is_empty() {
                            self.put_relation(cur);
                            self.pop_walk();
                            break;
                        }
                        let here = self.m.path[at as usize];
                        let (bl, br) = src
                            .shape
                            .children(here)
                            .expect("a strict ancestor of the first interesting box is internal");
                        let rec = src.index().of(here);
                        let (cl, cr) = (rec.child_rel(Side::Left), rec.child_rel(Side::Right));
                        let (on, off, off_child) = if bl == self.m.path[at as usize - 1] {
                            (cl, cr, br)
                        } else {
                            (cr, cl, bl)
                        };
                        let rc = self.compose(off, &cur);
                        // Step the wavefront down with the same child steps
                        // (not needed below the path's last step), so the
                        // walk resumes below `here` without revisiting it.
                        at -= 1;
                        let next = (at != start).then(|| self.compose(on, &cur));
                        self.put_relation(cur);
                        if !rc.is_empty() {
                            let frame = &mut self.m.walks[top];
                            frame.r = next;
                            frame.stage = Stage::Path(at);
                            self.push_walk(mode, off_child, rc);
                            break;
                        }
                        self.put_relation(rc);
                        let Some(next) = next else {
                            self.pop_walk();
                            break;
                        };
                        cur = next;
                    }
                }
            }
        }
    }

    /// `R(child, B) ∘ upper` for the `side` child of box `parent`: the child
    /// step comes precomposed from the index in indexed mode, and is derived
    /// from the wires in reference mode.
    fn step<S: Topology<BoxId>>(
        &mut self,
        src: EnumSource<'_, S>,
        mode: BoxEnumMode,
        parent: BoxId,
        side: Side,
        upper: &Relation,
    ) -> Relation {
        match mode {
            BoxEnumMode::Indexed => {
                let step = src.index().of(parent).child_rel(side);
                self.compose(step, upper)
            }
            BoxEnumMode::Reference => {
                let (_, rows) = src.child(parent, side);
                let mut step = self.take_relation(rows, src.circuit.box_width(parent));
                child_relation_into(src.circuit, src.shape, parent, side, &mut step);
                let out = self.compose(step.view(), upper);
                self.put_relation(step);
                out
            }
        }
    }

    /// `step ∘ upper` into a pooled relation, counted in
    /// [`crate::EnumStats::compositions`].
    #[inline]
    fn compose(&mut self, step: RelRef<'_>, upper: &Relation) -> Relation {
        let mut out = self.take_relation(step.rows(), upper.cols());
        self.stats.compositions += 1;
        step.compose_into(upper, &mut out);
        out
    }

    /// Pushes a frame for `child` over `rc`, unless `rc` is empty (it then
    /// reaches nothing).
    fn push_nonempty(&mut self, mode: BoxEnumMode, child: BoxId, rc: Relation) {
        if rc.is_empty() {
            self.put_relation(rc);
        } else {
            self.push_walk(mode, child, rc);
        }
    }

    /// Runs `box-enum` alone over the boxed set `gamma` of box `b`, handing
    /// every interesting box and its relation to `sink`.  Uses the walk
    /// stack above its current top, so it leaves a parked run intact.
    pub(crate) fn walk_boxes<S: Topology<BoxId>>(
        &mut self,
        src: EnumSource<'_, S>,
        b: BoxId,
        gamma: &GateSet,
        sink: &mut BoxSink<'_>,
    ) -> ControlFlow<()> {
        if gamma.is_empty() {
            return ControlFlow::Continue(());
        }
        let base = self.m.walks.len();
        let w = src.width(b);
        let mut r0 = self.take_relation(w, w);
        for g in gamma.iter() {
            r0.set(g, g);
        }
        self.push_walk(src.mode, b, r0);
        while let Some(b1) = self.walk_next(src, base) {
            let r = self.m.walks.last_mut().and_then(|f| f.r1.take());
            let r = r.expect("an emitted box carries its relation");
            let flow = sink(self, b1, &r);
            if let Some(frame) = self.m.walks.last_mut() {
                frame.r1 = Some(r);
            }
            if flow.is_break() {
                while self.m.walks.len() > base {
                    self.pop_walk();
                }
                return flow;
            }
        }
        ControlFlow::Continue(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use treenum_automata::binary::select_a_leaves;
    use treenum_circuits::build_assignment_circuit;
    use treenum_trees::binary::BinaryTree;
    use treenum_trees::{Alphabet, Var};

    #[test]
    fn a_parked_run_is_only_resumed_at_its_key() {
        let sigma = Alphabet::from_names(["a", "f"]);
        let (a, f) = (sigma.get("a").unwrap(), sigma.get("f").unwrap());
        let tva = select_a_leaves(a, f, Var(0));
        let mut t = BinaryTree::leaf(a);
        let mut cur = t.root();
        for _ in 0..5 {
            let l = t.add_leaf(a);
            cur = t.add_internal(f, cur, l);
        }
        t.set_root(cur);
        let circuit = build_assignment_circuit(&tva, &t);
        let index = crate::EnumIndex::build(&circuit, &t);
        let root = BoxId(t.root().0);
        let (gates, empty) = circuit.gamma(root).boxed_set(tva.final_states());
        let src = EnumSource::new(&circuit, &t, Some(&index), BoxEnumMode::Indexed);
        let mut scratch = EnumScratch::new();
        scratch.start_root(src, root, &gates, empty);
        assert!(scratch.next_answer(src));
        let first = scratch.answer().clone();
        scratch.park(7, 0);
        assert!(!scratch.resume_page(8, 0), "another stamp");
        scratch.park(7, 0);
        assert!(scratch.resume_page(7, 0));
        assert_eq!(
            scratch.answer(),
            &first,
            "the held answer survives the park"
        );
        assert!(!scratch.resume_page(7, 0), "the key is consumed");
        scratch.park(7, 0);
        assert!(scratch.next_answer(src));
        assert!(!scratch.resume_page(7, 0), "advancing forgets the key");
        scratch.park(7, 1);
        scratch.start_root(src, root, &gates, empty);
        assert!(!scratch.resume_page(7, 1), "restarting forgets the key");
        assert_eq!(scratch.stats().pages_resumed, 1);
        assert_eq!(
            scratch.stats().pages_restarted,
            1,
            "misses at position 0 are not restarts"
        );
    }
}
