//! # treenum-enumeration
//!
//! The enumeration machinery of Sections 4–6 of the paper, operating on the
//! box-structured assignment circuits of `treenum-circuits`:
//!
//! * [`relation`]: ∪-reachability relations between boxes, represented as boolean
//!   bit-matrices with word-blocked composition (the `O(w^ω)` step of Theorem 6.5).
//! * [`index`]: the index structure `I(C)` of Definition 6.1 — first interesting box
//!   (`fib`), first bidirectional box (`fbb`), their lca closure and the associated
//!   reachability relations, computed bottom-up per box (Lemma 6.3) so that it can be
//!   maintained under tree hollowings (Lemma 7.3).  Each box's entry is one
//!   contiguous record in a word slab, read in place through [`BoxRecord`].
//! * [`machine`]: the resumable enumeration machine — Algorithm 2 driving
//!   Algorithm 3 as one explicit stack parked in the [`EnumScratch`], advancing
//!   one answer at a time, so a run can pause after any answer and resume.
//! * [`boxenum`]: the `box-enum` procedure — a naive depth-bounded reference
//!   implementation (Section 5) and the indexed jump-pointer implementation of
//!   Algorithm 3 (Lemma 6.4), both run by the machine's walk frames.
//! * [`simple`]: Algorithm 1 — enumeration *with* duplicates, kept as a baseline and
//!   test oracle.
//! * [`dedup`]: Algorithm 2 — duplicate-free enumeration with provenance tracking
//!   (Theorem 5.3): callback-driven entry points over the machine.
//! * [`scratch`]: the reusable per-answer scratch state ([`EnumScratch`]) that
//!   makes the steady-state enumeration loop allocation-free, with the
//!   [`EnumStats`] counters that guard the discipline.
//! * [`iter`]: an `Iterator` over the machine — the paper's enumeration process
//!   that "pauses after each output", pulled one answer per `next()`.

pub mod bitset;
pub mod boxenum;
pub mod dedup;
pub mod index;
pub mod iter;
pub mod machine;
pub mod relation;
pub mod scratch;
pub mod simple;

pub use bitset::GateSet;
pub use dedup::{
    enumerate_boxed_set, enumerate_boxed_set_with, enumerate_root, enumerate_root_with,
    OutputAssignment,
};
pub use index::{BoxRecord, EnumIndex};
pub use iter::AssignmentIter;
pub use machine::EnumSource;
pub use relation::{RelRef, Relation};
pub use scratch::{EnumScratch, EnumStats};
