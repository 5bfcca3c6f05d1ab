//! # treenum-balance
//!
//! The tree-balancing machinery of Section 7 of the paper:
//!
//! * [`term`]: forest-algebra terms (appendix E) — binary trees over the operator
//!   alphabet `{⊕HH, ⊕HV, ⊕VH, ⊙VV, ⊙VH}` and leaf symbols `a_t` / `a_□`, with a
//!   bijection between term leaves and the nodes of the unranked tree they encode
//!   (the `φ_{T'}` of Lemma 7.4, a dense slab indexed by tree node).
//! * [`build`]: the balanced construction — given an unranked tree, produce a term of
//!   height `O(log n)` representing it (centroid-style splitting of forests and
//!   contexts) in `O(n log n)` time: each piece is flattened once into a preorder
//!   table of subtree sizes, and every weight a split reads is O(1) on it.
//! * [`update`]: maintenance of the term under the edit operations of Definition 7.1.
//!   A batch of edits splices `O(1)` term nodes per edit and then restores balance
//!   by rebuilding the lowest unbalanced subterm above each too-deep node
//!   (scapegoat-style partial rebuilding: amortized `O(log n)` work per edit,
//!   `O(log n)` height after every batch).  A single edit is a one-op batch.
//!   The set of affected term nodes — the paper's *tree hollowing* trunk — is
//!   reported so that the circuit and index can be repaired bottom-up (Lemma 7.3).
//! * [`translate`]: the Lemma 7.4 automaton translation — from a stepwise unranked
//!   TVA with states `Q` to a binary TVA on forest-algebra terms with states
//!   `Q² ∪ (Q²)²` (horizontal transformations for forests, hole/outer transformation
//!   pairs for contexts), plus the word specialization of Corollary 8.4.

pub mod build;
pub mod term;
pub mod translate;
pub mod update;

pub use build::build_balanced_term;
pub use term::{Term, TermAlphabet, TermNodeId, TermNodeKind, TermOp};
pub use translate::{translate_stepwise, TranslatedTva};
pub use update::UpdateReport;
