//! # treenum-circuits
//!
//! Set circuits and assignment circuits (Section 3 of the paper).
//!
//! The circuits built by Lemma 3.7 are *complete structured DNNFs*: their gates are
//! partitioned into **boxes**, one per node of a v-tree which is isomorphic to the
//! input binary tree.  Each box contains:
//!
//! * at most `|Q|` ∪-gates — one per automaton state `q` whose gate `γ(n, q)` is
//!   neither `⊤` nor `⊥`;
//! * `×`-gates whose two inputs are ∪-gates of the two child boxes;
//! * `var`-gates (in leaf boxes only), each labelled by a set of singletons
//!   `⟨Y : n⟩`;
//! * wires from ∪-gates of a child box directly into ∪-gates of the parent box
//!   (these arise when one side of a transition captures only the empty assignment,
//!   see the appendix proof of Lemma 3.7) — these wires are what make the
//!   "jumping" machinery of Section 6 necessary.
//!
//! This crate provides the box-structured circuit representation ([`Circuit`]),
//! whose box contents are plain-data word records in a [`Slab`] (the allocator
//! the enumeration index's records live in too) and whose tree of boxes is
//! the tree it is built on, read through `treenum_trees::Topology` (a box
//! is named by its tree node's arena index), the construction of box
//! contents from a homogenized `BinaryTva` ([`build::leaf_box_content`],
//! [`build::internal_box_content`]), the static
//! construction over a whole `BinaryTree` ([`build::build_assignment_circuit`]),
//! a set-semantics evaluator used as a test oracle ([`semantics`]), and structural
//! validation of the DNNF invariants.

pub mod build;
pub mod circuit;
pub mod semantics;
pub mod slab;

pub use build::{build_assignment_circuit, internal_box_content, leaf_box_content, ContentStaging};
pub use circuit::{BoxContent, BoxId, Circuit, Gamma, GateInputs, Side, StateGate, UnionInput};
pub use slab::{Block, Slab};
