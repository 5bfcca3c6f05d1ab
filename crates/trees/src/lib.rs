//! # treenum-trees
//!
//! Tree data structures used throughout the `treenum` workspace:
//!
//! * [`UnrankedTree`]: rooted, ordered, labelled unranked trees — the input model of
//!   the paper (Section 7).  Supports the edit operations of Definition 7.1
//!   (leaf insertion, leaf deletion, relabeling).
//! * [`BinaryTree`]: rooted, ordered, labelled binary trees — the model on which
//!   assignment circuits are built (Sections 2–6) and the shape of forest-algebra
//!   terms and v-trees.
//! * [`Alphabet`] / [`Label`]: interned tree labels.
//! * [`valuation`]: valuations, assignments and singletons (`⟨Z : n⟩`).
//! * [`chunked`]: [`ChunkedVec`], the fixed-chunk arena the update path's
//!   id-indexed arrays grow in without copying.
//! * [`topology`]: [`Topology`], the shape of a binary tree as the circuit,
//!   its index and the enumeration read it (one box per tree node).
//! * [`generate`]: random tree / workload generators used by tests and benchmarks.
//! * [`serial`]: arena-exact binary serialization of trees and edit ops — the
//!   snapshot and WAL-record formats used by `treenum-wal`.
//!
//! All trees are arena-allocated with `u32` node identifiers so that subtrees can be
//! shared across versions cheaply (needed by the update machinery in
//! `treenum-balance`).

pub mod binary;
pub mod chunked;
pub mod edit;
pub mod generate;
pub mod label;
pub mod serial;
pub mod topology;
pub mod unranked;
pub mod valuation;

pub use binary::{BinaryNodeId, BinaryTree};
pub use chunked::ChunkedVec;
pub use edit::{EditFeed, EditOp, EditStream, NodeSampler};
pub use label::{Alphabet, Label};
pub use serial::{decode_op, encode_op, from_bytes, op_applicable, to_bytes, SerialError};
pub use topology::Topology;
pub use unranked::{NodeId, UnrankedTree};
pub use valuation::{Assignment, Singleton, Valuation, Var, VarSet};
