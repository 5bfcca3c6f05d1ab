//! # treenum-core
//!
//! The incremental enumeration engine of the paper (Theorem 8.1), plus its word /
//! document-spanner specialization (Theorem 8.5, Corollary 8.4).
//!
//! [`TreeEnumerator`] glues the whole pipeline together:
//!
//! 1. the input unranked tree is encoded as a balanced forest-algebra term
//!    (`treenum-balance`, Section 7);
//! 2. the stepwise query automaton is translated to a binary TVA on terms
//!    (Lemma 7.4), homogenized (Lemma 2.1) and trimmed;
//! 3. an assignment circuit is built bottom-up over the term (Lemma 3.7) together
//!    with the enumeration index (Lemma 6.3); a box is its term node, so both
//!    keep per-box content only and read their topology from the term;
//! 4. answers are enumerated without duplicates with delay independent of the tree
//!    (Algorithms 2–3, Theorems 5.3 / 6.5);
//! 5. edits (Definition 7.1) are applied as term splices with scapegoat rebalancing,
//!    and exactly the dirtied boxes and index entries are repaired (Lemma 7.3),
//!    giving logarithmic-time updates.

pub mod engine;
pub mod plan;
pub mod words;

pub use engine::{
    Document, DocumentBatch, EnumerationStats, Footprint, QueryIndex, TreeEnumerator,
};
pub use plan::{PlanAdmission, QueryPlan, TranslationKey};
pub use words::WordEnumerator;
