//! Shared per-query preprocessing: the cached Lemma 7.4 translation plus the
//! per-label *circuit skeletons* (leaf box content records, which name no
//! leaf token).
//!
//! Building a [`crate::TreeEnumerator`] used to re-run the quartic automaton
//! translation and re-derive every leaf box content from `ι` on each call.
//! Both only depend on the query, not on the tree, so they are computed once
//! per distinct query and shared across all engine instances through an
//! `Arc<QueryPlan>` (and, transitively, across threads — the plan is
//! immutable).

// The plan cache is hit once per query admission, never per edit or per
// answer.
// analyze: allow(map): the process-wide query-plan cache, off the update and enumeration paths
use std::collections::HashMap;
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;
use treenum_automata::{BinaryTva, StepwiseTva};
use treenum_balance::term::TermAlphabet;
use treenum_balance::{translate_stepwise, TranslatedTva};
use treenum_circuits::{leaf_box_content, BoxContent, ContentStaging};
use treenum_trees::Label;

/// A canonical, order-insensitive fingerprint of a stepwise query automaton
/// (plus the base alphabet size it runs over): the plan cache's key.  Two
/// automata with the same states, `ι`, `δ` and final states — regardless of
/// the order the relations were inserted in — get equal keys, so they share
/// one cached plan.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct TranslationKey {
    base_alphabet_len: usize,
    num_states: usize,
    vars: u64,
    /// `(label, Y, q)` triples of `ι`, sorted.
    initial: Vec<(u32, u64, u32)>,
    /// `(q, q', q'')` triples of `δ`, sorted.
    delta: Vec<(u32, u32, u32)>,
    /// Final states, sorted.
    finals: Vec<u32>,
}

impl TranslationKey {
    /// Fingerprints `stepwise` over a `base_alphabet_len`-letter alphabet.
    pub fn new(stepwise: &StepwiseTva, base_alphabet_len: usize) -> Self {
        let mut initial: Vec<(u32, u64, u32)> = (0..stepwise.alphabet_len())
            .flat_map(|l| {
                stepwise
                    .initial_for(Label(l as u32))
                    .iter()
                    .map(move |&(y, q)| (l as u32, y.0, q.0))
            })
            .collect();
        initial.sort_unstable();
        initial.dedup();
        let mut delta: Vec<(u32, u32, u32)> = stepwise
            .transitions()
            .iter()
            .map(|&(q, c, n)| (q.0, c.0, n.0))
            .collect();
        delta.sort_unstable();
        delta.dedup();
        let mut finals: Vec<u32> = stepwise.final_states().iter().map(|s| s.0).collect();
        finals.sort_unstable();
        TranslationKey {
            base_alphabet_len,
            num_states: stepwise.num_states(),
            vars: stepwise.vars().0,
            initial,
            delta,
            finals,
        }
    }
}

/// Everything about a query that every [`crate::TreeEnumerator`] instance can
/// share: the translated, homogenized binary TVA, the term alphabet, and one
/// leaf [`BoxContent`] record per term label.
#[derive(Debug)]
pub struct QueryPlan {
    translated: Arc<TranslatedTva>,
    /// `leaf_templates[label.index()]`: the content record of a leaf box
    /// with that term label.
    leaf_templates: Vec<Box<[u64]>>,
}

static PLAN_CACHE: OnceLock<Mutex<HashMap<TranslationKey, Arc<QueryPlan>>>> = OnceLock::new();

impl QueryPlan {
    /// The shared plan for `stepwise` over `base_alphabet_len` labels:
    /// [`QueryPlan::admit`] without the admission report.
    pub fn for_query(stepwise: &StepwiseTva, base_alphabet_len: usize) -> Arc<QueryPlan> {
        QueryPlan::admit(stepwise, base_alphabet_len).plan
    }

    /// Admits `stepwise` through the process-wide plan cache, keyed by its
    /// canonical [`TranslationKey`]: returns the resident plan, or runs the
    /// Lemma 7.4 translation and derives the leaf skeletons, inserts the
    /// plan and reports the compile time.  Every engine and every server in
    /// the process shares the one `Arc` per distinct query.
    ///
    /// The cache is unbounded: a process serves a handful of distinct
    /// queries, and one entry is a few automata, not a circuit.
    ///
    /// ```
    /// use treenum_core::QueryPlan;
    /// use treenum_automata::queries;
    /// use treenum_trees::valuation::Var;
    ///
    /// let q = queries::select_label(3, treenum_trees::Label(1), Var(0));
    /// let first = QueryPlan::admit(&q, 3);
    /// let second = QueryPlan::admit(&q, 3);
    /// assert!(!first.cache_hit);
    /// assert!(second.cache_hit);
    /// assert_eq!(second.compile_ns, 0);
    /// assert!(std::sync::Arc::ptr_eq(&first.plan, &second.plan));
    /// ```
    pub fn admit(stepwise: &StepwiseTva, base_alphabet_len: usize) -> PlanAdmission {
        let key = TranslationKey::new(stepwise, base_alphabet_len);
        let cache = PLAN_CACHE.get_or_init(Default::default);
        if let Some(hit) = cache.lock().unwrap().get(&key) {
            return PlanAdmission {
                plan: Arc::clone(hit),
                cache_hit: true,
                compile_ns: 0,
            };
        }
        // Compile outside the lock: a quartic translation must not serialize
        // unrelated queries.  A concurrent miss for the same key wastes one
        // compile; `or_insert` keeps the first plan so all callers converge.
        let start = Instant::now();
        let plan = Arc::new(QueryPlan::build(Arc::new(translate_stepwise(
            stepwise,
            base_alphabet_len,
        ))));
        let compile_ns = start.elapsed().as_nanos() as u64;
        PlanAdmission {
            plan: Arc::clone(cache.lock().unwrap().entry(key).or_insert(plan)),
            cache_hit: false,
            compile_ns,
        }
    }

    /// Builds a plan directly from a translation (no caching); exposed for
    /// differential tests against the cached path.
    pub fn build(translated: Arc<TranslatedTva>) -> QueryPlan {
        let alphabet = translated.alphabet;
        let mut staging = ContentStaging::default();
        let leaf_templates = (0..alphabet.len())
            .map(|l| {
                let content = leaf_box_content(&translated.tva, Label(l as u32), &mut staging);
                content.words().into()
            })
            .collect();
        QueryPlan {
            translated,
            leaf_templates,
        }
    }

    /// The translated binary TVA on forest-algebra terms.
    pub fn tva(&self) -> &BinaryTva {
        &self.translated.tva
    }

    /// The term alphabet the TVA reads.
    pub fn alphabet(&self) -> TermAlphabet {
        self.translated.alphabet
    }

    /// The full translation output (for tests and diagnostics).
    pub fn translated(&self) -> &Arc<TranslatedTva> {
        &self.translated
    }

    /// The content of a leaf box with term label `label`: the per-label
    /// skeleton record, which the circuit copies word for word instead of
    /// re-deriving the content from `ι` on every (re)build.  A record names
    /// no leaf token (its var-gates take the token of the box it is stored
    /// in), so every leaf with this label shares it.
    pub fn leaf_content(&self, label: Label) -> BoxContent<'_> {
        BoxContent::new(&self.leaf_templates[label.index()], self.tva().num_states())
    }
}

/// Outcome of one [`QueryPlan::admit`] call: the shared plan and whether
/// the compile cost was paid on this call.
///
/// `compile_ns` is the wall-clock cost of the miss path (translation +
/// skeleton derivation) and is `0` on a hit — percentile admission-latency
/// measurements should therefore split samples by `cache_hit`.
#[derive(Clone, Debug)]
pub struct PlanAdmission {
    /// The admitted plan, shared with every engine built from it.
    pub plan: Arc<QueryPlan>,
    /// `true` iff the plan was already resident (no compile was run).
    pub cache_hit: bool,
    /// Wall-clock nanoseconds spent compiling on a miss; `0` on a hit.
    pub compile_ns: u64,
}
