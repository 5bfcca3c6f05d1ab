//! Shared per-query preprocessing: the cached Lemma 7.4 translation plus the
//! per-label *circuit skeletons* (leaf box contents with an unstamped leaf
//! token).
//!
//! Building a [`crate::TreeEnumerator`] used to re-run the quartic automaton
//! translation and re-derive every leaf box content from `ι` on each call.
//! Both only depend on the query, not on the tree, so they are computed once
//! per distinct query and shared across all engine instances through an
//! `Arc<QueryPlan>` (and, transitively, across threads — the plan is
//! immutable).

// Both plan caches (the process-wide `PLAN_CACHE` and the LRU `PlanCache`)
// are hit once per query admission, never per edit or per answer.
// analyze: allow(map): per-admission query-plan caches, off the update and enumeration paths
use std::collections::HashMap;
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;
use treenum_automata::{BinaryTva, StepwiseTva};
use treenum_balance::term::TermAlphabet;
use treenum_balance::{translate_stepwise_cached_keyed, TranslatedTva, TranslationKey};
use treenum_circuits::{leaf_box_content, BoxContent, UnionInput};
use treenum_trees::Label;

/// Leaf token used in skeleton contents; stamped with the real tree node by
/// [`QueryPlan::leaf_content`].
const TOKEN_PLACEHOLDER: u32 = u32::MAX;

/// Everything about a query that every [`crate::TreeEnumerator`] instance can
/// share: the translated, homogenized binary TVA, the term alphabet, and one
/// leaf [`BoxContent`] template per term label.
#[derive(Debug)]
pub struct QueryPlan {
    translated: Arc<TranslatedTva>,
    /// `leaf_templates[label.index()]`: the content of a leaf box with that
    /// term label, with [`TOKEN_PLACEHOLDER`] in every var-gate.
    leaf_templates: Vec<BoxContent>,
}

static PLAN_CACHE: OnceLock<Mutex<HashMap<TranslationKey, Arc<QueryPlan>>>> = OnceLock::new();

impl QueryPlan {
    /// The shared plan for `stepwise` over `base_alphabet_len` labels, served
    /// from a process-wide cache keyed by the canonical automaton fingerprint.
    /// The same key is handed down to the translation cache, so a plan miss
    /// computes the fingerprint once.
    pub fn for_query(stepwise: &StepwiseTva, base_alphabet_len: usize) -> Arc<QueryPlan> {
        let key = TranslationKey::new(stepwise, base_alphabet_len);
        let cache = PLAN_CACHE.get_or_init(Default::default);
        if let Some(hit) = cache.lock().unwrap().get(&key) {
            return Arc::clone(hit);
        }
        let translated = translate_stepwise_cached_keyed(key.clone(), stepwise, base_alphabet_len);
        let plan = Arc::new(QueryPlan::build(translated));
        Arc::clone(cache.lock().unwrap().entry(key).or_insert(plan))
    }

    /// Builds a plan directly from a translation (no caching); exposed for
    /// differential tests against the cached path.
    pub fn build(translated: Arc<TranslatedTva>) -> QueryPlan {
        let alphabet = translated.alphabet;
        let leaf_templates = (0..alphabet.len())
            .map(|l| leaf_box_content(&translated.tva, Label(l as u32), TOKEN_PLACEHOLDER))
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

    /// The content of a leaf box with term label `label` encoding the tree
    /// node behind `leaf_token`: a memcpy of the per-label skeleton with the
    /// token stamped into its var-gates, instead of re-deriving the content
    /// from `ι` on every (re)build.
    pub fn leaf_content(&self, label: Label, leaf_token: u32) -> BoxContent {
        let mut content = self.leaf_templates[label.index()].clone();
        for gate in &mut content.union_gates {
            for input in &mut gate.inputs {
                if let UnionInput::Var { leaf_token: t, .. } = input {
                    debug_assert_eq!(*t, TOKEN_PLACEHOLDER, "skeleton already stamped");
                    *t = leaf_token;
                }
            }
        }
        content
    }
}

/// Outcome of one [`PlanCache::admit`] call: the (possibly freshly compiled)
/// plan, the canonical query fingerprint it is cached under, and whether the
/// compile cost was paid on this call.
///
/// `compile_ns` is the wall-clock cost of the miss path (translation +
/// skeleton derivation) and is `0` on a hit — percentile admission-latency
/// measurements should therefore split samples by `cache_hit`.
#[derive(Clone, Debug)]
pub struct PlanAdmission {
    /// The admitted plan, shared with every engine built from it.
    pub plan: Arc<QueryPlan>,
    /// The canonical automaton fingerprint ([`TranslationKey`]) the plan is
    /// cached under; equal keys always yield the same plan while it stays
    /// resident.
    pub key: TranslationKey,
    /// `true` iff the plan was already resident (no compile was run).
    pub cache_hit: bool,
    /// Wall-clock nanoseconds spent compiling on a miss; `0` on a hit.
    pub compile_ns: u64,
}

/// Admission counters of one [`PlanCache`] (monotonic over its lifetime).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PlanCacheStats {
    /// Admissions served from a resident plan.
    pub hits: u64,
    /// Admissions that had to compile (translation + skeleton derivation).
    pub misses: u64,
    /// Resident plans displaced to stay within capacity (least recently
    /// admitted first).
    pub evictions: u64,
    /// Total wall-clock nanoseconds spent on the compile (miss) path.
    pub compile_ns_total: u64,
    /// Slowest single compile observed.
    pub max_compile_ns: u64,
}

/// An **LRU-bounded** plan cache keyed by the canonical automaton
/// fingerprint ([`TranslationKey`]), with admission statistics.
///
/// Unlike the process-wide cache behind [`QueryPlan::for_query`] (which is
/// deliberately unbounded — it backs long-lived single-query engines), a
/// `PlanCache` is owned by one consumer (e.g. a serving registry), holds at
/// most `capacity` plans, and evicts the least-recently-admitted plan to
/// admit a new one.  Eviction only drops the cache's own reference: plans
/// already attached to live engines stay alive through their `Arc`s, and the
/// underlying translation stays in the (shared, unbounded) translation cache
/// — so an evict-then-readmit recompiles only the cheap skeleton layer and
/// yields a plan with the identical [`TranslationKey`] identity.
///
/// ```
/// use treenum_core::PlanCache;
/// use treenum_automata::queries;
/// use treenum_trees::valuation::Var;
///
/// let mut cache = PlanCache::new(2);
/// let q = queries::select_label(3, treenum_trees::Label(1), Var(0));
/// let first = cache.admit(&q, 3);
/// let second = cache.admit(&q, 3);
/// assert!(!first.cache_hit);
/// assert!(second.cache_hit);
/// assert!(std::sync::Arc::ptr_eq(&first.plan, &second.plan));
/// ```
#[derive(Debug)]
pub struct PlanCache {
    capacity: usize,
    /// Logical admission clock; the entry with the smallest stamp is the LRU
    /// victim.
    tick: u64,
    entries: HashMap<TranslationKey, (Arc<QueryPlan>, u64)>,
    stats: PlanCacheStats,
}

impl PlanCache {
    /// An empty cache holding at most `capacity.max(1)` plans.
    pub fn new(capacity: usize) -> Self {
        PlanCache {
            capacity: capacity.max(1),
            tick: 0,
            entries: HashMap::new(),
            stats: PlanCacheStats::default(),
        }
    }

    /// Admits `stepwise`: returns the resident plan for its fingerprint, or
    /// compiles one (through the shared `translate_stepwise_cached` path),
    /// inserts it — evicting the least-recently-admitted plan if the cache
    /// is full — and reports the compile latency in the returned
    /// [`PlanAdmission`].
    pub fn admit(&mut self, stepwise: &StepwiseTva, base_alphabet_len: usize) -> PlanAdmission {
        let key = TranslationKey::new(stepwise, base_alphabet_len);
        self.tick += 1;
        if let Some((plan, stamp)) = self.entries.get_mut(&key) {
            *stamp = self.tick;
            self.stats.hits += 1;
            return PlanAdmission {
                plan: Arc::clone(plan),
                key,
                cache_hit: true,
                compile_ns: 0,
            };
        }
        let start = Instant::now();
        let translated = translate_stepwise_cached_keyed(key.clone(), stepwise, base_alphabet_len);
        let plan = Arc::new(QueryPlan::build(translated));
        let compile_ns = start.elapsed().as_nanos() as u64;
        self.stats.misses += 1;
        self.stats.compile_ns_total += compile_ns;
        self.stats.max_compile_ns = self.stats.max_compile_ns.max(compile_ns);
        if self.entries.len() >= self.capacity {
            let victim = self
                .entries
                .iter()
                .min_by_key(|(_, (_, stamp))| *stamp)
                .map(|(k, _)| k.clone());
            if let Some(victim) = victim {
                self.entries.remove(&victim);
                self.stats.evictions += 1;
            }
        }
        self.entries
            .insert(key.clone(), (Arc::clone(&plan), self.tick));
        PlanAdmission {
            plan,
            key,
            cache_hit: false,
            compile_ns,
        }
    }

    /// Number of resident plans.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// `true` iff no plan is resident.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The configured bound on resident plans.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// `true` iff a plan for `key` is currently resident.
    pub fn contains(&self, key: &TranslationKey) -> bool {
        self.entries.contains_key(key)
    }

    /// Lifetime admission counters.
    pub fn stats(&self) -> PlanCacheStats {
        self.stats
    }
}
