//! The query registry: runtime admission of automaton/spanner queries into a
//! live [`crate::TreeServer`].
//!
//! Registration admits the query through the process-wide plan cache
//! ([`treenum_core::QueryPlan::admit`], keyed by the canonical
//! [`treenum_core::TranslationKey`] fingerprint) — the `Arc<QueryPlan>` every
//! engine and server in the process shares — and *attaches* it to every
//! shard without stopping ingest: the attach rides the shard's ordinary
//! ingest queue, so it is ordered after everything enqueued before it, and
//! the shard publishes one membership-only generation whose snapshot carries
//! the new query.  From then on every published generation is **multiplexed**
//! across all registered queries: Q concurrent queries share one snapshot
//! refcount per publication instead of Q republications.
//!
//! Deregistration is the mirror image: the writer drops the query's index
//! at the detach point and publishes the narrowed membership; the last
//! reader-visible copy of the query's index state is released when the final
//! snapshot pinning it is dropped and the retired copy is reclaimed.

use treenum_core::PlanAdmission;

/// Identity of one registered query on a [`crate::TreeServer`].
///
/// Ids are handed out by [`crate::TreeServer::register`] in registration
/// order and are never reused, so a stale id from a deregistered query can
/// only yield [`crate::ServeError::UnknownQuery`] — never alias a newer
/// query.  Registering the same automaton twice yields two distinct ids
/// (sharing one cached plan); deregistration is per-id.
///
/// ```
/// use treenum_serve::QueryId;
/// assert_eq!(QueryId::PRIMARY.raw(), 0);
/// ```
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct QueryId(u64);

impl QueryId {
    /// The query the server was constructed with.  It is pinned for the
    /// server's lifetime because [`crate::Snapshot`]'s primary-query
    /// methods ([`crate::Snapshot::for_each`], [`crate::Snapshot::count`],
    /// …) read the first query of every copy: deregistering it reports
    /// [`crate::ServeError::UnknownQuery`].  (The tree, the flush-log
    /// sharing signals and snapshot persistence belong to the shard's
    /// shared document, not to any query.)
    pub const PRIMARY: QueryId = QueryId(0);

    pub(crate) fn new(raw: u64) -> Self {
        QueryId(raw)
    }

    /// The numeric registration index (0 = the primary query).
    pub fn raw(self) -> u64 {
        self.0
    }
}

impl std::fmt::Display for QueryId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "query#{}", self.0)
    }
}

/// Receipt of a successful [`crate::TreeServer::register`] call.
///
/// `visible_at[s]` is shard `s`'s publication generation at the attach
/// point: every snapshot of that shard at a generation `>= visible_at[s]`
/// carries the query (take one and call [`crate::Snapshot::query`]).
#[derive(Clone, Debug)]
pub struct QueryRegistration {
    /// The registry-assigned identity of the new query.
    pub id: QueryId,
    /// Per-shard generation from which the query is readable.
    pub visible_at: Vec<u64>,
    /// `true` iff the plan was already resident in the process-wide plan
    /// cache (no compile was run for this registration).
    pub cache_hit: bool,
    /// Wall-clock nanoseconds the admission spent compiling (0 on a cache
    /// hit) — the "admission latency" numerator of the E11 experiment.
    pub compile_ns: u64,
}

/// Registry state behind the server's mutex: id allocation, the active-query
/// list, and this server's admission counters.
pub(crate) struct RegistryInner {
    next: u64,
    pub(crate) active: Vec<QueryId>,
    pub(crate) registrations: u64,
    pub(crate) deregistrations: u64,
    pub(crate) peak: usize,
    pub(crate) plan_hits: u64,
    pub(crate) plan_misses: u64,
    pub(crate) compile_ns_total: u64,
    pub(crate) max_compile_ns: u64,
}

impl RegistryInner {
    pub(crate) fn new() -> Self {
        RegistryInner {
            next: 1,
            active: vec![QueryId::PRIMARY],
            registrations: 0,
            deregistrations: 0,
            peak: 1,
            plan_hits: 0,
            plan_misses: 0,
            compile_ns_total: 0,
            max_compile_ns: 0,
        }
    }

    /// Counts one plan admission and allocates the next never-reused query
    /// id for it.
    pub(crate) fn allocate(&mut self, admission: &PlanAdmission) -> QueryId {
        if admission.cache_hit {
            self.plan_hits += 1;
        } else {
            self.plan_misses += 1;
            self.compile_ns_total += admission.compile_ns;
            self.max_compile_ns = self.max_compile_ns.max(admission.compile_ns);
        }
        let id = QueryId::new(self.next);
        self.next += 1;
        id
    }

    pub(crate) fn note_registered(&mut self, id: QueryId) {
        self.active.push(id);
        self.registrations += 1;
        self.peak = self.peak.max(self.active.len());
    }
}
