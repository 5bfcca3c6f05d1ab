//! Whole-server model oracle: seeded sequences of public-API operations
//! driven against a durable, chaos-injected [`TreeServer`] and checked
//! against a shadow model.
//!
//! The model is one shadow tree per shard plus the list of registered
//! queries.  An operation list is generated from a seed and mixes:
//!
//! * `ingest` / `ingest_batch` of ops drawn from a seeded edit stream over
//!   the shadow tree (so any sub-list of operations stays applicable);
//! * `flush` barriers, each followed by a checkpoint;
//! * `register` / `deregister` of queries from a small pool;
//! * paginated scans that pin a snapshot, then page it with
//!   `QueryReader::page` across later flushes, registrations and restarts;
//! * dropping the server and bringing it back with `TreeServer::recover`,
//!   then re-registering every query it served.
//!
//! Every server runs with a seeded [`ChaosSchedule`] (apply panics, twice
//! panicking batches that heal from storage, stalled publications), so the
//! supervision ladder runs under the same checks.
//!
//! A checkpoint compares the shard's published tree with its shadow, its
//! membership with the model's, and each registered query's answer count
//! and sorted-answer hash with a fresh `TreeEnumerator::new` on the shadow.
//! A completed scan compares its pages with the answers of its pinned
//! generation and runs `check_consistency` on the pinned snapshot, which
//! has outlived every flush published since it was taken.
//! A failing sequence is shrunk by removing halves, quarters, … of the
//! operation list while it still fails, and the seed plus the shrunk list
//! are printed.  Sizes shrink in debug builds through `oracle_scale`;
//! `TREENUM_FULL_ORACLE=1` restores the full counts.

use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;
use treenum::automata::{queries, StepwiseTva};
use treenum::core::{QueryPlan, TreeEnumerator};
use treenum::serve::{
    ChaosSchedule, DurabilityConfig, PageCursor, QueryId, ServeConfig, ServeError, Snapshot,
    SyncPolicy, TreeServer,
};
use treenum::trees::generate::{oracle_scale, random_tree, TreeShape};
use treenum::trees::unranked::UnrankedTree;
use treenum::trees::valuation::Assignment;
use treenum::trees::{Alphabet, EditStream, Label, Var};
use treenum::wal::{DiskFs, Storage};

const SHARDS: usize = 2;
/// Runtime-registered queries are capped so a long sequence stays cheap.
const MAX_EXTRA_QUERIES: usize = 4;

/// One public-API step of a model run.  Steps carry seeds and picks, not
/// node ids, so every sub-list of a generated list is still a valid run.
#[derive(Clone, Debug)]
enum Step {
    /// `n` ops from a stream seeded with `seed`, through `ingest_batch` or
    /// one `ingest` call per op.
    Ingest {
        shard: usize,
        n: usize,
        seed: u64,
        batch: bool,
    },
    /// A `flush` barrier on `shard`, then a checkpoint of it.
    Flush { shard: usize },
    /// Registers query `query % pool` on every shard.
    Register { query: usize },
    /// Deregisters the `pick`-th runtime-registered query (if any).
    Deregister { pick: usize },
    /// Flushes `shard`, pins its snapshot and opens a scan of the
    /// `pick`-th registered query in pages of `k`.
    OpenScan { shard: usize, pick: usize, k: usize },
    /// Reads the next page of every open scan.
    NextPages,
    /// Drops the server (its writers drain) and recovers it from disk.
    Recover,
}

/// xorshift64*: the model's only randomness, a function of the seed.
struct Rng(u64);

impl Rng {
    fn new(seed: u64) -> Self {
        Rng(seed ^ 0x9E37_79B9_7F4A_7C15 | 1)
    }

    fn next(&mut self) -> u64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        self.0.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }
}

fn generate(seed: u64, len: usize) -> Vec<Step> {
    let mut rng = Rng::new(seed);
    (0..len)
        .map(|_| match rng.below(100) {
            0..=34 => Step::Ingest {
                shard: rng.below(SHARDS),
                n: 1 + rng.below(24),
                seed: rng.next(),
                batch: rng.below(2) == 0,
            },
            35..=54 => Step::Flush {
                shard: rng.below(SHARDS),
            },
            55..=62 => Step::Register {
                query: rng.below(64),
            },
            63..=67 => Step::Deregister {
                pick: rng.below(64),
            },
            68..=75 => Step::OpenScan {
                shard: rng.below(SHARDS),
                pick: rng.below(64),
                k: 1 + rng.below(8),
            },
            76..=95 => Step::NextPages,
            _ => Step::Recover,
        })
        .collect()
}

/// The query pool: index 0 is the primary.
fn pool(sigma: &Alphabet) -> Vec<StepwiseTva> {
    let a = sigma.get("a").unwrap();
    let b = sigma.get("b").unwrap();
    let c = sigma.get("c").unwrap();
    vec![
        queries::select_label(sigma.len(), b, Var(0)),
        queries::ancestor_descendant(sigma.len(), a, Var(0), b, Var(1)),
        queries::exists_label(sigma.len(), c),
        queries::has_child_with_label(sigma.len(), a, Var(0)),
        queries::select_label(sigma.len(), c, Var(0)),
    ]
}

/// Answer count and hash of the sorted answers.
fn digest(mut answers: Vec<Assignment>) -> (usize, u64) {
    answers.sort();
    let mut h = DefaultHasher::new();
    answers.hash(&mut h);
    (answers.len(), h.finish())
}

fn temp_dir(seed: u64) -> PathBuf {
    static SEQ: AtomicU64 = AtomicU64::new(0);
    let n = SEQ.fetch_add(1, Ordering::Relaxed);
    std::env::temp_dir().join(format!("treenum-model-{seed}-{}-{n}", std::process::id()))
}

/// Silences the panic hook for injected chaos panics and, while a run is
/// being shrunk, for the expected failures of its candidates.
fn quiet_panics() {
    use std::sync::Once;
    static ONCE: Once = Once::new();
    ONCE.call_once(|| {
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            let injected = info
                .payload()
                .downcast_ref::<String>()
                .is_some_and(|s| s.starts_with("chaos: "));
            if !injected && !SHRINKING.load(Ordering::Relaxed) {
                prev(info);
            }
        }));
    });
}

static SHRINKING: AtomicBool = AtomicBool::new(false);

/// An open paginated scan over a pinned snapshot.
struct Scan {
    snap: Snapshot,
    id: QueryId,
    k: usize,
    cursor: Option<PageCursor>,
    got: Vec<Assignment>,
    expected: (usize, u64),
}

struct Model {
    sigma_len: usize,
    labels: Vec<Label>,
    pool: Vec<StepwiseTva>,
    plan: Arc<QueryPlan>,
    storage: Arc<dyn Storage>,
    durability: DurabilityConfig,
    shadows: Vec<UnrankedTree>,
    /// Registered queries as (server id, pool index); index 0 is the primary.
    registered: Vec<(QueryId, usize)>,
    scans: Vec<Scan>,
    server: Option<TreeServer>,
}

impl Model {
    fn new(seed: u64, dir: PathBuf) -> Self {
        let mut sigma = Alphabet::from_names(["a", "b", "c"]);
        let shadows: Vec<UnrankedTree> = (0..SHARDS)
            .map(|s| {
                random_tree(
                    &mut sigma,
                    30 + 10 * s,
                    TreeShape::Random,
                    seed * 7 + s as u64,
                )
            })
            .collect();
        let pool = pool(&sigma);
        let plan = QueryPlan::for_query(&pool[0], sigma.len());
        let storage: Arc<dyn Storage> = Arc::new(DiskFs);
        let durability = DurabilityConfig {
            sync: SyncPolicy::OnFlush,
            snapshot_every: 3,
            segment_bytes: 1024,
            keep_snapshots: 2,
            ..DurabilityConfig::new(dir)
        };
        let chaos = ChaosSchedule::seeded(seed, 3, 24, Duration::from_millis(2));
        let server = TreeServer::with_options(
            shadows.clone(),
            Arc::clone(&plan),
            ServeConfig::default(),
            Some((&durability, Arc::clone(&storage))),
            Some(Arc::new(chaos)),
        )
        .expect("create durable server");
        Model {
            sigma_len: sigma.len(),
            labels: sigma.labels().collect(),
            pool,
            plan,
            storage,
            durability,
            shadows,
            registered: vec![(QueryId::PRIMARY, 0)],
            scans: Vec::new(),
            server: Some(server),
        }
    }

    fn server(&self) -> &TreeServer {
        self.server.as_ref().expect("server is up between steps")
    }

    fn expected(&self, shard: usize, query: usize) -> (usize, u64) {
        let engine = TreeEnumerator::new(
            self.shadows[shard].clone(),
            &self.pool[query],
            self.sigma_len,
        );
        digest(engine.assignments())
    }

    fn step(&mut self, step: &Step) {
        match *step {
            Step::Ingest {
                shard,
                n,
                seed,
                batch,
            } => {
                let stream = if seed % 2 == 0 {
                    EditStream::balanced_mix
                } else {
                    EditStream::skewed
                };
                let mut stream = stream(self.labels.clone(), seed);
                let ops: Vec<_> = (0..n)
                    .map(|_| stream.next_applied(&mut self.shadows[shard]))
                    .collect();
                if batch {
                    self.server()
                        .ingest_batch(shard, &ops)
                        .expect("ingest_batch");
                } else {
                    for &op in &ops {
                        self.server().ingest(shard, op).expect("ingest");
                    }
                }
            }
            Step::Flush { shard } => self.checkpoint(shard),
            Step::Register { query } => {
                if self.registered.len() > MAX_EXTRA_QUERIES {
                    return;
                }
                let query = query % self.pool.len();
                let reg = self
                    .server()
                    .register(&self.pool[query], self.sigma_len)
                    .expect("register");
                assert_eq!(reg.visible_at.len(), SHARDS);
                for (shard, &g) in reg.visible_at.iter().enumerate() {
                    let snap = self.server().snapshot(shard);
                    assert!(snap.generation() >= g);
                    assert!(snap.query(reg.id).is_ok(), "registered query not visible");
                }
                self.registered.push((reg.id, query));
            }
            Step::Deregister { pick } => {
                if self.registered.len() < 2 {
                    return;
                }
                let (id, _) = self
                    .registered
                    .remove(1 + pick % (self.registered.len() - 1));
                self.server().deregister(id).expect("deregister");
                assert_eq!(
                    self.server().deregister(id),
                    Err(ServeError::UnknownQuery),
                    "a deregistered id must stay dead"
                );
                for shard in 0..SHARDS {
                    let snap = self.server().snapshot(shard);
                    assert_eq!(snap.query(id).err(), Some(ServeError::UnknownQuery));
                }
            }
            Step::OpenScan { shard, pick, k } => {
                self.checkpoint(shard);
                let (id, query) = self.registered[pick % self.registered.len()];
                let snap = self.server().snapshot(shard);
                let expected = self.expected(shard, query);
                self.scans.push(Scan {
                    snap,
                    id,
                    k,
                    cursor: None,
                    got: Vec::new(),
                    expected,
                });
            }
            Step::NextPages => {
                for scan in &mut self.scans {
                    let reader = scan
                        .snap
                        .query(scan.id)
                        .expect("pinned query stays readable");
                    let page = reader.page(scan.cursor, scan.k).expect("page");
                    assert!(page.answers.len() <= scan.k);
                    scan.got.extend(page.answers);
                    scan.cursor = page.next;
                }
                let done: Vec<Scan>;
                (done, self.scans) = std::mem::take(&mut self.scans)
                    .into_iter()
                    .partition(|s| s.cursor.is_none());
                for scan in done {
                    assert_eq!(
                        digest(scan.got),
                        scan.expected,
                        "a scan of query {:?} at generation {} differs from the oracle",
                        scan.id,
                        scan.snap.generation()
                    );
                    // The writer must have left the pinned snapshot's whole
                    // structure intact, not only the scanned answers.
                    scan.snap.check_consistency();
                }
            }
            Step::Recover => self.recover(),
        }
    }

    /// Flushes `shard` and checks its published state against the model.
    fn checkpoint(&self, shard: usize) {
        let server = self.server();
        let generation = server.flush(shard).expect("flush must ack Ok");
        let snap = server.snapshot(shard);
        assert!(snap.generation() >= generation);
        assert!(
            snap.tree().structurally_equal(&self.shadows[shard]),
            "shard {shard}: published tree differs from the shadow"
        );
        let ids: Vec<QueryId> = self.registered.iter().map(|&(id, _)| id).collect();
        assert_eq!(snap.queries(), ids, "shard {shard}: membership");
        for &(id, query) in &self.registered {
            let got = digest(snap.query(id).unwrap().assignments());
            assert_eq!(
                got,
                self.expected(shard, query),
                "shard {shard}: query {id:?} (pool {query}) at generation {}",
                snap.generation()
            );
        }
        // The audit trail: generation g is the first g flush records.
        let stats = server.shard_stats(shard);
        let log = server.flush_log(shard);
        assert_eq!(log.len() as u64, stats.generation);
        assert_eq!(
            log.iter().map(|r| r.size as u64).sum::<u64>(),
            stats.edits_applied
        );
    }

    fn recover(&mut self) {
        drop(self.server.take());
        let (server, outcome) = TreeServer::recover_with_storage(
            Arc::clone(&self.plan),
            ServeConfig::default(),
            &self.durability,
            Arc::clone(&self.storage),
        )
        .expect("recover");
        assert_eq!(outcome.shards.len(), SHARDS);
        assert_eq!(
            outcome.quarantined(),
            0,
            "a clean restart must not quarantine"
        );
        self.server = Some(server);
        // Membership does not survive a restart: re-register it in order.
        let queries: Vec<usize> = self.registered.iter().skip(1).map(|&(_, q)| q).collect();
        self.registered.truncate(1);
        for query in queries {
            let reg = self
                .server()
                .register(&self.pool[query], self.sigma_len)
                .expect("re-register after recovery");
            self.registered.push((reg.id, query));
        }
        for shard in 0..SHARDS {
            self.checkpoint(shard);
        }
    }

    /// Final checks: every shard, then every scan still open, to the end.
    fn finish(&mut self) {
        for shard in 0..SHARDS {
            self.checkpoint(shard);
            assert!(self.server().shard_stats(shard).queue_depth == 0);
        }
        while !self.scans.is_empty() {
            self.step(&Step::NextPages);
        }
    }
}

/// Runs `steps` from a fresh server; a panic anywhere is the failure.
fn run(seed: u64, steps: &[Step]) -> Result<(), String> {
    let dir = temp_dir(seed);
    let result = catch_unwind(AssertUnwindSafe(|| {
        let mut model = Model::new(seed, dir.clone());
        for step in steps {
            model.step(step);
        }
        model.finish();
    }));
    let _ = std::fs::remove_dir_all(&dir);
    result.map_err(|payload| {
        payload
            .downcast_ref::<String>()
            .cloned()
            .or_else(|| payload.downcast_ref::<&str>().map(|s| s.to_string()))
            .unwrap_or_else(|| "non-string panic".to_owned())
    })
}

/// Removes halves, then quarters, … of `items` while `still_fails` holds,
/// within a budget of `budget` candidate runs.
fn shrink<T: Clone>(
    mut items: Vec<T>,
    mut budget: usize,
    mut still_fails: impl FnMut(&[T]) -> bool,
) -> Vec<T> {
    let mut chunk = items.len() / 2;
    while chunk >= 1 && budget > 0 {
        let mut at = 0;
        while at < items.len() && budget > 0 {
            budget -= 1;
            let mut candidate = items.clone();
            candidate.drain(at..(at + chunk).min(items.len()));
            if still_fails(&candidate) {
                items = candidate;
            } else {
                at += chunk;
            }
        }
        chunk /= 2;
    }
    items
}

#[test]
fn seeded_operation_sequences_match_the_model() {
    quiet_panics();
    let seeds = oracle_scale(16, 3) as u64;
    let len = oracle_scale(200, 60);
    for seed in 0..seeds {
        let steps = generate(seed, len);
        if let Err(err) = run(seed, &steps) {
            SHRINKING.store(true, Ordering::Relaxed);
            let mut last = err;
            let steps = shrink(steps, 80, |candidate| match run(seed, candidate) {
                Err(e) => {
                    last = e;
                    true
                }
                Ok(()) => false,
            });
            SHRINKING.store(false, Ordering::Relaxed);
            panic!(
                "server model failed for seed {seed}: {last}\nshrunk to {} steps: {steps:#?}",
                steps.len()
            );
        }
    }
}

#[test]
fn shrinking_keeps_a_failing_sub_list() {
    // A synthetic failure: a list fails iff a `Recover` step follows a
    // `Register` step.  The shrunk list must still fail and hold exactly
    // the two steps that make it fail.
    let fails = |steps: &[Step]| {
        let reg = steps
            .iter()
            .position(|s| matches!(s, Step::Register { .. }));
        reg.is_some_and(|r| steps[r..].iter().any(|s| matches!(s, Step::Recover)))
    };
    let mut steps = generate(5, 40);
    steps.insert(3, Step::Register { query: 1 });
    steps.push(Step::Recover);
    let shrunk = shrink(steps, usize::MAX, fails);
    assert!(fails(&shrunk));
    assert_eq!(shrunk.len(), 2, "{shrunk:?}");
}
