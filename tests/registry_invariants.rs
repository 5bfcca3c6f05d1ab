//! Lifecycle invariants of the query registry (`TreeServer::register` /
//! `deregister`) and the multiplexed snapshot read path:
//!
//! * **registration under live ingest** — queries attached while a feeder
//!   races the writer serve answers equal to a fresh-engine oracle on the
//!   snapshot's own tree, and the attach never stalls or reorders ingest;
//! * **plan-cache identity** — a re-admitted query is a cache hit on the
//!   process-wide plan cache and serves exactly the same answers, and two
//!   servers plus a standalone engine admitting one query share one
//!   `Arc<QueryPlan>`;
//! * **pinned-generation pagination** — a `PageCursor` walks one immutable
//!   snapshot to completion regardless of concurrent flushes, and is
//!   rejected with `StaleCursor` by any other generation — and by any other
//!   query's reader on the same snapshot;
//! * **deterministic deregistration** — the id dies at the detach point for
//!   *new* snapshots while held snapshots keep serving, and the primary
//!   query is pinned for the server's lifetime.

use std::ops::ControlFlow;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use treenum::automata::wva::spanners;
use treenum::automata::{queries, StepwiseTva};
use treenum::core::TreeEnumerator;
use treenum::enumeration::EnumScratch;
use treenum::serve::{QueryId, ServeConfig, ServeError, TreeServer};
use treenum::trees::generate::{random_tree, TreeShape};
use treenum::trees::unranked::UnrankedTree;
use treenum::trees::valuation::Assignment;
use treenum::trees::{Alphabet, EditFeed, EditStream, Label, Var};

fn sorted(mut v: Vec<Assignment>) -> Vec<Assignment> {
    v.sort();
    v
}

fn sigma() -> Alphabet {
    Alphabet::from_names(["a", "b", "c"])
}

fn select_b(sigma: &Alphabet) -> StepwiseTva {
    queries::select_label(sigma.len(), sigma.get("b").unwrap(), Var(0))
}

/// Distinct runtime queries over the 3-label test alphabet.
fn extra_queries(sigma: &Alphabet) -> Vec<StepwiseTva> {
    let a = sigma.get("a").unwrap();
    let c = sigma.get("c").unwrap();
    vec![
        queries::exists_label(sigma.len(), a),
        queries::select_label(sigma.len(), c, Var(0)),
        queries::has_child_with_label(sigma.len(), a, Var(0)),
    ]
}

/// Answers of `query` on `tree`, from a fresh single-query engine.
fn oracle(tree: &UnrankedTree, query: &StepwiseTva, alphabet_len: usize) -> Vec<Assignment> {
    sorted(TreeEnumerator::new(tree.clone(), query, alphabet_len).assignments())
}

#[test]
fn registration_under_live_ingest_matches_oracle() {
    let mut sigma = sigma();
    let labels: Vec<Label> = sigma.labels().collect();
    let query = select_b(&sigma);
    let tree = random_tree(&mut sigma, 80, TreeShape::Random, 17);
    let server = Arc::new(TreeServer::new(
        vec![tree.clone()],
        &query,
        sigma.len(),
        ServeConfig::default(),
    ));
    let stop = Arc::new(AtomicBool::new(false));
    let feeder = {
        let server = Arc::clone(&server);
        let stop = Arc::clone(&stop);
        let mut feed = EditFeed::new(&tree, EditStream::skewed(labels, 41));
        std::thread::spawn(move || {
            let mut sent = 0usize;
            'feed: while !stop.load(Ordering::Relaxed) {
                // E9 feeder discipline: retry the same op on explicit
                // backpressure — dropping it would fork the feed's shadow
                // tree from the server's state, making later ops (a delete
                // of a node the server never saw inserted) inapplicable.
                let op = feed.next_op();
                loop {
                    match server.ingest(0, op) {
                        Ok(()) => break,
                        Err(ServeError::Backpressure) => {
                            if stop.load(Ordering::Relaxed) {
                                break 'feed;
                            }
                        }
                        Err(_) => break 'feed,
                    }
                }
                sent += 1;
                if sent.is_multiple_of(16) {
                    std::thread::yield_now();
                }
            }
            sent
        })
    };

    // Register distinct queries while the feeder races the writer.
    let extras = extra_queries(&sigma);
    let mut ids = Vec::new();
    for q in &extras {
        let reg = server.register(q, sigma.len()).unwrap();
        assert_eq!(reg.visible_at.len(), 1);
        ids.push(reg.id);
    }
    // Every snapshot from the attach on serves all queries, and each answers
    // exactly what a fresh engine over the snapshot's own tree answers.
    for _ in 0..4 {
        server.flush(0).unwrap();
        let snap = server.snapshot(0);
        for (id, q) in ids.iter().zip(&extras) {
            let reader = snap.query(*id).unwrap();
            assert_eq!(reader.generation(), snap.generation());
            assert_eq!(
                sorted(reader.assignments()),
                oracle(snap.tree(), q, sigma.len())
            );
        }
        // The primary still answers too, through both surfaces.
        assert_eq!(
            sorted(snap.query(QueryId::PRIMARY).unwrap().assignments()),
            sorted(snap.assignments())
        );
        snap.check_consistency();
    }
    // Deregister one mid-ingest: later snapshots reject the id.
    server.deregister(ids[0]).unwrap();
    server.flush(0).unwrap();
    assert_eq!(
        server.snapshot(0).query(ids[0]).err(),
        Some(ServeError::UnknownQuery)
    );

    stop.store(true, Ordering::Relaxed);
    let sent = feeder.join().unwrap();
    server.flush(0).unwrap();
    let stats = server.shard_stats(0);
    assert_eq!(
        stats.edits_applied as usize, sent,
        "attach/detach must not drop ops"
    );
    // Multiplexing: publications do not scale with Q.  Every generation is
    // logged exactly once (one publication covers all queries), and the only
    // extra generations membership changes cost are their own size-0
    // records — never a per-query republication of data.
    assert_eq!(stats.generation, stats.flushes);
    let log = server.flush_log(0);
    let membership = log.iter().filter(|r| r.size == 0).count() as u64;
    assert_eq!(membership, stats.queries_attached + stats.queries_detached);
    assert_eq!(
        log.iter().map(|r| r.size).sum::<usize>() as u64,
        stats.edits_applied
    );
}

#[test]
fn plan_cache_eviction_then_readmit_preserves_identity() {
    // The plan cache is process-wide, so hit/miss counts depend on which
    // queries other tests in this binary admitted first.  A 5-label alphabet
    // gives these queries fingerprints (`TranslationKey`s include the
    // alphabet size) that no other test here admits.
    let mut sigma = Alphabet::from_names(["a", "b", "c", "d", "e"]);
    let query = select_b(&sigma);
    let tree = random_tree(&mut sigma, 60, TreeShape::Random, 5);
    let server = TreeServer::new(vec![tree], &query, sigma.len(), ServeConfig::default());
    let a = queries::exists_label(sigma.len(), sigma.get("a").unwrap());
    let b = queries::select_label(sigma.len(), sigma.get("c").unwrap(), Var(0));

    let first = server.register(&a, sigma.len()).unwrap();
    assert!(!first.cache_hit);
    assert!(first.compile_ns > 0);

    // Same automaton again: a hit, sharing the cached plan.
    let second = server.register(&a, sigma.len()).unwrap();
    assert!(second.cache_hit);
    assert_eq!(second.compile_ns, 0);
    assert_ne!(
        first.id, second.id,
        "ids are per-registration, never reused"
    );

    let other = server.register(&b, sigma.len()).unwrap();
    assert!(!other.cache_hit);

    // Re-admitting `a` after another query is still a hit (nothing is ever
    // evicted) and must serve identical answers.
    let readmitted = server.register(&a, sigma.len()).unwrap();
    assert!(readmitted.cache_hit);
    server.flush(0).unwrap();
    let snap = server.snapshot(0);
    assert!(Arc::ptr_eq(
        snap.query(first.id).unwrap().plan(),
        snap.query(readmitted.id).unwrap().plan()
    ));
    assert_eq!(
        sorted(snap.query(first.id).unwrap().assignments()),
        sorted(snap.query(readmitted.id).unwrap().assignments()),
        "plan identity is the TranslationKey"
    );

    let reg = server.registry_stats();
    assert_eq!(reg.registered, 5, "primary + four registrations");
    assert_eq!(reg.peak_registered, 5);
    assert_eq!(reg.registrations, 4);
    assert_eq!(reg.deregistrations, 0);
    assert_eq!(reg.plan_hits, 2);
    assert_eq!(reg.plan_misses, 2);
    assert!(reg.compile_ns_total >= reg.max_compile_ns);
    assert!(reg.max_compile_ns > 0);
    // The server-level roll-up carries the same registry view.
    assert_eq!(server.stats().registry.registrations, 4);
}

#[test]
fn servers_and_engines_share_one_plan_per_query() {
    let mut sigma = sigma();
    let primary = select_b(&sigma);
    let query = queries::has_child_with_label(sigma.len(), sigma.get("b").unwrap(), Var(0));
    let tree = random_tree(&mut sigma, 40, TreeShape::Random, 19);
    let servers: Vec<TreeServer> = (0..2)
        .map(|_| {
            TreeServer::new(
                vec![tree.clone()],
                &primary,
                sigma.len(),
                ServeConfig::default(),
            )
        })
        .collect();
    let ids: Vec<QueryId> = servers
        .iter()
        .map(|server| server.register(&query, sigma.len()).unwrap().id)
        .collect();
    let engine = TreeEnumerator::new(tree, &query, sigma.len());
    for (server, &id) in servers.iter().zip(&ids) {
        let snap = server.snapshot(0);
        assert!(
            Arc::ptr_eq(snap.query(id).unwrap().plan(), engine.plan()),
            "a registered query must hold the process's one plan"
        );
        assert!(Arc::ptr_eq(server.plan(), servers[0].plan()));
    }
}

#[test]
fn pinned_generation_pagination_survives_concurrent_flushes() {
    let mut sigma = sigma();
    let labels: Vec<Label> = sigma.labels().collect();
    let query = select_b(&sigma);
    let tree = random_tree(&mut sigma, 120, TreeShape::Random, 23);
    let server = TreeServer::new(
        vec![tree.clone()],
        &query,
        sigma.len(),
        ServeConfig::default(),
    );
    let mut feed = EditFeed::new(&tree, EditStream::skewed(labels, 13));
    server.ingest_batch(0, &feed.next_batch(40)).unwrap();
    server.flush(0).unwrap();

    let snap = server.snapshot(0);
    let reader = snap.query(QueryId::PRIMARY).unwrap();
    let expected = reader.assignments();
    assert!(expected.len() >= 4, "need enough answers to paginate");

    // Walk the whole result set in pages of 3, flushing new generations
    // between pages: the held snapshot pins the generation, so the cursor
    // stays valid and the union is exactly the snapshot's answer set.
    let mut paged = Vec::new();
    let mut cursor = None;
    loop {
        let page = reader.page(cursor, 3).unwrap();
        assert!(page.answers.len() <= 3);
        paged.extend(page.answers);
        // Perturb the server mid-scan.
        server.ingest_batch(0, &feed.next_batch(8)).unwrap();
        server.flush(0).unwrap();
        match page.next {
            Some(next) => {
                assert_eq!(next.generation(), snap.generation());
                assert!(next.position() > paged.len() - 3 || paged.len() <= 3);
                cursor = Some(next);
            }
            None => break,
        }
    }
    assert_eq!(paged, expected, "pages concatenate to the full enumeration");

    // A cursor minted here is rejected by any other generation.
    let newer = server.snapshot(0);
    assert_ne!(newer.generation(), snap.generation());
    let stale = reader.page(None, 3).unwrap().next.expect("mid-scan cursor");
    assert_eq!(
        newer
            .query(QueryId::PRIMARY)
            .unwrap()
            .page(Some(stale), 3)
            .err(),
        Some(ServeError::StaleCursor)
    );
}

#[test]
fn cursors_are_bound_to_the_query_that_minted_them() {
    let mut sigma = sigma();
    let query = select_b(&sigma);
    let tree = random_tree(&mut sigma, 90, TreeShape::Random, 41);
    let server = TreeServer::new(vec![tree], &query, sigma.len(), ServeConfig::default());
    let other = queries::select_label(sigma.len(), sigma.get("c").unwrap(), Var(0));
    let other_id = server.register(&other, sigma.len()).unwrap().id;
    let snap = server.snapshot(0);
    let primary = snap.query(QueryId::PRIMARY).unwrap();
    let reader = snap.query(other_id).unwrap();

    let cursor = primary
        .page(None, 2)
        .unwrap()
        .next
        .expect("mid-scan cursor");
    assert_eq!(cursor.query(), QueryId::PRIMARY);
    assert_eq!(cursor.generation(), reader.generation(), "same snapshot");
    // Same generation, different query: rejected on both page paths
    // instead of silently paging the other query from this offset.
    assert_eq!(
        reader.page(Some(cursor), 2).err(),
        Some(ServeError::StaleCursor)
    );
    let mut scratch = EnumScratch::new();
    assert_eq!(
        reader.page_with(&mut scratch, Some(cursor), 2).err(),
        Some(ServeError::StaleCursor)
    );
    // Each reader keeps accepting its own cursors.
    let own = reader.page(None, 2).unwrap().next.expect("mid-scan cursor");
    assert_eq!(own.query(), other_id);
    assert!(reader.page(Some(own), 2).is_ok());
    assert!(primary.page(Some(cursor), 2).is_ok());
    assert_eq!(
        primary.page(Some(own), 2).err(),
        Some(ServeError::StaleCursor)
    );
}

#[test]
fn deregistration_is_deterministic_and_primary_is_pinned() {
    let mut sigma = sigma();
    let query = select_b(&sigma);
    let tree = random_tree(&mut sigma, 50, TreeShape::Random, 31);
    let server = TreeServer::new(vec![tree], &query, sigma.len(), ServeConfig::default());
    let q = queries::exists_label(sigma.len(), sigma.get("a").unwrap());

    let reg = server.register(&q, sigma.len()).unwrap();
    assert_eq!(server.registered_queries(), vec![QueryId::PRIMARY, reg.id]);
    let held = server.snapshot(0);
    assert!(held.queries().contains(&reg.id));
    let held_answers = sorted(held.query(reg.id).unwrap().assignments());

    server.deregister(reg.id).unwrap();
    // New snapshots reject the id; the held one keeps serving immutably.
    assert_eq!(
        server.snapshot(0).query(reg.id).err(),
        Some(ServeError::UnknownQuery)
    );
    assert_eq!(
        sorted(held.query(reg.id).unwrap().assignments()),
        held_answers
    );
    drop(held);

    // Double deregistration, unknown ids, and the pinned primary all report
    // UnknownQuery without touching any shard.
    assert_eq!(server.deregister(reg.id), Err(ServeError::UnknownQuery));
    assert_eq!(
        server.deregister(QueryId::PRIMARY),
        Err(ServeError::UnknownQuery)
    );
    assert_eq!(server.registered_queries(), vec![QueryId::PRIMARY]);

    let stats = server.shard_stats(0);
    assert_eq!(stats.queries_attached, 1);
    assert_eq!(stats.queries_detached, 1);
    assert_eq!(stats.queries_served, 1, "back to the primary alone");
    let reg_stats = server.stats().registry;
    assert_eq!(reg_stats.registered, 1);
    assert_eq!(reg_stats.deregistrations, 1);
}

#[test]
fn register_spanner_serves_word_matches() {
    // A word shard: the standard word encoding (virtual root over one leaf
    // per letter) that `register_spanner` compiles against.
    let letters = 3usize;
    let a = Label(0);
    let word: Vec<Label> = "abcabca"
        .bytes()
        .map(|b| Label((b - b'a') as u32))
        .collect();
    let mut tree = UnrankedTree::new(Label(letters as u32));
    let root = tree.root();
    for &l in &word {
        tree.insert_last_child(root, l);
    }
    // The primary query lives over the same letters+1 alphabet.
    let primary = queries::exists_label(letters + 1, a);
    let server = TreeServer::new(vec![tree], &primary, letters + 1, ServeConfig::default());

    let wva = spanners::select_letter(letters, a, Var(0));
    let reg = server.register_spanner(&wva, letters).unwrap();
    let snap = server.snapshot(0);
    assert_eq!(
        snap.query(reg.id).unwrap().count(),
        wva.satisfying_assignments(&word).len()
    );
}

#[test]
fn one_scratch_serves_every_registered_query() {
    // Scratch pools are structure-agnostic: a single `EnumScratch` drives
    // engines of *different* queries on one multiplexed snapshot.
    let mut sigma = sigma();
    let query = select_b(&sigma);
    let tree = random_tree(&mut sigma, 70, TreeShape::Random, 3);
    let server = TreeServer::new(vec![tree], &query, sigma.len(), ServeConfig::default());
    let extras = extra_queries(&sigma);
    let ids: Vec<QueryId> = extras
        .iter()
        .map(|q| server.register(q, sigma.len()).unwrap().id)
        .collect();
    let snap = server.snapshot(0);
    let mut scratch = EnumScratch::new();
    for id in ids {
        let reader = snap.query(id).unwrap();
        let mut with_shared = Vec::new();
        reader.for_each_with(&mut scratch, &mut |a| {
            with_shared.push(a);
            ControlFlow::Continue(())
        });
        assert_eq!(sorted(with_shared), sorted(reader.assignments()));
    }
}
