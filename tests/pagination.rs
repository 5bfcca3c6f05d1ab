//! Differential pagination oracle: pages must concatenate to exactly the
//! `for_each` order, whether a page resumes the enumeration parked in the
//! scratch by the previous page or has to restart and skip.
//!
//! * **warm resumes** — a scan with one scratch resumes every page after the
//!   first (`EnumStats::pages_resumed`), each resumed page enumerates `k`
//!   answers (its first one is the previous page's look-ahead), never
//!   `position + k`, and warm scans keep `per_answer_allocs` flat;
//! * **every miss path** — a replayed cursor, out-of-order pages, two
//!   interleaved scans on one scratch, a second reader with its own
//!   scratch, a lost `try_lock` on the engine's pooled scratch, and
//!   `apply_batch` between pages all restart (`EnumStats::pages_restarted`)
//!   and still return the right page;
//! * the same through the serving layer's `QueryReader::page`/`page_with`.
//!
//! Select, pair and spanner queries, in both `BoxEnumMode`s, with page sizes
//! {1, 2, 3, 256, > total}.

use std::ops::ControlFlow;
use treenum::automata::wva::spanners;
use treenum::automata::{queries, StepwiseTva};
use treenum::core::TreeEnumerator;
use treenum::enumeration::boxenum::BoxEnumMode;
use treenum::enumeration::EnumScratch;
use treenum::serve::{QueryId, ServeConfig, TreeServer};
use treenum::trees::generate::{random_tree, TreeShape};
use treenum::trees::unranked::UnrankedTree;
use treenum::trees::valuation::Assignment;
use treenum::trees::{Alphabet, EditFeed, EditStream, Label, Var};

const MODES: [BoxEnumMode; 2] = [BoxEnumMode::Indexed, BoxEnumMode::Reference];

/// A word encoded the way `WordEnumerator` does: a virtual root labelled
/// `letters` over one leaf per letter.
fn word_tree(word: &str, letters: usize) -> UnrankedTree {
    let mut tree = UnrankedTree::new(Label(letters as u32));
    let root = tree.root();
    for b in word.bytes() {
        tree.insert_last_child(root, Label((b - b'a') as u32));
    }
    tree
}

/// (name, tree, query, alphabet length) for the select, pair and spanner
/// families.
fn families() -> Vec<(&'static str, UnrankedTree, StepwiseTva, usize)> {
    let mut sigma = Alphabet::from_names(["a", "b", "c"]);
    let a = sigma.get("a").unwrap();
    let b = sigma.get("b").unwrap();
    let select = queries::select_label(sigma.len(), b, Var(0));
    let pair = queries::ancestor_descendant(sigma.len(), a, Var(0), b, Var(1));
    let select_tree = random_tree(&mut sigma, 90, TreeShape::Random, 5);
    let pair_tree = random_tree(&mut sigma, 40, TreeShape::Deep, 8);
    let letters = 3;
    let spanner = spanners::runs_of(letters, Label(0), Var(0), Var(1)).to_stepwise(Label(3));
    let word = word_tree("aabacaaabaacbaaabcaaaba", letters);
    vec![
        ("select", select_tree, select, sigma.len()),
        ("pair", pair_tree, pair, sigma.len()),
        ("spanner", word, spanner, letters + 1),
    ]
}

fn engines() -> Vec<(String, TreeEnumerator)> {
    let mut out = Vec::new();
    for (name, tree, query, alphabet) in families() {
        for mode in MODES {
            let mut engine = TreeEnumerator::new(tree.clone(), &query, alphabet);
            engine.set_box_enum_mode(mode);
            out.push((format!("{name} [{mode:?}]"), engine));
        }
    }
    out
}

fn page_sizes(total: usize) -> [usize; 5] {
    [1, 2, 3, 256, total + 1]
}

/// The `for_each` order.
fn order(engine: &TreeEnumerator) -> Vec<Assignment> {
    let mut out = Vec::new();
    engine.for_each(&mut |a| {
        out.push(a);
        ControlFlow::Continue(())
    });
    out
}

/// The page the oracle expects at `position`: (answers, more).
fn expected_page(all: &[Assignment], position: usize, k: usize) -> (Vec<Assignment>, bool) {
    let start = position.min(all.len());
    let end = (position + k).min(all.len());
    (all[start..end].to_vec(), end < all.len())
}

/// One front-to-back scan with `scratch`, checking the per-page counter
/// deltas; returns the concatenated pages.
fn scan(
    engine: &TreeEnumerator,
    scratch: &mut EnumScratch,
    k: usize,
    ctx: &str,
) -> Vec<Assignment> {
    let mut out = Vec::new();
    let mut position = 0;
    loop {
        let before = scratch.stats();
        let (answers, more) = engine.page_with(scratch, position, k);
        let after = scratch.stats();
        let enumerated = after.answers - before.answers;
        assert_eq!(
            after.pages_restarted, before.pages_restarted,
            "{ctx}: warm scan restarted"
        );
        if position == 0 {
            assert_eq!(after.pages_resumed, before.pages_resumed, "{ctx}");
            if more {
                assert_eq!(
                    enumerated,
                    k as u64 + 1,
                    "{ctx}: first page = k + look-ahead"
                );
            }
        } else {
            assert_eq!(
                after.pages_resumed,
                before.pages_resumed + 1,
                "{ctx}: page {position} not resumed"
            );
            // The page's first answer is the previous page's look-ahead.
            if more {
                assert_eq!(enumerated, k as u64, "{ctx}: resumed page at {position}");
            } else {
                assert!(
                    enumerated <= k as u64,
                    "{ctx}: resumed final page at {position}"
                );
            }
        }
        let n = answers.len();
        out.extend(answers);
        if !more {
            break;
        }
        assert_eq!(n, k, "{ctx}: a non-final page is full");
        position += n;
    }
    out
}

#[test]
fn warm_resumed_pages_concatenate_to_for_each_order() {
    for (name, engine) in engines() {
        let all = order(&engine);
        assert!(
            all.len() >= 4,
            "{name}: too few answers ({}) to paginate",
            all.len()
        );
        for k in page_sizes(all.len()) {
            let ctx = format!("{name} k={k}");
            let mut scratch = EnumScratch::new();
            assert_eq!(scan(&engine, &mut scratch, k, &ctx), all, "{ctx}");
            // Warm-up protocol: a second scan pads the pools; further scans
            // resume every page without touching the allocator.
            let _ = scan(&engine, &mut scratch, k, &ctx);
            let warm = scratch.stats();
            assert_eq!(
                scan(&engine, &mut scratch, k, &ctx),
                all,
                "{ctx}: warm scan"
            );
            let steady = scratch.stats();
            assert_eq!(
                steady.per_answer_allocs, warm.per_answer_allocs,
                "{ctx}: warm resumed pages allocated"
            );
            assert_eq!(steady.relation_clones, warm.relation_clones, "{ctx}");
            // The look-ahead makes the last page exactly the final one, so
            // k = total + 1 is a single page with nothing to resume.
            let pages = all.len().div_ceil(k) as u64;
            assert_eq!(
                steady.pages_resumed - warm.pages_resumed,
                pages - 1,
                "{ctx}"
            );
        }
    }
}

#[test]
fn the_pooled_scratch_resumes_too() {
    for (name, engine) in engines() {
        let all = order(&engine);
        for k in page_sizes(all.len()) {
            let resumed = engine.enum_stats().pages_resumed;
            let mut out = Vec::new();
            let mut position = 0;
            loop {
                let (answers, more) = engine.page(position, k);
                position += answers.len();
                out.extend(answers);
                if !more {
                    break;
                }
            }
            assert_eq!(out, all, "{name} k={k}");
            let pages = all.len().div_ceil(k) as u64;
            assert_eq!(
                engine.enum_stats().pages_resumed - resumed,
                pages - 1,
                "{name} k={k}"
            );
        }
    }
}

#[test]
fn replayed_and_out_of_order_cursors_restart_and_match() {
    for (name, engine) in engines() {
        let all = order(&engine);
        for k in page_sizes(all.len()) {
            let ctx = format!("{name} k={k}");
            let positions: Vec<usize> = (0..all.len()).step_by(k).collect();
            let mut scratch = EnumScratch::new();
            // Replay: every page twice in a row; the second read restarts.
            for &p in &positions {
                let first = engine.page_with(&mut scratch, p, k);
                let before = scratch.stats();
                let replay = engine.page_with(&mut scratch, p, k);
                assert_eq!(first, expected_page(&all, p, k), "{ctx} at {p}");
                assert_eq!(replay, first, "{ctx}: replayed cursor at {p}");
                if p > 0 {
                    assert_eq!(scratch.stats().pages_restarted, before.pages_restarted + 1);
                    assert_eq!(scratch.stats().pages_resumed, before.pages_resumed);
                    // A restart skips the prefix: `p` answers before the page.
                    assert!(scratch.stats().answers - before.answers >= p as u64);
                }
            }
            // Out of order: back to front.
            let mut scratch = EnumScratch::new();
            for &p in positions.iter().rev() {
                let before = scratch.stats();
                assert_eq!(
                    engine.page_with(&mut scratch, p, k),
                    expected_page(&all, p, k),
                    "{ctx}: out-of-order page at {p}"
                );
                assert_eq!(scratch.stats().pages_resumed, before.pages_resumed, "{ctx}");
            }
            // Skipping past the end is an empty final page.
            assert_eq!(
                engine.page_with(&mut scratch, all.len() + 3, k),
                (Vec::new(), false)
            );
        }
    }
}

#[test]
fn interleaved_scans_and_second_readers_restart_and_match() {
    let engines = engines();
    for pair in engines.windows(2) {
        let ((name_a, a), (name_b, b)) = (&pair[0], &pair[1]);
        let (all_a, all_b) = (order(a), order(b));
        for k in [1, 2, 3] {
            let ctx = format!("{name_a} / {name_b} k={k}");
            // Two scans of different engines alternating on one scratch:
            // each page finds the other scan's run parked and restarts.
            let mut shared = EnumScratch::new();
            let (mut pa, mut pb) = (0, 0);
            let (mut got_a, mut got_b) = (Vec::new(), Vec::new());
            let (mut more_a, mut more_b) = (true, true);
            while more_a || more_b {
                if more_a {
                    let (answers, more) = a.page_with(&mut shared, pa, k);
                    pa += answers.len();
                    got_a.extend(answers);
                    more_a = more;
                }
                if more_b {
                    let (answers, more) = b.page_with(&mut shared, pb, k);
                    pb += answers.len();
                    got_b.extend(answers);
                    more_b = more;
                }
            }
            assert_eq!(got_a, all_a, "{ctx}: first interleaved scan");
            assert_eq!(got_b, all_b, "{ctx}: second interleaved scan");
            assert!(shared.stats().pages_restarted > 0, "{ctx}");

            // Same engine, two scans with different page sizes on one scratch.
            let mut shared = EnumScratch::new();
            let (mut p1, mut p2) = (0, 0);
            let (mut got1, mut got2) = (Vec::new(), Vec::new());
            while p1 < all_a.len() || p2 < all_a.len() {
                let (x, _) = a.page_with(&mut shared, p1, k);
                p1 += x.len().max(1);
                got1.extend(x);
                let (y, _) = a.page_with(&mut shared, p2, k + 1);
                p2 += y.len().max(1);
                got2.extend(y);
            }
            assert_eq!(got1, all_a, "{ctx}: k-scan interleaved with a (k+1)-scan");
            assert_eq!(got2, all_a, "{ctx}: (k+1)-scan interleaved with a k-scan");
            assert!(shared.stats().pages_restarted > 0, "{ctx}");

            // A second reader continues a cursor minted with another scratch.
            let mut first = EnumScratch::new();
            let mut second = EnumScratch::new();
            let (page1, more) = a.page_with(&mut first, 0, k);
            assert!(more, "{ctx}");
            let page2 = a.page_with(&mut second, page1.len(), k);
            assert_eq!(page2, expected_page(&all_a, k, k), "{ctx}: second reader");
            assert_eq!(second.stats().pages_restarted, 1, "{ctx}");
            assert_eq!(second.stats().pages_resumed, 0, "{ctx}");
            // …and the first reader's parked run is untouched by it.
            assert_eq!(a.page_with(&mut first, k, k), page2, "{ctx}");
            assert_eq!(first.stats().pages_resumed, 1, "{ctx}");
        }
    }
}

#[test]
fn a_lost_try_lock_pages_on_a_throwaway_scratch() {
    for (name, engine) in engines() {
        let all = order(&engine);
        // Re-entering the engine from its own sink: the pooled scratch is
        // held by the running enumeration, so the page restarts elsewhere.
        let mut nested = None;
        engine.for_each(&mut |_| {
            nested = Some(engine.page(2, 3));
            ControlFlow::Break(())
        });
        assert_eq!(nested, Some(expected_page(&all, 2, 3)), "{name}");
    }
}

#[test]
fn apply_batch_between_pages_restarts_on_the_new_structure() {
    let mut sigma = Alphabet::from_names(["a", "b", "c"]);
    let labels: Vec<Label> = sigma.labels().collect();
    let b = sigma.get("b").unwrap();
    let a = sigma.get("a").unwrap();
    let cases = [
        ("select", queries::select_label(sigma.len(), b, Var(0))),
        (
            "pair",
            queries::ancestor_descendant(sigma.len(), a, Var(0), b, Var(1)),
        ),
    ];
    for (name, query) in cases {
        for mode in MODES {
            let tree = random_tree(&mut sigma, 60, TreeShape::Random, 29);
            let mut feed = EditFeed::new(&tree, EditStream::skewed(labels.clone(), 7));
            let mut engine = TreeEnumerator::new(tree, &query, sigma.len());
            engine.set_box_enum_mode(mode);
            let mut scratch = EnumScratch::new();
            for k in [1, 2, 3] {
                let ctx = format!("{name} [{mode:?}] k={k}");
                let (_, more) = engine.page_with(&mut scratch, 0, k);
                let (_, pooled_more) = engine.page(0, k);
                let stamp = engine.stamp();
                engine.apply_batch(&feed.next_batch(6));
                assert_ne!(engine.stamp(), stamp, "{ctx}: an edit must re-stamp");
                let all = order(&engine);
                let before = scratch.stats();
                assert_eq!(
                    engine.page_with(&mut scratch, k, k),
                    expected_page(&all, k, k),
                    "{ctx}: page after apply_batch"
                );
                if more {
                    assert_eq!(scratch.stats().pages_resumed, before.pages_resumed, "{ctx}");
                    assert_eq!(scratch.stats().pages_restarted, before.pages_restarted + 1);
                }
                let pooled = engine.enum_stats().pages_resumed;
                assert_eq!(
                    engine.page(k, k),
                    expected_page(&all, k, k),
                    "{ctx}: pooled"
                );
                if pooled_more {
                    assert_eq!(engine.enum_stats().pages_resumed, pooled, "{ctx}");
                }
            }
            engine.check_consistency();
        }
    }
}

#[test]
fn served_pages_resume_and_concatenate_to_for_each_order() {
    let mut sigma = Alphabet::from_names(["a", "b", "c"]);
    let labels: Vec<Label> = sigma.labels().collect();
    let a = sigma.get("a").unwrap();
    let b = sigma.get("b").unwrap();
    let tree = random_tree(&mut sigma, 80, TreeShape::Random, 19);
    let select = queries::select_label(sigma.len(), b, Var(0));
    let pair = queries::ancestor_descendant(sigma.len(), a, Var(0), b, Var(1));
    let server = TreeServer::new(
        vec![tree.clone()],
        &select,
        sigma.len(),
        ServeConfig::default(),
    );
    let pair_id = server.register(&pair, sigma.len()).unwrap().id;
    let mut feed = EditFeed::new(&tree, EditStream::skewed(labels, 3));
    server.ingest_batch(0, &feed.next_batch(20)).unwrap();
    server.flush(0).unwrap();

    // A word shard with a registered spanner.
    let letters = 3;
    let word = word_tree("abaacaaabaaacaba", letters);
    let word_server = TreeServer::new(
        vec![word],
        &queries::exists_label(letters + 1, Label(0)),
        letters + 1,
        ServeConfig::default(),
    );
    let runs = spanners::runs_of(letters, Label(0), Var(0), Var(1));
    let spanner_id = word_server.register_spanner(&runs, letters).unwrap().id;

    let snap = server.snapshot(0);
    let word_snap = word_server.snapshot(0);
    let readers = [
        ("select", snap.query(QueryId::PRIMARY).unwrap()),
        ("pair", snap.query(pair_id).unwrap()),
        ("spanner", word_snap.query(spanner_id).unwrap()),
    ];
    for (name, reader) in readers {
        let mut all = Vec::new();
        reader.for_each(&mut |x| {
            all.push(x);
            ControlFlow::Continue(())
        });
        for k in page_sizes(all.len()) {
            let mut scratch = EnumScratch::new();
            let (mut pooled, mut own) = (Vec::new(), Vec::new());
            let (mut c1, mut c2) = (None, None);
            loop {
                let p1 = reader.page(c1, k).unwrap();
                let p2 = reader.page_with(&mut scratch, c2, k).unwrap();
                assert_eq!(p1.answers, p2.answers, "{name} k={k}");
                pooled.extend(p1.answers);
                own.extend(p2.answers);
                (c1, c2) = (p1.next, p2.next);
                if c2.is_none() {
                    break;
                }
            }
            assert!(c1.is_none());
            assert_eq!(pooled, all, "{name} k={k}: pooled pages");
            assert_eq!(own, all, "{name} k={k}: own-scratch pages");
            let pages = all.len().div_ceil(k);
            assert_eq!(
                scratch.stats().pages_resumed as usize,
                pages - 1,
                "{name} k={k}"
            );
            assert_eq!(scratch.stats().pages_restarted, 0, "{name} k={k}");
        }
    }
}
