//! Analyzer self-tests: a corpus of known-bad fixtures (one per rule) must
//! each trip *exactly* its rule, a known-clean fixture must trip nothing,
//! and the counter rule must flag exactly the uncovered field of a fixture
//! mini-workspace.  This is the mirror image of the sched module's seeded
//! protocol mutations: the lint is only trustworthy if it provably fires.

use std::path::{Path, PathBuf};
use treenum_analyze::doclinks::{check_doc_links, heading_anchors, slugify, RULE_DOC_LINKS};
use treenum_analyze::rules::{
    check_hot_alloc, check_instant_sub, check_io_unwrap, check_lock_unwrap, check_map_imports,
    Diagnostic, SourceFile, Workspace, RULE_ALLOC, RULE_COUNTER, RULE_INSTANT, RULE_IO, RULE_LOCK,
    RULE_MAP,
};

fn fixture(name: &str) -> SourceFile {
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("fixtures")
        .join(name);
    let src = std::fs::read_to_string(&path).expect("fixture must exist");
    SourceFile::parse(PathBuf::from(name), &src)
}

/// Runs every per-file rule on `file`, as if it lived in the most-restricted
/// location (a hot-path crate that is also serve/durability code).
fn all_rules(file: &SourceFile) -> Vec<Diagnostic> {
    let mut out = check_map_imports(file);
    out.extend(check_lock_unwrap(file));
    out.extend(check_hot_alloc(file));
    out.extend(check_io_unwrap(file));
    out.extend(check_instant_sub(file));
    out
}

fn rules_of(diags: &[Diagnostic]) -> Vec<&'static str> {
    let mut rules: Vec<&'static str> = diags.iter().map(|d| d.rule).collect();
    rules.dedup();
    rules
}

#[test]
fn bad_hashmap_trips_exactly_the_map_rule() {
    let diags = all_rules(&fixture("bad_hashmap.rs"));
    assert_eq!(rules_of(&diags), [RULE_MAP], "diags: {diags:?}");
    assert_eq!(diags.len(), 1);
    assert_eq!(diags[0].line, 3, "must point at the import line");
}

#[test]
fn bad_alloc_trips_exactly_the_alloc_rule() {
    let diags = all_rules(&fixture("bad_alloc.rs"));
    assert_eq!(rules_of(&diags), [RULE_ALLOC], "diags: {diags:?}");
    assert_eq!(diags.len(), 1);
    assert!(diags[0].msg.contains("Vec::new"));
    assert!(diags[0].msg.contains("emit_all"));
}

#[test]
fn bad_lock_trips_exactly_the_lock_rule() {
    let diags = all_rules(&fixture("bad_lock.rs"));
    assert_eq!(rules_of(&diags), [RULE_LOCK], "diags: {diags:?}");
    assert_eq!(diags.len(), 1);
    assert!(diags[0].msg.contains(".lock().unwrap()"));
}

#[test]
fn bad_io_unwrap_trips_exactly_the_io_rule() {
    let diags = all_rules(&fixture("bad_io_unwrap.rs"));
    assert_eq!(rules_of(&diags), [RULE_IO], "diags: {diags:?}");
    assert_eq!(diags.len(), 3, "the `?`-propagating twin must not trip");
    assert!(diags[0].msg.contains("`create`"));
    assert!(diags[1].msg.contains("`write_all`"));
    assert!(diags[2].msg.contains("`sync_all`"));
}

#[test]
fn bad_instant_sub_trips_exactly_the_instant_rule() {
    let diags = all_rules(&fixture("bad_instant_sub.rs"));
    assert_eq!(rules_of(&diags), [RULE_INSTANT], "diags: {diags:?}");
    assert_eq!(
        diags.len(),
        3,
        "the saturating twins and plain numeric `-` must not trip: {diags:?}"
    );
    assert_eq!(diags[0].line, 7, "deadline - now");
    assert_eq!(diags[1].line, 11, "elapsed() - budget");
    assert_eq!(diags[2].line, 15, "deadline - Instant::now()");
}

#[test]
fn clean_fixture_trips_nothing() {
    let diags = all_rules(&fixture("clean.rs"));
    assert!(diags.is_empty(), "clean fixture tripped: {diags:?}");
}

#[test]
fn counter_rule_flags_exactly_the_uncovered_field() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("fixtures")
        .join("counter_ws");
    let ws = Workspace::scan(&root).expect("fixture mini-workspace must scan");
    let diags = ws.check_all();
    assert_eq!(rules_of(&diags), [RULE_COUNTER], "diags: {diags:?}");
    assert_eq!(diags.len(), 1);
    assert!(
        diags[0].msg.contains("EnumStats::uncovered"),
        "must flag the uncovered field, got: {}",
        diags[0].msg
    );
}

#[test]
fn counter_rule_flags_a_counter_tests_only_assert_is_zero() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("fixtures")
        .join("counter_zero_ws");
    let ws = Workspace::scan(&root).expect("fixture mini-workspace must scan");
    let diags = ws.check_all();
    assert_eq!(rules_of(&diags), [RULE_COUNTER], "diags: {diags:?}");
    assert_eq!(diags.len(), 1);
    assert!(
        diags[0].msg.contains("ShardStats::zero_only"),
        "must flag the zero-only field, got: {}",
        diags[0].msg
    );
}

#[test]
fn doc_links_flags_exactly_the_dangling_links() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("fixtures")
        .join("doc_ws");
    let diags = check_doc_links(&root).expect("fixture docs must read");
    assert_eq!(rules_of(&diags), [RULE_DOC_LINKS], "diags: {diags:?}");
    assert_eq!(
        diags.len(),
        2,
        "good links, external links, fenced and inline-code links must not trip: {diags:?}"
    );
    assert!(diags[0].msg.contains("MISSING.md"), "got: {}", diags[0].msg);
    assert!(
        diags[1].msg.contains("#no-such-heading"),
        "got: {}",
        diags[1].msg
    );
}

#[test]
fn heading_slugs_follow_github_rules() {
    assert_eq!(
        slugify("Query registry & snapshot multiplexing"),
        "query-registry--snapshot-multiplexing"
    );
    assert_eq!(
        slugify("  Left-Right Publication  "),
        "left-right-publication"
    );
    let anchors = heading_anchors("# A b\n\n## A b\n\n```\n# fenced\n```\n## C-d!\n");
    assert_eq!(anchors, ["a-b", "a-b-1", "c-d"]);
}

/// The tracked docs of the real workspace must have no dangling links — the
/// same check CI runs via `--doc-links`.
#[test]
fn real_workspace_docs_are_clean() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .unwrap();
    let diags = check_doc_links(root).expect("workspace docs must read");
    assert!(diags.is_empty(), "dangling doc links:\n{diags:#?}");
}

/// The real workspace must be clean — this is the same check CI runs via the
/// CLI, kept here too so `cargo test` alone catches a regression.
#[test]
fn real_workspace_is_clean() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .unwrap();
    let ws = Workspace::scan(root).expect("workspace must scan");
    assert!(ws.files.len() > 40, "scan must cover the whole workspace");
    let diags = ws.check_all();
    assert!(diags.is_empty(), "workspace lint violations:\n{diags:#?}");
}
