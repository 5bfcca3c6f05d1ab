//! The repo-specific lint rules over the token streams of [`crate::lexer`].
//!
//! Five disciplines, each established by an earlier PR and until now enforced
//! only by scattered counter assertions and reviewer memory:
//!
//! * [`RULE_MAP`] — no `HashMap`/`BTreeMap` *imports* (or fully-qualified
//!   `collections::…` paths) in `crates/circuits`, `crates/enumeration`,
//!   `crates/balance` and `crates/core` non-test code.  The
//!   enumeration/update hot paths are dense-slab only (φ included, and a
//!   box is named by its tree node, so no node-to-box map exists); the one
//!   sanctioned map (the process-wide query-plan cache in
//!   `crates/core/src/plan.rs`) carries a `// analyze: allow(map): <reason>`.
//! * [`RULE_ALLOC`] — no allocation-prone calls (`Vec::new`, `.clone()`,
//!   `.to_vec()`, `.collect()`, `format!`) inside a function whose header
//!   comment block contains a line starting with `hot-path`.  Per-line
//!   escapes: `// analyze: allow(alloc): <reason>`.
//! * [`RULE_LOCK`] — no `.unwrap()` / `.expect()` directly on a
//!   `.lock()`/`.read()`/`.write()`/`.try_lock()` result in `treenum-serve`
//!   non-test code: lock acquisition must go through the poison-tolerant
//!   helpers in `crates/serve/src/lock.rs` so a panicking reader or sink can
//!   never wedge the serving layer.
//! * [`RULE_COUNTER`] — every public counter field of `EnumStats`,
//!   `IndexStats`, `RegistryStats`, `ShardStats`, `FlushRecord` and
//!   `Footprint` (see [`COUNTER_STRUCTS`]) must be read in at least one
//!   file under the repo-root `tests/` directory by something other than an
//!   `assert_eq!(x.field, 0, …)`.  A counter no test reads is a dead guard:
//!   it can silently stop counting and nothing fails; one that tests only
//!   ever assert to be 0 guards a path that never runs.
//! * [`RULE_IO`] — no `.unwrap()`/`.expect()` on an `io::Result` in
//!   `crates/wal` / `crates/serve` non-test code, outside the designated
//!   fault-injection module (`crates/wal/src/failpoint.rs`).  A storage
//!   failure on the durability path must flow into the serving layer's
//!   quarantine/backpressure machinery, never panic the shard writer.
//!   Per-line escapes: `// analyze: allow(io): <reason>`.
//! * [`RULE_INSTANT`] — no bare `-` between `Instant`/`Duration` expressions
//!   in `crates/serve` / `crates/wal` non-test code.  `Instant - Instant`
//!   and `Duration - Duration` panic on underflow, and a deadline that has
//!   already passed is exactly the case the serving layer must survive
//!   (a panicked writer thread was PR 8's satellite bug); use
//!   `saturating_duration_since` / `checked_duration_since` /
//!   `saturating_sub`.  Per-line escapes:
//!   `// analyze: allow(instant): <reason>`.
//!
//! An escape comment grants its own line and the next line, so both styles
//! work:
//!
//! ```text
//! let copy = r.clone(); // analyze: allow(alloc): sanctioned entry point
//! // analyze: allow(alloc): sanctioned entry point
//! let copy = r.clone();
//! ```

use crate::lexer::{lex, Tok, TokKind};
use std::collections::{HashMap, HashSet};
use std::fmt;
use std::path::{Path, PathBuf};

pub const RULE_MAP: &str = "no-map-import";
pub const RULE_ALLOC: &str = "hot-path-alloc";
pub const RULE_LOCK: &str = "lock-unwrap";
pub const RULE_COUNTER: &str = "counter-coverage";
pub const RULE_IO: &str = "wal-io-unwrap";
pub const RULE_INSTANT: &str = "instant-sub";

/// One `file:line` violation.
#[derive(Clone, Debug)]
pub struct Diagnostic {
    pub rule: &'static str,
    pub file: PathBuf,
    pub line: u32,
    pub msg: String,
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}",
            self.file.display(),
            self.line,
            self.rule,
            self.msg
        )
    }
}

/// A lexed source file plus the derived views the rules share.
pub struct SourceFile {
    /// Path as scanned (kept relative to the workspace root when possible).
    pub path: PathBuf,
    toks: Vec<Tok>,
    /// Indices into `toks` of the non-comment tokens, i.e. the code stream.
    code: Vec<usize>,
    /// `analyze: allow(kind)` escapes: line of the comment → kinds granted.
    allows: HashMap<u32, Vec<String>>,
    /// Code-token index ranges (over `code`) covered by `#[cfg(test)] mod …`.
    test_ranges: Vec<(usize, usize)>,
}

impl SourceFile {
    pub fn parse(path: PathBuf, src: &str) -> Self {
        let toks = lex(src);
        let code: Vec<usize> = (0..toks.len()).filter(|&i| !toks[i].is_comment()).collect();
        let mut allows: HashMap<u32, Vec<String>> = HashMap::new();
        for t in toks.iter().filter(|t| t.is_comment()) {
            let body = t.comment_body();
            if let Some(rest) = body.strip_prefix("analyze:") {
                let rest = rest.trim();
                if let Some(inner) = rest
                    .strip_prefix("allow(")
                    .and_then(|r| r.split_once(')').map(|(k, _)| k))
                {
                    allows.entry(t.line).or_default().push(inner.trim().into());
                }
            }
        }
        let mut file = SourceFile {
            path,
            toks,
            code,
            allows,
            test_ranges: Vec::new(),
        };
        file.test_ranges = file.find_test_ranges();
        file
    }

    fn ct(&self, ci: usize) -> &Tok {
        &self.toks[self.code[ci]]
    }

    fn code_len(&self) -> usize {
        self.code.len()
    }

    fn is_ident(&self, ci: usize, text: &str) -> bool {
        ci < self.code_len() && self.ct(ci).kind == TokKind::Ident && self.ct(ci).text == text
    }

    fn is_punct(&self, ci: usize, ch: &str) -> bool {
        ci < self.code_len() && self.ct(ci).kind == TokKind::Punct && self.ct(ci).text == ch
    }

    /// An `allow(kind)` escape covers its own line and the following line.
    fn allowed(&self, line: u32, kind: &str) -> bool {
        [line, line.saturating_sub(1)].iter().any(|l| {
            self.allows
                .get(l)
                .is_some_and(|ks| ks.iter().any(|k| k == kind))
        })
    }

    fn in_test_range(&self, ci: usize) -> bool {
        self.test_ranges.iter().any(|&(s, e)| ci >= s && ci < e)
    }

    /// Finds `#[cfg(test)] mod name { … }` regions (code-index ranges).
    fn find_test_ranges(&self) -> Vec<(usize, usize)> {
        let mut out = Vec::new();
        let mut ci = 0;
        while ci + 8 < self.code_len() {
            if self.is_punct(ci, "#")
                && self.is_punct(ci + 1, "[")
                && self.is_ident(ci + 2, "cfg")
                && self.is_punct(ci + 3, "(")
                && self.is_ident(ci + 4, "test")
                && self.is_punct(ci + 5, ")")
                && self.is_punct(ci + 6, "]")
                && self.is_ident(ci + 7, "mod")
            {
                // Skip the module name, expect `{`, then match braces.
                let mut j = ci + 8;
                while j < self.code_len() && !self.is_punct(j, "{") {
                    j += 1;
                }
                if let Some(end) = self.matching_brace(j) {
                    out.push((j, end));
                    ci = end;
                    continue;
                }
            }
            ci += 1;
        }
        out
    }

    /// Given the code index of a `{`, returns the code index one past its
    /// matching `}`.
    fn matching_brace(&self, open: usize) -> Option<usize> {
        if !self.is_punct(open, "{") {
            return None;
        }
        let mut depth = 0usize;
        for ci in open..self.code_len() {
            if self.is_punct(ci, "{") {
                depth += 1;
            } else if self.is_punct(ci, "}") {
                depth -= 1;
                if depth == 0 {
                    return Some(ci + 1);
                }
            }
        }
        None
    }

    /// Given the code index of a `(`, returns the code index one past its
    /// matching `)`.
    fn matching_paren(&self, open: usize) -> Option<usize> {
        if !self.is_punct(open, "(") {
            return None;
        }
        let mut depth = 0usize;
        for ci in open..self.code_len() {
            if self.is_punct(ci, "(") {
                depth += 1;
            } else if self.is_punct(ci, ")") {
                depth -= 1;
                if depth == 0 {
                    return Some(ci + 1);
                }
            }
        }
        None
    }

    /// Walks backwards from the code index of a `fn` keyword over the
    /// function's header (visibility, `const`/`unsafe`/`async`/`extern`,
    /// attributes) and reports whether the contiguous comment block above it
    /// contains a line starting with `hot-path`.
    fn header_is_hot(&self, fn_ci: usize) -> bool {
        let mut ti = self.code[fn_ci];
        while ti > 0 {
            ti -= 1;
            let t = &self.toks[ti];
            match t.kind {
                TokKind::LineComment | TokKind::BlockComment => {
                    if t.comment_body().starts_with("hot-path") {
                        return true;
                    }
                }
                TokKind::Ident
                    if matches!(
                        t.text.as_str(),
                        "pub"
                            | "crate"
                            | "super"
                            | "self"
                            | "in"
                            | "const"
                            | "unsafe"
                            | "async"
                            | "extern"
                    ) => {}
                TokKind::Str => {} // extern "C"
                TokKind::Punct if t.text == "(" || t.text == ")" => {} // pub(crate)
                TokKind::Punct if t.text == "]" => {
                    // Skip an attribute `#[…]` backwards.
                    let mut depth = 1usize;
                    while ti > 0 && depth > 0 {
                        ti -= 1;
                        match self.toks[ti].text.as_str() {
                            "]" => depth += 1,
                            "[" => depth -= 1,
                            _ => {}
                        }
                    }
                    if ti > 0 && self.toks[ti - 1].text == "#" {
                        ti -= 1;
                    }
                }
                _ => return false,
            }
        }
        false
    }

    /// All functions whose header comment block marks them `hot-path`,
    /// as `(name, code-index body range)`.
    fn hot_fn_bodies(&self) -> Vec<(String, usize, usize)> {
        let mut out = Vec::new();
        for ci in 0..self.code_len() {
            if !self.is_ident(ci, "fn") || !self.header_is_hot(ci) {
                continue;
            }
            let name = if ci + 1 < self.code_len() && self.ct(ci + 1).kind == TokKind::Ident {
                self.ct(ci + 1).text.clone()
            } else {
                continue;
            };
            let mut open = ci + 1;
            while open < self.code_len() && !self.is_punct(open, "{") {
                open += 1;
            }
            if let Some(end) = self.matching_brace(open) {
                out.push((name, open, end));
            }
        }
        out
    }
}

/// Rule [`RULE_ALLOC`]: allocation-prone calls inside `hot-path` functions.
pub fn check_hot_alloc(file: &SourceFile) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    for (name, start, end) in file.hot_fn_bodies() {
        for ci in start..end {
            let (line, what) = if file.is_ident(ci, "Vec")
                && file.is_punct(ci + 1, ":")
                && file.is_punct(ci + 2, ":")
                && file.is_ident(ci + 3, "new")
            {
                (file.ct(ci).line, "Vec::new")
            } else if file.is_punct(ci, ".")
                && ci + 2 < file.code_len()
                && file.ct(ci + 1).kind == TokKind::Ident
                && matches!(
                    file.ct(ci + 1).text.as_str(),
                    "clone" | "to_vec" | "collect"
                )
                && (file.is_punct(ci + 2, "(") || file.is_punct(ci + 2, ":"))
            {
                (
                    file.ct(ci + 1).line,
                    match file.ct(ci + 1).text.as_str() {
                        "clone" => ".clone()",
                        "to_vec" => ".to_vec()",
                        _ => ".collect()",
                    },
                )
            } else if file.is_ident(ci, "format") && file.is_punct(ci + 1, "!") {
                (file.ct(ci).line, "format!")
            } else {
                continue;
            };
            if file.allowed(line, "alloc") {
                continue;
            }
            out.push(Diagnostic {
                rule: RULE_ALLOC,
                file: file.path.clone(),
                line,
                msg: format!(
                    "{what} inside `// hot-path` fn `{name}` — the per-answer/per-edit loop \
                     must stay allocation-free (pool it through EnumScratch, or justify with \
                     `// analyze: allow(alloc): <reason>`)"
                ),
            });
        }
    }
    out
}

/// Rule [`RULE_MAP`]: `HashMap`/`BTreeMap` imports in hot-path crates.
pub fn check_map_imports(file: &SourceFile) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    let flag = |file: &SourceFile, ci: usize, how: &str, out: &mut Vec<Diagnostic>| {
        let t = file.ct(ci);
        if file.allowed(t.line, "map") || file.in_test_range(ci) {
            return;
        }
        out.push(Diagnostic {
            rule: RULE_MAP,
            file: file.path.clone(),
            line: t.line,
            msg: format!(
                "{} `{}` in a hot-path crate — circuits/enumeration/balance/core use dense arena slabs, \
                 not hashing (justify sanctioned uses with `// analyze: allow(map): <reason>`)",
                how, t.text
            ),
        });
    };
    let mut ci = 0;
    while ci < file.code_len() {
        if file.is_ident(ci, "use") {
            let mut j = ci + 1;
            while j < file.code_len() && !file.is_punct(j, ";") {
                if file.is_ident(j, "HashMap") || file.is_ident(j, "BTreeMap") {
                    flag(file, j, "import of", &mut out);
                }
                j += 1;
            }
            ci = j;
            continue;
        }
        // Fully-qualified paths that bypass an import.
        if file.is_ident(ci, "collections")
            && file.is_punct(ci + 1, ":")
            && file.is_punct(ci + 2, ":")
            && (file.is_ident(ci + 3, "HashMap") || file.is_ident(ci + 3, "BTreeMap"))
        {
            flag(file, ci + 3, "qualified use of", &mut out);
        }
        ci += 1;
    }
    out
}

/// Rule [`RULE_LOCK`]: `.unwrap()`/`.expect()` on lock results in serve code.
pub fn check_lock_unwrap(file: &SourceFile) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    for ci in 0..file.code_len() {
        if !(file.is_punct(ci, ".")
            && ci + 5 < file.code_len()
            && file.ct(ci + 1).kind == TokKind::Ident
            && matches!(
                file.ct(ci + 1).text.as_str(),
                "lock" | "read" | "write" | "try_lock"
            )
            && file.is_punct(ci + 2, "(")
            && file.is_punct(ci + 3, ")")
            && file.is_punct(ci + 4, "."))
        {
            continue;
        }
        let tail = ci + 5;
        if !(file.is_ident(tail, "unwrap") || file.is_ident(tail, "expect")) {
            continue;
        }
        let line = file.ct(tail).line;
        if file.allowed(line, "lock") || file.in_test_range(ci) {
            continue;
        }
        out.push(Diagnostic {
            rule: RULE_LOCK,
            file: file.path.clone(),
            line,
            msg: format!(
                ".{}().{}() on a lock result — a panicking sink/reader would poison the lock \
                 and wedge the serving layer; use the poison-tolerant helpers in \
                 crates/serve/src/lock.rs",
                file.ct(ci + 1).text,
                file.ct(tail).text
            ),
        });
    }
    out
}

/// The method/function idents whose results rule [`RULE_IO`] treats as
/// `io::Result`s on the durability path (std `fs`/`io` plus the
/// `treenum-wal` `Storage`/`WalFile` surface).  Deliberately excludes the
/// ambiguous short names `read`/`write` (also locks, slices and channels —
/// their lock flavor is [`RULE_LOCK`]'s business) and `spawn` (thread-spawn
/// failure at server construction is a panic by design).
const IO_METHODS: [&str; 21] = [
    "read_to_string",
    "read_to_end",
    "write_all",
    "flush",
    "sync_all",
    "sync_data",
    "open",
    "create",
    "rename",
    "remove_file",
    "create_dir_all",
    "read_dir",
    "metadata",
    "set_len",
    "seek",
    "open_append",
    "write_atomic",
    "append",
    "sync",
    "list",
    "remove",
];

/// Rule [`RULE_IO`]: `.unwrap()`/`.expect()` directly on an `io::Result` in
/// durability-path code.  An IO call is `<.|::> <io-method> ( … )` — the
/// preceding `.`/`::` distinguishes call sites from `fn` definitions of the
/// same name — and only a direct `.unwrap()`/`.expect(…)` after its closing
/// paren is flagged: `?`-propagation, `match`, `map_err`, … are the
/// sanctioned patterns.
pub fn check_io_unwrap(file: &SourceFile) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    let mut ci = 0;
    while ci < file.code_len() {
        let callee = ci + 1;
        if !((file.is_punct(ci, ".") || file.is_punct(ci, ":"))
            && callee < file.code_len()
            && file.ct(callee).kind == TokKind::Ident
            && IO_METHODS.contains(&file.ct(callee).text.as_str())
            && file.is_punct(callee + 1, "("))
        {
            ci += 1;
            continue;
        }
        let Some(after) = file.matching_paren(callee + 1) else {
            ci += 1;
            continue;
        };
        if !(file.is_punct(after, ".")
            && (file.is_ident(after + 1, "unwrap") || file.is_ident(after + 1, "expect")))
        {
            ci = after;
            continue;
        }
        let line = file.ct(after + 1).line;
        if file.allowed(line, "io") || file.in_test_range(ci) {
            ci = after;
            continue;
        }
        out.push(Diagnostic {
            rule: RULE_IO,
            file: file.path.clone(),
            line,
            msg: format!(
                ".{}() on the io::Result of `{}` in durability-path code — a storage failure \
                 must propagate into the quarantine/backpressure machinery, not panic the \
                 shard writer (handle the error or justify with \
                 `// analyze: allow(io): <reason>`)",
                file.ct(after + 1).text,
                file.ct(callee).text
            ),
        });
        ci = after;
    }
    out
}

/// Rule [`RULE_INSTANT`]: bare `-` between clock expressions.  A binary `-`
/// (not `->`, not `-=`) is flagged when either side syntactically reads as a
/// clock value:
///
/// * the left operand ends in a `now()` / `elapsed()` call;
/// * the right operand starts with `Instant::now` or `<ident>.elapsed`;
/// * either neighboring identifier is literally `now` or `deadline` (the
///   naming convention of every clock variable on the serving path).
///
/// This is deliberately a *pattern* lint, not a type check: it can miss a
/// creatively named `Instant`, but it cannot fire on arithmetic over plain
/// numbers — and the panic class it targets (`deadline - now` underflowing
/// when the deadline already passed) always reads like one of the above.
pub fn check_instant_sub(file: &SourceFile) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    for ci in 0..file.code_len() {
        if !file.is_punct(ci, "-") {
            continue;
        }
        // `->` and `-=` lex as consecutive Punct tokens; neither is a
        // subtraction.  A leading `-` (unary minus) has no left operand and
        // the clock patterns below won't match it anyway.
        if file.is_punct(ci + 1, ">") || file.is_punct(ci + 1, "=") {
            continue;
        }
        let left_is_clock_call = ci >= 3
            && file.is_punct(ci - 1, ")")
            && file.is_punct(ci - 2, "(")
            && (file.is_ident(ci - 3, "now") || file.is_ident(ci - 3, "elapsed"));
        let right_is_instant_now = file.is_ident(ci + 1, "Instant")
            && file.is_punct(ci + 2, ":")
            && file.is_punct(ci + 3, ":")
            && file.is_ident(ci + 4, "now");
        let right_is_elapsed_call = ci + 3 < file.code_len()
            && file.ct(ci + 1).kind == TokKind::Ident
            && file.is_punct(ci + 2, ".")
            && file.is_ident(ci + 3, "elapsed");
        let neighbor_is_clock_name = (ci >= 1
            && (file.is_ident(ci - 1, "now") || file.is_ident(ci - 1, "deadline")))
            || file.is_ident(ci + 1, "now")
            || file.is_ident(ci + 1, "deadline");
        if !(left_is_clock_call
            || right_is_instant_now
            || right_is_elapsed_call
            || neighbor_is_clock_name)
        {
            continue;
        }
        let line = file.ct(ci).line;
        if file.allowed(line, "instant") || file.in_test_range(ci) {
            continue;
        }
        out.push(Diagnostic {
            rule: RULE_INSTANT,
            file: file.path.clone(),
            line,
            msg: "bare `-` between clock expressions — `Instant`/`Duration` subtraction \
                  panics on underflow (a deadline in the past kills the writer thread); \
                  use `saturating_duration_since` / `checked_duration_since` / \
                  `saturating_sub`, or justify with `// analyze: allow(instant): <reason>`"
                .to_owned(),
        });
    }
    out
}

/// The counter structs whose public fields rule [`RULE_COUNTER`] tracks
/// (`FlushRecord` for its per-stage flush timings, `Footprint` for a query
/// index's bytes).
pub const COUNTER_STRUCTS: [&str; 6] = [
    "EnumStats",
    "FlushRecord",
    "Footprint",
    "IndexStats",
    "RegistryStats",
    "ShardStats",
];

/// A public field of one of the [`COUNTER_STRUCTS`].
#[derive(Clone, Debug)]
pub struct CounterField {
    pub strukt: String,
    pub field: String,
    pub file: PathBuf,
    pub line: u32,
}

/// Collects the public fields of every counter struct defined in `file`.
pub fn counter_fields(file: &SourceFile) -> Vec<CounterField> {
    let mut out = Vec::new();
    for ci in 0..file.code_len() {
        if !file.is_ident(ci, "struct")
            || ci + 1 >= file.code_len()
            || !COUNTER_STRUCTS.contains(&file.ct(ci + 1).text.as_str())
        {
            continue;
        }
        let name = file.ct(ci + 1).text.clone();
        let mut open = ci + 2;
        while open < file.code_len() && !file.is_punct(open, "{") && !file.is_punct(open, ";") {
            open += 1;
        }
        let Some(end) = file.matching_brace(open) else {
            continue;
        };
        let mut depth = 0usize;
        for j in open..end {
            if file.is_punct(j, "{") {
                depth += 1;
            } else if file.is_punct(j, "}") {
                depth -= 1;
            } else if depth == 1
                && file.is_ident(j, "pub")
                && j + 2 < file.code_len()
                && file.ct(j + 1).kind == TokKind::Ident
                && file.is_punct(j + 2, ":")
            {
                out.push(CounterField {
                    strukt: name.clone(),
                    field: file.ct(j + 1).text.clone(),
                    file: file.path.clone(),
                    line: file.ct(j + 1).line,
                });
            }
        }
    }
    out
}

/// Rule [`RULE_COUNTER`]: every counter field must be read somewhere under
/// `tests/`.  `fields` come from [`counter_fields`]; `test_idents` is the
/// union of code identifiers of the files under `tests/`, less those that
/// only appear as the field of an always-0 assert ([`zero_asserted`]).
pub fn check_counter_coverage(
    fields: &[CounterField],
    test_idents: &HashSet<String>,
    defining_files: &[&SourceFile],
) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    for f in fields {
        if test_idents.contains(&f.field) {
            continue;
        }
        if defining_files
            .iter()
            .find(|sf| sf.path == f.file)
            .is_some_and(|sf| sf.allowed(f.line, "counter"))
        {
            continue;
        }
        out.push(Diagnostic {
            rule: RULE_COUNTER,
            file: f.file.clone(),
            line: f.line,
            msg: format!(
                "counter `{}::{}` is never read under tests/ except by always-0 asserts — a \
                 counter no test reads is a dead guard (assert it in a tests/ suite or justify \
                 with `// analyze: allow(counter): <reason>`)",
                f.strukt, f.field
            ),
        });
    }
    out
}

/// `true` iff code token `ci` is the field in `assert_eq!(….field, 0 …)`.
pub fn zero_asserted(f: &SourceFile, ci: usize) -> bool {
    let zero = f.code_len() > ci + 3
        && f.ct(ci + 2).kind == TokKind::Num
        && f.ct(ci + 2)
            .text
            .split(|c: char| c.is_ascii_alphabetic())
            .next()
            == Some("0");
    zero && ci > 0
        && f.is_punct(ci - 1, ".")
        && f.is_punct(ci + 1, ",")
        && (f.is_punct(ci + 3, ",") || f.is_punct(ci + 3, ")"))
        && (0..ci)
            .rev()
            .take_while(|&cj| !f.is_punct(cj, ";") && !f.is_punct(cj, "{") && !f.is_punct(cj, "}"))
            .any(|cj| f.is_ident(cj, "assert_eq"))
}

/// The scanned workspace: every source file the rules look at.
pub struct Workspace {
    pub files: Vec<SourceFile>,
    pub root: PathBuf,
}

fn rel<'a>(path: &'a Path, root: &Path) -> &'a Path {
    path.strip_prefix(root).unwrap_or(path)
}

fn walk_rs(dir: &Path, out: &mut Vec<PathBuf>) -> std::io::Result<()> {
    if !dir.is_dir() {
        return Ok(());
    }
    let mut entries: Vec<_> = std::fs::read_dir(dir)?.collect::<Result<_, _>>()?;
    entries.sort_by_key(|e| e.path());
    for e in entries {
        let p = e.path();
        if p.is_dir() {
            walk_rs(&p, out)?;
        } else if p.extension().is_some_and(|x| x == "rs") {
            out.push(p);
        }
    }
    Ok(())
}

impl Workspace {
    /// Scans the workspace sources the rules cover: `crates/*/src`, the
    /// umbrella `src/`, the repo-root `tests/` and `examples/`.  Fixture
    /// corpora (`crates/analyze/fixtures`) and vendored stubs (`vendor/`) are
    /// deliberately outside this set.
    pub fn scan(root: &Path) -> std::io::Result<Self> {
        let mut paths = Vec::new();
        let crates_dir = root.join("crates");
        if crates_dir.is_dir() {
            let mut crates: Vec<_> = std::fs::read_dir(&crates_dir)?.collect::<Result<_, _>>()?;
            crates.sort_by_key(|e| e.path());
            for c in crates {
                walk_rs(&c.path().join("src"), &mut paths)?;
            }
        }
        walk_rs(&root.join("src"), &mut paths)?;
        walk_rs(&root.join("tests"), &mut paths)?;
        walk_rs(&root.join("examples"), &mut paths)?;
        let mut files = Vec::new();
        for p in paths {
            let src = std::fs::read_to_string(&p)?;
            files.push(SourceFile::parse(rel(&p, root).to_path_buf(), src.as_str()));
        }
        Ok(Workspace {
            files,
            root: root.to_path_buf(),
        })
    }

    fn path_has(&self, file: &SourceFile, segs: &str) -> bool {
        file.path
            .to_string_lossy()
            .replace('\\', "/")
            .contains(segs)
    }

    /// Runs every rule over the scanned set.
    pub fn check_all(&self) -> Vec<Diagnostic> {
        let mut out = Vec::new();
        let mut fields = Vec::new();
        let mut test_idents: HashSet<String> = HashSet::new();
        for f in &self.files {
            if self.path_has(f, "crates/circuits/src")
                || self.path_has(f, "crates/enumeration/src")
                || self.path_has(f, "crates/balance/src")
                || self.path_has(f, "crates/core/src")
            {
                out.extend(check_map_imports(f));
            }
            if self.path_has(f, "crates/serve/src") && !self.path_has(f, "crates/serve/src/lock.rs")
            {
                out.extend(check_lock_unwrap(f));
            }
            // The fault-injection harness is the designated module whose whole
            // point is exercising storage failures; everything else on the
            // durability path must propagate them.
            if (self.path_has(f, "crates/wal/src") || self.path_has(f, "crates/serve/src"))
                && !self.path_has(f, "crates/wal/src/failpoint.rs")
            {
                out.extend(check_io_unwrap(f));
            }
            // Clock arithmetic on the serving/durability path must not be
            // able to panic on underflow.
            if self.path_has(f, "crates/serve/src") || self.path_has(f, "crates/wal/src") {
                out.extend(check_instant_sub(f));
            }
            out.extend(check_hot_alloc(f));
            fields.extend(counter_fields(f));
            if self.path_has(f, "tests/") {
                for ci in 0..f.code_len() {
                    if f.ct(ci).kind == TokKind::Ident && !zero_asserted(f, ci) {
                        test_idents.insert(f.ct(ci).text.clone());
                    }
                }
            }
        }
        let defining: Vec<&SourceFile> = self.files.iter().collect();
        out.extend(check_counter_coverage(&fields, &test_idents, &defining));
        out.sort_by(|a, b| (&a.file, a.line).cmp(&(&b.file, b.line)));
        out
    }
}
