//! Public surface = what an entry point reaches.
//!
//! Every `pub fn`, `pub const`, `pub static` and named `pub` field in
//! library code (`crates/*/src/**/*.rs`, minus `src/bin/` and each file's
//! `#[cfg(test)]` tail) must be named as a word of code in some file
//! outside its own crate's library that is not a test: a binary, an
//! example, another crate's library, `src/` or `benchmark/src/`. Test
//! code is any file under a `tests/` or `benches/` directory, plus every
//! file's `#[cfg(test)]` tail. An item fails with one of three verdicts:
//!
//! * "named outside its crate only by tests": a test is its only caller
//!   outside the crate. Delete it with the tests that only checked it,
//!   or list it in [`TEST_HOOKS`] with the reason a test needs it to
//!   check behaviour an entry point reaches;
//! * "named only inside its own crate": make it `pub(crate)`, after which
//!   rustc's `dead_code` lint takes over;
//! * "named in no other file": make it private.
//!
//! Before words are matched, a small lexer removes comments, string and
//! char literals and whole re-export items (`pub use …;`,
//! `pub(crate) use …;`): a doc link or a re-export is not a caller.
//!
//! Word matching is a floor, not a proof. A method called `new`, `len`
//! or `events` is always "used", because some other file names a
//! different item with that name; such an item that only tests reach is
//! found by building the entry points alone and reading rustc's
//! `dead_code` lint, and goes into [`SHADOWED_HOOKS`]. Types (`struct`,
//! `enum`, `trait`, `type`) are out of scope: signatures use them
//! without naming them. So are tuple-struct fields, which have no name
//! to match.
//!
//! A hook is stale, and fails the test, when no test names it or its
//! item no longer has the verdict its list stands for: a
//! [`TEST_HOOKS`] item that gained a non-test caller, lost its last
//! caller or is no longer public; a [`SHADOWED_HOOKS`] item whose word
//! no non-test code outside its crate names any more. The other way
//! round the rule is [`ALLOWLIST`], at most eight entries, each naming
//! the consumer that keeps the item public: code in the tree or an open
//! ROADMAP item. An allowlist entry that stops matching a flagged item
//! fails the test too.

use std::collections::HashMap;
use std::fs;
use std::path::{Path, PathBuf};

/// `(path, name, consumer)`: public items with no caller outside their
/// crate that stay public anyway, and the code or ROADMAP item that will
/// call them.
const ALLOWLIST: &[(&str, &str, &str)] = &[];

/// `(path, name, reason)`: public items that only tests name outside
/// their crate, and why a test needs each to check behaviour that an
/// entry point reaches.
#[rustfmt::skip] // one hook a line
const TEST_HOOKS: &[(&str, &str, &str)] = &[
    // The bench harness's measurements, checked in debug builds.
    ("crates/bench/src/experiments.rs", "measure_layer", "smoke tests measure a cheap layer"),
    ("crates/bench/src/experiments.rs", "numerics_ok", "smoke tests check its numerics"),
    ("crates/bench/src/experiments.rs", "newton_summaries", "smoke tests price its power"),
    ("crates/bench/src/experiments.rs", "ideal_summary", "smoke tests price its power"),
    ("crates/bench/src/experiments.rs", "paper_model_x", "smoke tests bound Sec. III-F"),
    ("crates/bench/src/experiments.rs", "fig07_command_trace_with", "observer_views pins it"),
    // bf16 numerics: the scalar and tree kernels the SIMD path must equal.
    ("crates/bf16/src/reduce.rs", "tree_reduce_wide", "bf16 properties check the adder tree"),
    ("crates/bf16/src/reduce.rs", "dot_chunk_wide", "bf16 properties check a COMP step"),
    ("crates/bf16/src/scalar.rs", "mul_round", "bf16 properties check a multiplier"),
    ("crates/bf16/src/scalar.rs", "accumulate_wide", "the bf16 bench times a latch add"),
    ("crates/bf16/src/scalar.rs", "ONE", "tests build unit operands"),
    ("crates/bf16/src/scalar.rs", "NEG_ZERO", "exhaustive tests name special values"),
    ("crates/bf16/src/scalar.rs", "INFINITY", "tests name special values"),
    ("crates/bf16/src/scalar.rs", "NEG_INFINITY", "tests name special values"),
    ("crates/bf16/src/scalar.rs", "NAN", "tests feed NaN operands"),
    ("crates/bf16/src/scalar.rs", "MIN", "exhaustive tests name the finite range"),
    // The production engine's plans.
    ("crates/core/src/controller.rs", "run_planned", "engine tests run a plan"),
    ("crates/core/src/config.rs", "batch_norm_first_tile_ns", "tests vary the BN exposure"),
    ("crates/core/src/system.rs", "set_timing_engine", "oracle tests switch engines"),
    // The audit, driven by hand-built logs.
    ("crates/dram/src/audit.rs", "record_train", "audit suites write folded logs"),
    ("crates/dram/src/audit.rs", "record_ganged_activate", "audit suites write folded logs"),
    ("crates/dram/src/audit.rs", "record_precharge_all", "audit suites write folded logs"),
    ("crates/dram/src/audit.rs", "records", "audit_mutations counts records"),
    ("crates/dram/src/audit.rs", "validate_new", "audit_trains cuts the check"),
    ("crates/dram/src/audit.rs", "events_visited", "each event is checked once"),
    // The channel's one-command issue, beside the FR-FCFS scheduler.
    ("crates/dram/src/channel.rs", "issue_column_read_external", "storage tests read without the fill scrub"),
    // Timing, for building custom devices and the audit's violations.
    ("crates/dram/src/timing.rs", "to_cycles", "audit and ISA tests derive timings"),
    ("crates/dram/src/timing.rs", "t_refi_ns", "custom-device test: 2 us tREFI"),
    ("crates/dram/src/timing.rs", "t_rfc_ns", "custom-device test: short tRFC"),
    ("crates/dram/src/timing.rs", "t_cmd_ns", "custom devices: slow command slot"),
    ("crates/dram/src/timing.rs", "t_ras", "audit_mutations builds violations"),
    ("crates/dram/src/timing.rs", "t_rrd", "audit_mutations builds violations"),
    ("crates/dram/src/timing.rs", "t_refi", "tests place refreshes"),
    ("crates/dram/src/timing.rs", "t_rc", "audit_mutations builds violations"),
    // The ISA frontend.
    ("crates/isa/src/backend.rs", "with_config", "backend tests: matched geometry"),
    ("crates/isa/src/harness.rs", "max_abs_err", "backend tests bound the error"),
    ("crates/isa/src/mv.rs", "mac_sets", "backend tests count MAC sets"),
    ("crates/isa/src/instr.rs", "N", "the ISA fuzzer declares lengths"),
    // Power, serving, workloads and telemetry.
    ("crates/model/src/power.rs", "average_power", "power_and_model: Fig. 13"),
    ("crates/model/src/power.rs", "background", "power_and_model: Fig. 13"),
    ("crates/model/src/power.rs", "phy", "power_and_model: Fig. 13"),
    ("crates/serve/src/server.rs", "interval_ns", "serving tests add host traffic"),
    ("crates/serve/src/server.rs", "burst_requests", "serving tests add host traffic"),
    ("crates/serve/src/server.rs", "conventional_bursts", "serving tests count bursts"),
    ("crates/workloads/src/arrivals.rs", "rate_per_ns_at", "arrival tests integrate the rate"),
    ("crates/workloads/src/arrivals.rs", "arrival_times_ns_with_threads", "thread invariance"),
    ("crates/workloads/src/reference.rs", "run_model_f64", "end_to_end: the f64 oracle"),
];

/// `(path, name, reason)`: test hooks that word matching cannot tell
/// apart from a non-test caller elsewhere (another item, outside the
/// crate, shares the name), found by the compiler pass instead. Each
/// fails as stale once its word stops having such a caller (it then
/// belongs in [`TEST_HOOKS`]) or no test names it.
#[rustfmt::skip] // one hook a line
const SHADOWED_HOOKS: &[(&str, &str, &str)] = &[
    ("crates/bf16/src/scalar.rs", "MAX", "tests name the finite range"),
    ("crates/dram/src/audit.rs", "events", "tests compare expanded logs"),
    ("crates/isa/src/interp.rs", "system", "oracle tests read its audit"),
    ("crates/trace/src/timeseries.rs", "is_empty", "clippy pairs it with `len`"),
];

/// Directories (relative to the repository root) whose `.rs` files can
/// call library items.
const CALLER_ROOTS: &[&str] = &["crates", "src", "tests", "examples", "benchmark"];

const TESTS_ONLY: &str = "named outside its crate only by tests";

/// A file that names a word: which file, and whether the naming is test
/// code (a file under `tests/` or `benches/`, or a `#[cfg(test)]` tail).
#[derive(Clone, Copy, PartialEq)]
struct Caller {
    file: usize,
    test: bool,
}

#[test]
fn every_public_fn_const_and_static_has_a_caller_outside_its_crate() {
    assert!(
        ALLOWLIST.len() <= 8,
        "the allowlist holds at most 8 entries"
    );
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut files = Vec::new();
    for dir in CALLER_ROOTS {
        collect_rs(&root.join(dir), &mut files);
    }
    files.sort();

    // Which files name each word (and whether as test code), the library
    // crate each file belongs to (if any), and every public item with its
    // file.
    let mut named_in: HashMap<String, Vec<Caller>> = HashMap::new();
    let mut crate_of = Vec::with_capacity(files.len());
    let mut items = Vec::new();
    for (file, path) in files.iter().enumerate() {
        let source = fs::read_to_string(path).expect("read source file");
        let tokens = strip_reexports(lex(&source));
        let rel = path.strip_prefix(root).expect("under the root");
        let test_file = rel.iter().any(|part| part == "tests" || part == "benches");
        let tail = if test_file { 0 } else { test_tail(&tokens) };
        for (at, token) in tokens.iter().enumerate() {
            if let Tok::Word(word) = token.tok {
                let caller = Caller {
                    file,
                    test: at >= tail,
                };
                let callers = named_in.entry(word.to_owned()).or_default();
                if !callers.contains(&caller) {
                    callers.push(caller);
                }
            }
        }
        crate_of.push(library_crate(rel));
        if crate_of[file].is_some() {
            for (line, kind, name) in public_items(&tokens) {
                let rel = rel.to_string_lossy().into_owned();
                items.push((file, rel, line, kind, name));
            }
        }
    }
    assert!(
        items.len() > 100,
        "the census found only {} items",
        items.len()
    );

    let mut allow_used = vec![false; ALLOWLIST.len()];
    let mut flagged = Vec::new();
    // `(path, name)` of every item whose verdict is `TESTS_ONLY`, and of
    // every item with a non-test caller outside its crate.
    let mut tests_only = Vec::new();
    let mut reached = Vec::new();
    for (file, rel, line, kind, name) in &items {
        let callers: Vec<Caller> = named_in[name.as_str()]
            .iter()
            .filter(|c| c.file != *file)
            .copied()
            .collect();
        let outside = |c: &Caller| crate_of[c.file] != crate_of[*file];
        let verdict = if callers.iter().any(|c| outside(c) && !c.test) {
            reached.push((rel.as_str(), name.as_str()));
            continue;
        } else if callers.iter().any(outside) {
            TESTS_ONLY
        } else if !callers.is_empty() {
            "named only inside its own crate"
        } else {
            "named in no other file"
        };
        let listed = |list: &[(&str, &str, &str)]| {
            list.iter()
                .position(|(path, listed, _)| path == rel && listed == name)
        };
        if verdict == TESTS_ONLY {
            tests_only.push((rel.as_str(), name.as_str()));
            if listed(TEST_HOOKS).is_some() {
                continue;
            }
        }
        match listed(ALLOWLIST) {
            Some(entry) => allow_used[entry] = true,
            None => flagged.push(format!("{rel}:{line}: {kind} {name} ({verdict})")),
        }
    }

    // A hook must be named by some test and still carry the verdict its
    // list stands for: `TESTS_ONLY` for `TEST_HOOKS`, a non-test caller
    // by word for `SHADOWED_HOOKS`. A hook whose item gained a caller,
    // lost its last one or is no longer public is stale.
    let hook_live = |hooks: &[(&str, &str, &str)], verdict: &[(&str, &str)]| -> Vec<bool> {
        hooks
            .iter()
            .map(|&(path, name, _)| {
                let tested = named_in
                    .get(name)
                    .is_some_and(|callers| callers.iter().any(|c| c.test));
                tested && verdict.contains(&(path, name))
            })
            .collect()
    };
    let hook_used = hook_live(TEST_HOOKS, &tests_only);
    let shadowed_used = hook_live(SHADOWED_HOOKS, &reached);
    println!(
        "public surface: {} items, {} allowlisted, {} named outside their \
         crate only by tests, {} test hooks, {} shadowed hooks, {} flagged",
        items.len(),
        allow_used.iter().filter(|used| **used).count(),
        tests_only.len(),
        TEST_HOOKS.len(),
        SHADOWED_HOOKS.len(),
        flagged.len()
    );
    let stale: Vec<_> = ALLOWLIST
        .iter()
        .zip(&allow_used)
        .chain(TEST_HOOKS.iter().zip(&hook_used))
        .chain(SHADOWED_HOOKS.iter().zip(&shadowed_used))
        .filter(|(_, used)| !**used)
        .map(|((path, name, _), _)| format!("{path}: {name}"))
        .collect();
    assert!(
        flagged.is_empty(),
        "{} public items have no caller outside their crate but tests; \
         delete them, make them private or pub(crate), or list them in \
         TEST_HOOKS (tests only) or ALLOWLIST (with a consumer):\n{}",
        flagged.len(),
        flagged.join("\n")
    );
    assert!(
        stale.is_empty(),
        "stale allowlist or test-hook entries:\n{}",
        stale.join("\n")
    );
}

/// Appends every `.rs` file under `dir`, skipping build output.
fn collect_rs(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = fs::read_dir(dir) else {
        return;
    };
    for entry in entries {
        let path = entry.expect("directory entry").path();
        let name = path.file_name().and_then(|n| n.to_str()).unwrap_or("");
        if path.is_dir() {
            if name != "target" && name != "out" && !name.starts_with('.') {
                collect_rs(&path, out);
            }
        } else if name.ends_with(".rs") {
            out.push(path);
        }
    }
}

/// The crate a library file (`crates/<crate>/src/**` outside `src/bin/`)
/// belongs to; `None` for every other file.
fn library_crate(rel: &Path) -> Option<String> {
    let parts: Vec<_> = rel.iter().filter_map(|p| p.to_str()).collect();
    let library =
        parts.len() >= 4 && parts[0] == "crates" && parts[2] == "src" && parts[3] != "bin";
    library.then(|| parts[1].to_owned())
}

#[derive(Clone, Copy, Debug, PartialEq)]
enum Tok<'a> {
    Word(&'a str),
    Punct(u8),
}

#[derive(Clone, Copy, Debug)]
struct Token<'a> {
    tok: Tok<'a>,
    line: usize,
}

/// Splits source into words and punctuation, dropping comments, string
/// literals (raw and byte strings included) and char literals.
/// Lifetimes and labels keep their name as a word.
fn lex(src: &str) -> Vec<Token<'_>> {
    let b = src.as_bytes();
    let mut out = Vec::new();
    let (mut i, mut line) = (0, 1);
    // Advances past `b[i..end]`, counting the newlines it holds.
    let skip = |i: &mut usize, line: &mut usize, end: usize| {
        *line += b[*i..end].iter().filter(|&&c| c == b'\n').count();
        *i = end;
    };
    while i < b.len() {
        let c = b[i];
        if c == b'/' && b.get(i + 1) == Some(&b'/') {
            let end = b[i..]
                .iter()
                .position(|&c| c == b'\n')
                .map_or(b.len(), |p| i + p);
            i = end;
        } else if c == b'/' && b.get(i + 1) == Some(&b'*') {
            let (mut j, mut depth) = (i + 2, 1);
            while j < b.len() && depth > 0 {
                if b[j] == b'/' && b.get(j + 1) == Some(&b'*') {
                    depth += 1;
                    j += 2;
                } else if b[j] == b'*' && b.get(j + 1) == Some(&b'/') {
                    depth -= 1;
                    j += 2;
                } else {
                    j += 1;
                }
            }
            skip(&mut i, &mut line, j);
        } else if c == b'"' {
            let end = quoted_end(b, i + 1, b'"');
            skip(&mut i, &mut line, end);
        } else if c == b'\'' {
            i = char_or_lifetime_end(src, i);
        } else if c.is_ascii_alphabetic() || c == b'_' {
            let start = i;
            while i < b.len() && (b[i].is_ascii_alphanumeric() || b[i] == b'_') {
                i += 1;
            }
            let word = &src[start..i];
            let next = b.get(i).copied();
            match (word, next) {
                ("b" | "c", Some(b'"')) => {
                    let end = quoted_end(b, i + 1, b'"');
                    skip(&mut i, &mut line, end);
                }
                ("b", Some(b'\'')) => i = quoted_end(b, i + 1, b'\''),
                ("r" | "br" | "cr", Some(b'"' | b'#'))
                    if b[i..].iter().find(|&&c| c != b'#') == Some(&b'"') =>
                {
                    let hashes = b[i..].iter().take_while(|&&c| c == b'#').count();
                    let body = i + hashes + 1;
                    let close = [&b"\""[..], &b"#".repeat(hashes)].concat();
                    let end = b[body..]
                        .windows(close.len())
                        .position(|w| w == close)
                        .map_or(b.len(), |p| body + p + close.len());
                    skip(&mut i, &mut line, end);
                }
                // Raw identifier `r#name`: the word is `name`.
                ("r", Some(b'#')) => i += 1,
                _ => out.push(Token {
                    tok: Tok::Word(word),
                    line,
                }),
            }
        } else if c.is_ascii_digit() {
            while i < b.len() && (b[i].is_ascii_alphanumeric() || b[i] == b'_') {
                i += 1;
            }
        } else {
            if c == b'\n' {
                line += 1;
            } else if !c.is_ascii_whitespace() {
                out.push(Token {
                    tok: Tok::Punct(c),
                    line,
                });
            }
            i += 1;
        }
    }
    out
}

/// The index just past the closing `close` of a literal whose body starts
/// at `start`, honouring backslash escapes.
fn quoted_end(b: &[u8], start: usize, close: u8) -> usize {
    let mut j = start;
    while j < b.len() && b[j] != close {
        j += if b[j] == b'\\' { 2 } else { 1 };
    }
    (j + 1).min(b.len())
}

/// At a `'`: the end of a char literal (`'a'`, `'"'`, `'\''`,
/// `'\u{..}'`), or just past the quote of a lifetime or label, so that
/// its name lexes as a word.
fn char_or_lifetime_end(src: &str, i: usize) -> usize {
    let b = src.as_bytes();
    if b.get(i + 1) == Some(&b'\\') {
        return quoted_end(b, i + 1, b'\'');
    }
    match src[i + 1..].chars().next() {
        Some(c) if b.get(i + 1 + c.len_utf8()) == Some(&b'\'') => i + 2 + c.len_utf8(),
        _ => i + 1,
    }
}

/// Drops re-export items (`pub use …;`, `pub(…) use …;`) whole.
fn strip_reexports(tokens: Vec<Token<'_>>) -> Vec<Token<'_>> {
    let mut out = Vec::with_capacity(tokens.len());
    let mut i = 0;
    while i < tokens.len() {
        if tokens[i].tok == Tok::Word("pub") {
            let mut j = i + 1;
            if tokens.get(j).map(|t| t.tok) == Some(Tok::Punct(b'(')) {
                while j < tokens.len() && tokens[j].tok != Tok::Punct(b')') {
                    j += 1;
                }
                j += 1;
            }
            if tokens.get(j).map(|t| t.tok) == Some(Tok::Word("use")) {
                while j < tokens.len() && tokens[j].tok != Tok::Punct(b';') {
                    j += 1;
                }
                i = j + 1;
                continue;
            }
        }
        out.push(tokens[i]);
        i += 1;
    }
    out
}

/// The index of the first token of a file's `#[cfg(test)]` tail, or the
/// token count when it has none.
fn test_tail(tokens: &[Token<'_>]) -> usize {
    const CFG_TEST: [Tok<'static>; 7] = [
        Tok::Punct(b'#'),
        Tok::Punct(b'['),
        Tok::Word("cfg"),
        Tok::Punct(b'('),
        Tok::Word("test"),
        Tok::Punct(b')'),
        Tok::Punct(b']'),
    ];
    tokens
        .windows(CFG_TEST.len())
        .position(|w| w.iter().map(|t| t.tok).eq(CFG_TEST))
        .unwrap_or(tokens.len())
}

/// `(line, kind, name)` of every `pub fn`, `pub const`, `pub static`
/// and named `pub` field before the first `#[cfg(test)]`. `pub(crate)`
/// and narrower are not public.
fn public_items(tokens: &[Token<'_>]) -> Vec<(usize, &'static str, String)> {
    let code = &tokens[..test_tail(tokens)];
    let word = |k: usize| match code.get(k).map(|t| t.tok) {
        Some(Tok::Word(w)) => Some(w),
        _ => None,
    };
    let punct = |k: usize| match code.get(k).map(|t| t.tok) {
        Some(Tok::Punct(p)) => Some(p),
        _ => None,
    };
    let mut items = Vec::new();
    for (k, token) in code.iter().enumerate() {
        if token.tok != Tok::Word("pub") {
            continue;
        }
        let mut j = k + 1;
        // Qualifiers: `const fn`, `unsafe fn`, `async fn`, `static mut`.
        while matches!(word(j), Some("const" | "unsafe" | "async" | "extern"))
            && matches!(word(j + 1), Some("fn" | "unsafe" | "async" | "extern"))
        {
            j += 1;
        }
        let item = match word(j) {
            Some("fn") => word(j + 1).map(|name| ("fn", name)),
            Some("const") => word(j + 1).map(|name| ("const", name)),
            Some("static") => word(j + 1)
                .filter(|w| *w != "mut")
                .or(word(j + 2))
                .map(|name| ("static", name)),
            // `pub name: Type` is a field; `pub name::path` is not.
            Some(name) if punct(j + 1) == Some(b':') && punct(j + 2) != Some(b':') => {
                Some(("field", name))
            }
            _ => None,
        };
        if let Some((kind, name)) = item.filter(|(_, n)| *n != "_") {
            items.push((token.line, kind, name.to_owned()));
        }
    }
    items
}

/// The words a source text leaves after lexing and re-export stripping.
fn code_words(src: &str) -> Vec<&str> {
    strip_reexports(lex(src))
        .into_iter()
        .filter_map(|t| match t.tok {
            Tok::Word(w) => Some(w),
            Tok::Punct(_) => None,
        })
        .collect()
}

#[test]
fn lexer_keeps_only_words_of_code() {
    let src = r##"
        pub use a::{reexported, also_reexported};
        pub(crate) use b::crate_reexport;
        fn f<'a>(x: &'a str) -> char { let _ = "in_string \" in_string2"; '"' }
        // in_line_comment
        /* in_block /* in_nested */ in_block2 */
        let _ = r#"in_raw "quoted" in_raw2"#;
        let _ = (b"in_bytes", b'"', '\'', '\u{1F600}', 'z');
        'outer: loop { break 'outer; }
        kept_word
    "##;
    let words = code_words(src);
    for gone in [
        "reexported",
        "also_reexported",
        "crate_reexport",
        "in_string",
        "in_string2",
        "in_line_comment",
        "in_block",
        "in_nested",
        "in_block2",
        "in_raw",
        "quoted",
        "in_raw2",
        "in_bytes",
        "z",
    ] {
        assert!(!words.contains(&gone), "{gone} survived lexing: {words:?}");
    }
    for kept in ["f", "a", "str", "char", "outer", "kept_word"] {
        assert!(words.contains(&kept), "{kept} was lost: {words:?}");
    }
}

#[test]
fn census_lists_public_items_before_the_test_tail() {
    let src = "
        pub fn listed_fn() {}
        pub const fn listed_const_fn() {}
        pub const LISTED_CONST: u8 = 0;
        pub static mut LISTED_STATIC: u8 = 0;
        pub(crate) fn narrowed() {}
        fn private() {}
        pub struct Type { pub listed_field: u8, pub(crate) narrowed_field: u8, private_field: u8 }
        pub struct Tuple(pub u8);
        pub use some::path;
        #[cfg(test)]
        mod tests { pub fn in_tail() {} }
    ";
    let names: Vec<_> = public_items(&lex(src))
        .into_iter()
        .map(|(_, kind, name)| format!("{kind} {name}"))
        .collect();
    assert_eq!(
        names,
        [
            "fn listed_fn",
            "fn listed_const_fn",
            "const LISTED_CONST",
            "static LISTED_STATIC",
            "field listed_field"
        ]
    );
}
