//! Public surface = what has a caller.
//!
//! Every `pub fn`, `pub const` and `pub static` in library code
//! (`crates/*/src/**/*.rs`, minus `src/bin/` and each file's
//! `#[cfg(test)]` tail) must be named as a word of code in some file
//! outside its own crate's library: any `.rs` file under `crates/`
//! (binaries, `tests/` and `benches/` included), `src/`, `tests/`,
//! `examples/` or `benchmark/`. An item only its own file names is
//! private; an item only its own crate's library names is `pub(crate)`,
//! after which rustc's `dead_code` lint takes over.
//!
//! Before words are matched, a small lexer removes comments, string and
//! char literals and whole re-export items (`pub use …;`,
//! `pub(crate) use …;`): a doc link or a re-export is not a caller.
//!
//! Word matching is a floor, not a proof. A method called `new`, `len`
//! or `run` is always "used", because some other file names a
//! different item with that name. Types (`struct`, `enum`, `trait`,
//! `type`) are out of scope: signatures use them without naming them.
//!
//! The one way round the rule is [`ALLOWLIST`], at most eight entries,
//! each naming the consumer that keeps the item public: code in the tree
//! or an open ROADMAP item. An entry that stops matching a flagged item
//! fails the test too.

use std::collections::HashMap;
use std::fs;
use std::path::{Path, PathBuf};

/// `(path, name, consumer)`: public items with no caller outside their
/// crate that stay public anyway, and the code or ROADMAP item that will
/// call them.
const ALLOWLIST: &[(&str, &str, &str)] = &[];

/// Directories (relative to the repository root) whose `.rs` files can
/// call library items.
const CALLER_ROOTS: &[&str] = &["crates", "src", "tests", "examples", "benchmark"];

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

    // Which files name each word, the library crate each file belongs to
    // (if any), and every public item with its file.
    let mut named_in: HashMap<String, Vec<usize>> = HashMap::new();
    let mut crate_of = Vec::with_capacity(files.len());
    let mut items = Vec::new();
    for (index, path) in files.iter().enumerate() {
        let source = fs::read_to_string(path).expect("read source file");
        let tokens = strip_reexports(lex(&source));
        for token in &tokens {
            if let Tok::Word(word) = token.tok {
                let files = named_in.entry(word.to_owned()).or_default();
                if files.last() != Some(&index) {
                    files.push(index);
                }
            }
        }
        let rel = path.strip_prefix(root).expect("under the root");
        crate_of.push(library_crate(rel));
        if crate_of[index].is_some() {
            for (line, name) in public_items(&tokens) {
                items.push((index, rel.to_string_lossy().into_owned(), line, name));
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
    for (index, rel, line, name) in &items {
        let mut callers = named_in[name].iter().filter(|&f| f != index).peekable();
        let verdict = if callers.peek().is_none() {
            "named in no other file"
        } else if callers.all(|&f| crate_of[f] == crate_of[*index]) {
            "named only inside its own crate"
        } else {
            continue;
        };
        match ALLOWLIST
            .iter()
            .position(|(path, allowed, _)| path == rel && allowed == name)
        {
            Some(entry) => allow_used[entry] = true,
            None => flagged.push(format!("{rel}:{line}: {name} ({verdict})")),
        }
    }
    println!(
        "public surface: {} items, {} allowlisted, {} flagged",
        items.len(),
        allow_used.iter().filter(|used| **used).count(),
        flagged.len()
    );
    let stale: Vec<_> = ALLOWLIST
        .iter()
        .zip(&allow_used)
        .filter(|(_, used)| !**used)
        .map(|((path, name, _), _)| format!("{path}: {name}"))
        .collect();
    assert!(
        stale.is_empty(),
        "allowlist entries that match no flagged item:\n{}",
        stale.join("\n")
    );
    assert!(
        flagged.is_empty(),
        "{} public items have no caller outside their crate; delete them, \
         make them private or pub(crate), or allowlist them with a consumer:\n{}",
        flagged.len(),
        flagged.join("\n")
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

/// `(line, name)` of every `pub fn` / `pub const` / `pub static` before
/// the first `#[cfg(test)]`. `pub(crate)` and narrower are not public.
fn public_items(tokens: &[Token<'_>]) -> Vec<(usize, String)> {
    const CFG_TEST: [Tok<'static>; 7] = [
        Tok::Punct(b'#'),
        Tok::Punct(b'['),
        Tok::Word("cfg"),
        Tok::Punct(b'('),
        Tok::Word("test"),
        Tok::Punct(b')'),
        Tok::Punct(b']'),
    ];
    let end = tokens
        .windows(CFG_TEST.len())
        .position(|w| w.iter().map(|t| t.tok).eq(CFG_TEST))
        .unwrap_or(tokens.len());
    let code = &tokens[..end];
    let word = |k: usize| match code.get(k).map(|t| t.tok) {
        Some(Tok::Word(w)) => Some(w),
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
        let name = match word(j) {
            Some("fn" | "const") => word(j + 1),
            Some("static") => word(j + 1).filter(|w| *w != "mut").or(word(j + 2)),
            _ => None,
        };
        if let Some(name) = name.filter(|n| *n != "_") {
            items.push((token.line, name.to_owned()));
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
        pub struct Type;
        #[cfg(test)]
        mod tests { pub fn in_tail() {} }
    ";
    let names: Vec<_> = public_items(&lex(src))
        .into_iter()
        .map(|(_, n)| n)
        .collect();
    assert_eq!(
        names,
        [
            "listed_fn",
            "listed_const_fn",
            "LISTED_CONST",
            "LISTED_STATIC"
        ]
    );
}
