//! The analyze token/scope tracker must never panic, whatever bytes it
//! is fed: the scanners run over every source file in the repo, so a
//! panic on odd-but-legal text (multibyte identifiers, unbalanced
//! braces, comment markers inside strings, truncated statements) would
//! take the whole lint gate down. Two generators drive the property:
//! fully arbitrary char soup, and a "rustish" token stream that steers
//! the generator toward the shapes the tracker actually parses
//! (acquisitions, annotations, renames, registrations).

use std::path::{Path, PathBuf};

use proptest::prelude::*;
use xtask::{
    collect_metric_defs, lex, parse_metrics_inventory, scan_determinism, scan_direct_fs,
    scan_durability, scan_lock_order, scan_no_panics, scan_paper_constants, scan_safety,
    violations_json,
};

/// Tokens biased toward every construct the tracker inspects.
const RUSTISH: &[&str] = &[
    "fn",
    "f",
    "(",
    ")",
    "{",
    "}",
    "\n",
    ";",
    ",",
    "=",
    "==",
    "=>",
    "let",
    "mut",
    "g",
    "Ok(",
    "Some(",
    "s.a.lock()",
    ".read()",
    ".write()",
    "lock(",
    "shim_lock(",
    ".unwrap()",
    ".expect(\"x\")",
    ".unwrap_or_else(|e| e.into_inner())",
    "drop(g)",
    "drop(",
    "// LOCK-ORDER: a 10",
    "// LOCK-ORDER: b",
    "// LOCK-ORDER-OK: why",
    "// LOCK-HELD: a via g",
    "// LOCK-HELD:",
    "// DURABILITY-OK: why",
    "env.rename(a, b)",
    "::rename(",
    ".create_writable(",
    ".sync()",
    ".sync_dir(",
    "reg.counter(\"lsm.x\")",
    ".gauge(",
    ".histogram(&format!(\"offload.s{i}.q\"))",
    "\"",
    "\\",
    "//",
    "#[cfg(test)]",
    "mod tests",
    "| `lsm.x` | counter | lsm | doc |",
    "é🦀",
];

fn run_all(src: &str) {
    let path = Path::new("generated.rs");
    let root = Path::new("/");
    let mut v = scan_lock_order(path, src);
    v.extend(scan_durability(path, src));
    let _ = violations_json(root, &v);
    let _ = collect_metric_defs(path, src, "lsm");
    let _ = parse_metrics_inventory(src);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn tracker_survives_arbitrary_text(chars in prop::collection::vec(any::<char>(), 0..1200)) {
        run_all(&chars.into_iter().collect::<String>());
    }

    #[test]
    fn tracker_survives_rustish_token_soup(
        toks in prop::collection::vec(
            prop::sample::select(RUSTISH.to_vec()),
            0..400,
        ),
        seps in prop::collection::vec(prop_oneof![Just(" "), Just(""), Just("\n")], 0..400),
    ) {
        let mut src = String::new();
        for (i, t) in toks.iter().enumerate() {
            src.push_str(t);
            src.push_str(seps.get(i).copied().unwrap_or(" "));
        }
        run_all(&src);
    }
}

/// Lexer edge cases the tracker tokens above do not reach: char, byte
/// and raw-string literals, lifetimes, nested and unterminated block
/// comments, number shapes.
const LEXISH: &[&str] = &[
    "'",
    "'\\''",
    "'\"'",
    "'{'",
    "b'}'",
    "b'\\\\'",
    "'a",
    "'static",
    "r\"",
    "r#\"",
    "\"#",
    "br##\"",
    "r#type",
    "c\"x\"",
    "/*",
    "*/",
    "/* a /* b */ c */",
    "///",
    "1.5e-3",
    "0x1f",
    "2.",
    "..=",
    "::",
    "\\u{1F980}",
];

/// The tokens of `src` and the whitespace between them rebuild it byte
/// for byte, and each token's line is the line it starts on.
fn lex_rebuilds(src: &str) -> Result<(), String> {
    let mut rebuilt = String::with_capacity(src.len());
    let mut line = 1;
    for t in lex(src) {
        if t.start < rebuilt.len() || t.text.is_empty() {
            return Err(format!("token {t:?} overlaps or is empty"));
        }
        let gap = &src[rebuilt.len()..t.start];
        if !gap.bytes().all(|b| b.is_ascii_whitespace()) {
            return Err(format!("non-whitespace gap {gap:?} before {t:?}"));
        }
        line += gap.matches('\n').count();
        if t.line != line {
            return Err(format!("token {t:?} is on line {line}"));
        }
        line += t.text.matches('\n').count();
        rebuilt.push_str(gap);
        rebuilt.push_str(t.text);
    }
    let tail = &src[rebuilt.len()..];
    if !tail.bytes().all(|b| b.is_ascii_whitespace()) {
        return Err(format!("untokenized tail {tail:?}"));
    }
    rebuilt.push_str(tail);
    if rebuilt != src {
        return Err("tokens and gaps do not rebuild the input".into());
    }
    Ok(())
}

/// Every single-line lint over `src`.
fn run_rules(src: &str) {
    let path = Path::new("generated.rs");
    let _ = scan_safety(path, src);
    let _ = scan_paper_constants(path, src);
    let _ = scan_determinism(path, src);
    let _ = scan_no_panics(path, src);
    let _ = scan_direct_fs(path, src);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn lexer_rebuilds_arbitrary_text(chars in prop::collection::vec(any::<char>(), 0..1200)) {
        let src: String = chars.into_iter().collect();
        if let Err(e) = lex_rebuilds(&src) {
            panic!("{e} in {src:?}");
        }
        run_rules(&src);
    }

    #[test]
    fn lexer_rebuilds_rustish_token_soup(
        toks in prop::collection::vec(prop::sample::select([RUSTISH, LEXISH].concat()), 0..400),
        seps in prop::collection::vec(prop_oneof![Just(" "), Just(""), Just("\n")], 0..400),
    ) {
        let mut src = String::new();
        for (i, t) in toks.iter().enumerate() {
            src.push_str(t);
            src.push_str(seps.get(i).copied().unwrap_or(" "));
        }
        if let Err(e) = lex_rebuilds(&src) {
            panic!("{e} in {src:?}");
        }
        run_rules(&src);
        run_all(&src);
    }
}

/// The round trip holds for every Rust file in the repo.
#[test]
fn lexer_rebuilds_every_repo_source_file() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .expect("repo root");
    let mut dirs: Vec<PathBuf> = ["crates", "shims", "tests", "examples"]
        .iter()
        .map(|d| root.join(d))
        .collect();
    let mut files = 0;
    while let Some(dir) = dirs.pop() {
        for entry in std::fs::read_dir(&dir).expect("readable dir") {
            let path = entry.expect("dir entry").path();
            if path.is_dir() && !path.ends_with("target") {
                dirs.push(path);
            } else if path.extension().is_some_and(|e| e == "rs") {
                let src = std::fs::read_to_string(&path).expect("readable source");
                if let Err(e) = lex_rebuilds(&src) {
                    panic!("{}: {e}", path.display());
                }
                files += 1;
            }
        }
    }
    assert!(
        files > 100,
        "only {files} .rs files found under {}",
        root.display()
    );
}
