//! Proof that each xtask lint is live: every fixture under `fixtures/`
//! violates its lint at known lines (and demonstrates the waiver and
//! test-exemption forms, which must NOT fire). The final test runs the
//! full lint suite over the real repo — the same gate `cargo xtask lint`
//! applies in CI — so a regression in either the tree or the scanner
//! fails `cargo test`.

use std::path::{Path, PathBuf};

use xtask::{
    lint_repo, scan_determinism, scan_direct_fs, scan_no_panics, scan_paper_constants, scan_safety,
    Violation,
};

fn fixture(name: &str) -> (PathBuf, String) {
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("fixtures")
        .join(name);
    let source = std::fs::read_to_string(&path).expect("fixture readable");
    (path, source)
}

fn lines(violations: &[Violation]) -> Vec<usize> {
    violations.iter().map(|v| v.line).collect()
}

#[test]
fn safety_lint_fires_on_uncommented_unsafe_only() {
    let (path, src) = fixture("safety.rs");
    let v = scan_safety(&path, &src);
    assert_eq!(
        lines(&v),
        vec![7],
        "exactly the SAFETY-less unsafe must fire: {v:#?}"
    );
    assert!(v.iter().all(|v| v.lint == "safety-comments"));
}

#[test]
fn paper_constants_lint_fires_on_inline_numbers_only() {
    let (path, src) = fixture("constants.rs");
    let v = scan_paper_constants(&path, &src);
    assert_eq!(
        lines(&v),
        vec![4, 13],
        "the inline const and the magic float must fire; waived and \
         test-mod constants must not: {v:#?}"
    );
    assert!(v.iter().all(|v| v.lint == "paper-constants"));
}

#[test]
fn determinism_lint_fires_on_wall_clock_only() {
    let (path, src) = fixture("determinism.rs");
    let v = scan_determinism(&path, &src);
    assert_eq!(
        lines(&v),
        vec![8, 12],
        "Instant::now and thread::sleep must fire; the waived call and \
         test-mod timing must not: {v:#?}"
    );
    assert!(v.iter().all(|v| v.lint == "determinism"));
}

#[test]
fn no_panics_lint_fires_on_unwaived_panics_only() {
    let (path, src) = fixture("panics.rs");
    let v = scan_no_panics(&path, &src);
    assert_eq!(
        lines(&v),
        vec![6, 10, 14],
        "unwrap/expect/panic! must fire; unwrap_or, waived calls, and \
         test-mod unwraps must not: {v:#?}"
    );
    assert!(v.iter().all(|v| v.lint == "no-panics"));
}

#[test]
fn direct_fs_lint_fires_on_unwaived_std_fs_only() {
    let (path, src) = fixture("direct_fs.rs");
    let v = scan_direct_fs(&path, &src);
    assert_eq!(
        lines(&v),
        vec![5, 8],
        "the bare import and the inline call must fire; waived calls, \
         string mentions, and test-mod uses must not: {v:#?}"
    );
    assert!(v.iter().all(|v| v.lint == "no-direct-fs"));
}

/// The repo itself must be lint-clean — this is the `cargo xtask lint`
/// gate, enforced from the test suite too so plain `cargo test` catches
/// violations without a separate CI step.
#[test]
fn repository_is_lint_clean() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .expect("repo root");
    let violations = lint_repo(root);
    assert!(
        violations.is_empty(),
        "repo lint violations:\n{}",
        violations
            .iter()
            .map(|v| v.to_string())
            .collect::<Vec<_>>()
            .join("\n")
    );
}

/// A `b'"'` opens no string and a block comment holds no call: the
/// lexer reads both as the tokens they are.
#[test]
fn no_panics_lint_reads_literals_and_block_comments_as_tokens() {
    let (path, src) = fixture("lexer_panics.rs");
    let v = scan_no_panics(&path, &src);
    assert_eq!(
        lines(&v),
        vec![6],
        "the unwrap after `b'\"'` must fire; the one inside `/* */` must not: {v:#?}"
    );
}
