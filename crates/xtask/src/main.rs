//! `cargo xtask` — repo automation entry point.
//!
//! Subcommands:
//!
//! * `lint` — run the line-based invariant lints (see [`xtask`] crate
//!   docs) over the whole repo. Exits nonzero if any lint fires; prints
//!   one `path:line: [lint] message` per violation.
//! * `analyze [--json]` — run the scope-aware concurrency/durability
//!   lints (lock-order, durability-ordering, metrics-drift). `--json`
//!   emits a machine-readable violation array on stdout for CI
//!   annotation.
//! * `metrics` — print the live metric inventory (name, kind, crate,
//!   site) collected from source, for regenerating METRICS.md rows.

use std::path::Path;
use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("lint") => lint(),
        Some("analyze") => analyze(args.iter().any(|a| a == "--json")),
        Some("metrics") => metrics(),
        Some(other) => {
            eprintln!("xtask: unknown command `{other}`");
            eprintln!("usage: cargo xtask <lint | analyze [--json] | metrics>");
            ExitCode::FAILURE
        }
        None => {
            eprintln!("usage: cargo xtask <lint | analyze [--json] | metrics>");
            ExitCode::FAILURE
        }
    }
}

/// The xtask manifest lives at `<root>/crates/xtask`.
fn repo_root() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .expect("xtask sits two levels below the repo root") // PANIC-OK: dev tool, structural invariant of this repo.
}

fn print_violations(root: &Path, violations: &[xtask::Violation]) {
    for v in violations {
        // Paths relative to the root read better in CI logs.
        let rel = v
            .file
            .strip_prefix(root)
            .unwrap_or(&v.file)
            .display()
            .to_string();
        eprintln!("{rel}:{}: [{}] {}", v.line, v.lint, v.message);
    }
}

fn lint() -> ExitCode {
    let root = repo_root();
    let violations = xtask::lint_repo(root);
    if violations.is_empty() {
        println!(
            "xtask lint: clean (safety-comments, paper-constants, determinism, no-panics, no-direct-fs)"
        );
        ExitCode::SUCCESS
    } else {
        print_violations(root, &violations);
        eprintln!("xtask lint: {} violation(s)", violations.len());
        ExitCode::FAILURE
    }
}

fn analyze(json: bool) -> ExitCode {
    let root = repo_root();
    let violations = xtask::analyze_repo(root);
    if json {
        println!("{}", xtask::violations_json(root, &violations));
        return if violations.is_empty() {
            ExitCode::SUCCESS
        } else {
            ExitCode::FAILURE
        };
    }
    if violations.is_empty() {
        println!("xtask analyze: clean (lock-order, durability-ordering, metrics-drift)");
        ExitCode::SUCCESS
    } else {
        print_violations(root, &violations);
        eprintln!("xtask analyze: {} violation(s)", violations.len());
        ExitCode::FAILURE
    }
}

fn metrics() -> ExitCode {
    let root = repo_root();
    for d in xtask::collect_repo_metrics(root) {
        let rel = d
            .file
            .strip_prefix(root)
            .unwrap_or(&d.file)
            .display()
            .to_string();
        println!("{}\t{}\t{}\t{rel}:{}", d.name, d.kind, d.krate, d.line);
    }
    ExitCode::SUCCESS
}
