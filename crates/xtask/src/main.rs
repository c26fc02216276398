//! `cargo xtask` — repo automation entry point.
//!
//! Subcommands:
//!
//! * `lint` — run the token-level invariant lints (see [`xtask`] crate
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
    let root = Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .expect("xtask sits two levels below the repo root"); // PANIC-OK: dev tool, structural invariant of this repo.
    match args.first().map(String::as_str) {
        Some("lint") => report(
            root,
            "lint",
            "safety-comments, paper-constants, determinism, no-panics, no-direct-fs",
            &xtask::lint_repo(root),
        ),
        Some("analyze") => {
            let violations = xtask::analyze_repo(root);
            if args.iter().any(|a| a == "--json") {
                println!("{}", xtask::violations_json(root, &violations));
                return exit(&violations);
            }
            report(
                root,
                "analyze",
                "lock-order, durability-ordering, metrics-drift",
                &violations,
            )
        }
        Some("metrics") => {
            for d in xtask::collect_repo_metrics(root) {
                let rel = d.file.strip_prefix(root).unwrap_or(&d.file).display();
                println!("{}\t{}\t{}\t{rel}:{}", d.name, d.kind, d.krate, d.line);
            }
            ExitCode::SUCCESS
        }
        other => {
            if let Some(other) = other {
                eprintln!("xtask: unknown command `{other}`");
            }
            eprintln!("usage: cargo xtask <lint | analyze [--json] | metrics>");
            ExitCode::FAILURE
        }
    }
}

fn exit(violations: &[xtask::Violation]) -> ExitCode {
    if violations.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Prints `xtask <cmd>: clean (<lints>)`, or one `path:line: [lint]
/// message` per violation (paths relative to the root read better in CI
/// logs) and the count.
fn report(root: &Path, cmd: &str, lints: &str, violations: &[xtask::Violation]) -> ExitCode {
    if violations.is_empty() {
        println!("xtask {cmd}: clean ({lints})");
    }
    for v in violations {
        let rel = v.file.strip_prefix(root).unwrap_or(&v.file).display();
        eprintln!("{rel}:{}: [{}] {}", v.line, v.lint, v.message);
    }
    if !violations.is_empty() {
        eprintln!("xtask {cmd}: {} violation(s)", violations.len());
    }
    exit(violations)
}
