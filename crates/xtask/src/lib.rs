//! Repo invariant lints — the checks `cargo xtask lint` runs.
//!
//! These are *repo* rules, not language rules: things rustc and clippy
//! cannot know. Each lint supports a machine-checked waiver comment, so
//! every exception in the tree carries its justification next to the
//! code:
//!
//! | lint              | rule                                                   | waiver             |
//! |-------------------|--------------------------------------------------------|--------------------|
//! | `safety-comments` | every `unsafe` site carries a `// SAFETY:` comment     | (the comment *is* the waiver) |
//! | `paper-constants` | `fcae::timing` / `fcae::cpu_model` take every model constant from `fcae::paper_tables` (Tables II/III/V) — no inline magic numbers | `// PAPER-CONST-OK:` |
//! | `determinism`     | cycle-model and simulator code never reads wall clocks (`Instant::now`, `SystemTime`, `thread::sleep`) — modeled time only | `// DETERMINISM-OK:` |
//! | `no-panics`       | library code never `unwrap`/`expect`/`panic!` outside `#[cfg(test)]`; a waiver names the invariant that makes the panic unreachable (or why aborting is correct) | `// PANIC-OK:`     |
//! | `no-direct-fs`    | library code touches the filesystem only through `sstable::env` — no direct `std::fs` calls, so fault injection (`FaultEnv`), power-cut simulation and the in-memory env see every I/O | `// FS-OK:`        |
//!
//! Every lint reads the same two layers (`src/scan.rs`): a lexer that
//! splits a file into identifier, punctuation, literal and comment
//! tokens, and a scope pass that tracks brace depth, `fn` bodies,
//! `#[cfg(..test..)] mod` extents and statement starts. A rule matches
//! token sequences, so text inside comments, strings, char literals and
//! raw strings never fires one. The five rules above are rows of one
//! table (`RULES`): the tokens, the waiver, the files, whether tests
//! are exempt, and the message.
//!
//! A waiver counts when it appears in a `//` comment on the flagged line
//! or in the contiguous comment/attribute block directly above that
//! line or above the first line of its statement.
//!
//! What the lexer cannot see: code a macro generates (a `macro_rules!`
//! body is tokens like any other, its expansion is not). The fixture
//! tests in `tests/` pin the behavior that matters.
//!
//! The scope-aware lints (`cargo xtask analyze`: lock-order,
//! durability-ordering, metrics-drift) are in `src/analyze.rs`.

use std::fmt;
use std::ops::Range;
use std::path::{Path, PathBuf};

mod analyze;
mod scan;
pub use analyze::*;
use scan::Scan;
pub use scan::{lex, Kind, Token};

/// One lint finding.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation {
    /// File the finding is in.
    pub file: PathBuf,
    /// 1-based line number.
    pub line: usize,
    /// Which lint fired.
    pub lint: &'static str,
    /// Human-readable rule statement.
    pub message: String,
}

impl Violation {
    fn new(file: &Path, line: usize, lint: &'static str, message: impl Into<String>) -> Self {
        Violation {
            file: file.to_path_buf(),
            line,
            lint,
            message: message.into(),
        }
    }
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}",
            self.file.display(),
            self.line,
            self.lint,
            self.message
        )
    }
}

/// Float literals the model files may use inline: identity/zero values
/// and unit conversions. Everything else must be a named
/// `fcae::paper_tables` constant.
pub const FLOAT_ALLOWLIST: &[&str] = &["0.0", "1.0", "1e6", "1e-6", "1e-9"];

/// Library crates `no-panics` and `no-direct-fs` cover: everything a
/// downstream links against. `bench` (binaries + harness lib) and
/// `xtask` itself are tools, not libraries.
const LIBRARY_CRATES: &[&str] = &[
    "core",
    "fcae",
    "lsm",
    "obs",
    "offload",
    "server",
    "simkit",
    "snappy",
    "sstable",
    "systemsim",
    "workloads",
];

/// Crates whose `src/` must stay wall-clock-free (cycle model, the two
/// simulators, and the observability layer — whose only wall-clock use
/// is the explicitly waived [`obs::WallClock`]).
const DETERMINISTIC_CRATES: &[&str] = &["fcae", "obs", "simkit", "systemsim"];

/// The files a rule reads, as paths relative to the repo root.
#[derive(PartialEq)]
enum Scope {
    /// Every `.rs` under `crates/` and `shims/`, tests included.
    Everywhere,
    /// Exactly these files.
    Files(&'static [&'static str]),
    /// The `src/` of these crates, bin targets excluded.
    Crates(&'static [&'static str]),
}

impl Scope {
    fn covers(&self, rel: &Path) -> bool {
        match self {
            Scope::Everywhere => true,
            Scope::Files(files) => files.iter().any(|f| rel == Path::new(f)),
            Scope::Crates(crates) => {
                crates
                    .iter()
                    .any(|c| rel.starts_with(Path::new("crates").join(c).join("src")))
                    && !rel.components().any(|c| c.as_os_str() == "bin")
            }
        }
    }
}

/// What a rule fires on.
enum Find {
    /// Any of these token sequences, each written as source.
    Tokens(&'static [&'static str]),
    /// A `const` whose initializer is a number, or a float literal not in
    /// [`FLOAT_ALLOWLIST`]. A `const` hit reads `const`; a float hit
    /// reads the literal.
    PaperConstants,
}

/// One single-line lint: a row of `RULES`.
struct Rule {
    lint: &'static str,
    find: Find,
    waiver: &'static str,
    scope: Scope,
    tests_exempt: bool,
    /// The finding's message, given what matched.
    message: fn(&str) -> String,
}

/// The single-line lints, in report order.
const RULES: [Rule; 5] = [
    Rule {
        lint: "safety-comments",
        find: Find::Tokens(&["unsafe"]),
        waiver: "SAFETY:",
        scope: Scope::Everywhere,
        tests_exempt: false,
        message: |_| "`unsafe` without a `// SAFETY:` comment justifying it".into(),
    },
    Rule {
        lint: "paper-constants",
        find: Find::PaperConstants,
        waiver: "PAPER-CONST-OK:",
        scope: Scope::Files(&["crates/fcae/src/timing.rs", "crates/fcae/src/cpu_model.rs"]),
        tests_exempt: true,
        message: paper_message,
    },
    Rule {
        lint: "determinism",
        find: Find::Tokens(&["Instant::now", "SystemTime", "thread::sleep"]),
        waiver: "DETERMINISM-OK:",
        scope: Scope::Crates(DETERMINISTIC_CRATES),
        tests_exempt: true,
        message: |t| {
            format!(
                "wall-clock `{t}` in deterministic model code (waiver: // DETERMINISM-OK: <why>)"
            )
        },
    },
    Rule {
        lint: "no-panics",
        find: Find::Tokens(&[
            ".unwrap()",
            ".expect(",
            "panic!(",
            "unreachable!(",
            "todo!(",
            "unimplemented!(",
        ]),
        waiver: "PANIC-OK:",
        scope: Scope::Crates(LIBRARY_CRATES),
        tests_exempt: true,
        message: |t| {
            format!(
                "`{}` in library code (return an error, or waive: // PANIC-OK: <why>)",
                t.trim_start_matches('.')
            )
        },
    },
    Rule {
        lint: "no-direct-fs",
        find: Find::Tokens(&["std::fs"]),
        waiver: "FS-OK:",
        scope: Scope::Crates(LIBRARY_CRATES),
        tests_exempt: true,
        message: |_| {
            "direct `std::fs` use in library code; go through \
             `sstable::env::StorageEnv` (waiver: // FS-OK: <why>)"
                .into()
        },
    },
];

impl Rule {
    /// The rule's findings in one scanned file.
    fn run(&self, file: &Path, scan: &Scan) -> Vec<Violation> {
        let patterns: Vec<(&str, Vec<&str>)> = match self.find {
            Find::Tokens(ps) => ps
                .iter()
                .map(|p| (*p, lex(p).iter().map(|t| t.text).collect()))
                .collect(),
            Find::PaperConstants => Vec::new(),
        };
        let mut out = Vec::new();
        for line in scan.code_lines() {
            for (at, hit) in self.hits(scan, line, &patterns) {
                let t = &scan.code[at];
                if (self.tests_exempt && t.test) || scan.annotation(at, self.waiver).is_some() {
                    continue;
                }
                out.push(Violation::new(file, t.line, self.lint, (self.message)(hit)));
            }
        }
        out
    }

    /// What fires on one line (a range of code tokens): the token it
    /// starts at and what matched. A token sequence fires once a line.
    fn hits<'a>(
        &self,
        scan: &Scan<'a>,
        line: Range<usize>,
        patterns: &[(&'a str, Vec<&str>)],
    ) -> Vec<(usize, &'a str)> {
        let code = &scan.code;
        match self.find {
            Find::Tokens(_) => patterns
                .iter()
                .filter_map(|(p, toks)| {
                    line.clone().find(|&k| scan.reads(k, toks)).map(|k| (k, *p))
                })
                .collect(),
            Find::PaperConstants => {
                let decl = line.start + usize::from(code[line.start].text == "pub");
                let numeric_init = line
                    .clone()
                    .find(|&k| code[k].text == "=")
                    .filter(|&k| k + 1 < line.end)
                    .is_some_and(|k| code[k + 1].text.starts_with(|c: char| c.is_ascii_digit()));
                if decl < line.end && code[decl].text == "const" && numeric_init {
                    return vec![(line.start, "const")];
                }
                line.filter(|&k| k == 0 || code[k - 1].text != ".")
                    .filter_map(|k| float_literal(code[k].text).map(|lit| (k, lit)))
                    .filter(|(_, lit)| !FLOAT_ALLOWLIST.contains(lit))
                    .collect()
            }
        }
    }
}

fn paper_message(hit: &str) -> String {
    match hit {
        "const" => {
            "inline numeric constant; move it to fcae::paper_tables (paper Tables II/III/V)".into()
        }
        lit => format!(
            "magic float `{lit}`; name it in fcae::paper_tables (allowed inline: {FLOAT_ALLOWLIST:?})"
        ),
    }
}

/// The float-shaped head of a number literal (`1.5`, `2e3`, `1e-6`; a
/// type suffix dropped), or `None` for an integer or a non-number.
fn float_literal(text: &str) -> Option<&str> {
    let suffix = text.find(|c: char| c.is_ascii_alphabetic() && !matches!(c, 'e' | 'E'));
    let head = &text[..suffix.unwrap_or(text.len())];
    (head.starts_with(|c: char| c.is_ascii_digit()) && head.contains(['.', 'e', 'E']))
        .then_some(head)
}

/// Runs row `rule` of `RULES` over one file's source.
fn scan_rule(rule: usize, file: &Path, source: &str) -> Vec<Violation> {
    RULES[rule].run(file, &Scan::new(source))
}

/// `safety-comments` over one file (the crate docs state each rule).
pub fn scan_safety(file: &Path, source: &str) -> Vec<Violation> {
    scan_rule(0, file, source)
}

/// `paper-constants` over one file.
pub fn scan_paper_constants(file: &Path, source: &str) -> Vec<Violation> {
    scan_rule(1, file, source)
}

/// `determinism` over one file.
pub fn scan_determinism(file: &Path, source: &str) -> Vec<Violation> {
    scan_rule(2, file, source)
}

/// `no-panics` over one file.
pub fn scan_no_panics(file: &Path, source: &str) -> Vec<Violation> {
    scan_rule(3, file, source)
}

/// `no-direct-fs` over one file.
pub fn scan_direct_fs(file: &Path, source: &str) -> Vec<Violation> {
    scan_rule(4, file, source)
}

// ---------------------------------------------------------------------
// Repo-level drivers
// ---------------------------------------------------------------------

/// Recursively collects `.rs` files under `dir`, skipping `target/` and
/// xtask's own lint fixtures (which exist to *violate* the lints).
fn rs_files(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    for entry in entries.flatten() {
        let path = entry.path();
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if path.is_dir() {
            if name == "target" || name == "fixtures" || name.starts_with('.') {
                continue;
            }
            rs_files(&path, out);
        } else if name.ends_with(".rs") {
            out.push(path);
        }
    }
    out.sort();
}

fn read(path: &Path) -> String {
    // PANIC-OK: xtask is a dev tool; an unreadable source file should
    // abort the lint run loudly rather than pass silently.
    std::fs::read_to_string(path)
        .unwrap_or_else(|e| panic!("xtask: cannot read {}: {e}", path.display()))
}

/// Runs every lint over the repo rooted at `root`: each file is lexed
/// once, and the findings come out rule by rule (rules that share a
/// scope file by file, together).
pub fn lint_repo(root: &Path) -> Vec<Violation> {
    let mut files = Vec::new();
    rs_files(&root.join("crates"), &mut files);
    rs_files(&root.join("shims"), &mut files);
    let mut found: [Vec<Violation>; RULES.len()] = Default::default();
    for f in &files {
        let rel = f.strip_prefix(root).unwrap_or(f);
        let source = read(f);
        let scan = Scan::new(&source);
        for rule in RULES.iter().filter(|r| r.scope.covers(rel)) {
            let slot = RULES.iter().position(|r| r.scope == rule.scope);
            found[slot.unwrap_or(0)].extend(rule.run(f, &scan));
        }
    }
    found.into_iter().flatten().collect()
}
