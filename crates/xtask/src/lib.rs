//! Repo invariant lints — the checks `cargo xtask lint` runs.
//!
//! These are *repo* rules, not language rules: things rustc and clippy
//! cannot know, enforced by scanning source text. Each lint supports a
//! machine-checked waiver comment, so every exception in the tree carries
//! its justification next to the code:
//!
//! | lint              | rule                                                   | waiver             |
//! |-------------------|--------------------------------------------------------|--------------------|
//! | `safety-comments` | every `unsafe` site carries a `// SAFETY:` comment     | (the comment *is* the waiver) |
//! | `paper-constants` | `fcae::timing` / `fcae::cpu_model` take every model constant from `fcae::paper_tables` (Tables II/III/V) — no inline magic numbers | `// PAPER-CONST-OK:` |
//! | `determinism`     | cycle-model and simulator code never reads wall clocks (`Instant::now`, `SystemTime`, `thread::sleep`) — modeled time only | `// DETERMINISM-OK:` |
//! | `no-panics`       | library code never `unwrap`/`expect`/`panic!` outside `#[cfg(test)]` | `// PANIC-OK:`     |
//! | `no-direct-fs`    | library code touches the filesystem only through `sstable::env` — no direct `std::fs` calls, so fault injection (`FaultEnv`) sees every I/O | `// FS-OK:`        |
//!
//! A waiver counts when it appears in a trailing comment on the flagged
//! line or in the contiguous comment/attribute block directly above it.
//! The scanner blanks line comments and string literals before matching,
//! and tracks `#[cfg(test)] mod` bodies by brace depth so test code is
//! exempt where the rule says so.
//!
//! The scanner is textual, not syntactic — it can be fooled by exotic
//! formatting (a macro emitting `unsafe`, a `/* */` comment hiding
//! code). That trade keeps xtask dependency-free; the fixture tests in
//! `tests/` pin the behavior that matters, and `rustfmt`-normalized
//! source stays well inside what the scanner handles.
//!
//! The scope-aware pass (`cargo xtask analyze`: lock-order,
//! durability-ordering, metrics-drift) builds on the same line scanner —
//! see `src/analyze.rs`'s module docs for the tracker model and
//! annotation grammar.

use std::fmt;
use std::path::{Path, PathBuf};

mod analyze;
pub use analyze::*;

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

/// A source line prepared for scanning.
struct ScanLine {
    /// 1-based line number.
    no: usize,
    /// Raw text (used for waiver comments).
    raw: String,
    /// Text with line comments and string literals blanked out.
    code: String,
    /// True inside a `#[cfg(test)] mod` body.
    in_test_mod: bool,
}

/// Blanks string literals and the trailing `//` comment from one line,
/// so token matching never fires inside either. Char literals and raw
/// strings are left alone (no lint token contains a quote, and repo
/// style keeps raw strings out of the scanned paths).
fn blank_line(line: &str) -> String {
    let mut out = String::with_capacity(line.len());
    let mut chars = line.chars().peekable();
    let mut in_str = false;
    while let Some(c) = chars.next() {
        if in_str {
            match c {
                '\\' => {
                    out.push(' ');
                    if chars.next().is_some() {
                        out.push(' ');
                    }
                }
                '"' => {
                    in_str = false;
                    out.push('"');
                }
                _ => out.push(' '),
            }
        } else {
            match c {
                '"' => {
                    in_str = true;
                    out.push('"');
                }
                '/' if chars.peek() == Some(&'/') => {
                    // Rest of the line is a comment.
                    break;
                }
                _ => out.push(c),
            }
        }
    }
    out
}

/// Prepares `source` for scanning: blanks comments/strings and marks
/// `#[cfg(test)] mod` bodies (including `cfg(all(loom, test))` and
/// similar `cfg(... test ...)` attribute forms).
fn scan_lines(source: &str) -> Vec<ScanLine> {
    let mut lines = Vec::new();
    let mut pending_test_attr = false;
    let mut test_depth: Option<i32> = None;
    for (i, raw) in source.lines().enumerate() {
        let code = blank_line(raw);
        let trimmed = code.trim();
        let mut in_test_mod = test_depth.is_some();

        if let Some(depth) = &mut test_depth {
            *depth += brace_delta(&code);
            if *depth <= 0 {
                test_depth = None;
            }
        } else {
            if trimmed.starts_with("#[cfg(") && trimmed.contains("test") {
                pending_test_attr = true;
            } else if pending_test_attr {
                if trimmed.starts_with("mod ") || trimmed.starts_with("pub mod ") {
                    in_test_mod = true;
                    let depth = brace_delta(&code);
                    if depth > 0 {
                        test_depth = Some(depth);
                    }
                    pending_test_attr = false;
                } else if !trimmed.starts_with("#[") && !trimmed.is_empty() {
                    // The attribute gated something other than a mod
                    // (a fn, an impl): not a test module.
                    pending_test_attr = false;
                }
            }
        }

        lines.push(ScanLine {
            no: i + 1,
            raw: raw.to_string(),
            code,
            in_test_mod,
        });
    }
    lines
}

fn brace_delta(code: &str) -> i32 {
    let mut d = 0;
    for c in code.chars() {
        match c {
            '{' => d += 1,
            '}' => d -= 1,
            _ => {}
        }
    }
    d
}

/// True if `token` appears as a standalone word in `code`.
fn has_word(code: &str, token: &str) -> bool {
    let mut start = 0;
    while let Some(pos) = code[start..].find(token) {
        let at = start + pos;
        let before_ok = at == 0
            || !code[..at]
                .chars()
                .next_back()
                .is_some_and(|c| c.is_alphanumeric() || c == '_');
        let after = at + token.len();
        let after_ok = after >= code.len()
            || !code[after..]
                .chars()
                .next()
                .is_some_and(|c| c.is_alphanumeric() || c == '_');
        if before_ok && after_ok {
            return true;
        }
        start = at + token.len();
    }
    false
}

/// True if line `idx` (0-based into `lines`) is waived by `token`: the
/// token appears in a trailing comment on the line itself or anywhere in
/// the contiguous comment/attribute block directly above it.
fn waived(lines: &[ScanLine], idx: usize, token: &str) -> bool {
    let trailing = &lines[idx].raw;
    if let Some(pos) = trailing.find("//") {
        if trailing[pos..].contains(token) {
            return true;
        }
    }
    let mut i = idx;
    while i > 0 {
        i -= 1;
        let t = lines[i].raw.trim();
        if t.starts_with("//") {
            if t.contains(token) {
                return true;
            }
        } else if t.starts_with("#[") || t.starts_with("#![") {
            // Attributes may sit between the comment and the item.
        } else {
            break;
        }
    }
    false
}

// ---------------------------------------------------------------------
// Per-file scanners (fixture tests drive these directly)
// ---------------------------------------------------------------------

/// `safety-comments`: every line using `unsafe` must carry a `SAFETY:`
/// comment (trailing, or in the comment block above). Applies everywhere,
/// tests included — unsafe code is never self-justifying.
pub fn scan_safety(file: &Path, source: &str) -> Vec<Violation> {
    let lines = scan_lines(source);
    let mut out = Vec::new();
    for (i, l) in lines.iter().enumerate() {
        if has_word(&l.code, "unsafe")
            && !l.code.contains("unsafe_code")
            && !waived(&lines, i, "SAFETY:")
        {
            out.push(Violation {
                file: file.to_path_buf(),
                line: l.no,
                lint: "safety-comments",
                message: "`unsafe` without a `// SAFETY:` comment justifying it".into(),
            });
        }
    }
    out
}

/// Float literals the model files may use inline: identity/zero values
/// and unit conversions. Everything else must be a named
/// `fcae::paper_tables` constant.
pub const FLOAT_ALLOWLIST: &[&str] = &["0.0", "1.0", "1e6", "1e-6", "1e-9"];

/// `paper-constants`: in `fcae::timing` / `fcae::cpu_model`, outside
/// tests, (a) no `const` with a numeric initializer — model constants
/// live in `fcae::paper_tables`; (b) no float literal outside
/// [`FLOAT_ALLOWLIST`].
pub fn scan_paper_constants(file: &Path, source: &str) -> Vec<Violation> {
    let lines = scan_lines(source);
    let mut out = Vec::new();
    for (i, l) in lines.iter().enumerate() {
        if l.in_test_mod {
            continue;
        }
        let code = l.code.trim();
        let is_const_decl = (code.starts_with("const ") || code.starts_with("pub const "))
            && code.contains('=')
            && code
                .split('=')
                .nth(1)
                .is_some_and(|rhs| rhs.trim().starts_with(|c: char| c.is_ascii_digit()));
        if is_const_decl && !waived(&lines, i, "PAPER-CONST-OK:") {
            out.push(Violation {
                file: file.to_path_buf(),
                line: l.no,
                lint: "paper-constants",
                message:
                    "inline numeric constant; move it to fcae::paper_tables (paper Tables II/III/V)"
                        .into(),
            });
            continue;
        }
        for lit in float_literals(&l.code) {
            if !FLOAT_ALLOWLIST.contains(&lit.as_str()) && !waived(&lines, i, "PAPER-CONST-OK:") {
                out.push(Violation {
                    file: file.to_path_buf(),
                    line: l.no,
                    lint: "paper-constants",
                    message: format!(
                        "magic float `{lit}`; name it in fcae::paper_tables (allowed inline: {FLOAT_ALLOWLIST:?})"
                    ),
                });
            }
        }
    }
    out
}

/// Extracts float-shaped literals (`1.5`, `2e3`, `1e-6`) from a line.
fn float_literals(code: &str) -> Vec<String> {
    let bytes = code.as_bytes();
    let mut out = Vec::new();
    let mut i = 0;
    while i < bytes.len() {
        if bytes[i].is_ascii_digit()
            && (i == 0
                || (!bytes[i - 1].is_ascii_alphanumeric()
                    && bytes[i - 1] != b'_'
                    && bytes[i - 1] != b'.'))
        {
            let start = i;
            while i < bytes.len() && (bytes[i].is_ascii_digit() || bytes[i] == b'_') {
                i += 1;
            }
            let mut is_float = false;
            if i + 1 < bytes.len() && bytes[i] == b'.' && bytes[i + 1].is_ascii_digit() {
                is_float = true;
                i += 1;
                while i < bytes.len() && (bytes[i].is_ascii_digit() || bytes[i] == b'_') {
                    i += 1;
                }
            }
            if i < bytes.len() && (bytes[i] == b'e' || bytes[i] == b'E') {
                let mut j = i + 1;
                if j < bytes.len() && (bytes[j] == b'+' || bytes[j] == b'-') {
                    j += 1;
                }
                if j < bytes.len() && bytes[j].is_ascii_digit() {
                    is_float = true;
                    i = j;
                    while i < bytes.len() && bytes[i].is_ascii_digit() {
                        i += 1;
                    }
                }
            }
            if is_float {
                out.push(code[start..i].to_string());
            }
        } else {
            i += 1;
        }
    }
    out
}

/// Wall-clock calls banned from deterministic model/simulator code.
const WALL_CLOCK_TOKENS: &[&str] = &["Instant::now", "SystemTime", "thread::sleep"];

/// `determinism`: cycle-model and simulator code must advance modeled
/// time only — wall-clock reads make modeled results depend on the host.
/// Tests are exempt (they may time themselves); production waivers take
/// `// DETERMINISM-OK: <why>`.
pub fn scan_determinism(file: &Path, source: &str) -> Vec<Violation> {
    let lines = scan_lines(source);
    let mut out = Vec::new();
    for (i, l) in lines.iter().enumerate() {
        if l.in_test_mod {
            continue;
        }
        for token in WALL_CLOCK_TOKENS {
            if l.code.contains(token) && !waived(&lines, i, "DETERMINISM-OK:") {
                out.push(Violation {
                    file: file.to_path_buf(),
                    line: l.no,
                    lint: "determinism",
                    message: format!(
                        "wall-clock `{token}` in deterministic model code (waiver: // DETERMINISM-OK: <why>)"
                    ),
                });
            }
        }
    }
    out
}

/// Panic-family calls banned from library code outside tests.
const PANIC_TOKENS: &[&str] = &[
    ".unwrap()",
    ".expect(",
    "panic!(",
    "unreachable!(",
    "todo!(",
    "unimplemented!(",
];

/// `no-panics`: library crates return `Result`; aborting the process is
/// the caller's decision. Outside `#[cfg(test)]`, panic-family calls need
/// a `// PANIC-OK: <why>` waiver stating the invariant that makes the
/// panic unreachable (or why aborting is correct).
pub fn scan_no_panics(file: &Path, source: &str) -> Vec<Violation> {
    let lines = scan_lines(source);
    let mut out = Vec::new();
    for (i, l) in lines.iter().enumerate() {
        if l.in_test_mod {
            continue;
        }
        for token in PANIC_TOKENS {
            if l.code.contains(token) && !waived(&lines, i, "PANIC-OK:") {
                out.push(Violation {
                    file: file.to_path_buf(),
                    line: l.no,
                    lint: "no-panics",
                    message: format!(
                        "`{}` in library code (return an error, or waive: // PANIC-OK: <why>)",
                        token.trim_start_matches('.')
                    ),
                });
            }
        }
    }
    out
}

/// `no-direct-fs`: library code reaches the filesystem only through the
/// `sstable::env` abstraction. A direct `std::fs` call bypasses
/// `StorageEnv` — and with it fault injection, power-cut simulation, and
/// the in-memory env — so crash tests silently stop covering that I/O.
/// Tests are exempt (they may scrub temp dirs); production waivers take
/// `// FS-OK: <why>`. The `sstable::env` module itself carries one.
pub fn scan_direct_fs(file: &Path, source: &str) -> Vec<Violation> {
    let lines = scan_lines(source);
    let mut out = Vec::new();
    for (i, l) in lines.iter().enumerate() {
        if l.in_test_mod {
            continue;
        }
        if l.code.contains("std::fs") && !waived(&lines, i, "FS-OK:") {
            out.push(Violation {
                file: file.to_path_buf(),
                line: l.no,
                lint: "no-direct-fs",
                message: "direct `std::fs` use in library code; go through \
                          `sstable::env::StorageEnv` (waiver: // FS-OK: <why>)"
                    .into(),
            });
        }
    }
    out
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

/// Library crates `no-panics` covers: everything a downstream links
/// against. `bench` (binaries + harness lib) and `xtask` itself are
/// tools, not libraries.
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

/// Runs every lint over the repo rooted at `root`.
pub fn lint_repo(root: &Path) -> Vec<Violation> {
    let mut violations = Vec::new();

    // safety-comments: all Rust sources, shims and tests included.
    let mut files = Vec::new();
    rs_files(&root.join("crates"), &mut files);
    rs_files(&root.join("shims"), &mut files);
    for f in &files {
        violations.extend(scan_safety(f, &read(f)));
    }

    // paper-constants: the two fcae model files mirroring paper tables.
    for f in ["timing.rs", "cpu_model.rs"] {
        let path = root.join("crates/fcae/src").join(f);
        violations.extend(scan_paper_constants(&path, &read(&path)));
    }

    // determinism: model + simulator crate sources.
    for krate in DETERMINISTIC_CRATES {
        let mut files = Vec::new();
        rs_files(&root.join("crates").join(krate).join("src"), &mut files);
        for f in &files {
            violations.extend(scan_determinism(f, &read(f)));
        }
    }

    // no-panics + no-direct-fs: library crate sources, excluding their
    // bin targets. The storage backend in `sstable::env` carries the one
    // standing `FS-OK:` waiver.
    for krate in LIBRARY_CRATES {
        let mut files = Vec::new();
        rs_files(&root.join("crates").join(krate).join("src"), &mut files);
        for f in &files {
            if f.components().any(|c| c.as_os_str() == "bin") {
                continue;
            }
            let source = read(f);
            violations.extend(scan_no_panics(f, &source));
            violations.extend(scan_direct_fs(f, &source));
        }
    }

    violations
}
