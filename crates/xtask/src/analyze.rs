//! `cargo xtask analyze` — scope-aware concurrency and durability lints.
//!
//! Where `cargo xtask lint` matches single lines, `analyze` tracks a
//! little state on top of the same [`scan_lines`] infrastructure: brace
//! depth, the liveness of lock guards bound by `let g = x.lock()`,
//! function extents, and the ordered sync/rename events inside each
//! function. Three lints ride on that tracker:
//!
//! | lint                  | rule                                                | waiver              |
//! |-----------------------|-----------------------------------------------------|---------------------|
//! | `lock-order`          | every lock acquisition carries `// LOCK-ORDER: <name> <rank>`; acquiring a lock while a guard of equal or higher rank is live is an inversion, and the cross-crate acquisition graph must be acyclic | `// LOCK-ORDER-OK:` |
//! | `durability-ordering` | a `rename` call must be preceded in the same function by a `sync`/`sync_dir`; a function calling `create_writable` must sync somewhere (the PR 5 crash-consistency ordering, machine-checked) | `// DURABILITY-OK:` |
//! | `metrics-drift`       | the set of metric names registered against `obs::Registry` equals the METRICS.md inventory (both directions); a name the simulator registers is one its owning crate registers too, with the same kind | fix METRICS.md      |
//!
//! Annotation grammar (trailing comment on the acquisition line, or in
//! the comment block above the statement that contains it):
//!
//! * `// LOCK-ORDER: <name> <rank> [prose]` — names the lock and pins
//!   its rank. Ranks are global: the same name must carry the same rank
//!   everywhere, and a lock may only be acquired while strictly
//!   lower-ranked guards are held.
//! * `// LOCK-ORDER-OK: <why>` — waives one site (generic helpers whose
//!   lock identity is unknowable, e.g. `sync_shim::lock`).
//! * `// LOCK-HELD: <name> [via <var>] [prose]` — on a function,
//!   declares a lock the *caller* holds on entry (a guard parameter or a
//!   `&mut` borrow of guarded state). The tracker treats it as live for
//!   the body — until `drop(<var>)` when `via <var>` names the binding —
//!   so cross-function nesting like `rotate_memtable` (state held by the
//!   caller, epoch acquired inside) is still checked.
//!
//! Guard-liveness model: a `let g = x.lock()` binding is live from its
//! statement to the end of the enclosing brace scope, `drop(g)`, or a
//! rebinding of `g`; an acquisition whose result is consumed by further
//! chaining (`x.lock().field.clone()`) is a temporary, live only for its
//! own statement. `.unwrap()` / `.expect(..)` / `.unwrap_or_else(..)`
//! after `.lock()` still yield the guard (std `Mutex` returns `Result`).
//!
//! Limitations, deliberate: the tracker sees syntactic nesting within
//! one function only. A guard passed to a callee is invisible at the
//! callee's acquisitions unless the callee declares it with
//! `// LOCK-HELD:` — the rank table in DESIGN.md encodes the full
//! design intent, so any future in-function nesting is checked against
//! it even where today's edges are cross-function. Like the PR 3 lints,
//! the scanner is textual: `rustfmt`-normalized source stays well inside
//! what it handles, and the fixture tests pin the behavior that matters.

use std::collections::{BTreeMap, BTreeSet};
use std::path::{Path, PathBuf};

use crate::{brace_delta, has_word, read, rs_files, scan_lines, ScanLine, Violation};

/// Crates whose lock acquisitions must all carry `LOCK-ORDER` ranks.
pub const LOCK_ORDER_CRATES: &[&str] = &["lsm", "offload", "server"];

/// The durability-critical path: the `sstable::env` backends plus every
/// file of `lsm` — the WAL/manifest/table install paths whose
/// sync-before-rename ordering the PR 5 crash-consistency work
/// established live there, and scoping by directory keeps them covered
/// when a file is split or renamed. A path ending in `/` is a directory,
/// scanned recursively.
pub const DURABILITY_PATHS: &[&str] = &[
    "crates/sstable/src/env/mod.rs",
    "crates/sstable/src/env/fault.rs",
    "crates/lsm/src/",
];

/// Metric name prefixes METRICS.md inventories. Names outside these are
/// not part of the public surface (`sim.*` is reserved for simulator
/// quantities with no store counterpart; none is registered today).
pub const METRIC_PREFIXES: &[&str] = &["lsm.", "offload.", "server.", "fcae.", "repl."];

/// Crates that count under *other* crates' metric names so their output
/// can be diffed against the real system's by name. Their registrations
/// never own a METRICS.md row: each must match, name and kind, a
/// registration in the crate the row names as owner.
pub const METRIC_BORROWER_CRATES: &[&str] = &["systemsim"];

// ---------------------------------------------------------------------
// Token/scope tracker
// ---------------------------------------------------------------------

/// A live guard: a named lock acquisition bound to a variable, or a
/// `LOCK-HELD` precondition covering a function body.
struct GuardRec {
    /// Lock name from the annotation (`None` for waived/unannotated
    /// sites — they stay live for scoping but produce no edges).
    lock: Option<String>,
    /// Variable the guard is bound to (drop/rebind target).
    var: Option<String>,
    /// Brace depth the guard lives at; it dies when the running depth
    /// drops below this.
    depth: i32,
}

/// One annotated acquisition site (rank table input).
struct SiteRec {
    name: String,
    rank: u32,
    file: PathBuf,
    line: usize,
}

/// One observed nesting: `inner` acquired while `outer` was live.
struct EdgeRec {
    outer: String,
    inner: String,
    file: PathBuf,
    line: usize,
}

#[derive(Default)]
struct Walk {
    violations: Vec<Violation>,
    sites: Vec<SiteRec>,
    edges: Vec<EdgeRec>,
}

/// Byte offsets in `code` where a lock acquisition starts, left to
/// right. `.lock()`/`.read()`/`.write()` require empty argument lists so
/// `io::Read::read(buf)` and `io::Write::write(buf)` never match; the
/// bare `lock(` / `shim_lock(` forms cover the `sync_shim::lock` helper
/// and its `lsm` alias. `fn lock(` definitions are excluded.
fn acquisition_cols(code: &str) -> Vec<(usize, usize)> {
    let mut out: Vec<(usize, usize)> = Vec::new();
    for tok in [".lock()", ".read()", ".write()"] {
        let mut start = 0;
        while let Some(pos) = code[start..].find(tok) {
            let at = start + pos;
            start = at + tok.len();
            out.push((at, at + tok.len()));
        }
    }
    for tok in ["lock(", "shim_lock("] {
        let mut start = 0;
        while let Some(pos) = code[start..].find(tok) {
            let at = start + pos;
            start = at + tok.len();
            let before = code[..at].chars().next_back();
            if before.is_some_and(|c| c.is_alphanumeric() || c == '_' || c == '.') {
                continue; // part of a longer identifier, or the `.lock()` form
            }
            if code[..at].trim_end().ends_with("fn") {
                continue; // `fn lock(` definition, not a call
            }
            // The call takes arguments: the guard expression ends at the
            // matching close paren.
            out.push((at, skip_to_close(code, at + tok.len())));
        }
    }
    out.sort_unstable();
    out.dedup_by_key(|(at, _)| *at);
    out
}

/// Given `code` and the offset just past an opening paren, returns the
/// offset just past the matching close (or the end of the line).
fn skip_to_close(code: &str, from: usize) -> usize {
    let mut depth = 1i32;
    for (i, c) in code[from..].char_indices() {
        match c {
            '(' => depth += 1,
            ')' => {
                depth -= 1;
                if depth == 0 {
                    return from + i + 1;
                }
            }
            _ => {}
        }
    }
    code.len()
}

/// Walks back from line `idx` to the first line of the statement
/// containing it: the walk continues while the previous line ends
/// mid-expression (anything but `;`, `{`, `}`, `,`).
fn statement_start(lines: &[ScanLine], idx: usize) -> usize {
    let mut i = idx;
    while i > 0 {
        let prev = lines[i - 1].code.trim_end();
        let Some(last) = prev.chars().next_back() else {
            break; // blank or comment-only line
        };
        if matches!(last, ';' | '{' | '}' | ',') {
            break;
        }
        i -= 1;
    }
    i
}

/// If the statement binds its value (`let g = ...`, `g = ...`, match-arm
/// `... => g = ...`), returns the bound variable name.
fn binding_var(stmt_code: &str) -> Option<String> {
    let mut s = stmt_code.trim_start();
    if let Some(arrow) = s.find("=>") {
        s = s[arrow + 2..].trim_start();
    }
    let ident = |t: &str| -> String {
        t.chars()
            .take_while(|c| c.is_alphanumeric() || *c == '_')
            .collect()
    };
    if let Some(rest) = s.strip_prefix("let ") {
        let mut rest = rest.trim_start();
        rest = rest.strip_prefix("mut ").unwrap_or(rest).trim_start();
        for pat in ["Ok(", "Some("] {
            if let Some(inner) = rest.strip_prefix(pat) {
                rest = inner.trim_start();
                rest = rest.strip_prefix("mut ").unwrap_or(rest).trim_start();
                break;
            }
        }
        let name = ident(rest);
        if name.is_empty() || name == "_" {
            None
        } else {
            Some(name)
        }
    } else {
        let name = ident(s);
        if name.is_empty() {
            return None;
        }
        let rest = s[name.len()..].trim_start();
        if rest.starts_with('=') && !rest.starts_with("==") && !rest.starts_with("=>") {
            Some(name)
        } else {
            None
        }
    }
}

/// True if the acquisition's result is consumed by further chaining
/// (field access or a non-guard method) instead of kept as a guard.
/// `.unwrap()` / `.expect(..)` / `.unwrap_or_else(..)` still yield the
/// guard, so chaining is followed through them first. The statement tail
/// may continue on following lines.
fn chained_past_guard(lines: &[ScanLine], idx: usize, col_after: usize) -> bool {
    let mut tail = lines[idx].code[col_after.min(lines[idx].code.len())..].to_string();
    let mut i = idx;
    while i + 1 < lines.len() && tail.len() < 1024 {
        let t = tail.trim_end();
        if t.ends_with(';') || t.ends_with('{') || t.ends_with('}') {
            break;
        }
        i += 1;
        tail.push(' ');
        tail.push_str(lines[i].code.trim());
    }
    let mut rest = tail.trim_start();
    loop {
        if let Some(r) = rest.strip_prefix(".unwrap()") {
            rest = r.trim_start();
        } else if let Some(r) = rest
            .strip_prefix(".unwrap_or_else(")
            .or_else(|| rest.strip_prefix(".expect("))
        {
            let close = skip_to_close(r, 0);
            rest = r[close.min(r.len())..].trim_start();
        } else {
            break;
        }
    }
    rest.starts_with('.')
}

/// Extracts the payload after `token` from line `idx`'s trailing comment
/// or the contiguous comment/attribute block above line `stmt`.
fn annotation_payload(lines: &[ScanLine], idx: usize, stmt: usize, token: &str) -> Option<String> {
    let raw = &lines[idx].raw;
    if let Some(c) = raw.find("//") {
        if let Some(p) = raw[c..].find(token) {
            return Some(raw[c + p + token.len()..].trim().to_string());
        }
    }
    let mut i = stmt;
    while i > 0 {
        i -= 1;
        let t = lines[i].raw.trim();
        if t.starts_with("//") {
            if let Some(p) = t.find(token) {
                return Some(t[p + token.len()..].trim().to_string());
            }
        } else if t.starts_with("#[") || t.starts_with("#![") {
            // Attributes may sit between the comment and the item.
        } else {
            break;
        }
    }
    None
}

/// Minimum brace depth reached while scanning the line (so `} else {`
/// ends the `if` branch's guards even though its net delta is zero).
fn min_depth_in_line(code: &str, before: i32) -> i32 {
    let mut d = before;
    let mut min = before;
    for c in code.chars() {
        match c {
            '{' => d += 1,
            '}' => {
                d -= 1;
                min = min.min(d);
            }
            _ => {}
        }
    }
    min
}

/// Kills guards whose bound variable is dropped on this line.
fn apply_drops(code: &str, guards: &mut Vec<GuardRec>) {
    let mut start = 0;
    while let Some(pos) = code[start..].find("drop(") {
        let at = start + pos;
        start = at + 5;
        let before = code[..at].chars().next_back();
        if before.is_some_and(|c| c.is_alphanumeric() || c == '_') {
            continue;
        }
        let var: String = code[at + 5..]
            .trim_start()
            .chars()
            .take_while(|c| c.is_alphanumeric() || *c == '_')
            .collect();
        if !var.is_empty() {
            guards.retain(|g| g.var.as_deref() != Some(var.as_str()));
        }
    }
}

/// The core pass: tracks guard liveness through one file, collecting
/// annotation violations, rank sites and nesting edges.
fn walk_guards(file: &Path, source: &str) -> Walk {
    let lines = scan_lines(source);
    let mut w = Walk::default();
    let mut depth = 0i32;
    let mut guards: Vec<GuardRec> = Vec::new();
    let mut pending_held: Vec<(String, Option<String>)> = Vec::new();

    for (i, l) in lines.iter().enumerate() {
        let before = depth;
        let delta = brace_delta(&l.code);
        let after = before + delta;
        let min = min_depth_in_line(&l.code, before);
        depth = after;
        guards.retain(|g| g.depth <= min);
        if l.in_test_mod {
            pending_held.clear();
            continue;
        }

        // `LOCK-HELD` preconditions on function declarations become
        // pseudo-guards covering the body.
        let trimmed = l.code.trim();
        if has_word(&l.code, "fn") && !trimmed.ends_with(';') {
            if let Some(p) = annotation_payload(&lines, i, i, "LOCK-HELD:") {
                let mut toks = p.split_whitespace();
                match toks.next() {
                    Some(name) => {
                        let var = if toks.next() == Some("via") {
                            toks.next().map(str::to_string)
                        } else {
                            None
                        };
                        pending_held.push((name.to_string(), var));
                    }
                    None => w.violations.push(Violation {
                        file: file.to_path_buf(),
                        line: l.no,
                        lint: "lock-order",
                        message: "malformed `// LOCK-HELD:` — expected `<name> [via <var>]`".into(),
                    }),
                }
            }
        }
        if after > before && !pending_held.is_empty() {
            for (name, var) in pending_held.drain(..) {
                guards.push(GuardRec {
                    lock: Some(name),
                    var,
                    depth: before + 1,
                });
            }
        }

        apply_drops(&l.code, &mut guards);

        let mut line_temps: Vec<GuardRec> = Vec::new();
        for (_, col_after) in acquisition_cols(&l.code) {
            let stmt = statement_start(&lines, i);
            let var = binding_var(lines[stmt].code.trim());
            let temporary = var.is_none() || chained_past_guard(&lines, i, col_after);
            let waived_site = annotation_payload(&lines, i, stmt, "LOCK-ORDER-OK:").is_some();
            let mut name: Option<String> = None;
            if !waived_site {
                match annotation_payload(&lines, i, stmt, "LOCK-ORDER:") {
                    Some(p) => {
                        let mut toks = p.split_whitespace();
                        match (toks.next(), toks.next().and_then(|r| r.parse::<u32>().ok())) {
                            (Some(n), Some(rank)) => {
                                name = Some(n.to_string());
                                w.sites.push(SiteRec {
                                    name: n.to_string(),
                                    rank,
                                    file: file.to_path_buf(),
                                    line: l.no,
                                });
                            }
                            _ => w.violations.push(Violation {
                                file: file.to_path_buf(),
                                line: l.no,
                                lint: "lock-order",
                                message: format!(
                                    "malformed `// LOCK-ORDER:` annotation `{p}` — expected \
                                     `<name> <rank>`"
                                ),
                            }),
                        }
                    }
                    None => w.violations.push(Violation {
                        file: file.to_path_buf(),
                        line: l.no,
                        lint: "lock-order",
                        message: "lock acquisition without a `// LOCK-ORDER: <name> <rank>` \
                                  annotation (waiver: // LOCK-ORDER-OK: <why>)"
                            .into(),
                    }),
                }
            }
            // A rebinding (`state = self.state.lock()`) replaces the old
            // guard before the nesting edges are recorded.
            if let Some(v) = &var {
                guards.retain(|g| g.var.as_deref() != Some(v.as_str()));
            }
            if let Some(n) = &name {
                for g in guards.iter().chain(line_temps.iter()) {
                    if let Some(o) = &g.lock {
                        w.edges.push(EdgeRec {
                            outer: o.clone(),
                            inner: n.clone(),
                            file: file.to_path_buf(),
                            line: l.no,
                        });
                    }
                }
            }
            let rec = GuardRec {
                lock: name,
                var: var.clone(),
                depth: after,
            };
            if temporary {
                line_temps.push(rec);
            } else {
                guards.push(rec);
            }
        }
    }
    w
}

// ---------------------------------------------------------------------
// lock-order
// ---------------------------------------------------------------------

/// Rank-table and graph checks over the accumulated sites and edges:
/// one rank per name, strictly increasing ranks along every observed
/// nesting, and an acyclic acquisition graph.
fn lock_graph_check(sites: &[SiteRec], edges: &[EdgeRec]) -> Vec<Violation> {
    let mut v = Vec::new();
    let mut ranks: BTreeMap<&str, (u32, &Path, usize)> = BTreeMap::new();
    for s in sites {
        match ranks.get(s.name.as_str()) {
            Some(&(rank, file, line)) if rank != s.rank => v.push(Violation {
                file: s.file.clone(),
                line: s.line,
                lint: "lock-order",
                message: format!(
                    "lock `{}` annotated with rank {} here but rank {} at {}:{}",
                    s.name,
                    s.rank,
                    rank,
                    file.display(),
                    line
                ),
            }),
            Some(_) => {}
            None => {
                ranks.insert(&s.name, (s.rank, &s.file, s.line));
            }
        }
    }
    for e in edges {
        if e.outer == e.inner {
            v.push(Violation {
                file: e.file.clone(),
                line: e.line,
                lint: "lock-order",
                message: format!(
                    "recursive acquisition: `{}` taken while a `{}` guard is already live",
                    e.inner, e.outer
                ),
            });
            continue;
        }
        if let (Some(&(ro, ..)), Some(&(ri, ..))) =
            (ranks.get(e.outer.as_str()), ranks.get(e.inner.as_str()))
        {
            if ro >= ri {
                v.push(Violation {
                    file: e.file.clone(),
                    line: e.line,
                    lint: "lock-order",
                    message: format!(
                        "lock-order inversion: `{}` (rank {ri}) acquired while `{}` (rank {ro}) \
                         is held — ranks must strictly increase inward",
                        e.inner, e.outer
                    ),
                });
            }
        }
    }
    // Cycle check over the acquisition graph. With consistent strictly
    // increasing ranks a cycle always contains an inversion too, but the
    // graph check stands on its own (and catches rank-table bugs).
    let mut adj: BTreeMap<&str, BTreeSet<&str>> = BTreeMap::new();
    for e in edges {
        // Self-edges are already reported as recursive acquisitions.
        if e.outer != e.inner {
            adj.entry(&e.outer).or_default().insert(&e.inner);
        }
    }
    let nodes: Vec<&str> = adj.keys().copied().collect();
    let mut done: BTreeSet<&str> = BTreeSet::new();
    for &start in &nodes {
        if done.contains(start) {
            continue;
        }
        let mut stack: Vec<(&str, Vec<&str>)> = vec![(start, vec![start])];
        // Iterative DFS; the first back edge reports the cycle.
        while let Some((node, path)) = stack.pop() {
            let in_path: BTreeSet<&str> = path.iter().copied().collect();
            done.insert(node);
            for &next in adj.get(node).into_iter().flatten() {
                if in_path.contains(next) {
                    let from = path.iter().position(|&n| n == next).unwrap_or(0);
                    let mut cycle: Vec<&str> = path[from..].to_vec();
                    cycle.push(next);
                    let at = edges.iter().find(|e| e.outer == node && e.inner == next);
                    let (file, line) = at.map_or_else(
                        || (PathBuf::from("<graph>"), 0),
                        |e| (e.file.clone(), e.line),
                    );
                    v.push(Violation {
                        file,
                        line,
                        lint: "lock-order",
                        message: format!("lock acquisition cycle: {}", cycle.join(" -> ")),
                    });
                    return v;
                }
                if !done.contains(next) {
                    let mut p = path.clone();
                    p.push(next);
                    stack.push((next, p));
                }
            }
        }
    }
    v
}

/// `lock-order` over one file (fixture tests drive this directly; the
/// repo driver merges sites and edges across files before the graph
/// checks so cross-crate nestings are seen).
pub fn scan_lock_order(file: &Path, source: &str) -> Vec<Violation> {
    let w = walk_guards(file, source);
    let mut v = w.violations;
    v.extend(lock_graph_check(&w.sites, &w.edges));
    v.sort_by_key(|x| x.line);
    v
}

// ---------------------------------------------------------------------
// durability-ordering
// ---------------------------------------------------------------------

const SYNC_TOKENS: &[&str] = &[".sync()", ".sync_all()", ".sync_dir("];

/// `durability-ordering`: in each function, a `rename` must be preceded
/// by a sync-family call (the payload an atomic install publishes must
/// be durable before the pointer flips), and a function that creates a
/// file must sync somewhere (no fire-and-forget file creation on the
/// durability path).
pub fn scan_durability(file: &Path, source: &str) -> Vec<Violation> {
    let lines = scan_lines(source);
    let mut v = Vec::new();

    // Function regions: (first line, body depth). Lines outside any fn
    // (trait signatures, struct fields) are skipped.
    let mut depth = 0i32;
    let mut region_of: Vec<Option<usize>> = vec![None; lines.len()];
    let mut regions: Vec<(usize, usize)> = Vec::new(); // (start, end) line idx
    let mut stack: Vec<(usize, i32)> = Vec::new(); // (region idx, body depth)
    let mut pending_fn = false;
    for (i, l) in lines.iter().enumerate() {
        let before = depth;
        let after = before + brace_delta(&l.code);
        let min = min_depth_in_line(&l.code, before);
        depth = after;
        while let Some(&(r, d)) = stack.last() {
            if d > min.max(after) {
                regions[r].1 = i;
                stack.pop();
            } else {
                break;
            }
        }
        let trimmed = l.code.trim();
        if has_word(&l.code, "fn") && !trimmed.ends_with(';') {
            pending_fn = true;
        }
        if pending_fn && after > before {
            regions.push((i, lines.len()));
            stack.push((regions.len() - 1, before + 1));
            pending_fn = false;
        }
        region_of[i] = stack.last().map(|&(r, _)| r);
    }

    // Ordered sync/rename/create events per region.
    let has_sync = |code: &str| SYNC_TOKENS.iter().any(|t| code.contains(t));
    let sync_before: Vec<BTreeSet<usize>> = {
        // For each region, the set of line indices with a sync call.
        let mut per: Vec<BTreeSet<usize>> = vec![BTreeSet::new(); regions.len()];
        for (i, l) in lines.iter().enumerate() {
            if let Some(r) = region_of[i] {
                if has_sync(&l.code) {
                    per[r].insert(i);
                }
            }
        }
        per
    };

    for (i, l) in lines.iter().enumerate() {
        if l.in_test_mod {
            continue;
        }
        let Some(r) = region_of[i] else { continue };
        let code = &l.code;
        let is_rename = (code.contains(".rename(") || code.contains("::rename("))
            && !code.contains("fn rename");
        let is_create = code.contains(".create_writable(") && !code.contains("fn create_writable");
        if !is_rename && !is_create {
            continue;
        }
        let stmt = statement_start(&lines, i);
        if annotation_payload(&lines, i, stmt, "DURABILITY-OK:").is_some() {
            continue;
        }
        if is_rename && sync_before[r].range(..i).next_back().is_none() {
            v.push(Violation {
                file: file.to_path_buf(),
                line: l.no,
                lint: "durability-ordering",
                message: "`rename` with no preceding sync/sync_dir in this function — the \
                          payload must be durable before the install point flips \
                          (waiver: // DURABILITY-OK: <why>)"
                    .into(),
            });
        }
        if is_create && sync_before[r].is_empty() {
            v.push(Violation {
                file: file.to_path_buf(),
                line: l.no,
                lint: "durability-ordering",
                message: "`create_writable` in a function that never syncs — created files \
                          must be synced (or the sync delegated and waived: \
                          // DURABILITY-OK: <why>)"
                    .into(),
            });
        }
    }
    v
}

// ---------------------------------------------------------------------
// metrics-drift
// ---------------------------------------------------------------------

/// One metric registration found in source.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MetricDef {
    /// Normalized name (`format!` interpolations become `*`).
    pub name: String,
    /// `counter` | `gauge` | `histogram`.
    pub kind: &'static str,
    /// Crate the registration lives in.
    pub krate: String,
    /// Registration site.
    pub file: PathBuf,
    /// 1-based line of the registration.
    pub line: usize,
}

/// Replaces `{interpolation}` spans with `*` so per-shard / per-level
/// `format!` registrations collapse to one documented name.
fn normalize_metric(name: &str) -> String {
    let mut out = String::with_capacity(name.len());
    let mut rest = name;
    while let Some(open) = rest.find('{') {
        out.push_str(&rest[..open]);
        out.push('*');
        match rest[open..].find('}') {
            Some(close) => rest = &rest[open + close + 1..],
            None => return out,
        }
    }
    out.push_str(rest);
    out
}

/// Collects `obs::Registry` registrations (`.counter("...")` /
/// `.gauge(..)` / `.histogram(..)`, literal or `&format!("...")`) whose
/// names carry a tracked prefix. Registrations through a name variable
/// are invisible to this scan — the tracked prefixes are all registered
/// with literals.
pub fn collect_metric_defs(file: &Path, source: &str, krate: &str) -> Vec<MetricDef> {
    let lines = scan_lines(source);
    let mut out = Vec::new();
    for l in &lines {
        if l.in_test_mod {
            continue;
        }
        for (tok, kind) in [
            (".counter(", "counter"),
            (".gauge(", "gauge"),
            (".histogram(", "histogram"),
        ] {
            // Match on blanked code (comments can't register metrics),
            // then read the k-th occurrence from the raw line, where the
            // string literal survives.
            let mut k = 0;
            let mut start = 0;
            while let Some(pos) = l.code[start..].find(tok) {
                start += pos + tok.len();
                k += 1;
                let mut raw_at = 0;
                for _ in 0..k {
                    match l.raw[raw_at..].find(tok) {
                        Some(p) => raw_at += p + tok.len(),
                        None => break,
                    }
                }
                let rest = &l.raw[raw_at.min(l.raw.len())..];
                let Some(q0) = rest.find('"') else { continue };
                let Some(q1) = rest[q0 + 1..].find('"') else {
                    continue;
                };
                let name = &rest[q0 + 1..q0 + 1 + q1];
                if METRIC_PREFIXES.iter().any(|p| name.starts_with(p)) {
                    out.push(MetricDef {
                        name: normalize_metric(name),
                        kind,
                        krate: krate.to_string(),
                        file: file.to_path_buf(),
                        line: l.no,
                    });
                }
            }
        }
    }
    out
}

/// One row of the METRICS.md inventory table.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct InventoryRow {
    /// Metric name (normalized spelling, `*` for interpolations).
    pub name: String,
    /// Documented kind.
    pub kind: String,
    /// Documented owning crate.
    pub krate: String,
    /// 1-based line in METRICS.md.
    pub line: usize,
}

/// Parses the `| `name` | kind | crate | meaning |` table rows out of
/// METRICS.md.
pub fn parse_metrics_inventory(text: &str) -> Vec<InventoryRow> {
    let mut out = Vec::new();
    for (i, line) in text.lines().enumerate() {
        let t = line.trim();
        if !t.starts_with("| `") {
            continue;
        }
        let cells: Vec<&str> = t.split('|').map(str::trim).collect();
        // split on a well-formed row: ["", "`name`", "kind", "crate", "meaning", ""]
        if cells.len() < 5 {
            continue;
        }
        let name = cells[1].trim_matches('`').to_string();
        out.push(InventoryRow {
            name,
            kind: cells[2].to_string(),
            krate: cells[3].to_string(),
            line: i + 1,
        });
    }
    out
}

/// `metrics-drift`: every registered (tracked-prefix) metric must be
/// documented in METRICS.md with the right kind and crate, and every
/// documented metric must still be registered by a crate that can own
/// it. A [`METRIC_BORROWER_CRATES`] registration owns nothing: the crate
/// METRICS.md names for that metric must register it too, as the same
/// kind — the shared vocabulary that lets a simulated and a real run be
/// diffed by name.
pub fn metrics_drift(
    defs: &[MetricDef],
    md_path: &Path,
    inventory: &[InventoryRow],
) -> Vec<Violation> {
    let mut v = Vec::new();
    let mut documented: BTreeMap<&str, &InventoryRow> = BTreeMap::new();
    for row in inventory {
        documented.insert(&row.name, row);
    }
    let (borrowed, owned): (Vec<&MetricDef>, Vec<&MetricDef>) = defs
        .iter()
        .partition(|d| METRIC_BORROWER_CRATES.contains(&d.krate.as_str()));
    let mut registered: BTreeMap<&str, &MetricDef> = BTreeMap::new();
    for d in &owned {
        registered.entry(&d.name).or_insert(d);
    }
    for d in borrowed {
        let owner = documented
            .get(d.name.as_str())
            .map(|row| row.krate.as_str());
        let shared = owned
            .iter()
            .any(|o| Some(o.krate.as_str()) == owner && o.name == d.name && o.kind == d.kind);
        if !shared {
            let why = match owner {
                Some(o) => format!("its owner `{o}` does not register it as a {}", d.kind),
                None => "METRICS.md lists no owner for it".to_string(),
            };
            v.push(Violation {
                file: d.file.clone(),
                line: d.line,
                lint: "metrics-drift",
                message: format!(
                    "`{}` registers {} `{}`, but {why}: the simulator speaks the \
                     store's metric names or its own `sim.*`",
                    d.krate, d.kind, d.name
                ),
            });
        }
    }
    for (name, d) in &registered {
        match documented.get(name) {
            None => v.push(Violation {
                file: d.file.clone(),
                line: d.line,
                lint: "metrics-drift",
                message: format!(
                    "metric `{name}` is registered here but missing from METRICS.md \
                     (run `cargo xtask metrics` for the live inventory)"
                ),
            }),
            Some(row) if row.kind != d.kind || row.krate != d.krate => v.push(Violation {
                file: md_path.to_path_buf(),
                line: row.line,
                lint: "metrics-drift",
                message: format!(
                    "metric `{name}` documented as {}/{} but registered as {}/{} at {}:{}",
                    row.kind,
                    row.krate,
                    d.kind,
                    d.krate,
                    d.file.display(),
                    d.line
                ),
            }),
            Some(_) => {}
        }
    }
    for (name, row) in &documented {
        if !registered.contains_key(name) {
            v.push(Violation {
                file: md_path.to_path_buf(),
                line: row.line,
                lint: "metrics-drift",
                message: format!(
                    "metric `{name}` is documented in METRICS.md but never registered \
                     (stale row — remove it or restore the registration)"
                ),
            });
        }
    }
    v
}

/// Collects the full tracked-prefix metric inventory over the repo.
pub fn collect_repo_metrics(root: &Path) -> Vec<MetricDef> {
    let mut defs = Vec::new();
    let crates = root.join("crates");
    let Ok(entries) = std::fs::read_dir(&crates) else {
        return defs;
    };
    let mut dirs: Vec<PathBuf> = entries.flatten().map(|e| e.path()).collect();
    dirs.sort();
    for dir in dirs {
        if !dir.is_dir() {
            continue;
        }
        let krate = dir
            .file_name()
            .map(|n| n.to_string_lossy().into_owned())
            .unwrap_or_default();
        let mut files = Vec::new();
        rs_files(&dir.join("src"), &mut files);
        for f in &files {
            defs.extend(collect_metric_defs(f, &read(f), &krate));
        }
    }
    defs
}

// ---------------------------------------------------------------------
// Repo driver + JSON
// ---------------------------------------------------------------------

/// Runs all three analysis lints over the repo rooted at `root`.
pub fn analyze_repo(root: &Path) -> Vec<Violation> {
    let mut v = Vec::new();
    let mut sites = Vec::new();
    let mut edges = Vec::new();
    for krate in LOCK_ORDER_CRATES {
        let mut files = Vec::new();
        rs_files(&root.join("crates").join(krate).join("src"), &mut files);
        for f in &files {
            let w = walk_guards(f, &read(f));
            v.extend(w.violations);
            sites.extend(w.sites);
            edges.extend(w.edges);
        }
    }
    v.extend(lock_graph_check(&sites, &edges));
    if std::env::var("XTASK_DUMP_EDGES").is_ok() {
        for e in &edges {
            eprintln!(
                "EDGE {} -> {} ({}:{})",
                e.outer,
                e.inner,
                e.file.display(),
                e.line
            );
        }
    }

    for rel in DURABILITY_PATHS {
        let mut files = vec![root.join(rel)];
        if rel.ends_with('/') {
            files.clear();
            rs_files(&root.join(rel), &mut files);
        }
        for f in &files {
            v.extend(scan_durability(f, &read(f)));
        }
    }

    let md_path = root.join("METRICS.md");
    let defs = collect_repo_metrics(root);
    let inventory = match std::fs::read_to_string(&md_path) {
        Ok(text) => parse_metrics_inventory(&text),
        Err(_) => Vec::new(), // a missing METRICS.md = every metric undocumented
    };
    v.extend(metrics_drift(&defs, &md_path, &inventory));
    v
}

/// Serializes violations as a JSON array (machine-readable `--json`
/// output for CI annotations). Paths are repo-relative.
pub fn violations_json(root: &Path, violations: &[Violation]) -> String {
    fn esc(s: &str) -> String {
        let mut out = String::with_capacity(s.len() + 2);
        for c in s.chars() {
            match c {
                '"' => out.push_str("\\\""),
                '\\' => out.push_str("\\\\"),
                '\n' => out.push_str("\\n"),
                '\t' => out.push_str("\\t"),
                c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
                c => out.push(c),
            }
        }
        out
    }
    let mut out = String::from("[");
    for (i, v) in violations.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let rel = v.file.strip_prefix(root).unwrap_or(&v.file);
        out.push_str(&format!(
            "\n  {{\"file\":\"{}\",\"line\":{},\"lint\":\"{}\",\"message\":\"{}\"}}",
            esc(&rel.display().to_string()),
            v.line,
            esc(v.lint),
            esc(&v.message)
        ));
    }
    if !violations.is_empty() {
        out.push('\n');
    }
    out.push(']');
    out
}
