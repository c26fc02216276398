//! `cargo xtask analyze` — scope-aware concurrency and durability lints.
//!
//! These lints follow state through a file on the lexer and scope pass
//! of `src/scan.rs`: lock guards alive by brace depth, `fn` bodies,
//! statement starts, and the order of sync and rename calls in a body.
//!
//! | lint                  | rule                                                | waiver              |
//! |-----------------------|-----------------------------------------------------|---------------------|
//! | `lock-order`          | every lock acquisition carries `// LOCK-ORDER: <name> <rank>`; acquiring a lock while a guard of equal or higher rank is live is an inversion, and the cross-crate acquisition graph must be acyclic | `// LOCK-ORDER-OK:` |
//! | `durability-ordering` | a `rename` call must be preceded in the same function by a `sync`/`sync_dir`; a function calling `create_writable` must sync somewhere (the PR 5 crash-consistency ordering, machine-checked) | `// DURABILITY-OK:` |
//! | `metrics-drift`       | the set of metric names registered against `obs::Registry` equals the METRICS.md inventory (both directions); a name the simulator registers is one its owning crate registers too, with the same kind | fix METRICS.md      |
//!
//! Annotations sit where waivers do (see the crate docs); a function's
//! statement is its signature.
//!
//! * `// LOCK-ORDER: <name> <rank> [prose]` — names the lock and pins
//!   its rank. Ranks are global: one name, one rank, and a lock may only
//!   be acquired while strictly lower-ranked guards are held.
//! * `// LOCK-ORDER-OK: <why>` — waives one site (a generic wrapper whose
//!   lock is unknowable, e.g. the loom facade's `Mutex::lock` in
//!   `lsm::sync_shim`).
//! * `// LOCK-HELD: <name> [via <var>] [prose]` — on a function: a lock
//!   the caller holds on entry (a guard parameter or a `&mut` borrow of
//!   guarded state). It is live for the body, until `drop(<var>)` when
//!   `via <var>` names the binding, so nesting like `rotate_memtable`'s
//!   (state held by the caller, epoch acquired inside) is checked.
//!
//! Guard liveness, line by line: a `let g = x.lock()` guard lives to the
//! end of its brace scope, `drop(g)` or a rebinding of `g`; a chained
//! acquisition (`x.lock().len()`) is a temporary, live for the rest of
//! its line. `.unwrap()`, `.expect(..)` and `.unwrap_or_else(..)` after
//! `.lock()` still yield the guard (std's poisoning `Mutex` binds that
//! way; the workspace's locks return the guard directly).
//!
//! What the tracker cannot see: a guard passed to another function,
//! unless that function declares it with `// LOCK-HELD:`, and code a
//! macro generates. The rank table in DESIGN.md states the whole design,
//! so any in-function nesting is checked against it even where today's
//! edges cross functions.

use std::collections::{BTreeMap, BTreeSet};
use std::path::{Path, PathBuf};

use crate::scan::{Code, Kind, Scan};
use crate::{read, rs_files, Violation};

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
// Guard tracker
// ---------------------------------------------------------------------

/// A live guard: a named lock acquisition bound to a variable, or a
/// `LOCK-HELD` precondition covering a function body.
struct GuardRec<'a> {
    /// Lock name from the annotation (`None` for waived/unannotated
    /// sites — they stay live for scoping but produce no edges).
    lock: Option<&'a str>,
    /// Variable the guard is bound to (drop/rebind target).
    var: Option<&'a str>,
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

/// If a lock acquisition starts at token `k`, the index just past it.
/// `.lock()`/`.read()`/`.write()` take no arguments, so
/// `io::Read::read(buf)` and `io::Write::write(buf)` never match; the
/// bare `lock(..)` / `shim_lock(..)` calls cover free-function lock
/// helpers, which `check.sh` keeps out of `crates/*/src` today. A
/// `fn lock(` definition is not a call.
fn acquisition(scan: &Scan, k: usize) -> Option<usize> {
    if ["lock", "read", "write"]
        .iter()
        .any(|m| scan.reads(k, &[".", m, "(", ")"]))
    {
        return Some(k + 4);
    }
    let bare = matches!(scan.code[k].text, "lock" | "shim_lock")
        && scan.reads(k + 1, &["("])
        && (k == 0 || !matches!(scan.code[k - 1].text, "." | "fn"));
    bare.then(|| scan.close(k + 1))
}

/// If the statement (its tokens up to the acquisition) binds its value
/// (`let g = ...`, `g = ...`, match-arm `... => g = ...`), the bound
/// variable.
fn binding_var<'a>(stmt: &[Code<'a>]) -> Option<&'a str> {
    let t = match stmt.iter().position(|c| c.text == "=>") {
        Some(arrow) => &stmt[arrow + 1..],
        None => stmt,
    };
    let text = |k: usize| t.get(k).map_or("", |c| c.text);
    if text(0) == "let" {
        let mut k = 1 + usize::from(text(1) == "mut");
        if matches!(text(k), "Ok" | "Some") && text(k + 1) == "(" {
            k += 2 + usize::from(text(k + 2) == "mut");
        }
        t.get(k)
            .filter(|c| c.kind == Kind::Ident && c.text != "_")
            .map(|c| c.text)
    } else {
        (t.first()?.kind == Kind::Ident && text(1) == "=").then(|| t[0].text)
    }
}

/// True if the acquisition ending at token `k` is consumed by further
/// chaining (field access or a non-guard method) instead of kept as a
/// guard. `.unwrap()` / `.expect(..)` / `.unwrap_or_else(..)` still
/// yield the guard, so chaining is followed through them first.
fn chained_past_guard(scan: &Scan, mut k: usize) -> bool {
    loop {
        if scan.reads(k, &[".", "unwrap", "(", ")"]) {
            k += 4;
        } else if scan.reads(k, &[".", "expect", "("])
            || scan.reads(k, &[".", "unwrap_or_else", "("])
        {
            k = scan.close(k + 2);
        } else {
            return scan.reads(k, &["."]);
        }
    }
}

/// The core pass: tracks guard liveness through one file, line by line,
/// collecting annotation violations, rank sites and nesting edges.
fn walk_guards(file: &Path, source: &str) -> Walk {
    let scan = Scan::new(source);
    let code = &scan.code;
    let mut w = Walk::default();
    let mut guards: Vec<GuardRec> = Vec::new();
    let violation = |line, message: String| Violation::new(file, line, "lock-order", message);

    for line in scan.code_lines() {
        let toks = &code[line.clone()];
        // The lowest depth the line reaches (so `} else {` ends the `if`
        // branch's guards even though its net delta is zero).
        let min = toks
            .iter()
            .map(Code::depth_after)
            .fold(toks[0].depth, i32::min);
        let after = toks[toks.len() - 1].depth_after();
        guards.retain(|g| g.depth <= min);
        if toks[0].test {
            continue;
        }
        let no = toks[0].line;

        // `LOCK-HELD` preconditions on a function become pseudo-guards
        // covering its body from the line it opens on.
        for f in scan.fns.iter().filter(|f| line.contains(&f.open)) {
            let Some(p) = scan.annotation(f.kw, "LOCK-HELD:") else {
                continue;
            };
            let mut toks = p.split_whitespace();
            match toks.next() {
                Some(name) => guards.push(GuardRec {
                    lock: Some(name),
                    var: (toks.next() == Some("via")).then(|| toks.next()).flatten(),
                    depth: code[f.open].depth + 1,
                }),
                None => w.violations.push(violation(
                    code[f.kw].line,
                    "malformed `// LOCK-HELD:` — expected `<name> [via <var>]`".into(),
                )),
            }
        }

        for k in line.clone() {
            if scan.reads(k, &["drop", "("])
                && code.get(k + 2).is_some_and(|t| t.kind == Kind::Ident)
            {
                guards.retain(|g| g.var != Some(code[k + 2].text));
            }
        }

        let mut line_temps: Vec<GuardRec> = Vec::new();
        for k in line {
            let Some(end) = acquisition(&scan, k) else {
                continue;
            };
            let var = binding_var(&code[code[k].stmt..k]);
            let temporary = var.is_none() || chained_past_guard(&scan, end);
            let mut name = None;
            if scan.annotation(k, "LOCK-ORDER-OK:").is_none() {
                match scan.annotation(k, "LOCK-ORDER:") {
                    Some(p) => {
                        let mut toks = p.split_whitespace();
                        match (toks.next(), toks.next().and_then(|r| r.parse::<u32>().ok())) {
                            (Some(n), Some(rank)) => {
                                name = Some(n);
                                w.sites.push(SiteRec {
                                    name: n.to_string(),
                                    rank,
                                    file: file.to_path_buf(),
                                    line: no,
                                });
                            }
                            _ => w.violations.push(violation(
                                no,
                                format!(
                                    "malformed `// LOCK-ORDER:` annotation `{p}` — expected \
                                     `<name> <rank>`"
                                ),
                            )),
                        }
                    }
                    None => w.violations.push(violation(
                        no,
                        "lock acquisition without a `// LOCK-ORDER: <name> <rank>` \
                         annotation (waiver: // LOCK-ORDER-OK: <why>)"
                            .into(),
                    )),
                }
            }
            // A rebinding (`state = self.state.lock()`) replaces the old
            // guard before the nesting edges are recorded.
            if var.is_some() {
                guards.retain(|g| g.var != var);
            }
            if let Some(n) = name {
                for o in guards.iter().chain(&line_temps).filter_map(|g| g.lock) {
                    w.edges.push(EdgeRec {
                        outer: o.to_string(),
                        inner: n.to_string(),
                        file: file.to_path_buf(),
                        line: no,
                    });
                }
            }
            let rec = GuardRec {
                lock: name,
                var,
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
        let &mut (rank, file, line) = ranks.entry(&s.name).or_insert((s.rank, &s.file, s.line));
        if rank != s.rank {
            v.push(Violation::new(
                &s.file,
                s.line,
                "lock-order",
                format!(
                    "lock `{}` annotated with rank {} here but rank {rank} at {}:{line}",
                    s.name,
                    s.rank,
                    file.display(),
                ),
            ));
        }
    }
    for e in edges {
        if e.outer == e.inner {
            v.push(Violation::new(
                &e.file,
                e.line,
                "lock-order",
                format!(
                    "recursive acquisition: `{}` taken while a `{}` guard is already live",
                    e.inner, e.outer
                ),
            ));
            continue;
        }
        if let (Some(&(ro, ..)), Some(&(ri, ..))) =
            (ranks.get(e.outer.as_str()), ranks.get(e.inner.as_str()))
        {
            if ro >= ri {
                v.push(Violation::new(
                    &e.file,
                    e.line,
                    "lock-order",
                    format!(
                        "lock-order inversion: `{}` (rank {ri}) acquired while `{}` (rank {ro}) \
                         is held — ranks must strictly increase inward",
                        e.inner, e.outer
                    ),
                ));
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

const SYNC_CALLS: &[&[&str]] = &[
    &[".", "sync", "(", ")"],
    &[".", "sync_all", "(", ")"],
    &[".", "sync_dir", "("],
];

/// `durability-ordering`: in each function, a `rename` must be preceded
/// by a sync-family call (the payload an atomic install publishes must
/// be durable before the pointer flips), and a function that creates a
/// file must sync somewhere (no fire-and-forget file creation on the
/// durability path).
pub fn scan_durability(file: &Path, source: &str) -> Vec<Violation> {
    let scan = Scan::new(source);
    let code = &scan.code;
    // The innermost `fn` body around token `k`, as an index into `fns`.
    let body = |k: usize| {
        scan.fns
            .iter()
            .enumerate()
            .filter(|(_, f)| f.open < k && k < f.close)
            .max_by_key(|(_, f)| f.open)
            .map(|(i, _)| i)
    };
    let syncs: Vec<(usize, Option<usize>)> = (0..code.len())
        .filter(|&k| SYNC_CALLS.iter().any(|p| scan.reads(k, p)))
        .map(|k| (k, body(k)))
        .collect();
    let mut v = Vec::new();
    for k in 1..code.len() {
        let call = |name| scan.reads(k, &[name, "("]);
        let is_rename = call("rename") && matches!(code[k - 1].text, "." | "::");
        let is_create = call("create_writable") && code[k - 1].text == ".";
        if !(is_rename || is_create) || code[k].test {
            continue;
        }
        let Some(f) = body(k) else { continue };
        if scan.annotation(k, "DURABILITY-OK:").is_some() {
            continue;
        }
        let synced_before = |end: usize| syncs.iter().any(|&(s, b)| s < end && b == Some(f));
        let message = if is_rename && !synced_before(k) {
            "`rename` with no preceding sync/sync_dir in this function — the \
             payload must be durable before the install point flips \
             (waiver: // DURABILITY-OK: <why>)"
        } else if is_create && !synced_before(code.len()) {
            "`create_writable` in a function that never syncs — created files \
             must be synced (or the sync delegated and waived: \
             // DURABILITY-OK: <why>)"
        } else {
            continue;
        };
        v.push(Violation::new(
            file,
            code[k].line,
            "durability-ordering",
            message,
        ));
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

/// Collects `obs::Registry` registrations (`.counter(..)` / `.gauge(..)`
/// / `.histogram(..)` whose arguments hold a string literal, plain or
/// inside `&format!(..)`) whose names carry a tracked prefix.
/// Registrations through a name variable are invisible to this scan —
/// the tracked prefixes are all registered with literals.
pub fn collect_metric_defs(file: &Path, source: &str, krate: &str) -> Vec<MetricDef> {
    let scan = Scan::new(source);
    let mut out = Vec::new();
    for (k, t) in scan.code.iter().enumerate() {
        let Some(kind) = ["counter", "gauge", "histogram"]
            .into_iter()
            .find(|kind| scan.reads(k, &[".", kind, "("]))
        else {
            continue;
        };
        if t.test {
            continue;
        }
        let args = &scan.code[k + 3..scan.close(k + 2)];
        let name = args.iter().find(|a| a.kind == Kind::Lit).and_then(|a| {
            let q0 = a.text.find('"')?;
            let len = a.text[q0 + 1..].find('"')?;
            Some(&a.text[q0 + 1..q0 + 1 + len])
        });
        if let Some(name) = name.filter(|n| METRIC_PREFIXES.iter().any(|p| n.starts_with(p))) {
            out.push(MetricDef {
                name: normalize_metric(name),
                kind,
                krate: krate.to_string(),
                file: file.to_path_buf(),
                line: t.line,
            });
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
    let documented: BTreeMap<&str, &InventoryRow> = inventory
        .iter()
        .map(|row| (row.name.as_str(), row))
        .collect();
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
            v.push(Violation::new(
                &d.file,
                d.line,
                "metrics-drift",
                format!(
                    "`{}` registers {} `{}`, but {why}: the simulator speaks the \
                     store's metric names or its own `sim.*`",
                    d.krate, d.kind, d.name
                ),
            ));
        }
    }
    for (name, d) in &registered {
        match documented.get(name) {
            None => v.push(Violation::new(
                &d.file,
                d.line,
                "metrics-drift",
                format!(
                    "metric `{name}` is registered here but missing from METRICS.md \
                     (run `cargo xtask metrics` for the live inventory)"
                ),
            )),
            Some(row) if row.kind != d.kind || row.krate != d.krate => v.push(Violation::new(
                md_path,
                row.line,
                "metrics-drift",
                format!(
                    "metric `{name}` documented as {}/{} but registered as {}/{} at {}:{}",
                    row.kind,
                    row.krate,
                    d.kind,
                    d.krate,
                    d.file.display(),
                    d.line
                ),
            )),
            Some(_) => {}
        }
    }
    for (name, row) in &documented {
        if !registered.contains_key(name) {
            v.push(Violation::new(
                md_path,
                row.line,
                "metrics-drift",
                format!(
                    "metric `{name}` is documented in METRICS.md but never registered \
                     (stale row — remove it or restore the registration)"
                ),
            ));
        }
    }
    v
}

/// Collects the full tracked-prefix metric inventory over the repo: the
/// `src/` of every crate.
pub fn collect_repo_metrics(root: &Path) -> Vec<MetricDef> {
    let crates = root.join("crates");
    let mut files = Vec::new();
    rs_files(&crates, &mut files);
    let mut defs = Vec::new();
    for f in &files {
        let mut parts = f
            .strip_prefix(&crates)
            .into_iter()
            .flat_map(Path::components);
        if let (Some(krate), Some(src)) = (parts.next(), parts.next()) {
            if src.as_os_str() == "src" {
                let krate = krate.as_os_str().to_string_lossy();
                defs.extend(collect_metric_defs(f, &read(f), &krate));
            }
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
