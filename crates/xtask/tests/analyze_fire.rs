//! Proof that each `cargo xtask analyze` lint is live: every fixture
//! under `fixtures/` violates its lint at known lines (and demonstrates
//! the waiver, temporary-guard, drop/scope-release, and test-exemption
//! forms, which must NOT fire). The final test runs the full analysis
//! over the real repo — the same gate `cargo xtask analyze` applies in
//! CI — so a regression in either the tree or the tracker fails
//! `cargo test`.

use std::path::{Path, PathBuf};

use xtask::{
    analyze_repo, collect_metric_defs, metrics_drift, parse_metrics_inventory, scan_durability,
    scan_lock_order, Violation,
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
fn lock_order_lint_fires_on_each_violation_shape() {
    let (path, src) = fixture("lock_order.rs");
    let v = scan_lock_order(&path, &src);
    assert_eq!(
        lines(&v),
        vec![12, 17, 23, 29, 34, 67],
        "missing annotation, malformed rank, in-function inversion, \
         recursive acquisition, rank conflict, and LOCK-HELD inversion \
         must fire; waived, temporary, dropped, scoped-out, and test-mod \
         sites must not: {v:#?}"
    );
    assert!(v.iter().all(|v| v.lint == "lock-order"));
    assert!(v[0].message.contains("without a"), "{}", v[0]);
    assert!(v[1].message.contains("malformed"), "{}", v[1]);
    assert!(v[2].message.contains("inversion"), "{}", v[2]);
    assert!(v[3].message.contains("recursive"), "{}", v[3]);
    assert!(v[4].message.contains("rank 15"), "{}", v[4]);
    assert!(
        v[5].message.contains("inversion") && v[5].message.contains("fix.d"),
        "the LOCK-HELD pseudo-guard must drive the inversion: {}",
        v[5]
    );
}

#[test]
fn lock_order_lint_detects_ab_ba_cycles() {
    let (path, src) = fixture("lock_order_cycle.rs");
    let v = scan_lock_order(&path, &src);
    assert_eq!(
        lines(&v),
        vec![14, 14],
        "the BA ordering must fire both as an inversion and as a cycle: {v:#?}"
    );
    assert!(v.iter().any(|v| v.message.contains("inversion")), "{v:#?}");
    assert!(
        v.iter()
            .any(|v| v.message.contains("cycle") && v.message.contains("cyc.a -> cyc.b -> cyc.a")),
        "{v:#?}"
    );
}

#[test]
fn durability_ordering_fires_on_unsynced_installs_only() {
    let (path, src) = fixture("durability.rs");
    let v = scan_durability(&path, &src);
    assert_eq!(
        lines(&v),
        vec![6, 15],
        "the unsynced rename and the never-synced create must fire; \
         sync-then-rename, synced create, waived, and test-mod sites \
         must not: {v:#?}"
    );
    assert!(v.iter().all(|v| v.lint == "durability-ordering"));
}

#[test]
fn metrics_drift_fires_in_both_directions() {
    let (rs_path, rs_src) = fixture("metrics.rs");
    let (md_path, md_src) = fixture("METRICS.md");
    let defs = collect_metric_defs(&rs_path, &rs_src, "lsm");
    let names: Vec<&str> = defs.iter().map(|d| d.name.as_str()).collect();
    assert_eq!(
        names,
        vec![
            "lsm.fixture.documented",
            "lsm.fixture.undocumented",
            "offload.shard*.fixture",
            "lsm.fixture.wrong-kind",
        ],
        "untracked prefixes and test-mod registrations must not collect"
    );
    let inventory = parse_metrics_inventory(&md_src);
    let v = metrics_drift(&defs, &md_path, &inventory);
    let at: Vec<(&Path, usize)> = v.iter().map(|v| (v.file.as_path(), v.line)).collect();
    assert_eq!(
        at,
        vec![
            (rs_path.as_path(), 6),  // registered, undocumented
            (md_path.as_path(), 9),  // kind drift
            (md_path.as_path(), 11), // stale row
        ],
        "{v:#?}"
    );
    assert!(v.iter().all(|v| v.lint == "metrics-drift"));
}

/// A simulator registration under a tracked prefix must be the owning
/// crate's registration too, name and kind: the rows it borrows stay
/// owned (and kept alive) by `lsm` alone.
#[test]
fn metrics_drift_fires_on_a_name_the_simulator_does_not_share() {
    let (rs_path, rs_src) = fixture("metrics.rs");
    let (sim_path, sim_src) = fixture("metrics_borrowed.rs");
    let (md_path, md_src) = fixture("METRICS.md");
    let mut defs = collect_metric_defs(&rs_path, &rs_src, "lsm");
    let owned_only = metrics_drift(&defs, &md_path, &parse_metrics_inventory(&md_src));
    defs.extend(collect_metric_defs(&sim_path, &sim_src, "systemsim"));
    let v = metrics_drift(&defs, &md_path, &parse_metrics_inventory(&md_src));
    let fired: Vec<&Violation> = v.iter().filter(|v| v.file == sim_path).collect();
    assert_eq!(
        fired.iter().map(|v| v.line).collect::<Vec<_>>(),
        vec![7, 8, 9],
        "kind mismatch, unregistered owner row and ownerless name must fire; \
         the shared counter and the `sim.*` name must not: {v:#?}"
    );
    assert!(fired[0].message.contains("its owner `lsm`"), "{}", fired[0]);
    assert!(fired[2].message.contains("no owner"), "{}", fired[2]);
    assert_eq!(
        v.len(),
        owned_only.len() + 3,
        "a borrowed registration must not satisfy the stale-row check: {v:#?}"
    );
}

/// The repo itself must be analysis-clean — this is the `cargo xtask
/// analyze` gate, enforced from the test suite too so plain `cargo test`
/// catches violations without a separate CI step.
#[test]
fn repository_is_analysis_clean() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .expect("repo root");
    let violations = analyze_repo(root);
    assert!(
        violations.is_empty(),
        "repo analysis violations:\n{}",
        violations
            .iter()
            .map(|v| v.to_string())
            .collect::<Vec<_>>()
            .join("\n")
    );
}

/// `'}'` and `b'}'` are literals, not braces: the guard before one stays
/// live, and the `fn` body around one still holds the `rename` after it.
#[test]
fn brace_literals_move_no_guard_scope_or_fn_body() {
    let (path, src) = fixture("brace_literals.rs");
    let v = scan_lock_order(&path, &src);
    assert_eq!(lines(&v), vec![8], "{v:#?}");
    assert!(v[0].message.contains("inversion"), "{}", v[0]);
    let v = scan_durability(&path, &src);
    assert_eq!(
        lines(&v),
        vec![14],
        "the unsynced rename after `b'}}'` must fire; the synced one after \
         `b'{{'` must not: {v:#?}"
    );
}
