//! The analyze token/scope tracker must never panic, whatever bytes it
//! is fed: the scanners run over every source file in the repo, so a
//! panic on odd-but-legal text (multibyte identifiers, unbalanced
//! braces, comment markers inside strings, truncated statements) would
//! take the whole lint gate down. Two generators drive the property:
//! fully arbitrary char soup, and a "rustish" token stream that steers
//! the generator toward the shapes the tracker actually parses
//! (acquisitions, annotations, renames, registrations).

use std::path::Path;

use proptest::prelude::*;
use xtask::{
    collect_metric_defs, parse_metrics_inventory, scan_durability, scan_lock_order, violations_json,
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
