#!/usr/bin/env bash
# Full verification, mirroring .github/workflows/ci.yml (fmt, clippy,
# xtask lints, tier-1 build+test, loom models) and then going further:
# docs, release tests, and every experiment bench. Tools CI runs on
# nightly (miri, TSan) and cargo-deny are skipped gracefully when not
# installed locally.
set -euo pipefail
cd "$(dirname "$0")/.."

# CI jobs.
cargo fmt --all --check
cargo clippy --workspace --all-targets -- -D warnings
# Repo invariant lints: SAFETY comments, paper-table constants,
# wall-clock bans in model code, no-panics in libraries.
cargo xtask lint
# Scope-aware concurrency/durability lints: lock-order ranks,
# sync-before-rename, metrics-drift.
cargo xtask analyze
# Regrowth rules: async, table knobs, a second kernel decoder or
# comparer, a second applier, std locks, and source files over 1,200
# lines stay out.
scripts/regrowth.sh
# Every binary and script the docs, CI and this file name must exist.
scripts/doc_commands.sh
cargo build --release
# Tier 1. Includes the `db_bench --stats` export contract
# (crates/bench/tests/db_bench_cli.rs). One red binary must not hide
# the suites behind it.
cargo test -q --no-fail-fast
# The power-cut binary is where a store deadlock and a scheduling-
# sensitive assertion once hid (about 1 run in 150): loop it on fresh
# seed bands, each run under a wall-clock ceiling so a hang is a
# failure, not a stuck job.
power_cut_bin=$(cargo test -p fcae-repro --test power_cut --no-run --message-format=json 2>/dev/null \
    | sed -n 's/.*"executable":"\([^"]*power_cut-[^"]*\)".*/\1/p' | tail -n 1)
for i in $(seq 0 199); do
    POWER_CUT_SEED_BASE=$((i * 8)) timeout 20 "$power_cut_bin" -q > /dev/null \
        || { echo "power_cut run $i (POWER_CUT_SEED_BASE=$((i * 8))) failed or hung"; exit 1; }
done
# The acknowledged-write stress test once missed reads across compaction
# installs 1-6 runs in 30 in release and never in debug: loop the
# release binary the same way (≈0.3 s a run).
stress_bin=$(cargo test --release -p fcae-repro --test concurrency_stress --no-run \
        --message-format=json 2>/dev/null \
    | sed -n 's/.*"executable":"\([^"]*concurrency_stress-[^"]*\)".*/\1/p' | tail -n 1)
for i in $(seq 1 50); do
    timeout 60 "$stress_bin" -q > /dev/null \
        || { echo "concurrency_stress run $i failed or hung"; exit 1; }
done
# The scan allocation count once read one high about 1 run in 15-20:
# loop the binary `cargo test` runs the same way (mirrors CI's
# perf-harness job).
scan_alloc_bin=$(cargo test -p lsm --test scan_alloc --no-run --message-format=json 2>/dev/null \
    | sed -n 's/.*"executable":"\([^"]*scan_alloc-[^"]*\)".*/\1/p' | tail -n 1)
for i in $(seq 1 100); do
    timeout 60 "$scan_alloc_bin" -q > /dev/null \
        || { echo "scan_alloc run $i failed or hung"; exit 1; }
done

# Observability smoke: two identical simulated runs must export
# byte-identical output.
cargo test -q -p systemsim identical_runs_export_identical_observability
# Guard tests (scripts/guards.txt, which CI's perf-harness job runs
# too): counts, golden bytes and oracles that repeat exactly where times
# wobble. Already in `cargo test -q`; run by name so a failure says which
# budget moved.
while read -ra guard; do
    cargo test -q "${guard[@]}" < /dev/null
done < <(grep -vE '^[[:space:]]*(#|$)' scripts/guards.txt)
# kvbench is a standalone package the workspace build never compiles:
# build it against the current crates and run all four workloads with
# every correctness check, untraced and then traced (the per-layer half
# of the harness runs only under --trace 1; mirrors CI's perf-harness job).
bash benchmark/run.sh --scale 0.02 > /dev/null
bash benchmark/run.sh --scale 0.02 --trace 1 > /dev/null

# Fault matrix: the randomized power-cut harness already ran on its
# default seed band in `cargo test -q`; sweep a second band like CI's
# fault-matrix job, then the corruption-repair property suite and the
# degradation smoke (write fault -> read-only, read corruption ->
# checksum error, transient compaction fault -> retry).
POWER_CUT_SEED_BASE=100 cargo test -q -p fcae-repro --test power_cut power_cut_recovers
POWER_CUT_SEED_BASE=100 cargo test -q -p fcae-repro --test power_cut multi_writer_synced_acks_survive_power_cut
cargo test -q -p lsm --test proptest_repair
cargo run --release -p bench --bin db_bench -- \
    --num 20000 --benchmarks fillrandom --fault-every 2 --stats \
    | grep -q "offload.fault.transient" \
    || { echo "fault smoke failed: no offload.fault.* counters in --stats export"; exit 1; }

# Replication matrix: the failover bands (leader power-cut -> promote ->
# acked prefix survives, with and without the value log, plus the
# clean-catchup digest-equality band and the real-process SIGKILL band)
# already ran on the default seed band in `cargo test -q`; sweep the
# second band like CI's replication-matrix job.
POWER_CUT_SEED_BASE=100 cargo test -q -p fcae-repro --test replication_failover
POWER_CUT_SEED_BASE=100 cargo test -q -p server --test replication_sigkill

# Server smoke (the same script CI's server-smoke job runs), then the
# SIGKILL power-cut harness.
scripts/server_smoke.sh
cargo test -q -p server --test power_cut

# Loom model suites (group commit's leader election, offload slot
# exclusivity and exactly-once fault retry, read-view publication at
# rotation vs a reader).
# Deadlocks present as hangs, so bound them.
RUSTFLAGS="--cfg loom" timeout 1200 cargo test -p lsm --lib -q
RUSTFLAGS="--cfg loom" timeout 1200 cargo test -p offload --lib -q

# Nightly-only / optional tooling: run when available, skip otherwise
# (CI's static-analysis, miri, and tsan jobs are authoritative).
if cargo deny --version >/dev/null 2>&1; then
    cargo deny check bans licenses sources
else
    echo "skip: cargo-deny not installed"
fi
if cargo +nightly miri --version >/dev/null 2>&1; then
    MIRIFLAGS=-Zmiri-disable-isolation cargo +nightly miri test -p sstable --lib
    MIRIFLAGS=-Zmiri-disable-isolation cargo +nightly miri test -p snap-codec --lib
    MIRIFLAGS=-Zmiri-disable-isolation cargo +nightly miri test -p fcae --lib
else
    echo "skip: miri not installed"
fi
# ASan/LSan over the unsafe-adjacent data-plane crates (mirrors CI's
# asan job). Needs nightly with rust-src on a linux-gnu host.
HOST_TRIPLE=$(rustc -vV | sed -n 's/^host: //p')
if [[ "$HOST_TRIPLE" == *-linux-gnu ]] \
    && cargo +nightly --version >/dev/null 2>&1 \
    && rustup component list --toolchain nightly 2>/dev/null \
        | grep -q "^rust-src.*(installed)"; then
    for asan_crate in sstable snap-codec fcae; do
        RUSTFLAGS=-Zsanitizer=address ASAN_OPTIONS=detect_leaks=1 \
            cargo +nightly test -q -p "$asan_crate" --lib \
            -Zbuild-std --target "$HOST_TRIPLE"
    done
else
    echo "skip: ASan needs nightly + rust-src on a linux-gnu host"
fi

# Extended checks.
cargo build --workspace --all-targets
cargo doc --no-deps --workspace
cargo test --workspace --release
cargo bench --workspace
echo "all checks passed"
