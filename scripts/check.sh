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
# hold-across-await, sync-before-rename, metrics-drift.
cargo xtask analyze
cargo build --release
cargo test -q

# Observability smoke: the --stats export must carry live metrics, and
# two identical simulated runs must export byte-identical output.
cargo run --release -p bench --bin db_bench -- \
    --num 20000 --benchmarks fillrandom --engine fcae --stats \
    | grep -q "hist lsm.put_micros" \
    || { echo "obs smoke failed: no lsm.put_micros in --stats export"; exit 1; }
# Multi-writer smoke: 4 client threads must exercise (and export) the
# parallel write path's group-commit metrics.
cargo run --release -p bench --bin db_bench -- \
    --num 20000 --benchmarks fillrandom,ycsb-a --threads 4 --stats \
    | grep -q "counter lsm.write.leader" \
    || { echo "obs smoke failed: no lsm.write.leader in --threads export"; exit 1; }
cargo test -q -p systemsim identical_runs_export_identical_observability
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

# Server smoke (mirrors CI's server-smoke job): 4-shard kv-server on an
# OS-assigned port, YCSB-A at 64 connections, zero protocol errors and
# nonzero throughput required; then the SIGKILL power-cut harness.
cargo build --release -p server
SERVER_OUT=$(mktemp)
SERVER_ROOT=$(mktemp -d)
./target/release/kv-server --listen 127.0.0.1:0 --shards 4 --engines 2 \
    --records 10000 --root "$SERVER_ROOT" > "$SERVER_OUT" &
SERVER_PID=$!
for _ in $(seq 50); do grep -q "listening on " "$SERVER_OUT" && break; sleep 0.2; done
SERVER_ADDR=$(sed -n 's/^listening on \([^ ]*\).*/\1/p' "$SERVER_OUT")
[ -n "$SERVER_ADDR" ] || { echo "server smoke failed: server never bound"; exit 1; }
./target/release/load_gen --addr "$SERVER_ADDR" --workload a \
    --connections 64 --seconds 10 | tee "$SERVER_OUT.load"
kill "$SERVER_PID" 2>/dev/null || true
if ! grep -q "protocol_errors=0" "$SERVER_OUT.load"; then
    echo "server smoke failed: protocol errors"; exit 1
fi
if grep -q "throughput_ops_s=0 " "$SERVER_OUT.load"; then
    echo "server smoke failed: zero throughput"; exit 1
fi
rm -rf "$SERVER_ROOT" "$SERVER_OUT" "$SERVER_OUT.load"
cargo test -q -p server --test power_cut

# Loom model suites (read-ahead source shutdown/backpressure/reader
# panic, fault-retry and aging interleavings, readers feeding the one
# Merger). Deadlocks present as hangs, so bound them.
RUSTFLAGS="--cfg loom" timeout 1200 cargo test -p lsm --lib -q
RUSTFLAGS="--cfg loom" timeout 1200 cargo test -p offload --lib -q
RUSTFLAGS="--cfg loom" timeout 1200 cargo test -p fcae --test loom_comparer -q

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
