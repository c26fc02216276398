#!/usr/bin/env bash
# Builds kvbench from source (offline, release) and runs it.
#
#   benchmark/run.sh                      every workload, each in a fresh
#                                         process; writes one JSON document
#   benchmark/run.sh --trace 1            the same, traced: per-layer metrics
#                                         and a span file per workload
#   benchmark/run.sh --workload get --seed 7 --seconds 8 --trace 0
#                                         one workload; the result object is
#                                         the last line of standard output
#   benchmark/run.sh compare a.json b.json
#
# Run from the repository root. Everything it writes goes under
# $CARGO_TARGET_DIR (default .bench_build).
set -euo pipefail

export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-.bench_build}"
cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml >&2

if [ "${1:-}" = "compare" ]; then
    exec "$CARGO_TARGET_DIR/release/kvbench" "$@"
fi
exec "$CARGO_TARGET_DIR/release/kvbench" --dir "$CARGO_TARGET_DIR/kvbench-data" "$@"
