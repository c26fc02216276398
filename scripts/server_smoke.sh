#!/usr/bin/env bash
# Server smoke, shared by scripts/check.sh and CI's server-smoke job:
# a 4-shard kv-server on an OS-assigned port, YCSB-A for 10 s at 64
# connections, zero protocol errors and nonzero throughput required.
set -euo pipefail
cd "$(dirname "$0")/.."

cargo build --release -p server
WORK=$(mktemp -d)
SERVER_PID=
trap 'kill "$SERVER_PID" 2>/dev/null || true; rm -rf "$WORK"' EXIT
./target/release/kv-server --listen 127.0.0.1:0 --shards 4 --engines 2 \
    --records 10000 --root "$WORK/data" > "$WORK/server.out" &
SERVER_PID=$!
for _ in $(seq 50); do grep -q "listening on " "$WORK/server.out" && break; sleep 0.2; done
ADDR=$(sed -n 's/^listening on \([^ ]*\).*/\1/p' "$WORK/server.out")
[ -n "$ADDR" ] || { echo "server smoke failed: server never bound"; cat "$WORK/server.out"; exit 1; }
./target/release/load_gen --addr "$ADDR" --workload a \
    --connections 64 --seconds 10 | tee "$WORK/load.out"
grep -q "protocol_errors=0" "$WORK/load.out" \
    || { echo "server smoke failed: protocol errors"; exit 1; }
if grep -q "throughput_ops_s=0 " "$WORK/load.out"; then
    echo "server smoke failed: zero throughput"; exit 1
fi
