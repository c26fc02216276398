#!/usr/bin/env bash
# Every `--bin <name>` and `scripts/<name>.sh` the docs, CI and check.sh
# mention must exist. Arguments replace the default file list.
set -euo pipefail
cd "$(dirname "$0")/.."
[ $# -gt 0 ] || set -- README.md DESIGN.md EXPERIMENTS.md .github/workflows/ci.yml scripts/check.sh

BINS=$(cargo metadata --no-deps --offline --format-version 1 \
    | jq -r '.packages[].targets[] | select(.kind[] == "bin") | .name')
FAIL=0
for bin in $(grep -ohE -- '--bin[ =][A-Za-z0-9_-]+' "$@" | sed 's/--bin[ =]//' | sort -u); do
    grep -qx -- "$bin" <<< "$BINS" || { echo "doc-commands: no workspace binary '$bin'"; FAIL=1; }
done
for script in $(grep -ohE 'scripts/[A-Za-z0-9_-]+\.sh' "$@" | sort -u); do
    [ -x "$script" ] || { echo "doc-commands: $script is missing or not executable"; FAIL=1; }
done
exit $FAIL
