#!/usr/bin/env bash
# Every `--bin <name>` and `scripts/<name>.sh` the docs, CI and check.sh
# mention must exist. Arguments replace the default file list. And every
# guard-shaped test file must be a test target `scripts/guards.txt` lists.
set -euo pipefail
cd "$(dirname "$0")/.."
[ $# -gt 0 ] || set -- README.md DESIGN.md EXPERIMENTS.md .github/workflows/ci.yml scripts/check.sh

META=$(cargo metadata --no-deps --offline --format-version 1)
BINS=$(jq -r '.packages[].targets[] | select(.kind[] == "bin") | .name' <<< "$META")
FAIL=0
for bin in $(grep -ohE -- '--bin[ =][A-Za-z0-9_-]+' "$@" | sed 's/--bin[ =]//' | sort -u); do
    grep -qx -- "$bin" <<< "$BINS" || { echo "doc-commands: no workspace binary '$bin'"; FAIL=1; }
done
for script in $(grep -ohE 'scripts/[A-Za-z0-9_-]+\.sh' "$@" | sort -u); do
    [ -x "$script" ] || { echo "doc-commands: $script is missing or not executable"; FAIL=1; }
done

# `<package> <test target> <source file>` for every test target.
TESTS=$(jq -r '.packages[] | .name as $p | .targets[] | select(.kind[] == "test")
    | "\($p) \(.name) \(.src_path)"' <<< "$META" \
    | while read -r pkg name src; do echo "$pkg $name $(realpath -m "$src")"; done)
for file in crates/*/tests/*.rs tests/*.rs; do
    [[ "$(basename "$file")" =~ ^(.+_(alloc|counts|golden|oracle|equivalence)|job_memory)\.rs$ ]] || continue
    pkg= name=
    read -r pkg name _ < <(grep -F " $(realpath "$file")" <<< "$TESTS") || true
    if [ -z "$pkg" ]; then
        echo "doc-commands: guard-shaped $file is no test target"; FAIL=1
    elif ! grep -qxE -- "-p $pkg --test $name( .*)?" scripts/guards.txt; then
        echo "doc-commands: guard $file (-p $pkg --test $name) is not in scripts/guards.txt"; FAIL=1
    fi
done
exit $FAIL
