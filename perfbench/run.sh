#!/usr/bin/env bash
# Builds the benchmark from source and runs it from the repository root:
#
#   bash perfbench/run.sh --workload paper-grid --seed 1 --seconds 20 --trace 0
#
# The binary, the Go build cache and all temporary files stay under
# .bench_build/ in the repository.
set -euo pipefail
root="$(cd "$(dirname "$0")/.." && pwd)"
build="$root/.bench_build"
mkdir -p "$build/home"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTOOLCHAIN=local
export HOME="$build/home" XDG_CONFIG_HOME="$build/home"
if [ -d "$root/.git" ] && command -v git >/dev/null; then
	BENCH_COMMIT="$(git -C "$root" rev-parse --short HEAD 2>/dev/null || echo unknown)"
	export BENCH_COMMIT
fi
(cd "$root/perfbench" && go build -o "$build/perfbench" .)
cd "$root"
exec "$build/perfbench" "$@"
