#!/usr/bin/env bash
# Builds the benchmark from source and runs one workload:
#
#   bash perfbench/run.sh --workload mem-mix --seed 1 --seconds 20 --trace 0
#
# Run it from the repository root. The build cache, the binary, the
# per-run store directories and the traced run's spans all live under
# .bench_build/ in the current directory; nothing is written elsewhere.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
out="$(pwd)/.bench_build"
mkdir -p "$out"

export GOCACHE="$out/gocache"
export GOMODCACHE="$out/gomodcache"
export GOTOOLCHAIN=local
export GOFLAGS=-mod=readonly

(cd "$here" && go build -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
