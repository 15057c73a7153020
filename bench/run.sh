#!/usr/bin/env bash
# Builds the benchmark from source and runs it, from the root of a checkout:
#
#   bash bench/run.sh [-workload NAME -seed N -seconds S -trace 0|1] [-out FILE]
#   bash bench/run.sh -compare old.json new.json
#
# The Go build cache and the binary live in .bench_build/ inside the
# checkout, so nothing outside it is written.
set -euo pipefail
bench="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
build="$(dirname "$bench")/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOTOOLCHAIN=local GOPROXY=off
(cd "$bench" && go build -o "$build/fsmoe-bench" .)
exec "$build/fsmoe-bench" "$@"
