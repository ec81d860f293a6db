#!/usr/bin/env bash
# Builds the benchmark from the source in this checkout and runs it. Run it
# from the repository root, e.g.
#
#   bash perfbench/run.sh --workload job-cold --seed 1 --seconds 12 --trace 0
#
# Build outputs and the Go build cache stay under .bench_build/ so nothing is
# written outside the checkout.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build/perfbench"
mkdir -p "$out"
export GOCACHE="$root/.bench_build/go-cache"
export GOMODCACHE="$root/.bench_build/go-mod"
export GOTOOLCHAIN=local GOFLAGS= GOWORK=off
# The official Go installation directory, for shells whose PATH lacks it.
if ! command -v go >/dev/null && [ -x /usr/local/go/bin/go ]; then
  PATH="$PATH:/usr/local/go/bin"
fi
go -C perfbench build -o "$out/perfbench" .
exec "$out/perfbench" --out "$out" "$@"
