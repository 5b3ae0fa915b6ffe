#!/usr/bin/env bash
# BENCHMARK.json's command: build the benchmark inside the checkout, then run
# it with the arguments given. Everything the build writes — the binary and
# Go's build cache — goes under .bench_build in the checkout, so a run reads
# and writes nothing outside it. Run from the repository root:
#
#   bash bench/run.sh --workload serve-warm --seed 1 --seconds 20 --trace 0
set -euo pipefail

build="$PWD/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOTOOLCHAIN=local
# No root go.mod (a directory holding only the benchmark) fails here, before
# anything is printed.
go build -o "$build/bench" ./bench
exec "$build/bench" "$@"
