#!/usr/bin/env bash
# Builds the benchmark and the simulator it links from source, then runs it
# with the given arguments. Run it from the repository root:
#
#   bash bench/run.sh --workload table4 --seed 42 --seconds 15 --trace 0
#
# Build cache, temporary files and the binary stay under .bench_build/.
set -euo pipefail
build="$PWD/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOTOOLCHAIN=local GOPROXY=off
go build -C bench -buildvcs=false -o "$build/bench" .
exec "$build/bench" "$@"
