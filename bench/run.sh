#!/usr/bin/env bash
# BENCHMARK.json's command: build the benchmark inside the checkout and
# run it with the driver's arguments (--workload --seed --seconds --trace).
#
# Everything the build and the run write stays under .bench_build in the
# checkout: the Go build cache, the binary, and the temp directory the
# lan-open workload puts its WAL in (real fsync on the checkout's disk).
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build="$root/.bench_build"
mkdir -p "$build/tmp"

export GOCACHE="$build/gocache"
export GOTMPDIR="$build/tmp"
export TMPDIR="$build/tmp"
# The benchmark needs nothing but the standard library and this
# repository; never reach for the network or another toolchain.
export GOMODCACHE="$build/gomodcache"
export GOPROXY=off GOTOOLCHAIN=local GOWORK=off

# A no-op after the first run of a checkout (the cache is warm).
go build -C "$root/bench" -o "$build/qsbench" .
exec "$build/qsbench" "$@"
