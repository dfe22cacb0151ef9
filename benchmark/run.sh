#!/usr/bin/env bash
# The command BENCHMARK.json names. It builds the benchmark from source into
# .bench_build/ at the checkout's root — Go's build and module caches go
# there too, so nothing is written outside the checkout — and runs it from
# the root with the arguments it was given.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/go-cache" GOMODCACHE="$build/go-mod" GOTOOLCHAIN=local GOWORK=off
go build -C "$here" -o "$build/photon-benchmark" .
cd "$root"
exec "$build/photon-benchmark" "$@"
