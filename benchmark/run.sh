#!/usr/bin/env bash
# Builds the benchmark harness and runs it from the repository root. The
# harness builds ./cmd/gsimd itself. Everything the toolchain writes — build
# cache, module path, temporary files, its own telemetry counters — stays
# under .bench_build/ in the checkout, and no user-level go configuration
# is read.
set -euo pipefail
[ -f BENCHMARK.json ] || { echo "run.sh: run from the repository root" >&2; exit 2; }
build="$PWD/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp" TMPDIR="$build/tmp"
export XDG_CONFIG_HOME="$build/config" GOENV=off GOFLAGS= GOTOOLCHAIN=local GOPROXY=off
go build -C benchmark -o "$build/gsimbench" .
exec "$build/gsimbench" "$@"
