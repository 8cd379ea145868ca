#!/usr/bin/env bash
# Builds the benchmark from source and runs it from the repository root.
# Every build artifact and scratch file stays under .bench_build/.
#
#   bash perfbench/run.sh --workload matrix-plain --seed 1 --seconds 10 --trace 0
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/gotmp" "$build/gopath" "$build/config"
# XDG_CONFIG_HOME keeps the toolchain's config and telemetry files here too.
export GOCACHE="$build/gocache" GOTMPDIR="$build/gotmp" GOPATH="$build/gopath" XDG_CONFIG_HOME="$build/config"
export GOMODCACHE="$build/gopath/pkg/mod" GOWORK=off GOFLAGS=-mod=mod GOTOOLCHAIN=local
(cd perfbench && go build -o "$build/perfbench" .)
exec "$build/perfbench" "$@"
