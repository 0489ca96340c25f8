#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments.
# Run it from the repository root, for example:
#
#   bash benchmark/run.sh --workload locking --seed 1 --seconds 20 --trace 0
#   bash benchmark/run.sh compare runs-a runs-b
#
# Build outputs, the Go build cache, and the Go tool's own state all stay
# under .bench_build/ in the current directory.
set -euo pipefail

build="$(pwd)/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/go-cache"
export GOTMPDIR="$build/tmp"
export GOPATH="$build/go-path"
export GOMODCACHE="$build/go-path/pkg/mod"
export XDG_CONFIG_HOME="$build/config"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=mod GOWORK=off

(cd benchmark && go build -o "$build/tokencmp-bench" .)
exec "$build/tokencmp-bench" "$@"
