#!/usr/bin/env bash
# Builds the host-time benchmark from source and runs it with the given
# arguments, e.g.
#
#   bash hostbench/run.sh --workload scan --seed 1 --seconds 10 --trace 0
#
# Run it from the repository root. Every file the build and the run write
# (Go build cache, binary, CPU profile, span dump) goes under .bench_build/
# in the current directory; nothing is written outside it.
set -euo pipefail

root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/gopath" "$build/home" "$build/tmp"

export GOCACHE="$build/gocache"
export GOPATH="$build/gopath"
export GOMODCACHE="$build/gopath/pkg/mod"
export HOME="$build/home"
export XDG_CONFIG_HOME="$build/home/.config"
export XDG_CACHE_HOME="$build/home/.cache"
export TMPDIR="$build/tmp"
export GOTOOLCHAIN=local
export GOFLAGS=-mod=mod
export GOPROXY=off
export GOSUMDB=off

(cd "$root/hostbench" && go build -o "$build/hostbench" .) >&2
exec "$build/hostbench" -out "$build" "$@"
