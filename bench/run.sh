#!/usr/bin/env bash
# Builds sccload from the checkout this script sits in and runs it with the
# arguments given. Everything the build writes (binary, Go build cache,
# temporaries) stays under .bench_build/ in the checkout; nothing is read
# or written outside it.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."
build="$PWD/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomodcache" GOTMPDIR="$build/tmp"
export GOFLAGS=-mod=mod GOTOOLCHAIN=local GOPROXY=off
go build -buildvcs=false -o "$build/sccload" ./bench/sccload
exec "$build/sccload" "$@"
