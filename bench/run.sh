#!/bin/sh
# The benchmark driver's entry point (BENCHMARK.json names it): build the
# benchmark from source inside the checkout, then run it with the driver's
# arguments. Everything the Go toolchain writes stays under .bench_build.
set -e
cd "$(dirname "$0")/.."
build="$PWD/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp"
export GOTOOLCHAIN=local GOWORK=off GOFLAGS=
go build -o "$build/sgmldb-bench" ./bench
exec "$build/sgmldb-bench" "$@"
