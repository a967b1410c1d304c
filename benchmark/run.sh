#!/usr/bin/env bash
# Builds and runs the benchmark from the root of a checkout, keeping
# everything the Go toolchain writes (build cache, temporary files)
# inside the checkout's .bench_build directory. All arguments go to the
# benchmark program; see main.go.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."
build="$PWD/.bench_build"
mkdir -p "$build/tmp" "$build/bin"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOPATH="$build/gopath"
export GOTOOLCHAIN=local GOFLAGS=-mod=readonly GOWORK=off
exec go run -C benchmark . "$@"
