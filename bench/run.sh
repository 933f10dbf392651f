#!/usr/bin/env bash
# Builds the benchmark from source inside the checkout and runs it.
# Everything the Go toolchain writes (build cache, module cache, the
# binary) stays under .bench_build/ in the current directory.
set -euo pipefail
root=$PWD
here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
build=$root/.bench_build
mkdir -p "$build"
export GOCACHE=$build/gocache GOPATH=$build/gopath GOTOOLCHAIN=local GOFLAGS=-buildvcs=false
go build -C "$here" -o "$build/bench" . >&2
exec "$build/bench" "$@"
