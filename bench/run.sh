#!/bin/sh
# Builds the harness from the checkout's sources and runs it. Everything
# the build writes — the binary, Go's build cache and module cache — stays
# under .bench_build in the checkout.
set -e
root=$(cd "$(dirname "$0")/.." && pwd)
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomodcache" GOFLAGS=-mod=mod
go build -C "$root/bench" -o "$build/bench" .
cd "$root"
exec "$build/bench" "$@"
