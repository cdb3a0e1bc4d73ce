#!/usr/bin/env bash
# Entry point named by BENCHMARK.json: builds the harness from source and runs
# it from the checkout root. Every file the toolchain and the harness write
# (build cache, binaries, daemon data dirs) lands under .bench_build/ in the
# checkout, so a run touches nothing outside it.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build="$root/.bench_build"
mkdir -p "$build/bin"
export GOCACHE="$build/gocache" GOPATH="$build/gopath"
export GOTOOLCHAIN=local XDG_CONFIG_HOME="$build/config"
go build -C "$root/benchmark" -o "$build/bin/parabench" . >&2
exec "$build/bin/parabench" -root "$root" "$@"
