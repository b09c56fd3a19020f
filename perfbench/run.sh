#!/usr/bin/env bash
# Builds the benchmark from this checkout's sources and runs it; every
# argument passes through (see README.md). Build outputs, the Go build
# cache, spans and the server socket all stay under $CARGO_TARGET_DIR
# (default .bench_build) in the checkout.
set -euo pipefail
root=$(cd "$(dirname "$0")/.." && pwd)
cd "$root"
out=${CARGO_TARGET_DIR:-.bench_build}
mkdir -p "$out/gocache" "$out/tmp"
out=$(cd "$out" && pwd)
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=readonly GOWORK=off
go -C perfbench build -buildvcs=false -o "$out/perfbench" .
exec "$out/perfbench" --out "$(realpath --relative-to="$root" "$out")" "$@"
