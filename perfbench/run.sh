#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it. Run from the
# repository root:
#
#   bash perfbench/run.sh --workload sim-grid --seed 1 --seconds 20 --trace 0
#
# Build products, the Go build cache, GOPATH and the go command's config
# (telemetry counters) all stay under .bench_build/ in the checkout, so the
# build writes nothing outside it.
set -euo pipefail

root="$(pwd)"
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath" \
	XDG_CONFIG_HOME="$out/config" GOPROXY=off GOTOOLCHAIN=local
go -C perfbench build -o "$out/perfbench" . >&2
exec "$out/perfbench" "$@"
