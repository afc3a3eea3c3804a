#!/usr/bin/env bash
# Builds the benchmark from source and runs it; every argument is passed
# on (see README.md). Run from the repository root:
#
#   bash perfbench/run.sh --workload large_200k --seed 1 --seconds 20 --trace 0
#
# Build products, the Go build cache and the go command's local telemetry
# stay in .bench_build/ of the checkout; nothing is written outside it.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
out="$root/.bench_build"
mkdir -p "$out/cache" "$out/tmp" "$out/config"
export GOCACHE="$out/cache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config" \
	GOENV=off GOFLAGS=-mod=readonly GOPROXY=off GOTOOLCHAIN=local GOWORK=off
(cd "$root/perfbench" && go build -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
