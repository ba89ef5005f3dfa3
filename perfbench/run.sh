#!/usr/bin/env bash
# Builds the benchmark from the checkout it runs in, then runs it with
# the given arguments. Run from the repository root:
#
#   bash perfbench/run.sh --workload spatl-sim --seed 1 --seconds 25 --trace 0
#
# Build outputs, the Go caches and span traces stay in .bench_build/.
set -euo pipefail
cd "$(dirname "$0")/.."
out="$PWD/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod" \
	XDG_CONFIG_HOME="$out/config" GOENV=off GOFLAGS= GOWORK=off GOTOOLCHAIN=local GOTELEMETRY=off
(cd perfbench && go build -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
