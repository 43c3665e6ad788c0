#!/usr/bin/env bash
# Builds and runs the repository benchmark. Run from the repository root:
#
#   bash _repobench/run.sh --workload portal_hot --seed 1 --seconds 10 --trace 0
#
# Everything the build and the run write stays under .bench_build/ in
# the current directory: the Go build cache, the binary, the shard
# nodes' data directories and the traced run's span files.
set -euo pipefail

out="$PWD/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOMODCACHE="$out/gomod"
export GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOENV=off

go build -C _repobench -o "$out/bin/repobench" .
exec "$out/bin/repobench" "$@"
