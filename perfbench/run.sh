#!/usr/bin/env bash
# Builds the benchmark and the ogdpserve binary it drives from the
# checkout's sources, then runs the benchmark with the given arguments.
# Run it from the repository root:
#
#   bash perfbench/run.sh --workload study --seed 1 --seconds 30 --trace 0
#
# Build outputs, the Go build cache and scratch corpora all stay under
# .bench_build/ in the current directory.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTOOLCHAIN=local
mkdir -p "$out/bin"
cd "$root/perfbench"
go build -o "$out/bin/perfbench" .
go build -o "$out/bin/ogdpserve" ogdp/cmd/ogdpserve
cd "$root"
exec "$out/bin/perfbench" -bin "$out/bin" -work "$out/work" "$@"
