#!/usr/bin/env bash
# Builds the benchmark from the sources in this checkout and runs it with the
# given arguments, from the checkout root:
#
#   bash benchmark/run.sh --workload suite-run --seed 1 --seconds 25 --trace 0
#
# Everything the build writes (Go build cache, toolchain scratch, the binary)
# stays under .bench_build/ in the checkout, and the toolchain is kept off the
# network: the benchmark depends on nothing outside this repository.
set -euo pipefail

root=$(cd "$(dirname "$0")/.." && pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp" "$out/config"

export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath"
export XDG_CONFIG_HOME="$out/config" GOPROXY=off GOTOOLCHAIN=local GOFLAGS=
go -C "$root/benchmark" build -o "$out/riscbench-e2e" .

cd "$root"
exec "$out/riscbench-e2e" "$@"
