#!/usr/bin/env bash
# Builds the benchmark and runs it with the given arguments, e.g.
#
#   bash perfbench/run.sh --workload sweep-cold --seed 1 --seconds 12 --trace 0
#
# Run it from the root of a checkout. The build (and Go's build cache)
# lives in .bench_build/, so the benchmark writes nothing outside the
# checkout and its set-up time never includes compiling.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOTOOLCHAIN=local GOFLAGS=
go -C perfbench build -o "$out/perfbench" .
exec "$out/perfbench" -root "$root" "$@"
