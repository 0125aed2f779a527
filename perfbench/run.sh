#!/usr/bin/env bash
# Builds the benchmark from source and runs it; every argument is passed
# to the benchmark. Run it from the repository root:
#
#   bash perfbench/run.sh --workload tcp-token --seed 1 --seconds 10 --trace 0
#
# The build cache, the binary and the span files of traced runs all stay
# under .bench_build/ in the repository root.
set -euo pipefail
out="$(pwd)/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" GOTOOLCHAIN=local GOFLAGS=
(cd perfbench && go build -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
