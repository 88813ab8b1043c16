#!/usr/bin/env bash
# Builds perfbench from this checkout's sources and runs it, passing every
# argument through. Run from the repository root:
#
#   bash perfbench/run.sh --workload engine-2k --seed 1 --seconds 12 --trace 0
#
# The Go build cache, the binary and the run records all live under
# .bench_build/ in the checkout.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build/perfbench"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTOOLCHAIN=local GOWORK=off GOFLAGS=
(cd "$root/perfbench" && go build -o "$out/perfbench" .)
exec "$out/perfbench" --out "$out" "$@"
