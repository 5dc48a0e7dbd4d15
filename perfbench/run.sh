#!/usr/bin/env bash
# Builds the benchmark and scrutinizerd from the checkout it sits in, then
# runs one workload. Run from the root of the checkout:
#
#   bash perfbench/run.sh --workload paper-batch --seed 1 --seconds 15 --trace 0
#
# Everything it builds or writes stays under .bench_build/ in the checkout,
# Go's build cache included.
set -euo pipefail

root=$(pwd)
if [[ ! -f "$root/perfbench/go.mod" ]]; then
	echo "run.sh: run from the root of the checkout" >&2
	exit 2
fi
out="$root/.bench_build/perfbench"
mkdir -p "$out/bin" "$out/tmp"

export GOCACHE="$root/.bench_build/gocache"
export GOMODCACHE="$root/.bench_build/gomodcache"
export GOTMPDIR="$out/tmp"
export TMPDIR="$out/tmp"
export GOTOOLCHAIN=local GOFLAGS=-mod=readonly GOPROXY=off GOSUMDB=off GOENV=off GOWORK=off

go build -o "$out/bin/scrutinizerd" ./cmd/scrutinizerd
(cd perfbench && go build -o "$out/bin/perfbench" .)
exec "$out/bin/perfbench" -daemon "$out/bin/scrutinizerd" -out "$out" "$@"
