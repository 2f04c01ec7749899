#!/usr/bin/env bash
# Builds the benchmark and the roofserved/roofworkerd daemons from this
# checkout, then runs the benchmark with the given arguments:
#
#   bash perfbench/run.sh --workload sim-campaigns --seed 1 --seconds 20 --trace 0
#
# Run it from the repository root. Everything it builds or writes stays
# under .bench_build/ in the checkout, including Go's build cache.
set -euo pipefail

if [ ! -f go.mod ] || [ ! -f perfbench/go.mod ]; then
	echo "perfbench: run from the repository root (need go.mod and perfbench/go.mod)" >&2
	exit 2
fi
out="$PWD/.bench_build/perfbench"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath"
export GOFLAGS=-mod=mod GOPROXY=off GOTOOLCHAIN=local GOWORK=off XDG_CONFIG_HOME="$out/config"
mkdir -p "$GOTMPDIR" "$out/bin"

(cd perfbench && go build -o "$out/bin/perfbench" .) >&2
go build -o "$out/bin/" ./cmd/roofserved ./cmd/roofworkerd >&2
exec "$out/bin/perfbench" -bin "$out/bin" -out "$out" "$@"
