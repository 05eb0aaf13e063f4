#!/usr/bin/env bash
# Builds the benchmark from the checkout it is run in and runs it:
#
#   bash perfbench/run.sh --workload report-sweep --seed 1 --seconds 10 --trace 0
#   bash perfbench/run.sh compare <baseline-results> <candidate-results>
#
# Run it from the repository root. The Go build cache, the binary and
# every temporary file stay under .bench_build; results and scratch
# space under .perfbench. GOMAXPROCS is 2, the reference host's vCPUs.
set -euo pipefail

if [ ! -f go.mod ] || [ ! -d perfbench ]; then
	echo "perfbench: run from the repository root (no go.mod or perfbench here)" >&2
	exit 2
fi

build="$PWD/.bench_build"
mkdir -p "$build/tmp" "$build/config"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp" TMPDIR="$build/tmp"
export XDG_CONFIG_HOME="$build/config" GOFLAGS="" GOTOOLCHAIN=local GOPROXY=off GOMAXPROCS=2

go build -o "$build/perfbench" ./perfbench
exec "$build/perfbench" "$@"
