#!/usr/bin/env bash
# Builds the perfbench binary from source and runs it with the given
# arguments, e.g.
#
#   bash perfbench/run.sh --workload adhoc --seed 1 --seconds 45 --trace 0
#
# Run it from the root of the repository. Everything it builds or writes
# stays under .bench_build/ there: the Go build cache, the perfbench binary,
# and the per-run result and trace files (.bench_build/perfbench/out).
set -euo pipefail

root=$(pwd)
if [[ ! -f "$root/go.mod" || ! -f "$root/perfbench/go.mod" ]]; then
	echo "perfbench: run from the repository root (go.mod and perfbench/go.mod not found)" >&2
	exit 2
fi

build="$root/.bench_build"
mkdir -p "$build/perfbench/out"
export GOCACHE="$build/gocache"
export GOTOOLCHAIN=local
export GOWORK=off
export GOPROXY=off

go build -C "$root/perfbench" -o "$build/perfbench/perfbench" . >&2
exec "$build/perfbench/perfbench" --out "$build/perfbench/out" "$@"
