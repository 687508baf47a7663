#!/usr/bin/env bash
# Builds the benchmark from source and runs it from the root of the
# checkout; every argument goes to the program (see bench/README.md).
# The Go build cache and the binary live in .bench_build/ inside the
# checkout, so nothing outside it is written.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."
build="$PWD/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOTOOLCHAIN=local
bin="$build/hyperloop-perfbench"
go build -C bench -o "$bin" . >&2
# One CPU for the whole process: left free to migrate between CPUs, the
# same binary's throughput swings by ±15 % from run to run (README.md).
if command -v taskset >/dev/null; then
	cpu=$(taskset -cp $$ | sed -E 's/.*[^0-9]([0-9]+)$/\1/') # last CPU this shell may use
	exec taskset -c "$cpu" "$bin" "$@"
fi
exec "$bin" "$@"
