#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given flags. This is
# the "command" of BENCHMARK.json; run it from the root of a checkout:
#
#   bash bench/run.sh --workload scalar --seed 1 --seconds 10 --trace 0
#
# Everything the Go toolchain writes (build cache, temporary files, the
# binary) stays under .bench_build in the checkout, so a run reads and writes
# nothing outside it. `go run ./bench <flags>` does the same job with the
# user's own build cache.
set -euo pipefail
if [ ! -f go.mod ]; then
	echo "bench/run.sh: no go.mod in $PWD: run from the root of a checkout that holds the program" >&2
	exit 1
fi
out="$PWD/.bench_build"
mkdir -p "$out/tmp" "$out/config/go/telemetry"
# With a fresh config directory the go command starts a detached telemetry
# child that outlives it; switching telemetry off there means `go build`
# leaves no process behind.
echo off >"$out/config/go/telemetry/mode"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local
go build -o "$out/bench" ./bench
exec "$out/bench" "$@"
