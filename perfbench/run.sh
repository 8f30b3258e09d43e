#!/usr/bin/env bash
# Builds the benchmark from source inside the checkout and runs it.
# Usage, from the repository root:
#   bash perfbench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
set -euo pipefail
root=$(cd "$(dirname "$0")/.." && pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/gotmp"
# Keep everything the go command writes (build cache, temporary files,
# module cache, telemetry counters under the config directory) inside the
# checkout.
export GOCACHE="$out/gocache" GOTMPDIR="$out/gotmp" GOPATH="$out/gopath" \
	XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOFLAGS=-mod=readonly
(cd "$root/perfbench" && go build -o "$out/perfbench" .)
cd "$root"
exec "$out/perfbench" -spec "$root/BENCHMARK.json" -out "$out" "$@"
