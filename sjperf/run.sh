#!/usr/bin/env bash
# Builds sjserver and the sjperf load generator from this checkout, then
# runs one benchmark workload. All build caches, server data and results
# stay under .bench_build/ at the root of the checkout.
#
#   bash sjperf/run.sh --workload tpch_scan --seed 1 --seconds 30 --trace 0
set -euo pipefail
root="$(cd "$(dirname "$0")/.." && pwd)"
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/tmp" "$build/bin"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" TMPDIR="$build/tmp" GOTOOLCHAIN=local GOPROXY=off GOFLAGS=
cd "$root/sjperf"
go build -o "$build/bin/sjserver" repro/cmd/sjserver >&2
go build -o "$build/bin/sjperf" . >&2
exec "$build/bin/sjperf" -server "$build/bin/sjserver" -workdir "$build" "$@"
