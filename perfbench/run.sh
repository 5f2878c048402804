#!/usr/bin/env bash
# Builds the perfbench command from this checkout's sources and runs it with
# the given arguments. Run it from the repository root:
#
#   bash perfbench/run.sh --workload offline-flame --seed 1 --seconds 12 --trace 0
#
# The build cache, temporary files, run directories and trace files all stay
# under .bench_build/ in the checkout.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build/perfbench"
mkdir -p "$out/tmp"
export GOENV=off GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOTOOLCHAIN=local GOWORK=off GOFLAGS=-mod=readonly GOPROXY=off
go -C perfbench build -o "$out/perfbench" .
exec "$out/perfbench" -root "$root" "$@"
