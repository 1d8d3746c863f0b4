#!/usr/bin/env bash
# Builds colord and the colordbench command from this checkout, then runs
# colordbench with the given arguments:
#
#   bash colordbench/run.sh --workload warm_read --seed 1 --seconds 20 --trace 0
#
# Binaries, the Go build cache, trace spans and the go command's own
# config and telemetry files all stay under .bench_build/ at the root of
# the checkout.
set -euo pipefail
root=$(cd "$(dirname "$0")/.." && pwd)
out=$root/.bench_build
mkdir -p "$out/tmp"
export GOCACHE=$out/gocache GOTMPDIR=$out/tmp GOPATH=$out/gopath XDG_CONFIG_HOME=$out/config \
	GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=
go -C "$root" build -o "$out/colord" ./cmd/colord
go -C "$root/colordbench" build -o "$out/colordbench" .
exec "$out/colordbench" -colord "$out/colord" -out "$out" "$@"
