#!/usr/bin/env bash
# Builds tcorbench from the sources of this checkout and runs it with the
# given arguments. Run it from the repository root, e.g.
#
#   bash bench/run.sh --workload frame-raster --seed 1 --seconds 20 --trace 0
#
# The Go build cache, temporary files, the go command's user configuration
# (and with it its telemetry counters), the binary, result files and traces
# all stay under .bench_build/ in the checkout. The build needs no network.
set -euo pipefail

out="$PWD/.bench_build"
mkdir -p "$out/tmp" "$out/config"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath" \
	XDG_CONFIG_HOME="$out/config" \
	GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=
go -C bench build -o "$out/tcorbench" ./tcorbench >&2
exec "$out/tcorbench" "$@"
