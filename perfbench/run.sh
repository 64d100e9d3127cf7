#!/usr/bin/env bash
# Builds the benchmark program from this checkout's sources and runs it with
# the given arguments. Run from the root of the checkout:
#
#	bash perfbench/run.sh --workload share --seed 1 --seconds 10 --trace 0
#
# The build cache, temp files and the binary all live under .bench_build/ in
# the checkout, so nothing outside it is written. Build output goes to
# stderr; the program's last stdout line is the JSON result.
set -euo pipefail
root=$(pwd)
src="$root/perfbench"
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/tmp" "$out/config"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config" \
	GOMODCACHE="$out/modcache" GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=
go -C "$src" build -o "$out/perfbench" . >&2
exec "$out/perfbench" "$@"
