#!/bin/sh
# Builds oakd, oakgw and the perfbench program from the checkout this is run
# in, then runs perfbench with the given arguments. Run it from the
# repository root; every build and run artifact stays under .bench_build.
#
#   sh perfbench/run.sh --workload serve --seed 1 --seconds 20 --trace 0
#   sh perfbench/run.sh compare old-results/ new-results/
set -eu
out="$(pwd)/.bench_build"
mkdir -p "$out/bin" "$out/gocache" "$out/gotmp" "$out/gomod"
export GOCACHE="$out/gocache" GOTMPDIR="$out/gotmp" GOMODCACHE="$out/gomod"
export GOTOOLCHAIN=local GOPROXY=off
for cmd in oakd oakgw; do
	go build -o "$out/bin/$cmd" "./cmd/$cmd" >&2
done
go build -o "$out/bin/perfbench" ./perfbench >&2
exec "$out/bin/perfbench" -bin "$out/bin" -work "$out" "$@"
