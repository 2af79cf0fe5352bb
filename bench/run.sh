#!/bin/sh
# Builds the benchmark from the sources of the checkout it is run in and
# runs it; every argument passes through (see bench/README.md). Run it
# from the repository root:
#
#	sh bench/run.sh --workload figures --seed 42 --seconds 25 --trace 0
#
# Build outputs, the Go build cache and temporary files stay under
# .bench_build/ in the checkout.
set -eu
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/tmp"
GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOFLAGS= GOENV=off GOWORK=off \
	GOTOOLCHAIN=local GOPROXY=off \
	go -C "$root/bench" build -o "$out/cgpbench" .
exec "$out/cgpbench" "$@"
