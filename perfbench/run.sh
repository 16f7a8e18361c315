#!/usr/bin/env bash
# Builds the benchmark from source inside the checkout, then runs it.
# Usage (from the repository root):
#   bash perfbench/run.sh --workload rpc-storm --seed 1 --seconds 30 --trace 0
# Every build artifact, cache and output lands under .bench_build/.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/gotmp" "$out/gomodcache"
export GOCACHE="$out/gocache" GOTMPDIR="$out/gotmp" GOMODCACHE="$out/gomodcache"
# Offline, with the installed toolchain, and no workspace file.
export GOTOOLCHAIN=local GOPROXY=off GOWORK=off

if ! (cd "$root/perfbench" && go build -o "$out/perfbench" .) >&2; then
	echo "perfbench: build failed (the benchmark needs the repository's Go module one level up)" >&2
	exit 2
fi
exec "$out/perfbench" -outdir "$out/perfbench-out" "$@"
