#!/usr/bin/env bash
# Builds the simulator benchmark from source and runs one workload.
#
#   bash simbench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#
# Run it from the repository root. Every build product, cache and trace file
# goes under .bench_build/ there; the first run compiles the module (under a
# minute on two cores), later runs reuse the cached build.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/home" "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod"
export HOME="$out/home" XDG_CONFIG_HOME="$out/home/.config" XDG_CACHE_HOME="$out/home/.cache"
export TMPDIR="$out/tmp" GOTMPDIR="$out/tmp"
export GOTOOLCHAIN=local GOFLAGS=-buildvcs=false

go -C "$root/simbench" build -o "$out/simbench" . >&2
exec "$out/simbench" -out "$out/simbench-out" "$@"
