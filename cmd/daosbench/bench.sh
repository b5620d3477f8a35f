#!/usr/bin/env bash
# Builds daosbench from source and runs it with the given arguments. Run it
# from the repository root:
#
#   bash cmd/daosbench/bench.sh --workload paper-sweep --seed 0 --seconds 10 --trace 0
#
# Everything the build and the run write (Go build cache, binary, temporary
# cache and journal directories) stays under .bench_build/ in the current
# directory.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/tmp" "$out/config"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" \
	GOMODCACHE="$out/gomod" XDG_CONFIG_HOME="$out/config" \
	GOTOOLCHAIN=local GOFLAGS= GOWORK=off GOENV=off

(cd "$root/cmd/daosbench" && go build -o "$out/daosbench" .)
exec "$out/daosbench" "$@"
