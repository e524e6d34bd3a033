#!/usr/bin/env bash
# Builds the benchmark against the simulator in this checkout, with the
# PGO profile mmureport ships (cmd/mmureport/default.pgo), and runs it.
# Run from the repository root:
#
#   bash perfbench/run.sh --workload kbuild --seed 1 --seconds 30 --trace 0
#
# Everything the build writes (Go build cache, temporary files, the
# binary) stays under .bench_build in the repository root.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/tmp" "$out/config"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath" \
	XDG_CONFIG_HOME="$out/config" GOPROXY=off GOTOOLCHAIN=local GOWORK=off

(cd "$root/perfbench" && go build -pgo="$root/cmd/mmureport/default.pgo" -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
