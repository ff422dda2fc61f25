#!/usr/bin/env bash
# Builds the benchmark from the source tree it is started in and runs it.
# Run from the repository root:
#
#	bash perfbench/run.sh --workload serve-hot --seed 1 --seconds 10 --trace 0
#
# All build and run state (Go build cache, binaries, native artifacts,
# span dumps) stays under ./.bench_build.
set -euo pipefail

root=$(pwd)
state="$root/.bench_build"
mkdir -p "$state/gocache" "$state/tmp" "$state/config"
export GOCACHE="$state/gocache"
export GOTMPDIR="$state/tmp"
export TMPDIR="$state/tmp"
export GOPATH="$state/gopath"
export XDG_CONFIG_HOME="$state/config"
export GOTOOLCHAIN=local
export GOPROXY=off
export GOFLAGS=
export GOWORK=off

go build -C perfbench -o "$state/perfbench" .
exec "$state/perfbench" "$@"
