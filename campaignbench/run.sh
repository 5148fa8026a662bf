#!/usr/bin/env bash
# Builds the campaign benchmark from source and runs it with the given
# arguments. Run from the repository root:
#
#   bash campaignbench/run.sh --workload daemon --seed 1 --seconds 10 --trace 0
#
# Every build and run artefact stays under .bench_build/ in the current
# directory: the Go build cache, the toolchain's temporary and config
# files, the binary, and each run's scratch data and traces.
set -euo pipefail
root="$(pwd)"
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/gotmp" "$build/config"
export GOCACHE="$build/gocache" GOTMPDIR="$build/gotmp" XDG_CONFIG_HOME="$build/config"
export GOFLAGS=-mod=mod GOWORK=off GOTOOLCHAIN=local GOPROXY=off
go -C "$root/campaignbench" build -o "$build/campaignbench" .
exec "$build/campaignbench" -work "$build/work" "$@"
