#!/usr/bin/env bash
# Builds cmd/rmtperf from source and runs it with the given arguments.
# Run it from the repository root:
#
#   bash cmd/rmtperf/run.sh --workload figures --seed 1 --seconds 20 --trace 0
#   bash cmd/rmtperf/run.sh                  # all four workloads, one child each
#
# The Go build cache, the binary, trace output and every temporary file live
# under .bench_build/ in the current directory, so a run reads and writes
# nothing outside the checkout. A directory without the simulator sources
# fails the build, and the script exits non-zero without printing a result.
set -euo pipefail

out="$PWD/.bench_build"
mkdir -p "$out/home" "$out/tmp"
export HOME="$out/home" XDG_CONFIG_HOME="$out/home/.config" XDG_CACHE_HOME="$out/home/.cache"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod"
export GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export GOFLAGS= GOWORK=off GOTOOLCHAIN=local GOPROXY=off CGO_ENABLED=0

go -C cmd/rmtperf build -o "$out/rmtperf" .
exec env GOMAXPROCS=2 "$out/rmtperf" "$@"
