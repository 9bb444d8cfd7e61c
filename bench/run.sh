#!/usr/bin/env bash
# Builds the benchmark from source inside the checkout and runs it with the
# given arguments. Run from the repository root:
#
#   bash bench/run.sh --workload fleet-ss --seed 1 --seconds 20 --trace 0
#
# Every build and run artefact (Go build cache, binary, CPU profiles) stays
# under .bench_build/ in the current directory.
set -euo pipefail

root="$(pwd)"
build="$root/.bench_build"
mkdir -p "$build/tmp"

export GOCACHE="$build/gocache"
export GOMODCACHE="$build/gomodcache"
export GOPATH="$build/gopath"
# The toolchain keeps its config and telemetry counters under the user
# config directory; keep them in the checkout too.
export XDG_CONFIG_HOME="$build/config"
export GOTMPDIR="$build/tmp"
export TMPDIR="$build/tmp"
export PPROF_TMPDIR="$build/tmp"
export GOFLAGS="-mod=readonly"
export GOWORK=off
export GOPROXY=off
export GOTOOLCHAIN=local
export CGO_ENABLED=0

(cd "$root/bench" && go build -o "$build/sslab-bench" .)
exec "$build/sslab-bench" "$@"
