#!/usr/bin/env bash
# Builds the serving benchmark from source and runs it with the given
# arguments. Run from the repository root:
#
#   bash perfbench/run.sh --workload warm-hit --seed 1 --seconds 10 --trace 0
#
# Build outputs (binary, Go build cache, span files) go under
# $CARGO_TARGET_DIR, default .bench_build, inside the current directory.
set -euo pipefail

root=$(pwd)
build="${CARGO_TARGET_DIR:-.bench_build}"
case "$build" in
  /*) ;;
  *) build="$root/$build" ;;
esac
mkdir -p "$build/tmp"

# Keep every file the go command writes (build cache, module cache,
# scratch work directory, telemetry counters) inside the build
# directory, and never reach for the network: the module has no
# dependencies outside the repository.
export GOCACHE="$build/gocache"
export GOPATH="$build/gopath"
export GOTMPDIR="$build/tmp"
export XDG_CONFIG_HOME="$build/config"
export GOPROXY=off
export GOTOOLCHAIN=local
export GOWORK=off
export GOFLAGS=

(cd "$root/perfbench" && go build -o "$build/perfbench" .)
exec "$build/perfbench" --out "$build" "$@"
