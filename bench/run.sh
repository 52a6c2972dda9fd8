#!/usr/bin/env bash
# Builds the benchmark from this checkout's sources and runs it with the
# given arguments. Run it from the repository root:
#
#   bash bench/run.sh --workload ads-table --seed 1 --seconds 10 --trace 0
#
# Everything the build writes stays in the checkout, under
# $CARGO_TARGET_DIR (default .bench_build); the toolchain is never asked
# to download anything. Without the repository's sources next to bench/
# the build fails and the script exits non-zero.
set -euo pipefail

root=$(pwd)
build=${CARGO_TARGET_DIR:-.bench_build}
case $build in
/*) ;;
*) build=$root/$build ;;
esac
mkdir -p "$build/gocache" "$build/gotmp" "$build/config"

export GOCACHE=$build/gocache GOTMPDIR=$build/gotmp GOPATH=$build/gopath \
	XDG_CONFIG_HOME=$build/config GOENV=off GOTOOLCHAIN=local GOPROXY=off GOWORK=off

(cd "$root/bench" && go build -o "$build/bench" .)
exec "$build/bench" "$@"
