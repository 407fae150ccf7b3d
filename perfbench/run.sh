#!/usr/bin/env bash
# Builds perfbench from the checkout's sources and runs one workload.
# Run it from the repository root, for example:
#
#   bash perfbench/run.sh --workload view-paper --seed 1 --seconds 10 --trace 0
#
# The build, the Go build cache and every output stay inside the
# checkout: the build under $CARGO_TARGET_DIR (default .bench_build), the
# rdb answer cache under perfbench/.cache, reports and spans under
# perfbench/.out.
set -euo pipefail

root=$PWD
bench="$root/perfbench"
build="${CARGO_TARGET_DIR:-.bench_build}"
case "$build" in
/*) ;;
*) build="$root/$build" ;;
esac
mkdir -p "$build/go-cache" "$build/go-tmp" "$build/go-path" "$build/config"
export GOCACHE="$build/go-cache" GOTMPDIR="$build/go-tmp" GOPATH="$build/go-path" \
	XDG_CONFIG_HOME="$build/config" GOFLAGS=-mod=mod GOPROXY=off GOTOOLCHAIN=local GOWORK=off
(cd "$bench" && go build -o "$build/perfbench" .)
exec "$build/perfbench" "$@"
