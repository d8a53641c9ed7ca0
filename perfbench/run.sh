#!/usr/bin/env bash
# Builds the benchmark and ftoa-serve from the checkout it is run in, then
# execs the benchmark with the given arguments. Run from the repository
# root:
#
#   bash perfbench/run.sh --workload wire-saturate --seed 1 --seconds 10 --trace 0
#
# Every file the build and the runs write stays under .bench_build/ in
# the checkout (Go build cache, temp dirs, binaries, WAL dirs).
set -euo pipefail

root=$(pwd)
bb="${CARGO_TARGET_DIR:-.bench_build}"
case "$bb" in /*) ;; *) bb="$root/$bb" ;; esac
mkdir -p "$bb/bin" "$bb/tmp" "$bb/config" "$bb/gopath"

export GOCACHE="$bb/gocache" GOPATH="$bb/gopath" GOMODCACHE="$bb/gopath/pkg/mod"
export TMPDIR="$bb/tmp" XDG_CONFIG_HOME="$bb/config"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=mod

(cd perfbench && go build -o "$bb/bin/perfbench" .)
go build -o "$bb/bin/ftoa-serve" ./cmd/ftoa-serve

exec "$bb/bin/perfbench" -server-bin "$bb/bin/ftoa-serve" -tmp "$bb/tmp" -spec BENCHMARK.json "$@"
