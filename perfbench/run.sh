#!/usr/bin/env bash
# Builds the repository's CLIs and the benchmark from source, then runs the
# benchmark. Run from the repository root:
#
#   bash perfbench/run.sh --workload build-5k --seed 1 --seconds 5 --trace 0
#
# Everything the build and the runs write stays under .perfbench/ in the
# current directory: the Go build cache, the binaries, the cached inputs
# and the result files.
set -euo pipefail

root=$(pwd)
work="$root/.perfbench"
mkdir -p "$work/bin" "$work/gocache" "$work/tmp" "$work/gopath" "$work/config"
export GOCACHE="$work/gocache" GOTMPDIR="$work/tmp" GOPATH="$work/gopath" \
	XDG_CONFIG_HOME="$work/config" GOTOOLCHAIN=local GOFLAGS= GOWORK=off

go build -C "$root/perfbench" -o "$work/bin/perfbench" . >&2
go build -C "$root" -o "$work/bin/" ./cmd/ncgen ./cmd/ncimport ./cmd/ncserve ./cmd/ncdedup ./cmd/ncstats >&2
exec "$work/bin/perfbench" -root "$root" -bin "$work/bin" -work "$work" "$@"
