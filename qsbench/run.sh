#!/bin/sh
# Builds the repository benchmark from the checkout it is run in, then runs
# it. Run from the root of the checkout:
#
#   sh qsbench/run.sh --workload <name|all> --seed <n> --seconds <s> --trace <0|1>
#
# The binary, the Go build cache and temporary files stay in .bench_build/.
set -eu
out="$PWD/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath"
export GOENV=off GOFLAGS= GOTOOLCHAIN=local
(cd qsbench && go build -buildvcs=false -o "$out/qsbench" .)
exec "$out/qsbench" "$@"
