#!/usr/bin/env bash
# Builds the benchmark and the clasp and speedtestd binaries from the
# checkout in the current directory, then runs one workload:
#
#   bash claspbench/run.sh --workload report-default --seed 1 --seconds 10 --trace 0
#
# Everything the build and the run write stays under .bench_build/.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/bin" "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" TMPDIR="$out/tmp"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOENV=off
go build -o "$out/bin/clasp" ./cmd/clasp >&2
go build -o "$out/bin/speedtestd" ./cmd/speedtestd >&2
(cd claspbench && go build -o "$out/bin/claspbench" .) >&2
exec "$out/bin/claspbench" "$@"
