#!/usr/bin/env bash
# Builds dftserved and the benchmark driver from the checkout in the
# current directory, then runs the driver with the given arguments:
#
#	bash dftbench/run.sh --workload biquad-mix --seed 1 --seconds 10 --trace 0
#
# Everything the build and the run write stays under .bench_build/.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod" \
	XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOPROXY=off \
	GOWORK=off GOTELEMETRY=off
go build -o "$out/dftserved" ./cmd/dftserved
go build -C dftbench -o "$out/dftbench" .
exec "$out/dftbench" -root "$root" "$@"
