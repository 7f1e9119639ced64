#!/usr/bin/env bash
# Builds the repository benchmark and the rewire-serve daemon it drives
# from this checkout's sources, then runs the benchmark with the given
# arguments. Run it from the repository root:
#
#   bash bench/run.sh --workload rewire-4x4 --seed 1 --seconds 20 --trace 0
#   bash bench/run.sh all -seed 1
#   bash bench/run.sh compare <parent runs dir> <change runs dir>
#
# Everything the build writes (binaries, Go build cache, temporary files)
# stays under .bench_build/ in the current directory.
set -euo pipefail

out="$(pwd)/.bench_build"
mkdir -p "$out/tmp" "$out/config"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" \
	XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOPROXY=off GOSUMDB=off GOWORK=off \
	GOFLAGS= CGO_ENABLED=0

go -C bench build -buildvcs=false -o "$out/rewire-bench" .
go -C bench build -buildvcs=false -o "$out/rewire-serve" rewire/cmd/rewire-serve
exec "$out/rewire-bench" -serve-bin "$out/rewire-serve" "$@"
