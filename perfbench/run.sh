#!/usr/bin/env bash
# Builds the benchmark from this checkout's sources and runs one workload:
#
#   bash perfbench/run.sh --workload pkt_websearch --seed 1 --seconds 30 --trace 0
#
# `--workload all` runs every workload in turn, each in its own process.
# Run it from the repository root. Every file the Go toolchain writes
# (build cache, temporary work directories, telemetry counters) stays under
# .bench_build in the current directory.
set -euo pipefail

root=$PWD
build=$root/.bench_build
mkdir -p "$build/cache" "$build/tmp" "$build/config" "$build/gopath"
export GOCACHE=$build/cache GOTMPDIR=$build/tmp XDG_CONFIG_HOME=$build/config \
	GOPATH=$build/gopath GOTOOLCHAIN=local GOFLAGS=-mod=readonly GOWORK=off

(cd "$root/perfbench" && go build -o "$build/perfbench" .)
if [[ ${1-} == --workload && ${2-} == all ]]; then
	shift 2
	for w in pkt_websearch pkt_table1 fluid_mega; do
		"$build/perfbench" --workload "$w" "$@"
	done
	exit
fi
exec "$build/perfbench" "$@"
