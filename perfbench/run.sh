#!/usr/bin/env bash
# Builds aqvd and the benchmark from this checkout into .bench_build, then
# runs the benchmark with the given arguments. Run it from the repository
# root:
#
#   bash perfbench/run.sh --workload read --seed 1 --seconds 10 --trace 0
#   bash perfbench/run.sh --workload all --seed 1 --seconds 10   # full report
#
# The Go build cache, module cache and go's own config live under
# .bench_build too, so nothing is written outside the checkout; the first
# run in a fresh checkout therefore compiles the standard library first
# (about half a minute on a 2-vCPU VM).
#
# Go telemetry is switched off in that config before the first go command.
# With telemetry on, the go command forks a detached sidecar (its own
# session) that can outlive the build, including a build that fails at
# once, so the script would leave a process running.
set -euo pipefail
root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/config/go/telemetry"
printf 'off\n' >"$build/config/go/telemetry/mode"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomodcache" XDG_CONFIG_HOME="$build/config" \
	GOPROXY=off GOTOOLCHAIN=local
go build -o "$build/aqvd" ./cmd/aqvd
(cd perfbench && go build -o "$build/perfbench" .)
exec "$build/perfbench" "$@"
