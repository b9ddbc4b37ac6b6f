#!/usr/bin/env bash
# Builds the benchmark from source and runs it. Run from the repository
# root:
#
#   bash perfbench/run.sh --workload core-sync --seed 1 --seconds 10 --trace 0
#
# Everything the build and the runs write stays under .bench_build/ in the
# current directory: the Go build cache, the go command's own config and
# telemetry files, the binary and traced runs' spans.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
if [ ! -f "$root/go.mod" ] || [ ! -f "$root/perfbench/go.mod" ]; then
	echo "perfbench: run from the repository root (need go.mod and perfbench/go.mod)" >&2
	exit 2
fi
mkdir -p "$out"
export GOCACHE="$out/gocache" GOTMPDIR="$out" GOMODCACHE="$out/gomod" XDG_CONFIG_HOME="$out/config"
export GOFLAGS=-mod=mod GOPROXY=off GOTOOLCHAIN=local
(cd "$root/perfbench" && go build -o "$out/perfbench" .)
exec "$out/perfbench" --trace-dir "$out/traces" "$@"
