#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments:
#
#   bash perfbench/run.sh --workload stream-diurnal --seed 1 --seconds 12 --trace 0
#   bash perfbench/run.sh compare BASE.jsonl CANDIDATE.jsonl
#
# Run from the repository root. Every build and run output (Go build cache,
# temporary files, profiles, result files) stays under .bench_build/.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/gotmp" "$out/config" "$out/gopath"
export GOCACHE="$out/gocache" GOTMPDIR="$out/gotmp" TMPDIR="$out/gotmp" \
	GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config" PPROF_TMPDIR="$out/gotmp" \
	GOTOOLCHAIN=local
(cd "$root/perfbench" && go build -buildvcs=false -o "$out/bin/perfbench" .)
exec "$out/bin/perfbench" "$@"
