#!/usr/bin/env bash
# Builds the serving benchmark from source and runs it:
#
#   bash perfbench/run.sh --workload trace-grow --seed 1 --seconds 10 --trace 0
#
# Run it from the repository root. Every build product (binary, Go build
# cache, temporary files) stays under .bench_build/ in the current
# directory; the last line of standard output is the JSON result.
set -euo pipefail

root=$(pwd)
if [ ! -f "$root/go.mod" ] || [ ! -d "$root/internal" ]; then
	echo "perfbench: run from the repository root (no go.mod or internal/ here)" >&2
	exit 2
fi

out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/tmp" "$out/gomodcache"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOMODCACHE="$out/gomodcache"
export GOTOOLCHAIN=local GOWORK=off GOPROXY=off GOFLAGS=-mod=mod
(cd "$root/perfbench" && go build -o "$out/perfbench" .) >&2
exec "$out/perfbench" "$@"
