#!/usr/bin/env bash
# Builds the benchmark from the sources of this checkout and runs it.
# All build and scratch files stay under <checkout>/.bench_build.
#
#   bash perfbench/run.sh --workload sweep_remote --seed 1 --seconds 30 --trace 0
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/gopath" "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off

(cd "$root/perfbench" && go build -buildvcs=false -o "$out/perfbench" .) >&2
exec "$out/perfbench" --root "$root" "$@"
