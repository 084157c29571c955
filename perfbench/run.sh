#!/usr/bin/env bash
# Builds the perfbench binary from this checkout's sources and runs it:
#
#	bash perfbench/run.sh --workload fig4-sweep --seed 1 --seconds 45 --trace 0
#
# Run from the repository root. Everything the build and the run write —
# Go build cache, binary, scratch cache directories, traces — stays under
# .bench_build/ in the checkout.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build/perfbench"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomod" GOPATH="$out/gopath"
export GOTOOLCHAIN=local GOTELEMETRY=off GOENV=off GOWORK=off

(cd "$root/perfbench" && go build -o "$out/perfbench" .) >&2
exec "$out/perfbench" -root "$root" "$@"
