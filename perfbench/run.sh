#!/usr/bin/env bash
# Builds the benchmark from this checkout's sources and runs one workload:
#
#   bash perfbench/run.sh --workload cnn-dynamic --seed 1 --seconds 30 --trace 0
#
# Everything the build and the run write (Go build cache, temporary
# artifact stores, span dumps) stays under .bench_build at the root of
# the checkout. Build output goes to stderr, so the last line of stdout
# is the run's JSON result.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
out="$root/.bench_build"
mkdir -p "$out/gopath" "$out/gocache" "$out/gomodcache" "$out/tmp"
export GOPATH="$out/gopath" GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export GOTOOLCHAIN=local GOWORK=off GOFLAGS=-mod=readonly GOPROXY=off

(cd "$root/perfbench" && go build -o "$out/perfbench" .) >&2
cd "$root"
exec "$out/perfbench" --workdir "$out" "$@"
