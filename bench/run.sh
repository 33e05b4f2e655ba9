#!/usr/bin/env bash
# Builds the benchmark from source and runs it from the repository root:
#
#   bash bench/run.sh --workload NAME|all --seed N --seconds S --trace 0|1
#
# The Go build cache, module cache and temporary files stay under
# .bench_build/ in the repository root, so a run writes nothing outside
# the checkout. The first build fills the cache and takes longest.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
out="$root/.bench_build"
mkdir -p "$out/tmp" "$out/config"

export GOCACHE="$out/gocache"
export GOPATH="$out/gopath"
export GOMODCACHE="$out/gopath/pkg/mod"
export GOTMPDIR="$out/tmp"
export TMPDIR="$out/tmp"
export XDG_CONFIG_HOME="$out/config"
export GOFLAGS="-buildvcs=false"
export GOTOOLCHAIN=local

go build -C "$root/bench" -o "$out/bench" .
cd "$root"
exec "$out/bench" "$@"
