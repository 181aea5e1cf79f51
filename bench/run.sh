#!/usr/bin/env bash
# Builds the end-to-end benchmark from source and runs it from the root of
# the repository. Every argument is passed to the benchmark:
#
#   bash bench/run.sh --workload campaign_cold --seed 42 --seconds 10 --trace 0
#   bash bench/run.sh                     # all five workloads
#   bash bench/run.sh compare parent-*.out change-*.out
#
# The Go build cache, temporary files and the binary stay under
# .bench_build/ in the repository, so a run reads and writes nothing
# outside it.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/tmp" "$out/config" "$out/gopath"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" \
	GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config" \
	GOTOOLCHAIN=local GOFLAGS=

(cd bench && go build -o "$out/glacbench" .)
exec "$out/glacbench" "$@"
