#!/usr/bin/env bash
# Builds tagspin-benchmark from this checkout's source and runs it with the
# given arguments, e.g.
#
#   bash bench/run.sh --workload serve2d --seed 1 --seconds 20 --trace 0
#
# Run it from the root of the checkout. Everything the build and the run
# write (Go build cache, binary, traced spans) stays under .bench_build/.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp" "$out/home"
export HOME="$out/home" XDG_CONFIG_HOME="$out/home/.config" XDG_CACHE_HOME="$out/home/.cache"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod"
export GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off CGO_ENABLED=0

(cd "$root/bench" && go build -buildvcs=false -o "$out/tagspin-benchmark" ./tagspin-benchmark)
exec "$out/tagspin-benchmark" -spans "$out/spans.jsonl" "$@"
