#!/usr/bin/env bash
# Builds mgbench from the sources of the checkout it sits in, then runs it
# with the given arguments, e.g. from the repository root:
#
#   bash bench/run.sh --workload sweep-fig6 --seed 1 --seconds 25 --trace 0
#
# Everything the build and the run write (Go build cache, temporary files,
# the binary, traced-run spans) stays under .bench_build/ in the checkout.
set -euo pipefail

root=$(cd "$(dirname "$0")/.." && pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp"

export GOCACHE="$out/gocache"
export GOPATH="$out/gopath"
export GOMODCACHE="$out/gopath/pkg/mod"
export GOTMPDIR="$out/tmp"
export XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local
export GOWORK=off
export GOFLAGS=-mod=readonly

(cd "$root/bench" && go build -o "$out/mgbench" ./mgbench)
exec "$out/mgbench" -golden "$root/bench/golden" -spans "$out/spans" "$@"
