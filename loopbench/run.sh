#!/usr/bin/env bash
# Builds zmeshd and the benchmark from this checkout's sources, then runs
# the benchmark from the checkout root. Every file the build or the run
# writes lands under .bench_build/ in the checkout.
#
#   bash loopbench/run.sh --workload ckpt3d-sz --seed 1 --seconds 10 --trace 0
#   bash loopbench/run.sh gen --seed 1
#   bash loopbench/run.sh steady --runs 10
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
mkdir -p .bench_build/bin
export GOCACHE="$root/.bench_build/gocache"
export GOPATH="$root/.bench_build/gopath"
export GOTOOLCHAIN=local GOFLAGS=-mod=readonly GOWORK=off
(cd loopbench && go build -o ../.bench_build/bin/zmeshd repro/cmd/zmeshd \
  && go build -o ../.bench_build/bin/loopbench .) >&2
exec .bench_build/bin/loopbench "$@"
