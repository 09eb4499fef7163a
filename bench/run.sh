#!/usr/bin/env bash
# Launcher the pipeline calls from the root of a checkout:
#   bash bench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
# It builds the bench from source into .bench_build/ in the checkout (the
# Go build cache and temporary files go there too, so nothing outside the
# checkout is written) and runs it. The second build is a cache hit.
set -euo pipefail
root="$(pwd)"
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOPATH="$build/gopath" GOTOOLCHAIN=local GOPROXY=off
(cd "$root/bench" && go build -o "$build/bench" .)
exec "$build/bench" "$@"
