#!/usr/bin/env bash
# Builds the end-to-end benchmark from source and runs it from the root of
# the repository; every argument is passed on, e.g.
#   bash e2ebench/run.sh --workload service-mix --seed 1 --seconds 25 --trace 0
# Build outputs, the Go build cache and traced runs' spans go to
# .bench_build/ under the current directory.
set -euo pipefail
bench_dir="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
out="$(pwd)/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/go-cache" GOPATH="$out/gopath" GOTOOLCHAIN=local GOFLAGS="-mod=readonly -buildvcs=false"
(cd "$bench_dir" && go build -o "$out/e2ebench" .)
exec "$out/e2ebench" "$@"
