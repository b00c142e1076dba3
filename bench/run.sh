#!/usr/bin/env bash
# Builds the benchmark from the checkout it stands in and runs it from
# the repository root. Everything it writes — the Go build cache, the
# bench and lsd binaries, scratch files, bench/out/ — stays inside the
# checkout. All arguments go to the benchmark (see README.md).
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."
mkdir -p .bench_build
export GOCACHE="$PWD/.bench_build/gocache" GOTOOLCHAIN=local
go build -C bench -o ../.bench_build/bench .
exec ./.bench_build/bench -root . "$@"
