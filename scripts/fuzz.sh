#!/usr/bin/env bash
# Runs every Fuzz* target of the program for FUZZTIME (default 10s)
# each. Plain `go test` only replays the seed corpora; this mutates.
# `go test -fuzz` takes one package and one target per invocation, so
# the targets are found by grep and run one by one.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."
fuzztime=${1:-10s}

grep -rl --include='*_test.go' --exclude-dir=bench '^func Fuzz' . | sort | while read -r file; do
	for target in $(grep -oE '^func Fuzz[A-Za-z0-9_]+' "$file" | cut -d' ' -f2); do
		echo "== $target ($(dirname "$file"), $fuzztime)"
		# A bounded minimisation budget: the checkpoint corpus entries are
		# ~50 KB and the default (60 s per finding) would eat the window.
		go test "$(dirname "$file")" -run '^$' -fuzz "^$target\$" -fuzztime "$fuzztime" -fuzzminimizetime 10x
	done
done
