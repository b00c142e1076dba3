#!/usr/bin/env bash
# Checks that a change leaves lsd's and lsrepro's output alone, the
# equivalence check every perf record makes against the parent:
#
#   scripts/same_output.sh PARENT_REF
#
# Clones PARENT_REF into a temporary directory, builds its lsd and
# lsrepro and this checkout's (committed or not), runs both lsd builds
# with each invocation below and both lsrepro builds on every experiment
# id at -quick, cmp's each pair of stdouts, prints same/DIFFERS per pair
# and exits non-zero if any pair differs. Runs are deterministic per
# seed, so any difference is a changed result.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."

ref=${1:?usage: scripts/same_output.sh PARENT_REF}
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

git clone -q . "$tmp/parent"
git -C "$tmp/parent" checkout -q "$ref"
(cd "$tmp/parent" && go build -o "$tmp/lsd.parent" ./cmd/lsd && go build -o "$tmp/lsrepro.parent" ./cmd/lsrepro)
go build -o "$tmp/lsd.change" ./cmd/lsd
go build -o "$tmp/lsrepro.change" ./cmd/lsrepro
echo "parent $(git -C "$tmp/parent" rev-parse --short HEAD), change $(git rev-parse --short HEAD)$(git diff --quiet HEAD || echo ' + uncommitted edits')"

status=0
# One invocation per line; the empty first line is the default run.
while read -r args; do
	# shellcheck disable=SC2086 # the arguments are meant to split
	"$tmp/lsd.parent" $args >"$tmp/parent.out"
	# shellcheck disable=SC2086
	"$tmp/lsd.change" $args >"$tmp/change.out"
	if cmp -s "$tmp/parent.out" "$tmp/change.out"; then
		echo "same     lsd $args ($(wc -l <"$tmp/change.out") lines)"
	else
		echo "DIFFERS  lsd $args"
		diff "$tmp/parent.out" "$tmp/change.out" | head -n 20 || true
		status=1
	fi
done <<'EOF'

-full -workers 4
-dur 8s -overload 2
-full -custom -dur 6s -overload 3
-shards 3 -shard-policy mmfs_cpu -dur 6s
-stream -max-bins 120 -dur 10s -report 4s
-dur 6s -detect
EOF

# Every experiment this tree registers; one the parent lacks differs.
for id in $("$tmp/lsrepro.change" -list | awk 'NR > 1 { print $1 }'); do
	"$tmp/lsrepro.parent" -exp "$id" -quick >"$tmp/parent.out" 2>&1 || true
	"$tmp/lsrepro.change" -exp "$id" -quick >"$tmp/change.out"
	if cmp -s "$tmp/parent.out" "$tmp/change.out"; then
		echo "same     lsrepro -exp $id -quick"
	else
		echo "DIFFERS  lsrepro -exp $id -quick"
		status=1
	fi
done
exit $status
