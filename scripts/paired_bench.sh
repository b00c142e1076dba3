#!/usr/bin/env bash
# Paired benchmark of this checkout (committed or not) against one of
# its ancestors, the procedure a change that claims a gain is judged by:
#
#   scripts/paired_bench.sh PARENT_REF [PAIRS=10] [WORKLOADS=all four]
#
# Clones PARENT_REF into a temporary directory, builds both trees once
# with their own bench/run.sh, then runs every workload — or only those
# named in WORKLOADS, one quoted argument, e.g. "live_serve" for extra
# pairs of the workload a claim rests on — PAIRS times on each side,
# seeds 1 and 2 alternating and the side that goes first alternating
# too, and prints, per workload and end-to-end metric, both
# medians and quartiles, the change of the median, and the pairs the
# change won. A gain counts when the change wins nine tenths of the
# pairs and the medians differ by more than the parent's q3 - q1.
#
# Every run is the benchmark's own: bench/run.sh at its default window,
# tracing off. Reads only each run's final JSON line and its digest;
# writes nothing under bench/.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."

ref=${1:?usage: scripts/paired_bench.sh PARENT_REF [PAIRS] [WORKLOADS]}
pairs=${2:-10}
workloads=${3:-overload2x underload cluster_ddos live_serve}
# name:direction, in BENCHMARK.json's order.
metrics="setup_s:lower pkts_per_s:higher bin_ms_p50:lower bin_ms_p90:lower accuracy:higher cpu_us_per_kpkt:lower rss_mb:lower"

tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
out=$tmp/runs
mkdir "$out"

git clone -q . "$tmp/parent"
git -C "$tmp/parent" checkout -q "$ref"
echo "parent $(git -C "$tmp/parent" rev-parse --short HEAD), change $(git rev-parse --short HEAD)$(git diff --quiet HEAD || echo ' + uncommitted edits'), $pairs pairs"

# One throwaway run per side builds bench and lsd and fills the caches.
for dir in "$tmp/parent" .; do
	bash "$dir/bench/run.sh" --quick >/dev/null
done

# run SIDE DIR WORKLOAD PAIR SEED: one run, full output kept.
run() {
	bash "$2/bench/run.sh" --workload "$3" --seed "$5" --trace 0 \
		>"$out/$1.$3.$4.txt" || echo "  $1 $3 pair $4: exit status $?"
}

for p in $(seq 1 "$pairs"); do
	seed=$((2 - p % 2))
	for w in $workloads; do
		if ((p % 2)); then
			run parent "$tmp/parent" "$w" "$p" "$seed"
			run change . "$w" "$p" "$seed"
		else
			run change . "$w" "$p" "$seed"
			run parent "$tmp/parent" "$w" "$p" "$seed"
		fi
	done
	echo "pair $p (seed $seed) done"
done

# value SIDE WORKLOAD PAIR METRIC: the metric from the run's last line.
value() {
	tail -n 1 "$out/$1.$2.$3.txt" | sed -n "s/.*\"$4\":{\"value\":\([^,}]*\).*/\1/p"
}

# quartiles: "q1 / median / q3" of the numbers on stdin.
quartiles() {
	sort -g | awk '
		function quantile(q,    pos, lo) {
			pos = (NR - 1) * q; lo = int(pos)
			return lo + 1 < NR ? a[lo + 1] + (pos - lo) * (a[lo + 2] - a[lo + 1]) : a[NR]
		}
		{ a[NR] = $1 }
		END { if (NR) printf "%.5g / %.5g / %.5g", quantile(.25), quantile(.5), quantile(.75) }'
}

for w in $workloads; do
	echo
	echo "== $w"
	echo "| metric | parent q1 / median / q3 | change q1 / median / q3 | Δ median | pairs the change wins |"
	echo "|---|---|---|---|---|"
	for md in $metrics; do
		m=${md%:*}
		for p in $(seq 1 "$pairs"); do
			echo "$(value parent "$w" "$p" "$m") $(value change "$w" "$p" "$m")"
		done | awk 'NF == 2' >"$tmp/pairs"
		par=$(cut -d' ' -f1 "$tmp/pairs" | quartiles)
		chg=$(cut -d' ' -f2 "$tmp/pairs" | quartiles)
		awk -v name="$m" -v dir="${md#*:}" -v par="$par" -v chg="$chg" '
			{ if (dir == "higher" ? $2 > $1 : $2 < $1) won++; else if ($2 == $1) tied++ }
			END {
				split(par, p, " / "); split(chg, c, " / ")
				printf "| `%s` | %s | %s | %+.1f %% | %d of %d%s |\n", name, par, chg,
					p[2] ? 100 * (c[2] - p[2]) / p[2] : 0, won, NR, tied ? " (" tied " ties)" : ""
			}' "$tmp/pairs"
	done
	for p in $(seq 1 "$pairs"); do
		a=$(sed -n 's/^  digest //p' "$out/parent.$w.$p.txt")
		b=$(sed -n 's/^  digest //p' "$out/change.$w.$p.txt")
		[[ $a == "$b" ]] || echo "digest differs in pair $p: parent ${a:-none} change ${b:-none}"
	done
	for m in setup_s pkts_per_s bin_ms_p90 cpu_us_per_kpkt; do
		echo "runs, $m, parent/change in pair order:$(for p in $(seq 1 "$pairs"); do
			printf ' %.4g/%.4g' "$(value parent "$w" "$p" "$m")" "$(value change "$w" "$p" "$m")"
		done)"
	done
done
