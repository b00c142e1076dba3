#!/usr/bin/env bash
# Distributed cluster smoke: boot the budget coordinator and two TCP
# worker monitors, assert budget grants flow through /cluster and
# /metrics, hard-kill one worker and require the coordinator to mark it
# partitioned while the survivor absorbs the whole budget, restart it
# and require a rejoin, then SIGTERM everything and require clean exits.
# Run from the repository root.
set -euo pipefail

BIN=${BIN:-/tmp/lsd-cluster-smoke}
COORD=127.0.0.1:19800
ADMIN_C=127.0.0.1:19801
ADMIN_A=127.0.0.1:19802
ADMIN_B=127.0.0.1:19803
TOTAL=2e6

go build -o "$BIN" ./cmd/lsd

wait_http() { # url
  for _ in $(seq 1 50); do
    curl -sf "$1" >/dev/null 2>&1 && return 0
    sleep 0.2
  done
  echo "FAIL: $1 never came up"
  return 1
}

wait_cluster() { # grep pattern over the /cluster JSON
  for _ in $(seq 1 50); do
    curl -sf "http://$ADMIN_C/cluster" 2>/dev/null | grep -q "$1" && return 0
    sleep 0.2
  done
  echo "FAIL: /cluster never showed $1; last state:"
  curl -sf "http://$ADMIN_C/cluster" || true
  return 1
}

node_budget() { # node name -> granted budget from the coordinator metrics
  curl -sf "http://$ADMIN_C/metrics" | awk -v n="lsd_node_budget{node=\"$1\"}" '$1 == n { print $2 }'
}

# The coordinator owns the policy and the total budget; a fast heartbeat
# keeps partition detection inside the polling deadlines below.
"$BIN" -coordinator "$COORD" -shard-policy mmfs_cpu -capacity "$TOTAL" \
  -heartbeat 100ms -serve "$ADMIN_C" &
COORD_PID=$!
A_PID=""
B_PID=""
trap 'kill "$COORD_PID" $A_PID $B_PID 2>/dev/null || true' EXIT
wait_http "http://$ADMIN_C/healthz"

# Two workers on generated ingest. The explicit -capacity is only the
# pre-join budget: the first grant replaces it.
"$BIN" -worker "$COORD" -node alpha -capacity 60000 -serve "$ADMIN_A" &
A_PID=$!
"$BIN" -worker "$COORD" -node beta -capacity 60000 -serve "$ADMIN_B" &
B_PID=$!
wait_http "http://$ADMIN_A/readyz"
wait_http "http://$ADMIN_B/readyz"

# Both nodes join and report demand; neither is partitioned.
wait_cluster '"name":"alpha"'
wait_cluster '"name":"beta"'
curl -sf "http://$ADMIN_C/cluster" | grep -q '"partitioned":true' \
  && { echo "FAIL: a node is partitioned before any failure"; exit 1; }

# Budget-grant gauges: the coordinator exposes per-node budget, demand
# and partition state; both grants are live and sum to the total.
METRICS=$(curl -sf "http://$ADMIN_C/metrics")
for m in lsd_cluster_nodes lsd_cluster_total_capacity go_gc_cycles_total go_goroutines \
         'lsd_node_budget{node="alpha"}' 'lsd_node_budget{node="beta"}' \
         'lsd_node_demand{node="alpha"}' 'lsd_node_partitioned{node="beta"}'; do
  grep -qF "$m" <<<"$METRICS" || { echo "FAIL: missing metric $m"; exit 1; }
done
grep -q '^lsd_cluster_nodes 2' <<<"$METRICS" || { echo "FAIL: expected 2 nodes"; exit 1; }
for _ in $(seq 1 50); do
  A=$(node_budget alpha); B=$(node_budget beta)
  ok=$(awk -v a="${A:-0}" -v b="${B:-0}" -v t="$TOTAL" \
    'BEGIN { print (a > 0 && b > 0 && a + b > 0.99 * t && a + b < 1.01 * t) ? 1 : 0 }')
  [ "$ok" = 1 ] && break
  sleep 0.2
done
[ "$ok" = 1 ] || { echo "FAIL: grants never summed to the total (alpha=$A beta=$B)"; exit 1; }

# The workers see the same picture from their side of the link.
curl -sf "http://$ADMIN_A/metrics" | grep -q '^lsd_coord_connected 1' \
  || { echo "FAIL: alpha not connected to the coordinator"; exit 1; }
curl -sf "http://$ADMIN_A/metrics" | grep -q '^lsd_coord_degraded 0' \
  || { echo "FAIL: alpha degraded despite a live coordinator"; exit 1; }
curl -sf "http://$ADMIN_A/metrics" | grep -q '^go_goroutines [1-9]' \
  || { echo "FAIL: alpha's plane has no runtime gauges"; exit 1; }

# Partition: hard-kill beta. The coordinator must mark it partitioned
# once its lease expires, and the survivor keeps shedding — now under
# (almost) the whole machine budget.
kill -9 "$B_PID"; wait "$B_PID" 2>/dev/null || true; B_PID=""
wait_cluster '"name":"beta"[^}]*"partitioned":true'
curl -sf "http://$ADMIN_A/healthz" | grep -q ok \
  || { echo "FAIL: survivor died with the partitioned worker"; exit 1; }
for _ in $(seq 1 50); do
  A=$(node_budget alpha)
  ok=$(awk -v a="${A:-0}" -v t="$TOTAL" 'BEGIN { print (a > 0.99 * t) ? 1 : 0 }')
  [ "$ok" = 1 ] && break
  sleep 0.2
done
[ "$ok" = 1 ] || { echo "FAIL: survivor never absorbed the budget (alpha=$A)"; exit 1; }

# Rejoin: a worker reconnecting under the same node name clears the
# partition and wins back a share of the budget.
"$BIN" -worker "$COORD" -node beta -capacity 60000 -serve "$ADMIN_B" &
B_PID=$!
wait_cluster '"name":"beta"[^}]*"partitioned":false'
for _ in $(seq 1 50); do
  B=$(node_budget beta)
  ok=$(awk -v b="${B:-0}" 'BEGIN { print (b > 0) ? 1 : 0 }')
  [ "$ok" = 1 ] && break
  sleep 0.2
done
[ "$ok" = 1 ] || { echo "FAIL: rejoined worker never regained a grant"; exit 1; }

# Clean shutdown: SIGTERM each worker, then the coordinator; every
# process must exit 0 within the deadline.
kill -TERM "$A_PID" "$B_PID"
for pid in "$A_PID" "$B_PID"; do
  for _ in $(seq 1 50); do
    kill -0 "$pid" 2>/dev/null || break
    sleep 0.2
  done
  if kill -0 "$pid" 2>/dev/null; then
    echo "FAIL: worker $pid still running 10 s after SIGTERM"
    exit 1
  fi
  wait "$pid" || { echo "FAIL: worker $pid exited nonzero"; exit 1; }
done
A_PID=""; B_PID=""
kill -TERM "$COORD_PID"
for _ in $(seq 1 50); do
  kill -0 "$COORD_PID" 2>/dev/null || break
  sleep 0.2
done
if kill -0 "$COORD_PID" 2>/dev/null; then
  echo "FAIL: coordinator still running 10 s after SIGTERM"
  exit 1
fi
wait "$COORD_PID" || { echo "FAIL: coordinator exited nonzero"; exit 1; }
echo "cluster smoke OK"
