#!/usr/bin/env bash
# Daemon lifecycle smoke: boot `lsd -serve` against live UDP ingest,
# feed it generated traffic, probe every admin endpoint, register and
# remove a query through the API, then SIGTERM and require a clean exit
# within a deadline. Run from the repository root.
set -euo pipefail

BIN=${BIN:-/tmp/lsd-smoke}
ADMIN=127.0.0.1:19191
INGEST=127.0.0.1:19190

go build -o "$BIN" ./cmd/lsd

# Flag-name typos must die at startup, before the multi-second demand
# probe (which announces itself with "measuring ...").
if OUT=$("$BIN" -scheme bogus 2>&1); then
  echo "FAIL: lsd -scheme bogus exited 0"; exit 1
fi
if grep -q measuring <<<"$OUT"; then
  echo "FAIL: lsd -scheme bogus measured demand before rejecting the flag"; exit 1
fi

"$BIN" -serve "$ADMIN" -ingest "udp://$INGEST" -dur 5s -window 10s &
SERVE_PID=$!
trap 'kill "$SERVE_PID" 2>/dev/null || true' EXIT

# The admin plane must come up.
for _ in $(seq 1 50); do
  curl -sf "http://$ADMIN/healthz" >/dev/null 2>&1 && break
  sleep 0.2
done
curl -sf "http://$ADMIN/healthz" | grep -q ok

# The runtime's profiles ride on the same plane.
CODE=$(curl -s -o /dev/null -w '%{http_code}' "http://$ADMIN/debug/pprof/cmdline")
[ "$CODE" = 200 ] || { echo "FAIL: /debug/pprof/cmdline answered $CODE"; exit 1; }

# Feed real traffic over the ingest socket; readiness follows the
# first processed bin.
"$BIN" -feed "udp://$INGEST" -dur 3s
for _ in $(seq 1 50); do
  curl -sf "http://$ADMIN/readyz" >/dev/null 2>&1 && break
  sleep 0.2
done
curl -sf "http://$ADMIN/readyz" >/dev/null

# The exposition must carry the advertised metric families.
METRICS=$(curl -sf "http://$ADMIN/metrics")
for m in lsd_up lsd_bins_total lsd_wire_packets_total \
         lsd_window_drop_fraction lsd_window_unsampled_fraction \
         lsd_window_budget_utilization lsd_query_rate \
         lsd_ingest_bad_frames_total lsd_ingest_dropped_bins_total \
         lsd_ingest_dropped_packets_total lsd_ingest_kernel_drops_total \
         lsd_ingest_rcvbuf_bytes lsd_ingest_pool_buffers lsd_ingest_pool_bytes \
         go_gc_cycles_total go_gc_cpu_fraction go_heap_inuse_bytes go_goroutines; do
  grep -q "^$m" <<<"$METRICS" || { echo "FAIL: missing metric $m"; exit 1; }
done
grep -q '^lsd_wire_packets_total [1-9]' <<<"$METRICS" \
  || { echo "FAIL: no packets counted after feeding"; exit 1; }

# Dynamic registry over the API: p2p-detector is not in the standard
# set, so registration must be accepted, applied at the next interval
# boundary, and removable again.
curl -sf -X POST "http://$ADMIN/queries?kind=p2p-detector" | grep -q accepted
sleep 1.5 # > one measurement interval (1 s): the op lands at the boundary
curl -sf "http://$ADMIN/queries" | grep -q '"name":"p2p-detector","active":true'
curl -sf "http://$ADMIN/metrics" | grep -q 'lsd_query_active{query="p2p-detector"} 1'
curl -sf -X DELETE "http://$ADMIN/queries/p2p-detector" | grep -q accepted
sleep 1.5
curl -sf "http://$ADMIN/queries" | grep -q '"name":"p2p-detector","active":false'

# Graceful shutdown: SIGTERM finishes the bin, flushes, exits 0.
kill -TERM "$SERVE_PID"
for _ in $(seq 1 50); do
  kill -0 "$SERVE_PID" 2>/dev/null || break
  sleep 0.2
done
if kill -0 "$SERVE_PID" 2>/dev/null; then
  echo "FAIL: daemon still running 10 s after SIGTERM"
  kill -9 "$SERVE_PID"
  exit 1
fi
wait "$SERVE_PID"
echo "daemon smoke OK"
