#!/usr/bin/env bash
# vulture-soak: soak a real btrace-serve with btrace-vulture twice —
# first over a single store, then as a 4-shard RF=2 cluster with a shard
# drained out of the ring halfway through. Exits non-zero if any acked
# stamp was lost, duplicated or delivered out of order on any read
# surface of either — the CI soak gate (`make vulture-soak`;
# `make vulture-soak SHORT=-short` for the quick variant).
set -euo pipefail

cd "$(dirname "$0")/.."

DUR="${DUR:-60}"        # writing phase per leg, seconds
COLD_AFTER="${COLD_AFTER:-5s}"
COLD_AGE="${COLD_AGE:-8s}"
PORT="${PORT:-8339}"
if [ "${1:-}" = "-short" ]; then
  DUR=20
fi

TMP="$(mktemp -d)"
SERVE_PID=""
stop_server() {
  if [ -n "$SERVE_PID" ] && kill -0 "$SERVE_PID" 2>/dev/null; then
    kill "$SERVE_PID" 2>/dev/null || true
    wait "$SERVE_PID" 2>/dev/null || true
  fi
  SERVE_PID=""
}
cleanup() {
  stop_server
  rm -rf "$TMP"
}
trap cleanup EXIT

echo "== building btrace-serve and btrace-vulture"
go build -o "$TMP/btrace-serve" ./cmd/btrace-serve
go build -o "$TMP/btrace-vulture" ./cmd/btrace-vulture

# boot DIR [FLAG...]: start btrace-serve over DIR and wait for /readyz.
# Small segments + aggressive compaction + short cold-after so the soak
# exercises segment rolls, merges and the frozen columnar tier within
# its runtime. Sampling and shedding are off: every accepted event is a
# durability promise, which is exactly what the vulture holds the
# server to (-strict-live needs that too).
boot() {
  local dir="$1"
  shift
  "$TMP/btrace-serve" -addr "localhost:$PORT" -store "$dir" "$@" \
    -segment-bytes 65536 -commit-every 50ms \
    -compact-interval 250ms -cold-after "$COLD_AFTER" \
    -sample-rate 1 -shed=false \
    >"$TMP/serve.log" 2>&1 &
  SERVE_PID=$!
  for _ in $(seq 1 80); do
    if curl -fsS "http://localhost:$PORT/readyz" >/dev/null 2>&1; then
      return 0
    fi
    sleep 0.25
  done
  echo "btrace-serve never became ready; log:" >&2
  cat "$TMP/serve.log" >&2
  exit 2
}

# start_vulture: run the vulture against the booted server in the
# background; finish_vulture waits for it and exits on a failure, with
# that leg's report in vulture-report.txt.
start_vulture() {
  "$TMP/btrace-vulture" -url "http://localhost:$PORT" \
    -duration "${DUR}s" -strict-live -cold-age "$COLD_AGE" \
    -report vulture-report.txt &
  VULTURE_PID=$!
}
finish_vulture() {
  local rc=0
  wait "$VULTURE_PID" || rc=$?
  echo "== $1: vulture exit code: $rc (report in vulture-report.txt)"
  if [ "$rc" != 0 ]; then
    echo "== server log tail:" >&2
    tail -50 "$TMP/serve.log" >&2
    exit "$rc"
  fi
}

echo "== booting a single store on :$PORT"
boot "$TMP/single"
echo "== soaking the single store for ${DUR}s"
start_vulture
finish_vulture "single store"
stop_server

echo "== booting 4-shard RF=2 cluster on :$PORT"
boot "$TMP/cluster" -shards 4 -replication 2
echo "== soaking the cluster for ${DUR}s (shard drain at T+$((DUR / 2))s)"
start_vulture

# Mid-soak topology change: drain one shard out of the ring while
# writes and reads are in flight. Every stamp acked before, during and
# after the drain must stay readable from the survivors.
sleep "$((DUR / 2))"
echo "== draining shard-02 mid-soak"
curl -fsS -X POST "http://localhost:$PORT/ring?action=drain&shard=shard-02" || {
  echo "shard drain failed" >&2
  kill "$VULTURE_PID" 2>/dev/null || true
  exit 2
}
echo
finish_vulture "cluster"
