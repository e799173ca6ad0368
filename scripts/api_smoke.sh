#!/usr/bin/env bash
# api_smoke.sh — end-to-end smoke test of the /api/v1 service surface.
#
# Starts streamd as a pure network service (-no-feed), ingests the whole
# deterministic corpus through the pkg/client SDK (bulk NDJSON uploads), and
# diffs what the API serves against the batch pipeline's output: the campaign
# listing must be bit-identical, and the paper's Table VIII re-rendered from
# API responses must match the file cmd/paperrepro wrote byte for byte.
#
# Usage: scripts/api_smoke.sh [path-to-streamd-binary]
set -euo pipefail

BIN=${1:-./streamd}
SEED=7
SCALE=0.12
PORT=18291
WORK=$(mktemp -d)
trap 'kill -9 ${PIDS[@]:-} 2>/dev/null || true; rm -rf "$WORK"' EXIT
PIDS=()

echo "== batch reference (paperrepro) =="
go run ./cmd/paperrepro -out "$WORK/batch" -seed $SEED -scale $SCALE >/dev/null

echo "== streamd as a pure API service (-no-feed) =="
"$BIN" -no-feed -seed $SEED -scale $SCALE -http 127.0.0.1:$PORT >"$WORK/streamd.log" 2>&1 &
PIDS+=($!)

for i in $(seq 1 120); do
  if curl -sf "http://127.0.0.1:$PORT/api/v1/healthz" >/dev/null 2>&1; then
    break
  fi
  if [ "$i" = 120 ]; then
    echo "FATAL: streamd never became healthy" >&2
    cat "$WORK/streamd.log" >&2
    exit 1
  fi
  sleep 0.5
done

echo "== SDK ingestion + diff against batch output =="
go run ./cmd/apismoke -addr "http://127.0.0.1:$PORT" -seed $SEED -scale $SCALE \
  -table8 "$WORK/batch/table8_top_campaigns.txt"

echo "== read endpoints answer =="
curl -sf "http://127.0.0.1:$PORT/api/v1/stats" >/dev/null
curl -sf "http://127.0.0.1:$PORT/api/v1/campaigns?limit=3" >/dev/null
code=$(curl -s -o /dev/null -w '%{http_code}' "http://127.0.0.1:$PORT/api/v1/results")
if [ "$code" != 503 ]; then
  echo "FATAL: /api/v1/results while in flight returned $code, want 503" >&2
  exit 1
fi

echo "OK: api smoke passed"
