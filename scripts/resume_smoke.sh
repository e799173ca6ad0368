#!/usr/bin/env bash
# resume_smoke.sh — kill/restart/resume smoke test for streamd durability.
#
# Runs a clean (in-memory) streamd replay to capture reference results, then
# a durable run that is SIGKILLed mid-replay, restarted from its -data-dir,
# and required to (a) actually resume (not restart from scratch) and
# (b) produce byte-identical /api/v1/results to the clean run.
#
# Usage: scripts/resume_smoke.sh [path-to-streamd-binary]
set -euo pipefail

BIN=${1:-./streamd}
SEED=7
SCALE=0.12
PORT_CLEAN=18191
PORT_CRASH=18192
WORK=$(mktemp -d)
trap 'kill -9 ${PIDS[@]:-} 2>/dev/null || true; rm -rf "$WORK"' EXIT
PIDS=()

# poll_results <port> <outfile> — wait until /api/v1/results answers 200.
poll_results() {
  local port=$1 out=$2 i
  for i in $(seq 1 240); do
    if curl -sf "http://127.0.0.1:$port/api/v1/results" -o "$out" 2>/dev/null; then
      return 0
    fi
    sleep 0.5
  done
  echo "FATAL: /api/v1/results on :$port never became ready" >&2
  return 1
}

echo "== clean run (no persistence) =="
"$BIN" -seed $SEED -scale $SCALE -http 127.0.0.1:$PORT_CLEAN >"$WORK/clean.log" 2>&1 &
PIDS+=($!)
poll_results $PORT_CLEAN "$WORK/clean.json"
kill "${PIDS[0]}" 2>/dev/null || true
wait "${PIDS[0]}" 2>/dev/null || true

echo "== durable run, SIGKILL mid-replay =="
"$BIN" -seed $SEED -scale $SCALE -rate 60 -data-dir "$WORK/state" \
  -checkpoint-every 1s -http 127.0.0.1:$PORT_CRASH >"$WORK/crash.log" 2>&1 &
CRASH_PID=$!
PIDS+=($CRASH_PID)
sleep 3 # mid-replay: ~180 of the ~300 samples at -rate 60, past >=1 checkpoint
kill -9 "$CRASH_PID"
wait "$CRASH_PID" 2>/dev/null || true
ls "$WORK/state" | grep -q '^snap-' || { echo "FATAL: no checkpoint written before kill" >&2; exit 1; }
ls "$WORK/state" | grep -q '^wal-' || { echo "FATAL: no WAL segment written before kill" >&2; exit 1; }

echo "== restart from state dir =="
"$BIN" -seed $SEED -scale $SCALE -data-dir "$WORK/state" \
  -checkpoint-every 1s -http 127.0.0.1:$PORT_CRASH >"$WORK/resume.log" 2>&1 &
PIDS+=($!)
poll_results $PORT_CRASH "$WORK/resumed.json"

grep -q 'resumed from' "$WORK/resume.log" || {
  echo "FATAL: restarted process did not resume from the checkpoint" >&2
  cat "$WORK/resume.log" >&2
  exit 1
}

if ! diff "$WORK/clean.json" "$WORK/resumed.json"; then
  echo "FATAL: resumed results differ from the clean run" >&2
  exit 1
fi

echo "OK: $(grep -o 'resumed from[^,]*, [0-9]* WAL entries replayed' "$WORK/resume.log" | head -1)"
echo "OK: resumed /api/v1/results byte-identical to the clean run"
