#!/usr/bin/env bash
# Crash-recovery integration test (EXPERIMENTS.md E12, ISSUE 4): start
# colord with a data directory, drive a mixed color/mutate workload,
# kill -9 the daemon mid-run, restart it against the same --data-dir
# and have colorload -resume verify the recovered state end to end:
# version continuity between its replayed mutation journal and the
# server's snapshot+WAL recovery, and every post-restart coloring
# proper against the replayed graph (zero stale servings). Finishes
# with a SIGTERM to exercise the graceful drain-flush-exit path.
set -euo pipefail
cd "$(dirname "$0")/.."

ADDR="${COLORD_ADDR:-127.0.0.1:8742}"
SPEC="${CRASH_SPEC:-kron:11}"
GRAPH="${CRASH_GRAPH:-crash}"
CLIENTS="${CRASH_CLIENTS:-4}"
REQUESTS="${CRASH_REQUESTS:-4000}"

DATADIR="$(mktemp -d)"
JOURNAL="$(mktemp)"
COLORD_PID=""
LOAD_PID=""
# Every exit path, an early failure or a signal alike, kills and reaps
# both background children, so neither outlives the script.
cleanup() {
    for pid in $COLORD_PID $LOAD_PID; do kill -9 "$pid" 2>/dev/null || true; done
    wait 2>/dev/null || true
    rm -rf "$DATADIR" "$JOURNAL"
}
trap cleanup EXIT
trap 'exit 130' INT
trap 'exit 143' TERM

mkdir -p bin
go build -o bin/colord ./cmd/colord
go build -o bin/colorload ./cmd/colorload

# start_colord boots colord and waits for its health probe. A colord
# left over on the port would answer that probe in place of this one,
# so the port must be free first and the new process must stay alive.
start_colord() {
    if curl -sf "http://$ADDR/healthz" >/dev/null 2>&1; then
        echo "crashtest: port ${ADDR##*:} already serves a colord; stop it first" >&2
        exit 1
    fi
    bin/colord -addr "$ADDR" -max-inflight 4 -data-dir "$DATADIR" -compact-bytes "${CRASH_COMPACT_BYTES:-65536}" &
    COLORD_PID=$!
    for _ in $(seq 100); do
        if ! kill -0 "$COLORD_PID" 2>/dev/null; then
            echo "crashtest: colord on port ${ADDR##*:} exited during startup" >&2
            exit 1
        fi
        if curl -sf "http://$ADDR/healthz" >/dev/null 2>&1; then
            return 0
        fi
        sleep 0.1
    done
    echo "crashtest: colord did not become healthy on $ADDR" >&2
    exit 1
}

echo "crashtest: phase 1 — mixed workload, then kill -9 mid-run"
start_colord
bin/colorload -addr "http://$ADDR" -graph "$GRAPH" -spec "$SPEC" \
    -c "$CLIENTS" -n "$REQUESTS" -verify -mutate-frac 0.3 \
    -mutation-log "$JOURNAL" -tolerate-request-errors &
LOAD_PID=$!

# Wait until mutations have actually landed (version >= 3), then kill.
advanced=""
for _ in $(seq 200); do
    # The || true keeps set -e quiet while the graph is still missing.
    ver="$(curl -sf "http://$ADDR/v1/graphs/$GRAPH" 2>/dev/null |
        sed -n 's/.*"version": \([0-9]*\).*/\1/p' | head -1 || true)"
    if [ -n "${ver:-}" ] && [ "$ver" -ge 3 ]; then
        advanced=1
        break
    fi
    sleep 0.1
done
if [ -z "$advanced" ]; then
    echo "crashtest: graph version never advanced; cannot exercise recovery" >&2
    exit 1
fi
kill -9 "$COLORD_PID"
wait "$COLORD_PID" 2>/dev/null || true
COLORD_PID=""

# The load run must finish cleanly: transport errors from the dying
# server are tolerated, any verification failure is fatal.
load_status=0
wait "$LOAD_PID" || load_status=$?
LOAD_PID=""
if [ "$load_status" != 0 ]; then
    echo "crashtest: pre-kill colorload run reported verification failures" >&2
    exit 1
fi

echo "crashtest: phase 2 — restart from $DATADIR and verify recovery"
start_colord
listing="$(curl -sf "http://$ADDR/v1/graphs")"
echo "$listing" | grep -q "\"name\": \"$GRAPH\"" || {
    echo "crashtest: restarted daemon did not recover graph $GRAPH" >&2
    exit 1
}
echo "$listing" | grep -q '"persisted": true' || {
    echo "crashtest: recovered graph not marked persisted" >&2
    exit 1
}

# Strict post-restart run: -resume reconciles the journal against the
# recovered version (exits non-zero on any mismatch or stale serving).
bin/colorload -addr "http://$ADDR" -graph "$GRAPH" -spec "$SPEC" \
    -c "$CLIENTS" -n 300 -verify -mutate-frac 0.2 \
    -mutation-log "$JOURNAL" -resume

# Force a compaction, then graceful shutdown (drain + WAL flush).
curl -sf -X POST "http://$ADDR/v1/admin/compact" -d "{\"graph\":\"$GRAPH\"}" >/dev/null
kill -TERM "$COLORD_PID"
if ! wait "$COLORD_PID"; then
    echo "crashtest: graceful shutdown exited non-zero" >&2
    exit 1
fi
COLORD_PID=""

echo "crashtest: phase 3 — boot once more from the compacted snapshot"
start_colord
bin/colorload -addr "http://$ADDR" -graph "$GRAPH" -spec "$SPEC" \
    -c "$CLIENTS" -n 100 -verify -mutate-frac 0.2 \
    -mutation-log "$JOURNAL" -resume
kill -TERM "$COLORD_PID"
wait "$COLORD_PID" || true
COLORD_PID=""

echo "crashtest: OK — kill -9 recovery, journal reconciliation, compaction and graceful shutdown all verified"
