#!/usr/bin/env bash
# Closed-loop load test, two passes:
#
#  1. single node, mixed color/mutate workload over JSON — fails when
#     any request errors or any returned coloring fails client-side
#     verification (colorload exits non-zero in both cases);
#  2. 3-node cluster, read-heavy workload over the binary protocol
#     (colorload -binary): key-routed reads round-robin across all
#     three nodes, every coloring is verified and cross-checked
#     byte-identical against JSON once per key, and the aggregate
#     req/s must clear LOAD_BINARY_FLOOR (default 754.3 — the PR 5
#     single-node MIXED workload rate: the clustered binary read path
#     must beat the old write-sharing baseline outright).
set -euo pipefail
cd "$(dirname "$0")/.."

ADDR="${COLORD_ADDR:-127.0.0.1:8741}"
CLIENTS="${LOAD_CLIENTS:-8}"
REQUESTS="${LOAD_REQUESTS:-200}"
INFLIGHT="${COLORD_INFLIGHT:-8}"
SPEC="${LOAD_SPEC:-kron:12}"
# >= 20% of requests mutate the graph; every returned coloring is still
# verified client-side against the replayed mutation log (E10/E11).
MUTATE="${LOAD_MUTATE:-0.2}"

COLORD_PID=""
LOAD_PID=""
PIDS=()
WORK=""
# Every exit path, an early failure or a signal alike, kills and reaps
# every background child (the colord nodes and colorload), so none
# outlives the script.
cleanup() {
    for pid in $COLORD_PID $LOAD_PID ${PIDS[@]+"${PIDS[@]}"}; do kill -9 "$pid" 2>/dev/null || true; done
    wait 2>/dev/null || true
    [ -z "$WORK" ] || rm -rf "$WORK"
}
trap cleanup EXIT
trap 'exit 130' INT
trap 'exit 143' TERM

# run_load ARGS...: run colorload in the background and wait for its
# exit status. A signal then reaches the trap at once, not only after
# colorload has finished, and cleanup reaps colorload too.
run_load() {
    bin/colorload "$@" &
    LOAD_PID=$!
    local rc=0
    wait "$LOAD_PID" || rc=$?
    LOAD_PID=""
    return "$rc"
}

mkdir -p bin
go build -o bin/colord ./cmd/colord
go build -o bin/colorload ./cmd/colorload

# A colord left over on a port would answer the health probes below in
# place of the one started here: every port must be free first, and
# every started process must stay alive until it answers.
port_free() { # port_free URL PORT
    if curl -sf "$1/healthz" >/dev/null 2>&1; then
        echo "loadtest: port $2 already serves a colord; stop it first" >&2
        exit 1
    fi
}
alive() { # alive PID PORT
    if ! kill -0 "$1" 2>/dev/null; then
        echo "loadtest: colord on port $2 exited during startup" >&2
        exit 1
    fi
}

port_free "http://$ADDR" "${ADDR##*:}"
bin/colord -addr "$ADDR" -max-inflight "$INFLIGHT" \
    -recolor -recolor-interval 100ms &
COLORD_PID=$!

# Wait for the daemon to come up (healthz), at most ~5s.
up=""
for _ in $(seq 50); do
    alive "$COLORD_PID" "${ADDR##*:}"
    if curl -sf "http://$ADDR/healthz" >/dev/null 2>&1; then
        up=1
        break
    fi
    sleep 0.1
done
if [ -z "$up" ]; then
    echo "loadtest: colord did not become healthy on $ADDR" >&2
    exit 1
fi

run_load -addr "http://$ADDR" -graph loadtest -spec "$SPEC" \
    -c "$CLIENTS" -n "$REQUESTS" -verify -mutate-frac "$MUTATE" \
    -metrics-out loadtest_metrics.json

# Prometheus exposition sanity while the loaded daemon is still up:
# the scrape must be non-empty, every sample line must parse, no
# series may appear twice (duplicate series break real scrapers), every
# sample's family must have a # TYPE line before it, and a family whose
# name ends in _total must be typed counter.
prom_lint() { # prom_lint URL LABEL
    local prom
    prom="$(mktemp)"
    curl -sf "$1" > "$prom"
    awk -v label="$2" '
      /^$/ { next }
      /^# TYPE / { type[$3] = $4; next }
      /^#/ { next }
      {
        if ($0 !~ /^[a-zA-Z_:][a-zA-Z0-9_:]*(\{.*\})? [-+0-9.eE]*(Inf|NaN)?$/) {
          printf "loadtest: %s: unparseable exposition line: %s\n", label, $0
          bad = 1
        }
        series = $0
        sub(/ [^ ]*$/, "", series)
        if (seen[series]++) {
          printf "loadtest: %s: duplicate series: %s\n", label, series
          bad = 1
        }
        fam = series
        sub(/\{.*$/, "", fam)
        if (!(fam in type)) {
          base = fam
          if (sub(/_(bucket|sum|count)$/, "", base) && (base in type) && type[base] == "histogram") fam = base
        }
        if (!(fam in type)) {
          printf "loadtest: %s: sample without a # TYPE line: %s\n", label, $0
          bad = 1
        } else if (fam ~ /_total$/ && type[fam] != "counter") {
          printf "loadtest: %s: %s ends in _total but is typed %s\n", label, fam, type[fam]
          bad = 1
        }
        n++
      }
      END {
        if (n == 0) { printf "loadtest: %s: empty Prometheus exposition\n", label; exit 1 }
        if (bad) exit 1
        printf "loadtest: %s: Prometheus exposition ok (%d samples, no duplicates)\n", label, n
      }
    ' "$prom"
    local rc=$?
    rm -f "$prom"
    return $rc
}
prom_lint "http://$ADDR/metrics?format=prom" "/metrics"

# ---- background recoloring: generation swap without a version bump -----
# Register a graph whose greedy baseline reliably improves, wait for the
# idle quality worker to adopt a strictly better coloring, then prove
# the adoption swapped in a new cache generation while graphVersion
# stayed put: colorsSaved > 0, colors < initialColors, version still 0,
# and the maintained binary read serves the improved palette.
curl -sf -X POST "http://$ADDR/v1/graphs" \
    -d '{"name":"recolorme","spec":"er:800:8000"}' >/dev/null
saved=""
for _ in $(seq 100); do
    Q="$(curl -sf "http://$ADDR/v1/graphs/recolorme/quality" || true)"
    saved="$(printf '%s' "$Q" | sed -n 's/.*"colorsSaved": *\([0-9]*\).*/\1/p' | tail -n 1)"
    if [ -n "$saved" ] && [ "$saved" -gt 0 ]; then break; fi
    saved=""
    sleep 0.2
done
if [ -z "$saved" ]; then
    echo "loadtest: quality worker never improved er:800:8000 (quality doc: $(curl -sf "http://$ADDR/v1/graphs/recolorme/quality" || echo unavailable))" >&2
    exit 1
fi
colors="$(printf '%s' "$Q" | sed -n 's/.*"colors": *\([0-9]*\).*/\1/p' | tail -n 1)"
initial="$(printf '%s' "$Q" | sed -n 's/.*"initialColors": *\([0-9]*\).*/\1/p' | tail -n 1)"
qver="$(printf '%s' "$Q" | sed -n 's/.*"version": *\([0-9]*\).*/\1/p' | tail -n 1)"
if [ "$qver" != "0" ] || [ "$colors" -ge "$initial" ]; then
    echo "loadtest: recolor adoption broke its contract: version=$qver colors=$colors initialColors=$initial ($Q)" >&2
    exit 1
fi
BINREAD="$(mktemp)"
curl -sf "http://$ADDR/v1/color/bin?graph=recolorme&algorithm=maintained" > "$BINREAD"
# Header bytes 8..15 hold graphVersion (uint64 LE), 36..39 numColors
# (uint32 LE): the read path must serve the adopted palette at the
# UNCHANGED version — the cache generation swapped, the version did not.
read -r binver binc <<< "$(od -An -j8 -N8 -tu8 "$BINREAD" | tr -d ' ') $(od -An -j36 -N4 -tu4 "$BINREAD" | tr -d ' ')"
rm -f "$BINREAD"
if [ "$binver" != "0" ] || [ "$binc" != "$colors" ]; then
    echo "loadtest: maintained binary read serves version=$binver numColors=$binc, quality doc says version=$qver colors=$colors" >&2
    exit 1
fi
echo "loadtest: recoloring saved $saved colors ($initial -> $colors) at version 0; maintained read serves the adopted palette"

kill "$COLORD_PID" 2>/dev/null || true
wait "$COLORD_PID" 2>/dev/null || true
COLORD_PID=""

# ---- pass 2: 3-node cluster, read-heavy binary protocol ----------------
BASE_PORT="${LOAD_CLUSTER_BASE_PORT:-8745}"
BIN_REQUESTS="${LOAD_BINARY_REQUESTS:-2000}"
BIN_FLOOR="${LOAD_BINARY_FLOOR:-754.3}"

PORTS=("$BASE_PORT" "$((BASE_PORT + 1))" "$((BASE_PORT + 2))")
URLS=()
for p in "${PORTS[@]}"; do URLS+=("http://127.0.0.1:$p"); done
PEERS="$(IFS=,; echo "${URLS[*]}")"
WORK="$(mktemp -d)"

for i in 0 1 2; do
    port_free "${URLS[$i]}" "${PORTS[$i]}"
    bin/colord -addr "127.0.0.1:${PORTS[$i]}" -max-inflight "$INFLIGHT" \
        -data-dir "$WORK/node$i" \
        -cluster-self "${URLS[$i]}" -cluster-peers "$PEERS" \
        -cluster-replicas 2 -cluster-probe-interval 250ms -cluster-fail-after 2 &
    PIDS+=($!)
done
for i in 0 1 2; do
    up=""
    for _ in $(seq 100); do
        alive "${PIDS[$i]}" "${PORTS[$i]}"
        if curl -sf "${URLS[$i]}/healthz" >/dev/null 2>&1; then up=1; break; fi
        sleep 0.1
    done
    [ -n "$up" ] || { echo "loadtest: cluster node ${URLS[$i]} never became healthy" >&2; exit 1; }
done

echo "loadtest: pass 2 — read-heavy binary protocol across ${URLS[*]}"
BIN_OUT="$WORK/binary.out"
load_status=0
run_load -addr "$(IFS=,; echo "${URLS[*]}")" -graph loadbin -spec "$SPEC" \
    -c "$CLIENTS" -n "$BIN_REQUESTS" -seeds 16 -verify -binary -mutate-frac 0 \
    > "$BIN_OUT" || load_status=$?
cat "$BIN_OUT"
[ "$load_status" -eq 0 ] || exit "$load_status"

# The summary line ends "... in 1.23s (1234.5 req/s)": hold it to the floor.
awk -v floor="$BIN_FLOOR" '
  / req\/s\)$/ {
    rate = $(NF - 1)
    sub(/\(/, "", rate)
    seen = 1
    if (rate + 0 <= floor + 0) {
      printf "loadtest: binary read throughput %.1f req/s is not above the %.1f floor\n", rate, floor
      exit 1
    }
    printf "loadtest: binary read throughput %.1f req/s clears the %.1f floor\n", rate, floor
  }
  END { if (!seen) { print "loadtest: no req/s summary line found"; exit 1 } }
' "$BIN_OUT"

# The cluster-wide metrics document must render clean Prometheus
# exposition from any member, and its aggregate must cover the load the
# cluster just served (colorRequests summed across the three nodes).
prom_lint "${URLS[0]}/v1/cluster/metrics?format=prom" "/v1/cluster/metrics"
CM="$(curl -sf "${URLS[1]}/v1/cluster/metrics")"
reporting="$(printf '%s' "$CM" | sed -n 's/.*"nodesReporting": *\([0-9]*\).*/\1/p' | tail -n 1)"
# colorRequests appears once per reporting node and once in the
# aggregate; the aggregate is serialized last.
creq="$(printf '%s' "$CM" | sed -n 's/.*"colorRequests": *\([0-9]*\).*/\1/p' | tail -n 1)"
if [ "$reporting" != "3" ] || [ -z "$creq" ] || [ "$creq" -lt "$BIN_REQUESTS" ]; then
    echo "loadtest: cluster metrics aggregate is wrong: nodesReporting=$reporting colorRequests=$creq (want 3 nodes, >= $BIN_REQUESTS reads)" >&2
    exit 1
fi
echo "loadtest: cluster metrics aggregate ok: 3 nodes reporting, $creq color requests"
