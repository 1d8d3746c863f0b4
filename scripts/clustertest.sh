#!/usr/bin/env bash
# Cluster smoke test (ISSUE 5, EXPERIMENTS.md E13): boot a 3-node
# colord cluster on one box, drive a mixed color/mutate workload
# through a node that does NOT own the target graph (exercising the
# proxy + replication path end to end), kill -9 the graph's primary
# mid-run, verify the failover replica serves the exact pre-crash
# graphVersion with identical verified colorings (zero acked mutations
# lost), restart the old primary on its own data directory and verify
# it catches up to the watermark and the whole cluster reconverges.
# Also measures the failover window (kill -> first successful write).
#
# Requires jq (present on the CI runners; apt install jq locally).
set -euo pipefail
cd "$(dirname "$0")/.."

BASE_PORT="${CLUSTER_BASE_PORT:-8761}"
SPEC="${CLUSTER_SPEC:-kron:10}"
GRAPH="${CLUSTER_GRAPH:-clusterg}"
CLIENTS="${CLUSTER_CLIENTS:-4}"
REQUESTS="${CLUSTER_REQUESTS:-3000}"

command -v jq >/dev/null || { echo "clustertest: jq is required" >&2; exit 1; }

PORTS=("$BASE_PORT" "$((BASE_PORT + 1))" "$((BASE_PORT + 2))")
URLS=()
for p in "${PORTS[@]}"; do URLS+=("http://127.0.0.1:$p"); done
PEERS="$(IFS=,; echo "${URLS[*]}")"

WORK="$(mktemp -d)"
JOURNAL="$WORK/mutations.jsonl"
declare -A PIDS=()
LOAD_PID=""
# Every exit path, an early failure or a signal alike, kills and reaps
# every background child (the nodes and colorload), so none outlives
# the script.
cleanup() {
    for pid in "${PIDS[@]}" $LOAD_PID; do kill -9 "$pid" 2>/dev/null || true; done
    wait 2>/dev/null || true
    rm -rf "$WORK"
}
trap cleanup EXIT
trap 'exit 130' INT
trap 'exit 143' TERM

mkdir -p bin
go build -o bin/colord ./cmd/colord
go build -o bin/colorload ./cmd/colorload

# start_node N: boot node N on its port + data dir. A colord left over
# on the port would answer wait_healthy in place of this one, so the
# port must be free first.
start_node() {
    local i="$1"
    if curl -sf "${URLS[$i]}/healthz" >/dev/null 2>&1; then
        echo "clustertest: port ${PORTS[$i]} already serves a colord; stop it first" >&2
        exit 1
    fi
    bin/colord -addr "127.0.0.1:${PORTS[$i]}" -max-inflight 4 \
        -data-dir "$WORK/node$i" \
        -cluster-self "${URLS[$i]}" -cluster-peers "$PEERS" \
        -cluster-replicas 2 -cluster-probe-interval 250ms -cluster-fail-after 2 \
        -recolor -recolor-interval 100ms &
    PIDS[$i]=$!
}

# wait_healthy N: wait until node N answers its health probe while the
# process start_node started is still alive.
wait_healthy() {
    local i="$1"
    for _ in $(seq 100); do
        if ! kill -0 "${PIDS[$i]}" 2>/dev/null; then
            echo "clustertest: colord on port ${PORTS[$i]} exited during startup" >&2
            exit 1
        fi
        if curl -sf "${URLS[$i]}/healthz" >/dev/null 2>&1; then return 0; fi
        sleep 0.1
    done
    echo "clustertest: ${URLS[$i]} never became healthy" >&2
    exit 1
}

node_version() { # node_version URL -> local version of $GRAPH ("" if absent)
    curl -sf "$1/v1/internal/version?graph=$GRAPH" 2>/dev/null | jq -r .version || true
}

echo "clustertest: booting 3 nodes on ports ${PORTS[*]}"
for i in 0 1 2; do start_node "$i"; done
for i in 0 1 2; do wait_healthy "$i"; done

# Register the graph via node 0 (proxied to the primary if node 0 does
# not own it), then read the placement from cluster status.
curl -sf -X POST "${URLS[0]}/v1/graphs" -d "{\"name\":\"$GRAPH\",\"spec\":\"$SPEC\"}" >/dev/null
status="$(curl -sf "${URLS[0]}/v1/cluster/status")"
PRIMARY="$(echo "$status" | jq -r --arg g "$GRAPH" '.graphs[] | select(.name == $g) | .primary')"
mapfile -t PLACEMENT < <(echo "$status" | jq -r --arg g "$GRAPH" '.graphs[] | select(.name == $g) | .placement[]')
[ -n "$PRIMARY" ] || { echo "clustertest: no primary resolved for $GRAPH" >&2; exit 1; }

# Identify the replica, the pure-proxy outsider node, and their pids.
# (Guard every [ ] used as a loop tail: under set -e a false test as
# the last command of a function/loop would abort the script.)
REPLICA="" OUTSIDER=""
for u in "${URLS[@]}"; do
    in_placement=0
    for p in "${PLACEMENT[@]}"; do
        if [ "$u" = "$p" ]; then in_placement=1; fi
    done
    if [ "$u" = "$PRIMARY" ]; then :
    elif [ "$in_placement" = 1 ]; then REPLICA="$u"
    else OUTSIDER="$u"; fi
done
idx_of() {
    for i in 0 1 2; do
        if [ "${URLS[$i]}" = "$1" ]; then echo "$i"; fi
    done
}
PRIMARY_IDX="$(idx_of "$PRIMARY")"
[ -n "$REPLICA" ] && [ -n "$OUTSIDER" ] && [ -n "$PRIMARY_IDX" ] || {
    echo "clustertest: could not resolve roles (primary=$PRIMARY replica=$REPLICA outsider=$OUTSIDER)" >&2
    exit 1
}
echo "clustertest: $GRAPH placed on primary $PRIMARY + replica $REPLICA; outsider $OUTSIDER proxies"

echo "clustertest: phase 1 — mixed workload via the NON-OWNER node, then kill -9 the primary"
bin/colorload -addr "$OUTSIDER" -graph "$GRAPH" -spec "$SPEC" \
    -c "$CLIENTS" -n "$REQUESTS" -verify -mutate-frac 0.3 \
    -mutation-log "$JOURNAL" -tolerate-request-errors &
LOAD_PID=$!

advanced=""
for _ in $(seq 300); do
    ver="$(node_version "$PRIMARY")"
    if [ -n "${ver:-}" ] && [ "$ver" != "null" ] && [ "$ver" -ge 3 ]; then advanced=1; break; fi
    sleep 0.1
done
[ -n "$advanced" ] || { echo "clustertest: graph version never advanced" >&2; exit 1; }

kill -9 "${PIDS[$PRIMARY_IDX]}"
wait "${PIDS[$PRIMARY_IDX]}" 2>/dev/null || true
KILL_NS="$(date +%s%N)"
unset "PIDS[$PRIMARY_IDX]"

# Failover window: time from the kill to the first write acked by the
# promoted replica (empty mutate batches are valid no-op writes that
# still exercise routing + promotion sync).
FAILOVER_MS=""
for _ in $(seq 600); do
    if curl -sf -X POST "$OUTSIDER/v1/graphs/$GRAPH/mutate" -d '{}' >/dev/null 2>&1; then
        FAILOVER_MS=$(( ($(date +%s%N) - KILL_NS) / 1000000 ))
        break
    fi
    sleep 0.05
done
[ -n "$FAILOVER_MS" ] || { echo "clustertest: writes never failed over" >&2; exit 1; }
echo "clustertest: failover window (kill -9 -> first acked write via $OUTSIDER): ${FAILOVER_MS} ms"

load_status=0
wait "$LOAD_PID" || load_status=$?
LOAD_PID=""
if [ "$load_status" != 0 ]; then
    echo "clustertest: pre-kill colorload reported verification failures" >&2
    exit 1
fi

echo "clustertest: phase 2 — failover replica must serve the exact pre-crash state"
# -resume replays the journal and REQUIRES the surviving cluster to sit
# at the journal's version: an acked mutation lost in failover fails
# here. Traffic round-robins over both survivors, so the determinism
# check doubles as cross-node consistency verification.
bin/colorload -addr "$REPLICA,$OUTSIDER" -graph "$GRAPH" -spec "$SPEC" \
    -c "$CLIENTS" -n 400 -verify -mutate-frac 0.2 \
    -mutation-log "$JOURNAL" -resume

echo "clustertest: phase 3 — restart the old primary; it must rejoin and catch up"
start_node "$PRIMARY_IDX"
wait_healthy "$PRIMARY_IDX"
# Nudge a write through the rejoined node's ownership: the epoch sync
# pulls the missed tail from a survivor before the write is accepted.
# Retry while the cluster converges on the rejoined member's liveness.
for _ in $(seq 100); do
    if curl -sf -X POST "$PRIMARY/v1/graphs/$GRAPH/mutate" -d '{}' >/dev/null 2>&1; then break; fi
    sleep 0.1
done

head_ver="$(node_version "$REPLICA")"
caught_up=""
for _ in $(seq 100); do
    ver="$(node_version "$PRIMARY")"
    if [ -n "${ver:-}" ] && [ "$ver" = "$head_ver" ]; then caught_up=1; break; fi
    sleep 0.1
done
[ -n "$caught_up" ] || {
    echo "clustertest: rejoined node stuck at $(node_version "$PRIMARY"), head is $head_ver" >&2
    exit 1
}
echo "clustertest: rejoined node caught up to version $head_ver"

# Final mixed run across ALL THREE nodes: every returned coloring is
# verified against the replayed journal, and identical keys must hash
# identically whichever node serves them.
bin/colorload -addr "$PRIMARY,$REPLICA,$OUTSIDER" -graph "$GRAPH" -spec "$SPEC" \
    -c "$CLIENTS" -n 400 -verify -mutate-frac 0.2 \
    -mutation-log "$JOURNAL" -resume

# The placement nodes must agree on the final version (the outsider
# holds no local copy — /v1/internal/version is strictly local and
# 404s there, which node_version maps to an empty string).
versions=""
for u in "${URLS[@]}"; do
    v="$(node_version "$u")"
    if [ -n "$v" ] && [ "$v" != "null" ]; then versions="$versions $v"; fi
done
echo "clustertest: final local versions:$versions (placement nodes must agree)"
set -- $versions
[ "$#" -ge 2 ] && [ "$1" = "$2" ] || { echo "clustertest: placement nodes disagree on the final version" >&2; exit 1; }

echo "clustertest: phase 4 — cluster-wide metrics aggregation + quality convergence"
# Any node must serve the whole cluster's metrics document: all three
# members present and reporting, and the aggregate latency histogram
# merged QUANTILE-CONSISTENTLY — the merged count for the busiest
# endpoint equals the SUM of the per-node counts (buckets are merged,
# quantiles are never averaged averages).
CM="$(curl -sf "$OUTSIDER/v1/cluster/metrics")"
read -r total reporting nnodes <<< "$(echo "$CM" | jq -r '"\(.nodesTotal) \(.nodesReporting) \(.nodes | length)"')"
if [ "$total" != 3 ] || [ "$reporting" != 3 ] || [ "$nnodes" != 3 ]; then
    echo "clustertest: cluster metrics missing members: total=$total reporting=$reporting nodes=$nnodes" >&2
    exit 1
fi
aggc="$(echo "$CM" | jq '.aggregate.httpLatency["/v1/color"].count // 0')"
sumc="$(echo "$CM" | jq '[.nodes[].metrics.httpLatency["/v1/color"].count // 0] | add')"
if [ "$aggc" != "$sumc" ] || [ "$aggc" -eq 0 ]; then
    echo "clustertest: merged /v1/color histogram count $aggc does not equal the per-node sum $sumc" >&2
    exit 1
fi
p50="$(echo "$CM" | jq '.aggregate.latencySummary["/v1/color"].p50')"
echo "clustertest: cluster metrics: 3/3 nodes reporting, merged /v1/color count $aggc (= per-node sum), p50 ${p50}s"

# Quality convergence: register a graph whose greedy baseline reliably
# improves; the PRIMARY's background worker adopts a strictly better
# coloring and ships it to the replica, so both placement nodes' LOCAL
# quality state (each node's own /metrics) must converge on the same
# reduced palette, and the cluster aggregate must count the savings.
QG="qualg"
curl -sf -X POST "$OUTSIDER/v1/graphs" -d "{\"name\":\"$QG\",\"spec\":\"er:800:8000\",\"targetColors\":9}" >/dev/null
mapfile -t QPLACE < <(curl -sf "${URLS[0]}/v1/cluster/status" | jq -r --arg g "$QG" '.graphs[] | select(.name == $g) | .placement[]')
[ "${#QPLACE[@]}" -ge 2 ] || { echo "clustertest: no placement resolved for $QG" >&2; exit 1; }
converged="" c0="" c1="" savedagg=""
for _ in $(seq 200); do
    c0="$(curl -sf "${QPLACE[0]}/metrics" | jq -r --arg g "$QG" '.quality.graphs[$g].colors // empty')"
    c1="$(curl -sf "${QPLACE[1]}/metrics" | jq -r --arg g "$QG" '.quality.graphs[$g].colors // empty')"
    savedagg="$(curl -sf "$OUTSIDER/v1/cluster/metrics" | jq '.aggregate.qualityColorsSaved // 0')"
    if [ -n "$c0" ] && [ "$c0" = "$c1" ] && [ "$c0" -gt 0 ] && [ "$savedagg" -gt 0 ]; then
        converged=1
        break
    fi
    sleep 0.2
done
[ -n "$converged" ] || {
    echo "clustertest: quality state never converged for $QG: ${QPLACE[0]} says '${c0}' colors, ${QPLACE[1]} says '${c1}', aggregate saved '${savedagg}'" >&2
    exit 1
}
echo "clustertest: quality improvement replicated: both placement nodes hold $c0 colors (cluster saved $savedagg)"

echo "clustertest: OK — non-owner proxying, synchronous replication, kill -9 failover (window ${FAILOVER_MS} ms), journal-verified zero loss, rejoin catch-up, cluster metrics + quality convergence"
