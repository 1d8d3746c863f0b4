#!/usr/bin/env bash
# Paired A/B of two commits on one colordbench workload:
#
#   scripts/abtest.sh BASE CHANGE WORKLOAD PAIRS [SEED0]
#
# Checks BASE and CHANGE out as git worktrees in a temporary directory
# and builds each once with colordbench/run.sh. Then it runs PAIRS pairs
# of untraced runs of BENCHMARK.json's run_seconds: pair i (from 0) runs
# both sides on seed SEED0+i (default SEED0 1), BASE first in even pairs
# and CHANGE first in odd ones. For each end-to-end metric of
# BENCHMARK.json it prints each side's median and quartiles (Python's
# statistics.quantiles(n=4), as in colordbench/NOTES.md), CHANGE's pair
# wins and losses (ties count for neither), BASE's IQR over its median,
# and a verdict:
#
#   gain        CHANGE wins at least 9 in 10 pairs and its median is
#               better by more than BASE's IQR;
#   worse       CHANGE's median is worse by more than the metric's bound;
#   no change   neither, and BASE's IQR is within the bound;
#   unresolved  neither, BASE's IQR is wider than the bound, and not
#               every CHANGE run is better than every BASE run.
#
# Every run's output stays in the printed results directory; the
# worktrees are removed on exit. A run colordbench reports incorrect
# fails the script after the table. Requires git, go and python3.
set -euo pipefail

if [[ $# -lt 4 || $# -gt 5 ]]; then
    echo "usage: $0 BASE CHANGE WORKLOAD PAIRS [SEED0]" >&2
    exit 2
fi
base_rev=$1 change_rev=$2 workload=$3 pairs=$4 seed0=${5:-1}
if ! [[ $pairs =~ ^[0-9]+$ && $pairs -ge 2 && $seed0 =~ ^[0-9]+$ ]]; then
    echo "abtest: PAIRS must be an integer >= 2 and SEED0 a non-negative integer" >&2
    exit 2
fi
repo=$(git -C "$(dirname "$0")/.." rev-parse --show-toplevel)
seconds=$(python3 -c 'import json,sys; print(json.load(open(sys.argv[1]))["run_seconds"])' "$repo/BENCHMARK.json")

dir=$(mktemp -d "${TMPDIR:-/tmp}/abtest.XXXXXX")
mkdir "$dir/runs"
cleanup() {
    for side in base change; do
        git -C "$repo" worktree remove --force "$dir/$side" 2>/dev/null || rm -rf "${dir:?}/$side"
    done
    git -C "$repo" worktree prune
}
trap cleanup EXIT

for side in base change; do
    rev=$base_rev
    [[ $side == change ]] && rev=$change_rev
    git -C "$repo" worktree add --quiet --detach "$dir/$side" "$rev"
    echo "abtest: building $side ($(git -C "$dir/$side" rev-parse --short HEAD))" >&2
    # run.sh builds colord and colordbench; -h then only prints usage.
    bash "$dir/$side/colordbench/run.sh" -h >/dev/null 2>&1 || true
    if [[ ! -x $dir/$side/.bench_build/colordbench ]]; then
        echo "abtest: building $side failed" >&2
        exit 1
    fi
done

failed=()
for ((i = 0; i < pairs; i++)); do
    seed=$((seed0 + i))
    order="base change"
    ((i % 2 == 1)) && order="change base"
    for side in $order; do
        echo "abtest: pair $((i + 1))/$pairs seed $seed: $side" >&2
        if ! bash "$dir/$side/colordbench/run.sh" --workload "$workload" --seed "$seed" \
            --seconds "$seconds" --trace 0 >"$dir/runs/$side-seed$seed.txt" 2>"$dir/runs/$side-seed$seed.err"; then
            failed+=("$side seed $seed")
        fi
    done
done

python3 - "$repo/BENCHMARK.json" "$dir/runs" "$seed0" "$pairs" "$workload" <<'EOF'
import json, os, statistics, sys

bench_path, runs, seed0, pairs, workload = sys.argv[1], sys.argv[2], int(sys.argv[3]), int(sys.argv[4]), sys.argv[5]
metrics = json.load(open(bench_path))["end_to_end"]

def load(side, seed):
    path = os.path.join(runs, f"{side}-seed{seed}.txt")
    lines = open(path).read().splitlines() if os.path.exists(path) else []
    if len(lines) < 2 or not lines[-2].startswith("run record: "):
        return None, None
    rec, result = json.loads(lines[-2][len("run record: "):]), json.loads(lines[-1])
    return (rec, result) if result["correct"] else (None, None)

res = {s: [load(s, seed0 + i) for i in range(pairs)] for s in ("base", "change")}
ok = [i for i in range(pairs) if res["base"][i][1] and res["change"][i][1]]
if len(ok) < 2:
    sys.exit("abtest: fewer than two complete pairs")

print(f"workload {workload}: {len(ok)} pairs, seeds {seed0}..{seed0 + pairs - 1}, {res['base'][ok[0]][0]['seconds']} s runs")
for s in ("base", "change"):
    rec = res[s][ok[0]][0]
    steal = statistics.median(res[s][i][0]["host_steal_share"] for i in ok)
    print(f"  {s}: commit {rec['commit'][:12]}, median host steal {steal:.1%}")
print()
print("| metric | base median [q1, q3] | change median [q1, q3] | change/base | wins/losses | base IQR/median | bound | verdict |")
print("|---|---|---|---|---|---|---|---|")
for m in metrics:
    name, lower, bound = m["name"], m["better"] == "lower", m["bound"]
    b = [res["base"][i][1]["metrics"][name]["value"] for i in ok]
    c = [res["change"][i][1]["metrics"][name]["value"] for i in ok]
    sign = -1 if lower else 1  # sign * (c - b) > 0 means the change is better
    wins = sum(sign * (y - x) > 0 for x, y in zip(b, c))
    losses = sum(sign * (y - x) < 0 for x, y in zip(b, c))
    bq, cq = statistics.quantiles(b, n=4), statistics.quantiles(c, n=4)
    bmed, cmed = statistics.median(b), statistics.median(c)
    iqr = bq[2] - bq[0]
    spread = iqr / bmed if bmed else 0.0
    gap = sign * (cmed - bmed)
    if wins * 10 >= 9 * len(ok) and gap > iqr:
        verdict = "gain"
    elif bmed and -gap / abs(bmed) > bound:
        verdict = "worse"
    elif spread > bound and not all(sign * (y - x) > 0 for x in b for y in c):
        verdict = "unresolved"
    else:
        verdict = "no change"
    ratio = f"{cmed / bmed - 1:+.1%}" if bmed else "n/a"
    fmt = lambda med, q: f"{med:.4g} [{q[0]:.4g}, {q[2]:.4g}]"
    print(f"| {name} | {fmt(bmed, bq)} | {fmt(cmed, cq)} | {ratio} | {wins}/{losses} | {spread:.1%} | {bound:.0%} | {verdict} |")
EOF

echo "abtest: run outputs in $dir/runs" >&2
if ((${#failed[@]})); then
    echo "abtest: incorrect or failed runs: ${failed[*]}" >&2
    exit 1
fi
