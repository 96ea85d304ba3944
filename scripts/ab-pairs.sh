#!/usr/bin/env bash
# Alternating A/B benchmark pairs: a parent revision against the working tree.
#
# Usage (from anywhere in the repository):
#
#   scripts/ab-pairs.sh <parent-rev> <workload> <pairs> <first-seed> [claimed-metric]
#
# Exports <parent-rev> with `git archive` and the working tree (its tracked
# and untracked files that git does not ignore, without the deleted ones) into
# two sibling fresh directories under one temporary directory (removed on
# exit; $TMPDIR picks its place), so that both sides build and run from a
# fresh copy and neither from the checkout. Runs `python3 perfbench/run.py
# --workload <workload> --seed <s> --seconds <n> --trace 0` in each, <pairs>
# times. Pair i uses seed <first-seed> + i on both sides; even pairs run the
# parent first, odd pairs the working tree first. <n> is BENCHMARK.json's
# run_seconds. Each side builds its own harness on its first run
# (perfbench/target).
#
# Prints every run, then for each end-to-end metric of BENCHMARK.json each
# side's median [first quartile, third quartile] and how many pairs the
# working tree wins (ties count for neither side; next to heap_retained_mb,
# each side's number of attempted ops, which the harness retains until it
# reads the heap), and a verdict line: is
# the working tree's median worse than the parent's by more than the
# metric's bound (read as a fraction of the parent's median)? For
# [claimed-metric] one more line says whether a gain is shown: the working
# tree wins at least 9 in 10 of the pairs, and the gap between the medians
# exceeds the parent's interquartile range.
set -euo pipefail

if [ $# -ne 4 ] && [ $# -ne 5 ]; then
  echo "usage: $0 <parent-rev> <workload> <pairs> <first-seed> [claimed-metric]" >&2
  exit 2
fi
rev=$1 workload=$2 pairs=$3 first=$4 claimed=${5:-}
root=$(git rev-parse --show-toplevel)
cd "$root"
seconds=$(python3 -c 'import json; print(json.load(open("BENCHMARK.json"))["run_seconds"])')
if [ -n "$claimed" ] && ! python3 -c 'import json, sys
sys.exit(sys.argv[1] not in [m["name"] for m in json.load(open("BENCHMARK.json"))["end_to_end"]])' "$claimed"; then
  echo "$0: $claimed is not an end-to-end metric of BENCHMARK.json" >&2
  exit 2
fi

tmp=$(mktemp -d)
parent="$tmp/parent" change="$tmp/change"
trap 'rm -rf "$tmp"' EXIT
mkdir "$parent" "$change"
git archive "$rev" | tar -x -C "$parent"
git ls-files -z --cached --others --exclude-standard |
  while IFS= read -r -d '' f; do if [ -e "$f" ] || [ -L "$f" ]; then printf '%s\0' "$f"; fi; done |
  tar --null -T - -c | tar -x -C "$change"

# run <side> <dir> <seed>: one benchmark run; its JSON result goes to $tmp/<side>.jsonl.
run() {
  local side=$1 dir=$2 seed=$3 out
  out=$(cd "$dir" && python3 perfbench/run.py --workload "$workload" --seed "$seed" \
    --seconds "$seconds" --trace 0 | tail -n 1)
  echo "$out" >> "$tmp/$side.jsonl"
  cp "$dir/perfbench/target/runs/$workload-seed$seed-trace0.json" "$tmp/$side-seed$seed.json"
  echo "pair seed $seed, $side: $out"
}

for ((i = 0; i < pairs; i++)); do
  seed=$((first + i))
  if ((i % 2 == 0)); then
    run parent "$parent" "$seed"; run change "$change" "$seed"
  else
    run change "$change" "$seed"; run parent "$parent" "$seed"
  fi
done

python3 - "$tmp" "$rev" "$workload" "$claimed" "$first" "$pairs" <<'EOF'
import json, statistics, sys

tmp, rev, workload, claimed = sys.argv[1:5]
seeds = range(int(sys.argv[5]), int(sys.argv[5]) + int(sys.argv[6]))
declared = json.load(open("BENCHMARK.json"))["end_to_end"]
def load(side):
    return [json.loads(l) for l in open(f"{tmp}/{side}.jsonl")]
parent, change = load("parent"), load("change")

def quartiles(xs):
    return statistics.quantiles(xs, n=4, method="inclusive") if len(xs) > 1 else (xs[0],) * 3

def summary(xs):
    q1, med, q3 = quartiles(xs)
    return f"{med:.4g} [{q1:.4g}, {q3:.4g}]"

print(f"\n{workload}: parent {rev} vs working tree, {len(parent)} pairs, median [quartiles]")
for m in declared:
    name, lower = m["name"], m["better"] == "lower"
    p = [r["metrics"][name]["value"] for r in parent]
    c = [r["metrics"][name]["value"] for r in change]
    wins = sum((cv < pv) if lower else (cv > pv) for pv, cv in zip(p, c))
    print(f"  {name} ({m['unit']}, {m['better']} is better): parent {summary(p)}  change {summary(c)}"
          f"  change wins {wins}/{len(p)}")
    if name == "heap_retained_mb":
        # The harness keeps every op until it reads the heap, so more ops retain more.
        print(f"    attempted ops: parent {summary([r['attempted'] for r in parent])}"
              f"  change {summary([r['attempted'] for r in change])}")
    pq1, pmed, pq3 = quartiles(p)
    cmed = quartiles(c)[1]
    # Positive: the change is worse; relative to the parent's median unless that is 0.
    worse = (cmed - pmed) if lower else (pmed - cmed)
    rel = worse / abs(pmed) if pmed != 0 else worse
    within = "within" if rel <= m["bound"] else "OUTSIDE"
    how = "equal to" if rel == 0 else f"{abs(rel):.1%} {'worse' if rel > 0 else 'better'} than"
    print(f"    verdict {name}: change median {how} the parent's, {within} the {m['bound']:.0%} bound")
    if name == claimed:
        gap, iqr = -worse, pq3 - pq1
        shown = wins * 10 >= 9 * len(p) and gap > iqr
        print(f"    claim {name}: change wins {wins}/{len(p)} (need 9 in 10), median gap {gap:.4g}"
              f" vs parent IQR {iqr:.4g}: gain {'SHOWN' if shown else 'NOT shown'}")

def op_times(side):
    """Per op label: (warm ms, first-pass ms) of each of the side's runs."""
    out = {}
    for s in seeds:
        rec = json.load(open(f"{tmp}/{side}-seed{s}.json"))
        passes = 1 + len(rec["env"]["warm_pass_ms"])
        for label, ms in rec["op_ms"].items():
            k = max(1, len(ms) // passes)  # ops of this label per pass
            warm = statistics.median(ms[k:]) if len(ms) > k else float("nan")
            out.setdefault(label, []).append((warm, statistics.median(ms[:k])))
    return out

ops = {side: op_times(side) for side in ("parent", "change")}
print(f"\n  per op, median over runs (ms): warm parent -> change | first pass parent -> change")
for label in sorted(set(ops["parent"]) | set(ops["change"])):
    def med(side, i):
        xs = [t[i] for t in ops[side].get(label, [])]
        return f"{statistics.median(xs):8.2f}" if xs else "       -"
    print(f"    {label:28} {med('parent', 0)} -> {med('change', 0)} | {med('parent', 1)} -> {med('change', 1)}")
EOF
