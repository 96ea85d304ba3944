#!/usr/bin/env bash
# Alternating A/B benchmark pairs: a parent revision against the working tree.
#
# Usage (from anywhere in the repository):
#
#   scripts/ab-pairs.sh <parent-rev> <workload> <pairs> <first-seed>
#
# Checks <parent-rev> out into a temporary git worktree (removed on exit) and
# runs `python3 perfbench/run.py --workload <workload> --seed <s> --seconds <n>
# --trace 0` there and in the working tree, <pairs> times. Pair i uses seed
# <first-seed> + i on both sides; even pairs run the parent first, odd pairs
# the working tree first. <n> is BENCHMARK.json's run_seconds. Each side
# builds its own harness on its first run (perfbench/target, ignored by git).
#
# Prints every run, then for each end-to-end metric of BENCHMARK.json each
# side's median [first quartile, third quartile] and how many pairs the
# working tree wins; ties count for neither side.
set -euo pipefail

if [ $# -ne 4 ]; then
  echo "usage: $0 <parent-rev> <workload> <pairs> <first-seed>" >&2
  exit 2
fi
rev=$1 workload=$2 pairs=$3 first=$4
root=$(git rev-parse --show-toplevel)
cd "$root"
seconds=$(python3 -c 'import json; print(json.load(open("BENCHMARK.json"))["run_seconds"])')

tmp=$(mktemp -d)
parent="$tmp/parent"
cleanup() {
  git -C "$root" worktree remove --force "$parent" 2>/dev/null || true
  git -C "$root" worktree prune
  rm -rf "$tmp"
}
trap cleanup EXIT
git worktree add --quiet --detach "$parent" "$rev"

# run <side> <dir> <seed>: one benchmark run; its JSON result goes to $tmp/<side>.jsonl.
run() {
  local side=$1 dir=$2 seed=$3 out
  out=$(cd "$dir" && python3 perfbench/run.py --workload "$workload" --seed "$seed" \
    --seconds "$seconds" --trace 0 | tail -n 1)
  echo "$out" >> "$tmp/$side.jsonl"
  echo "pair seed $seed, $side: $out"
}

for ((i = 0; i < pairs; i++)); do
  seed=$((first + i))
  if ((i % 2 == 0)); then
    run parent "$parent" "$seed"; run change "$root" "$seed"
  else
    run change "$root" "$seed"; run parent "$parent" "$seed"
  fi
done

python3 - "$tmp" "$rev" "$workload" <<'EOF'
import json, statistics, sys

tmp, rev, workload = sys.argv[1:]
declared = json.load(open("BENCHMARK.json"))["end_to_end"]
def load(side):
    return [json.loads(l)["metrics"] for l in open(f"{tmp}/{side}.jsonl")]
parent, change = load("parent"), load("change")

def summary(xs):
    q1, med, q3 = statistics.quantiles(xs, n=4, method="inclusive") if len(xs) > 1 else (xs[0],) * 3
    return f"{med:.4g} [{q1:.4g}, {q3:.4g}]"

print(f"\n{workload}: parent {rev} vs working tree, {len(parent)} pairs, median [quartiles]")
for m in declared:
    name, lower = m["name"], m["better"] == "lower"
    p = [r[name]["value"] for r in parent]
    c = [r[name]["value"] for r in change]
    wins = sum((cv < pv) if lower else (cv > pv) for pv, cv in zip(p, c))
    print(f"  {name} ({m['unit']}, {m['better']} is better): parent {summary(p)}  change {summary(c)}"
          f"  change wins {wins}/{len(p)}")
EOF
