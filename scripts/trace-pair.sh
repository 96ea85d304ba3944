#!/usr/bin/env bash
# One traced benchmark run of a parent revision and one of the working tree,
# side by side.
#
# Usage (from anywhere in the repository):
#
#   scripts/trace-pair.sh <parent-rev> <workload> <seed>
#
# Exports <parent-rev> with `git archive` and the working tree (its tracked
# and untracked files that git does not ignore, without the deleted ones) into
# two sibling fresh directories under one temporary directory (removed on
# exit; $TMPDIR picks its place), as scripts/ab-pairs.sh does, so that both
# sides build and run from a fresh copy and neither from the checkout. Runs
# `python3 perfbench/run.py --workload <workload> --seed <seed> --seconds <n>
# --trace 1` in the parent's copy and then in the working tree's. <n> is
# BENCHMARK.json's run_seconds. Each side builds its own harness
# (perfbench/target).
#
# Prints every per-layer metric of BENCHMARK.json as `parent -> change`, then
# each side's failed / attempted op counts, the traced checks it ran (the
# `trace_*` and `scan.*` ops of its run record) and its failed checks (the
# `misses`, e.g. a `trace_replica.<mimic>` check whose traced decomposition
# disagrees with PlaqueTest.run).
set -euo pipefail

if [ $# -ne 3 ]; then
  echo "usage: $0 <parent-rev> <workload> <seed>" >&2
  exit 2
fi
rev=$1 workload=$2 seed=$3
root=$(git rev-parse --show-toplevel)
cd "$root"
seconds=$(python3 -c 'import json; print(json.load(open("BENCHMARK.json"))["run_seconds"])')

tmp=$(mktemp -d)
parent="$tmp/parent" change="$tmp/change"
trap 'rm -rf "$tmp"' EXIT
mkdir "$parent" "$change"
git archive "$rev" | tar -x -C "$parent"
git ls-files -z --cached --others --exclude-standard |
  while IFS= read -r -d '' f; do if [ -e "$f" ] || [ -L "$f" ]; then printf '%s\0' "$f"; fi; done |
  tar --null -T - -c | tar -x -C "$change"

# run <side> <dir>: one traced run; its run record goes to $tmp/<side>.json.
run() {
  local side=$1 dir=$2
  (cd "$dir" && python3 perfbench/run.py --workload "$workload" --seed "$seed" \
    --seconds "$seconds" --trace 1 > "$tmp/$side.out")
  cp "$dir/perfbench/target/runs/$workload-seed$seed-trace1.json" "$tmp/$side.json"
}
run parent "$parent"
run change "$change"

python3 - "$tmp" "$rev" "$workload" "$seed" <<'EOF'
import json, sys

tmp, rev, workload, seed = sys.argv[1:5]
declared = json.load(open("BENCHMARK.json"))["per_layer"]
rec = {side: json.load(open(f"{tmp}/{side}.json")) for side in ("parent", "change")}

print(f"{workload} --seed {seed} --trace 1: parent {rev} -> working tree")
for m in declared:
    name = m["name"]
    p, c = (rec[side]["result"]["metrics"][name]["value"] for side in ("parent", "change"))
    print(f"  {name:38} {p:12.4g} -> {c:<12.4g} {m['unit']} ({m['better']} is better)")
for side in ("parent", "change"):
    res = rec[side]["result"]
    print(f"{side}: {res['failed']} of {res['attempted']} ops failed, correct {res['correct']}")
    checks = sorted(l for l in rec[side]["op_ms"] if l.startswith(("trace_", "scan.")))
    print(f"  traced checks run: {', '.join(checks)}")
    for miss in rec[side]["misses"]:
        print(f"  failed check {miss}")
EOF
