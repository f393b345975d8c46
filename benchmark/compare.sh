#!/usr/bin/env bash
# Compare the working tree against a base commit on the benchmark's
# end-to-end metrics.
#
#   bash benchmark/compare.sh <base-rev> [pairs=10]
#
# The base commit is exported with `git archive` into
# build-bench/compare/<rev>/ and given this tree's benchmark/ and
# BENCHMARK.json, so both sides run identical benchmark code.  For each
# workload, `pairs` pairs of runs are made with seeds 1..pairs, alternating
# which side runs first.  Per metric it prints each side's median and
# quartiles, the change, the share of pairs the working tree wins (ties
# count for neither) and a verdict:
#   gain        wins >= 90% of pairs and the medians differ by more than the
#               base's own quartile spread
#   regression  the median is worse than the base's by more than the bound
#   unresolved  the base's quartile spread exceeds the bound
#   same        otherwise
# Expect about 50 s per pair and workload at the default run length.
set -euo pipefail

if [[ $# -lt 1 ]]; then
  echo "usage: $0 <base-rev> [pairs=10]" >&2
  exit 2
fi
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
rev="$(git -C "$root" rev-parse --short "$1")"
pairs="${2:-10}"
if ! [[ "$pairs" =~ ^[0-9]+$ ]] || ((pairs < 2)); then
  echo "compare.sh: pairs must be a number >= 2 (quartiles need two runs)" >&2
  exit 2
fi
base="$root/build-bench/compare/$rev"
results="$root/build-bench/compare/$rev.results"

if [[ ! -d "$base/src" ]]; then
  mkdir -p "$base"
  git -C "$root" archive "$rev" | tar -x -C "$base"
fi
rm -rf "$base/benchmark"
cp -R "$here" "$base/benchmark"
cp "$root/BENCHMARK.json" "$base/BENCHMARK.json"

seconds="$(python3 -c 'import json, sys
print(json.load(open(sys.argv[1]))["run_seconds"])' "$root/BENCHMARK.json")"
workloads="$(python3 -c 'import json, sys
print(" ".join(w["name"] for w in json.load(open(sys.argv[1]))["workloads"]))' \
  "$root/BENCHMARK.json")"

run_side() {  # <side> <tree> <workload> <seed>
  local line
  # A run whose checks fail still prints its JSON (with "correct": false).
  line="$(bash "$2/benchmark/run.sh" --workload "$3" --seed "$4" \
    --seconds "$seconds" --trace 0 2>/dev/null | tail -n 1)" || true
  echo "$1 $3 $4 $line" >> "$results"
}

: > "$results"
for workload in $workloads; do
  for ((i = 1; i <= pairs; i++)); do
    echo "$workload pair $i/$pairs" >&2
    if ((i % 2)); then
      run_side base "$base" "$workload" "$i"
      run_side head "$root" "$workload" "$i"
    else
      run_side head "$root" "$workload" "$i"
      run_side base "$base" "$workload" "$i"
    fi
  done
done

python3 - "$root/BENCHMARK.json" "$results" "$rev" <<'EOF'
import json
import statistics
import sys

bench = json.load(open(sys.argv[1]))
runs = {}
for line in open(sys.argv[2]):
    side, workload, seed, payload = line.split(" ", 3)
    try:
        result = json.loads(payload)
    except json.JSONDecodeError:
        print(f"warning: {side} {workload} seed {seed} printed no result")
        continue
    if not result["correct"]:
        print(f"warning: {side} {workload} seed {seed} failed its checks")
    runs.setdefault((workload, side), {})[int(seed)] = result["metrics"]

print(f"base {sys.argv[3]} vs working tree")
print(f"{'workload':<16}{'metric':<14}{'base median [q1, q3]':<36}"
      f"{'head median [q1, q3]':<36}{'change':>9}{'wins':>7}  verdict")
for w in bench["workloads"]:
    base, head = runs[(w["name"], "base")], runs[(w["name"], "head")]
    seeds = sorted(set(base) & set(head))
    for m in bench["end_to_end"]:
        b = [base[s][m["name"]]["value"] for s in seeds]
        h = [head[s][m["name"]]["value"] for s in seeds]
        lower = m["better"] == "lower"
        qb, qh = statistics.quantiles(b, n=4), statistics.quantiles(h, n=4)
        mb, mh = statistics.median(b), statistics.median(h)
        worse = (mh - mb) / mb if lower else (mb - mh) / mb
        wins = sum((y < x) if lower else (y > x) for x, y in zip(b, h))
        if wins >= 0.9 * len(seeds) and abs(mh - mb) > qb[2] - qb[0]:
            verdict = "gain"
        elif worse > m["bound"]:
            verdict = "regression"
        elif (qb[2] - qb[0]) / mb > m["bound"]:
            verdict = "unresolved"
        else:
            verdict = "same"
        base_cell = f"{mb:.5g} [{qb[0]:.5g}, {qb[2]:.5g}]"
        head_cell = f"{mh:.5g} [{qh[0]:.5g}, {qh[2]:.5g}]"
        print(f"{w['name']:<16}{m['name']:<14}{base_cell:<36}{head_cell:<36}"
              f"{(mh - mb) / mb:>+9.1%}{wins:>4}/{len(seeds):<2}  {verdict}")
EOF
