#!/usr/bin/env bash
# Repeatability check of the benchmark against its own bounds.
#
#   benchmark/repeat.sh [runs-per-set] [seconds] [workload ...]
#   (defaults: 10, run_seconds of BENCHMARK.json, every workload)
#
# Runs two sets of untraced runs per workload with the command from
# BENCHMARK.json, alternating the sets (A B A B …) so that slow drift of the
# machine lands on both, and every run with another --seed (set A: 1..n,
# set B: n+1..2n). For each (workload, end-to-end metric) it prints the two
# set medians, each set's spread — the distance between the first and third
# quartile as a share of the median, the figure BENCHMARK.json's bounds are
# judged by — and the gap between the medians, then PASS/FAIL against the
# metric's bound, and writes the table to benchmark/NOISE.md
# (benchmark/noise_table.py, which can be run again on the kept results).
# With workloads named, only those are run again — a set that straddled a slow
# spell of the machine fails whatever the benchmark does — and the table is
# written from their new results and the others' kept ones.
#
# Run it on an otherwise idle machine, from the repository root.
set -euo pipefail

ROOT="$(cd "$(dirname "$0")/.." && pwd)"
OUT="$ROOT/benchmark/out/repeat"
cd "$ROOT"
RUNS="${1:-10}"
SECONDS_PER_RUN="${2:-$(python3 -c 'import json; print(json.load(open("BENCHMARK.json"))["run_seconds"])')}"
mkdir -p "$OUT"

mapfile -t CMD < <(python3 -c 'import json; print("\n".join(json.load(open("BENCHMARK.json"))["command"]))')
mapfile -t WORKLOADS < <(python3 -c 'import json; print("\n".join(w["name"] for w in json.load(open("BENCHMARK.json"))["workloads"]))')

if [ $# -gt 2 ]; then WORKLOADS=("${@:3}"); fi

for w in "${WORKLOADS[@]}"; do
  rm -f "$OUT/$w".*.json
  for i in $(seq 1 "$RUNS"); do
    for set in A B; do
      seed=$i
      [ "$set" = B ] && seed=$((RUNS + i))
      echo "== $w set $set run $i (seed $seed)" >&2
      "${CMD[@]}" --workload "$w" --seed "$seed" --seconds "$SECONDS_PER_RUN" --trace 0 \
        | tail -n 1 > "$OUT/$w.$set.$i.json"
    done
  done
done

python3 benchmark/noise_table.py "$OUT" "$RUNS" "$SECONDS_PER_RUN" | tee "$ROOT/benchmark/NOISE.md"
