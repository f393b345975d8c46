#!/usr/bin/env bash
# Determinism gate for the simulator's clock-honesty refactor (run in CI).
#
# Runs the fig9 convergence sim and byte-diffs the exported loss-curve
# trajectories across four invocations:
#   1. twice from the same seed              -> must be byte-identical
#      (run-to-run determinism of the event schedule + RNG streams);
#   2. once with pipelined_clients toggled   -> must be byte-identical
#      (the open-loop pipelined latency model is observational: it may not
#      perturb training dynamics while closed_loop_clients is off);
#   3. once on one CPU (under `taskset`)     -> must be byte-identical
#      (the MLP kernel sizes its thread pool from the CPU affinity mask, so
#      this run trains on the calling thread alone; the split of the work
#      across threads may not change a bit).  The CPU is the first one this
#      script may run on, which need not be CPU 0.
#
# Usage: scripts/check_determinism.sh [build-dir]   (default ./build)
set -euo pipefail

ROOT="$(cd "$(dirname "$0")/.." && pwd)"
BUILD="${1:-$ROOT/build}"
BIN="$BUILD/bench_fig9_convergence"

if [ ! -x "$BIN" ]; then
  echo "error: $BIN not built — build with -DPAPAYA_BUILD_BENCH=ON first" >&2
  exit 1
fi

workdir="$(mktemp -d)"
trap 'rm -rf "$workdir"' EXIT

echo "== run 1 (baseline)"
PAPAYA_FIG9_QUICK=1 PAPAYA_FIG9_EXPORT="$workdir/run1.csv" "$BIN" > /dev/null

echo "== run 2 (same seed)"
PAPAYA_FIG9_QUICK=1 PAPAYA_FIG9_EXPORT="$workdir/run2.csv" "$BIN" > /dev/null

echo "== run 3 (pipelined_clients toggled, closed loop off)"
PAPAYA_FIG9_QUICK=1 PAPAYA_FIG9_PIPELINED=1 \
  PAPAYA_FIG9_EXPORT="$workdir/run3.csv" "$BIN" > /dev/null

# "pid N's current affinity list: 2,4-7" -> 2
cpu="$(taskset -pc $$ | sed -E 's/.*: *([0-9]+).*/\1/')"
echo "== run 4 (one CPU in the affinity mask: CPU $cpu)"
PAPAYA_FIG9_QUICK=1 PAPAYA_FIG9_EXPORT="$workdir/run4.csv" \
  taskset -c "$cpu" "$BIN" > /dev/null

fail=0
if ! cmp -s "$workdir/run1.csv" "$workdir/run2.csv"; then
  echo "FAIL: same-seed reruns exported different trajectories" >&2
  diff "$workdir/run1.csv" "$workdir/run2.csv" | head -10 >&2 || true
  fail=1
fi
if ! cmp -s "$workdir/run1.csv" "$workdir/run3.csv"; then
  echo "FAIL: pipelined_clients perturbed the trajectories (must be" \
       "observational with closed_loop_clients off)" >&2
  diff "$workdir/run1.csv" "$workdir/run3.csv" | head -10 >&2 || true
  fail=1
fi
if ! cmp -s "$workdir/run1.csv" "$workdir/run4.csv"; then
  echo "FAIL: the one-CPU run exported different trajectories (the MLP" \
       "kernel's thread count may not change a value)" >&2
  diff "$workdir/run1.csv" "$workdir/run4.csv" | head -10 >&2 || true
  fail=1
fi

lines="$(wc -l < "$workdir/run1.csv")"
if [ "$lines" -eq 0 ]; then
  echo "FAIL: export produced no trajectory points" >&2
  fail=1
fi

if [ "$fail" -eq 0 ]; then
  echo "OK: $lines trajectory points byte-identical across all four runs"
fi
exit "$fail"
