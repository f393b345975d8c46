#!/usr/bin/env bash
# Build the benchmark if needed, then run it.
#
#   bash benchmark/run.sh                  # every workload, seed 7, 20 s each
#   bash benchmark/run.sh --workload ingest_256k --seed 3 --seconds 20
#   bash benchmark/run.sh --workload fig9_c104 --trace 1    # per-layer split
#   bash benchmark/run.sh --smoke          # every workload at ~1/20 size
#
# Runs from any directory.  The build goes to build-bench/ at the repository
# root (Release) and its output to stderr.  Each workload runs in its own
# process; every line it prints goes to stdout, ending with its JSON result.
# The exit status is non-zero if the build fails or any output check fails.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/build-bench"

if [[ ! -f "$root/CMakeLists.txt" || ! -d "$root/src" ]]; then
  echo "run.sh: the library sources are missing from $root" >&2
  exit 2
fi

workload=""
binary="$build/papaya_bench"
args=()
while [[ $# -gt 0 ]]; do
  case "$1" in
    --workload) workload="${2:?--workload needs a value}"; shift 2 ;;
    --trace)
      [[ "${2:-}" == 1 ]] && binary="$build/papaya_bench_traced"
      args+=("$1" "${2:?--trace needs a value}"); shift 2 ;;
    *) args+=("$1"); shift ;;
  esac
done

{
  # Keep the compiler's temporary files inside the checkout too.
  export TMPDIR="$build/tmp"
  mkdir -p "$TMPDIR"
  if [[ ! -f "$build/CMakeCache.txt" ]]; then
    cmake -S "$here" -B "$build" -DCMAKE_BUILD_TYPE=Release
  fi
  cmake --build "$build" -j "$(nproc)" --target papaya_bench papaya_bench_traced
} >&2

PAPAYA_BENCH_REV="$(git -C "$root" rev-parse --short HEAD 2>/dev/null || echo unknown)"
export PAPAYA_BENCH_REV

if [[ -n "$workload" ]]; then
  exec "$binary" --workload "$workload" "${args[@]}"
fi

status=0
for name in $(python3 -c 'import json, sys
print(" ".join(w["name"] for w in json.load(open(sys.argv[1]))["workloads"]))' \
    "$root/BENCHMARK.json"); do
  "$binary" --workload "$name" "${args[@]}" || status=1
done
exit "$status"
