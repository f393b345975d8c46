#!/usr/bin/env bash
# Run every benchmark binary and collect results into BENCH_*.json at the
# repo root, seeding the perf trajectory tracked across PRs.
#
#   - bench_micro_* (Google Benchmark) emit native JSON via
#     --benchmark_format=json.
#   - bench_fig* / bench_ablation_* / bench_table1_* (figure and table
#     reproductions) print human-readable text; their stdout is wrapped in a
#     JSON envelope {bench, exit_code, seconds, output}.
#
# The build directory defaults to ./build; the CMake `bench` target invokes
# this script with PAPAYA_BENCH_DIR pointing at the active build tree.
#
# Usage: scripts/bench.sh [--compare] [name-filter]
#   e.g. scripts/bench.sh fig2            # only benches matching "fig2"
#        scripts/bench.sh --compare fig13 # regenerate + delta vs committed
#        PAPAYA_BENCH_BASE=../base/build scripts/bench.sh --compare fig13
#
# --compare enforces the ROADMAP "perf baseline discipline": after each
# bench regenerates its BENCH_*.json, every time metric is diffed against
# the baseline committed at HEAD (git show), the delta is printed, and the
# script exits nonzero if any metric regressed by more than
# PAPAYA_BENCH_TOLERANCE (default 0.10 = +10%).  Regression means *slower*:
# micro benches compare per-benchmark real_time, figure benches compare the
# envelope's wall-clock seconds.
#
# Paired mode: with --compare and PAPAYA_BENCH_BASE set to another build
# directory (e.g. the parent commit's), each bench runs that build's binary
# and this one's back to back, three alternating pairs (base first, then new
# first, then base first), so drift of the host between the committed
# baseline and now does not read as a regression.  A figure bench is gated
# on the ratio of the two median wall times, and its envelope records the
# new binary's median seconds.  A micro bench is gated row by row on the
# ratio of the two median real_times, at the same tolerance; a row only one
# side has is reported as NEW or REMOVED and not gated, and the collection
# file holds the first new run with each row's times replaced by their
# medians.  Benches the base directory lacks compare against HEAD as
# without it.
set -uo pipefail

ROOT="$(cd "$(dirname "$0")/.." && pwd)"
BUILD="${PAPAYA_BENCH_DIR:-$ROOT/build}"
TOLERANCE="${PAPAYA_BENCH_TOLERANCE:-0.10}"
BASE="${PAPAYA_BENCH_BASE:-}"

COMPARE=0
FILTER=""
for arg in "$@"; do
  case "$arg" in
    --compare) COMPARE=1 ;;
    --*)
      echo "error: unknown flag '$arg' (usage: bench.sh [--compare] [filter])" >&2
      exit 2
      ;;
    *) FILTER="$arg" ;;
  esac
done

if ! command -v jq > /dev/null; then
  echo "error: jq is required to collect bench results" >&2
  exit 1
fi

if ! compgen -G "$BUILD/bench_*" > /dev/null; then
  echo "error: no bench_* binaries in $BUILD — build first:" >&2
  echo "  cmake -B build -S . && cmake --build build -j" >&2
  exit 1
fi

if [ -n "$BASE" ] && ! compgen -G "$BASE/bench_*" > /dev/null; then
  echo "error: PAPAYA_BENCH_BASE=$BASE holds no bench_* binaries" >&2
  exit 1
fi

failures=0
ran=0
compare_failures=0

# Whether bench $1's source changed since HEAD.  Such a bench is reported
# informationally but not gated — a bench that gained a column
# legitimately runs longer, and flagging that as a perf regression would
# train authors to ignore the gate (regenerate + commit the new baseline
# instead).
source_changed() {
  if ! git -C "$ROOT" diff --quiet HEAD -- "bench/$1.cpp" 2>/dev/null; then
    printf '   compare: bench/%s.cpp changed since HEAD — deltas are informational, not gated\n' \
      "$1"
    return 0
  fi
  return 1
}

# Print the rows "metric<TAB>old<TAB>new<TAB>delta%" in $2 with the gate
# applied when $1 is 1; add the metrics beyond TOLERANCE to
# compare_failures.
report_rows() {
  local gated="$1" rows="$2" bad
  printf '%s\n' "$rows" | awk -F'\t' -v tol="$TOLERANCE" -v gated="$gated" '
    $2 == "new" {
      printf "     %-44s %14s -> %14.3f  NEW (informational)\n", $1, "-", $3
      next
    }
    $3 == "removed" {
      printf "     %-44s %14.3f -> %14s  REMOVED (informational)\n", $1, $2, "-"
      next
    }
    {
      flag = (gated && $4 > tol * 100) ? "  REGRESSION" : ""
      printf "     %-44s %14.3f -> %14.3f  %+7.1f%%%s\n", $1, $2, $3, $4, flag
    }'
  bad="$(printf '%s\n' "$rows" | awk -F'\t' -v tol="$TOLERANCE" \
    -v gated="$gated" '$2 != "new" && $3 != "removed" && gated && $4 > tol * 100 { n++ }
      END { print n+0 }')"
  compare_failures=$((compare_failures + bad))
}

# Print the delta of each time metric in $2 (fresh JSON) against the
# baseline committed at HEAD for bench $1; count metrics beyond TOLERANCE.
compare_with_baseline() {
  local name="$1" new_json="$2"
  local out_name="BENCH_${name#bench_}.json"
  local old_json
  if ! old_json="$(git -C "$ROOT" show "HEAD:$out_name" 2>/dev/null)"; then
    printf '   compare: no committed baseline for %s (new bench)\n' "$out_name"
    return 0
  fi
  local gated=1
  source_changed "$name" && gated=0
  local rows
  if [[ "$name" == bench_micro_* ]]; then
    # Metrics present only in the fresh run (a bench that gained a strategy
    # sweep or a new arg) are reported as NEW and never gated: there is no
    # baseline to regress against, and erroring on them would block the very
    # commit that introduces the column.
    rows="$(jq -rn '
      (input | [.benchmarks[]? | {key: .name, value: .real_time}]
             | from_entries) as $old
      | (input | .benchmarks[]?)
      | if $old[.name] != null and ($old[.name] > 0) then
          [.name, $old[.name], .real_time,
           ((.real_time / $old[.name] - 1) * 100)]
        else
          [.name, "new", .real_time, "new"]
        end
      | @tsv' <(printf '%s' "$old_json") "$new_json" 2>/dev/null)"
  else
    rows="$(jq -rn '
      (input | .seconds) as $old
      | (input | .seconds) as $new
      | select($old != null and $new != null and ($old > 0))
      | ["seconds", $old, $new, (($new / $old - 1) * 100)]
      | @tsv' <(printf '%s' "$old_json") "$new_json" 2>/dev/null)"
  fi
  if [ -z "$rows" ]; then
    printf '   compare: no comparable metrics for %s\n' "$name"
    return 0
  fi
  report_rows "$gated" "$rows"
  return 0
}

# Run $1 once; set run_output, run_rc and run_seconds.
run_timed() {
  local start end
  start=$(date +%s.%N)
  run_output="$("$1" 2>&1)"
  run_rc=$?
  end=$(date +%s.%N)
  run_seconds="$(echo "$end $start" | awk '{printf "%.3f", $1 - $2}')"
}

median_of() {
  printf '%s\n' "$@" | sort -g | awk '{ v[NR] = $1 } END { print v[int((NR + 1) / 2)] }'
}

# Paired mode for figure bench $1 (binary $2): three alternating pairs of
# the base build's binary and this one.  Sets run_output/run_rc from the
# new binary (its last run; a failing run wins) and run_seconds to its
# median, then prints and gates the ratio of the medians.
run_paired() {
  local name="$1" bin="$2" pair side rc=0 output=""
  local base_times=() new_times=()
  for pair in 1 2 3; do
    if [ $((pair % 2)) -eq 1 ]; then set -- base new; else set -- new base; fi
    for side in "$@"; do
      if [ "$side" = base ]; then
        run_timed "$BASE/$name"
        base_times+=("$run_seconds")
      else
        run_timed "$bin"
        new_times+=("$run_seconds")
        [ "$rc" -eq 0 ] && { rc=$run_rc; output="$run_output"; }
      fi
    done
  done
  run_output="$output"
  run_rc=$rc
  run_seconds="$(median_of "${new_times[@]}")"
  [ "$rc" -eq 0 ] || return 0
  local base_median gated=1
  base_median="$(median_of "${base_times[@]}")"
  printf '   paired: base %s s, new %s s\n' "${base_times[*]}" "${new_times[*]}"
  source_changed "$name" && gated=0
  report_rows "$gated" "$(awk -v o="$base_median" -v n="$run_seconds" \
    'BEGIN { printf "median seconds\t%s\t%s\t%f\n", o, n, (o > 0 ? (n / o - 1) * 100 : 0) }')"
}

# Paired mode for micro bench $1 (binary $2): three alternating pairs of
# the base build's binary and this one, each writing Google Benchmark JSON.
# Writes the new side's median JSON to $3, prints and gates each row's ratio
# of medians, and returns non-zero if a run failed.
run_paired_micro() {
  local name="$1" bin="$2" out="$3" pair side dir
  dir="$(mktemp -d)"
  for pair in 1 2 3; do
    if [ $((pair % 2)) -eq 1 ]; then set -- base new; else set -- new base; fi
    for side in "$@"; do
      local exe="$bin"
      [ "$side" = base ] && exe="$BASE/$name"
      if ! "$exe" --benchmark_format=json > "$dir/$side$pair.json"; then
        rm -rf "$dir"
        return 1
      fi
    done
  done
  # Per row: its real_time (or cpu_time) median over a side's three runs,
  # rows in the order the runs print them.
  local medians='
    def median: sort | .[(length - 1) / 2 | floor];
    def medians(f): reduce (.[] | .benchmarks[]?) as $r ({};
      .[$r.name] += [$r | f]) | map_values(median);'
  jq -s "$medians"'
    medians(.real_time) as $real | medians(.cpu_time) as $cpu
    | .[0] | .benchmarks |= map(.real_time = $real[.name]
                                | .cpu_time = $cpu[.name])' \
    "$dir/new1.json" "$dir/new2.json" "$dir/new3.json" > "$out"
  local rows gated=1
  rows="$(jq -rn --slurpfile base <(cat "$dir"/base?.json) \
    --slurpfile new <(cat "$dir"/new?.json) "$medians"'
    ($base | medians(.real_time)) as $b | ($new | medians(.real_time)) as $n
    | ($n | to_entries[]
       | if $b[.key] != null and $b[.key] > 0 then
           [.key, $b[.key], .value, ((.value / $b[.key] - 1) * 100)]
         else
           [.key, "new", .value, "new"]
         end),
      ($b | to_entries[] | select($n[.key] == null)
       | [.key, .value, "removed", "removed"])
    | @tsv')"
  rm -rf "$dir"
  printf '   paired: medians of 3 runs per side, base -> new\n'
  source_changed "$name" && gated=0
  report_rows "$gated" "$rows"
  return 0
}

for bin in "$BUILD"/bench_*; do
  [ -x "$bin" ] || continue
  name="$(basename "$bin")"
  case "$name" in
    *"$FILTER"*) ;;
    *) continue ;;
  esac
  out_json="$ROOT/BENCH_${name#bench_}.json"
  # Stage into a temp file so a crashing bench or failing jq never clobbers
  # the committed baseline with a truncated/empty JSON.  mktemp creates the
  # file 0600; restore umask-default perms so other uids can read results.
  tmp_json="$(mktemp)"
  chmod 644 "$tmp_json"
  printf '== %s\n' "$name"
  if [[ "$name" == bench_micro_* ]] && [ "$COMPARE" -eq 1 ] &&
    [ -n "$BASE" ] && [ -x "$BASE/$name" ]; then
    if run_paired_micro "$name" "$bin" "$tmp_json"; then
      mv "$tmp_json" "$out_json"
    else
      echo "   FAILED (a paired run exited non-zero)" >&2
      rm -f "$tmp_json"
      failures=$((failures + 1))
    fi
  elif [[ "$name" == bench_micro_* ]]; then
    # Google Benchmark: native JSON straight to the collection file.
    if "$bin" --benchmark_format=json > "$tmp_json"; then
      [ "$COMPARE" -eq 1 ] && compare_with_baseline "$name" "$tmp_json"
      mv "$tmp_json" "$out_json"
    else
      echo "   FAILED (exit $?)" >&2
      rm -f "$tmp_json"
      failures=$((failures + 1))
    fi
  else
    paired=0
    if [ "$COMPARE" -eq 1 ] && [ -n "$BASE" ] && [ -x "$BASE/$name" ]; then
      paired=1
      run_paired "$name" "$bin"
    else
      run_timed "$bin"
    fi
    output="$run_output"
    rc=$run_rc
    if jq -n \
      --arg bench "$name" \
      --argjson exit_code "$rc" \
      --argjson seconds "$run_seconds" \
      --arg output "$output" \
      '{bench: $bench, exit_code: $exit_code, seconds: $seconds, output: $output}' \
      > "$tmp_json" && [ "$rc" -eq 0 ]; then
      if [ "$COMPARE" -eq 1 ] && [ "$paired" -eq 0 ]; then
        compare_with_baseline "$name" "$tmp_json"
      fi
      mv "$tmp_json" "$out_json"
    else
      echo "   FAILED (exit $rc)" >&2
      printf '%s\n' "$output" | tail -20 >&2
      rm -f "$tmp_json"
      failures=$((failures + 1))
    fi
  fi
  ran=$((ran + 1))
done

if [ "$ran" -eq 0 ]; then
  echo "error: filter '$FILTER' matched no bench binaries in $BUILD" >&2
  exit 1
fi

echo
echo "ran $ran benches, $failures failed; results in $ROOT/BENCH_*.json"
if [ "$COMPARE" -eq 1 ]; then
  against="the HEAD baseline"
  [ -n "$BASE" ] && against="the paired base build"
  echo "compare: $compare_failures metric(s) regressed beyond +$(awk \
    -v t="$TOLERANCE" 'BEGIN { printf "%.0f", t * 100 }')% of $against"
fi
[ "$failures" -eq 0 ] && [ "$compare_failures" -eq 0 ]
