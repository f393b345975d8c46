#!/usr/bin/env bash
# Repo invariant linter: grep-level rules that the type system cannot state.
# Runs in CI next to the compiler checks; exits nonzero with a pointer to the
# offending line on any violation.
#
#   1. Raw synchronization primitives appear ONLY in src/util/sync.hpp.  All
#      other code must use the capability-annotated util:: wrappers so Clang
#      Thread Safety Analysis sees every lock (see that header).
#   2. No ad-hoc randomness anywhere in src/: no rand()/srand(), no
#      std::mt19937*, no std::random_device.  All randomness flows through
#      util/rng.hpp so runs are reproducible from a single seed.
#   3. Simulator randomness is keyed by entity: any util::Rng or
#      util::SplitMix64 constructed in src/sim/ must take its seed from
#      sim::SimStreams (so per-device draws are stable under reordering), or
#      carry a `sim-streams-exempt` marker explaining why (init-path RNGs
#      that run before the event loop starts).
#   4. Every bench/bench_X.cpp has a committed BENCH_X.json at the repo root
#      and vice versa — the figure reproductions stay in lockstep with their
#      recorded results.
#   5. Every tests/*_test.cpp is registered in CMakeLists.txt — a suite that
#      exists but never runs is worse than no suite.
#   6. FSM harness randomness stays replayable: src/fsm/ must not construct
#      its own util::Rng / util::SplitMix64 (or seed from entropy) — every
#      draw flows through the per-actor StreamRng references the harness
#      materializes from sim::SimStreams, or the printed --seed repro line
#      cannot reproduce the run.  `fsm-rng-exempt` marks deliberate
#      exceptions.
#   7. The fsm test suites stay wired: fsm_workload_test and
#      secagg_flood_test must carry the "fsm" ctest label in CMakeLists.txt,
#      or `ctest -L fsm` (the CI smoke step and the TSan acceptance gate)
#      silently runs nothing.
#   8. The committed BENCH_macro_population.json carries the scale
#      acceptance artifacts: a devices=1000000 row, a devices=10000000 row,
#      and a peak_rss_mb= line.  A reseed that silently dropped a sweep
#      (quick mode, OOM, a scoped-down row list) would otherwise go
#      unnoticed.
#   9. No wall clock in tier-1 tests: tests/*_test.cpp must not read
#      std::chrono::steady_clock, system_clock or high_resolution_clock, so
#      a pass or fail never depends on how loaded the host is.  Timing
#      belongs in bench/.  A line carrying a `wallclock-exempt` marker is
#      allowed (say why on it).
#  10. One CPU-dispatch idiom in src/: a kernel that needs a CPU feature is
#      built twice (portable, and with __attribute__((target(...)))), and a
#      function-local static picks one per process with
#      __builtin_cpu_supports.  No target_clones and no ifunc: an ifunc
#      resolver runs during relocation, before the sanitizer runtimes start,
#      and crashed the TSan build when ChaCha20 dispatched that way.
set -uo pipefail

cd "$(dirname "$0")/.."

failures=0

fail() {
  echo "INVARIANT VIOLATION: $1" >&2
  shift
  for line in "$@"; do echo "    $line" >&2; done
  failures=$((failures + 1))
}

# fail_with_hits <message> <multiline hit list>
fail_with_hits() {
  echo "INVARIANT VIOLATION: $1" >&2
  echo "$2" | sed 's/^/    /' >&2
  failures=$((failures + 1))
}

# --- 1. raw sync primitives only in src/util/sync.hpp ----------------------
raw_sync='std::(mutex|shared_mutex|timed_mutex|recursive_mutex|condition_variable|lock_guard|unique_lock|scoped_lock|shared_lock)'
hits=$(grep -rnE "$raw_sync" src tests bench examples \
  | grep -v '^src/util/sync.hpp:' || true)
if [[ -n "$hits" ]]; then
  fail_with_hits "raw std:: synchronization primitive outside src/util/sync.hpp \
(use util::Mutex / util::LockGuard / util::CondVar from util/sync.hpp)" \
    "$hits"
fi

# --- 2. no ad-hoc randomness in src/ ---------------------------------------
raw_rng='std::mt19937|std::random_device|[^a-zA-Z_](rand|srand)[[:space:]]*\('
hits=$(grep -rnE "$raw_rng" src || true)
if [[ -n "$hits" ]]; then
  fail_with_hits \
    "ad-hoc randomness in src/ (seed a util::Rng from util/rng.hpp instead)" \
    "$hits"
fi

# --- 3. simulator RNG construction goes through SimStreams -----------------
# The exemption marker may sit on the construction line or the line above it.
hits=$(grep -rn -B1 -E 'util::(Rng|SplitMix64)[[:space:]]+[a-zA-Z_]+[[:space:]]*[({]' src/sim \
  | awk -F'[-:]' '
      /sim-streams-exempt/ { exempt_next = 1; next }
      /util::(Rng|SplitMix64)/ {
        if (!exempt_next && $0 !~ /streams_/) print $0
        exempt_next = 0; next
      }
      { exempt_next = 0 }' || true)
if [[ -n "$hits" ]]; then
  fail_with_hits "util::Rng constructed in src/sim/ without a SimStreams-derived seed \
(key it via sim::SimStreams, or add a '// sim-streams-exempt: <why>' marker)" \
    "$hits"
fi

# --- 4. bench binaries <-> BENCH_*.json lockstep ---------------------------
for bench_src in bench/bench_*.cpp; do
  name=$(basename "$bench_src" .cpp)
  json="BENCH_${name#bench_}.json"
  if [[ ! -f "$json" ]]; then
    fail "bench target $name has no committed $json (run the bench target and commit its result)"
  fi
done
for json in BENCH_*.json; do
  name="bench/bench_${json#BENCH_}"
  src="${name%.json}.cpp"
  if [[ ! -f "$src" ]]; then
    fail "$json has no matching $src (stale result file?)"
  fi
done

# --- 5. every test suite is registered with CTest --------------------------
for test_src in tests/*_test.cpp; do
  base=$(basename "$test_src")
  if ! grep -q "tests/$base" CMakeLists.txt; then
    fail "$test_src is not registered in CMakeLists.txt (add it to PAPAYA_TEST_SOURCES)"
  fi
done

# --- 6. FSM harness draws only from its SimStreams-derived streams ---------
hits=$(grep -rn -B1 -E 'util::(Rng|SplitMix64)[[:space:]]+[a-zA-Z_]+[[:space:]]*[({]' src/fsm \
  | awk -F'[-:]' '
      /fsm-rng-exempt/ { exempt_next = 1; next }
      /util::(Rng|SplitMix64)/ {
        if (!exempt_next) print $0
        exempt_next = 0; next
      }
      { exempt_next = 0 }' || true)
if [[ -n "$hits" ]]; then
  fail_with_hits "util::Rng constructed in src/fsm/ — harness draws must come from the \
per-actor StreamRng streams (StepContext::rng() / the scenario stream), or the printed \
--seed repro line cannot replay the run.  Add '// fsm-rng-exempt: <why>' if deliberate." \
    "$hits"
fi

# --- 7. the fsm label stays wired to its suites ----------------------------
for fsm_suite in fsm_workload_test secagg_flood_test; do
  if ! grep -Ezq "set_tests_properties\([^)]*${fsm_suite}[^)]*LABELS \"?[^\")]*fsm" CMakeLists.txt; then
    fail "$fsm_suite is not labeled 'fsm' in CMakeLists.txt (ctest -L fsm — the CI smoke \
step and the TSan gate — would silently skip it)"
  fi
done

# --- 8. the macro-population baseline keeps its scale artifacts ------------
if [[ -f BENCH_macro_population.json ]]; then
  if ! grep -q 'devices=1000000 ' BENCH_macro_population.json; then
    fail "BENCH_macro_population.json has no devices=1000000 row (reseed with \
scripts/bench.sh macro_population — the full sweep, not PAPAYA_MACRO_QUICK)"
  fi
  if ! grep -q 'devices=10000000 ' BENCH_macro_population.json; then
    fail "BENCH_macro_population.json has no devices=10000000 row (the \
ten-million-device headline; reseed with scripts/bench.sh macro_population)"
  fi
  if ! grep -q 'peak_rss_mb=' BENCH_macro_population.json; then
    fail "BENCH_macro_population.json has no peak_rss_mb= line (the million-device \
memory acceptance artifact)"
  fi
fi

# --- 9. no wall clock in tier-1 tests --------------------------------------
hits=$(grep -nE '(steady_clock|system_clock|high_resolution_clock)' tests/*_test.cpp \
  | grep -v 'wallclock-exempt' || true)
if [[ -n "$hits" ]]; then
  fail_with_hits "wall clock read in a tier-1 test (its verdict would depend on host \
load; time it in bench/, or add a '// wallclock-exempt: <why>' marker on the line)" \
    "$hits"
fi

# --- 10. one CPU-dispatch idiom: no target_clones, no ifunc in src/ -------
hits=$(grep -rnwE 'target_clones|ifunc' src || true)
if [[ -n "$hits" ]]; then
  fail_with_hits "target_clones or ifunc in src/ (build the kernel twice, portable and \
with __attribute__((target(...))), and pick one per process from a function-local \
static with __builtin_cpu_supports, as the MLP kernel, the fold, the chunk CRC, \
ChaCha20 and SHA-256 do)" \
    "$hits"
fi

if [[ $failures -gt 0 ]]; then
  echo "check_invariants: $failures violation(s)" >&2
  exit 1
fi
echo "check_invariants: OK"
