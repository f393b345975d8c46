#pragma once
// Randomized FSM workload harness (MongoDB's fsm_workloads pattern in C++).
//
// Every concurrency bug this repo has shipped fixes for (PR 2's
// reduce-vs-enqueue and slot-collision races, PR 7's session-token race) was
// found by a hand-written hammer — one interleaving someone thought to
// write.  This harness generates the interleavings instead: a Workload is a
// small state machine (named states, weighted transitions, an action per
// state) over the coordinator/aggregator/SecAgg surface; run_workload()
// drives N actor instances of it concurrently on M threads under a seeded
// scheduler, checking invariants after every step and at quiesce barriers.
//
// Determinism contract: every draw flows through util::StreamRng streams
// keyed (seed, actor, purpose) via sim::SimStreams — the transition chosen
// at (actor, step) is a pure function of the seed, never of thread
// interleaving.  The step log (one line of state names per actor) is
// therefore byte-identical across runs of the same seed, and any failure
// replays from the printed `--seed=S --steps=K --workload=W` repro line
// (fsm/repro.hpp).  Shared-state *outcomes* (which session expired first,
// which epoch a contribution landed in) still vary across runs — that is
// the point — but invariants must hold on every schedule.

#include <atomic>
#include <cstdint>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "util/rng.hpp"
#include "util/sync.hpp"

namespace papaya::fsm {

class Scenario;

/// One invariant violation, pinned to (workload, actor, step) so the log
/// shows *where* in the trajectory the machine broke.
struct InvariantFailure {
  std::string workload;
  std::uint64_t actor = 0;
  std::uint64_t step = 0;
  std::string message;
};

/// Thread-safe sink for invariant violations; independent root lock (held
/// only around the vector, never while calling into fl:: code).
class InvariantCollector {
 public:
  void fail(std::string workload, std::uint64_t actor, std::uint64_t step,
            std::string message);

  bool any_failure() const { return any_.load(std::memory_order_acquire); }
  std::vector<InvariantFailure> failures() const;

 private:
  mutable util::Mutex mutex_;
  std::vector<InvariantFailure> failures_ PAPAYA_GUARDED_BY(mutex_);
  std::atomic<bool> any_{false};
};

/// What a state action sees: who/when, the payload stream for its own
/// draws, and the scenario hooks.
struct StepContext {
  std::uint64_t actor = 0;
  std::uint64_t step = 0;
  util::StreamRng* payload_rng = nullptr;
  util::StreamRng* scenario_rng = nullptr;
  const Scenario* scenario = nullptr;
  InvariantCollector* invariants = nullptr;
  std::string workload;

  /// Payload draws (values, sizes, picks).  Variable draw *counts* here are
  /// fine — the transition choice lives on a separate stream.
  util::StreamRng& rng() { return *payload_rng; }

  /// Scenario hooks (see fsm/scenario.hpp for the determinism contract).
  bool partitioned(std::size_t node) const;
  bool byzantine();

  /// Record an invariant violation unless `ok`.
  void check(bool ok, const std::string& message);
};

/// One named state: an action plus weighted transitions to successor
/// states.  Weights are relative (they need not normalize).
struct StateDef {
  std::string name;
  std::function<void(StepContext&)> action;
  std::vector<std::pair<std::string, double>> transitions;
};

/// A workload owns the system under test (sessions, coordinator, shards,
/// SecAgg manager) shared by all its actors.  Actions run concurrently, so
/// per-actor bookkeeping belongs in per-actor slots and anything shared
/// must be internally synchronized.
class Workload {
 public:
  virtual ~Workload() = default;

  virtual std::string name() const = 0;
  virtual std::vector<StateDef> states() = 0;
  virtual std::string initial_state() const = 0;

  /// Cheap per-step invariant hook, called right after the state action.
  virtual void check_step(StepContext& ctx) { (void)ctx; }

  /// Quiesce-point invariant hook: every actor thread is joined, so the
  /// workload may take global locks, drain pipelines, and assert exact
  /// conservation.  `step` is the number of steps each actor has completed.
  virtual void check_quiesce(std::uint64_t step,
                             InvariantCollector& invariants) {
    (void)step;
    (void)invariants;
  }
};

struct HarnessOptions {
  std::uint64_t seed = 1;
  std::size_t actors = 4;
  std::size_t threads = 0;      ///< 0: one thread per actor
  std::uint64_t steps = 200;    ///< per actor
  std::uint64_t quiesce_every = 64;
  const Scenario* scenario = nullptr;  ///< nullptr: NullScenario
};

struct HarnessResult {
  std::string workload;
  HarnessOptions options;
  std::uint64_t steps_run = 0;  ///< per actor (may stop early on failure)
  std::vector<InvariantFailure> failures;
  /// Header + one line of chosen state names per actor; byte-identical
  /// across runs of the same seed (the acceptance-criteria artifact).
  std::string step_log;

  bool ok() const { return failures.empty(); }
  /// The one-line replay command for this run.
  std::string repro_line() const;
  /// Failures + repro line, for EXPECT_TRUE(result.ok()) << result.summary().
  std::string summary() const;
};

/// Drive `workload` under `options`.  On invariant failure the run stops at
/// the next step/quiesce boundary and the repro line is printed to stderr.
HarnessResult run_workload(Workload& workload, const HarnessOptions& options);

}  // namespace papaya::fsm
