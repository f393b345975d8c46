#pragma once
// FL task configuration (Secs. 6, 7.1, App. E).
//
// A *task* is one federated training job: a model, a training mode, and the
// knobs the paper exposes.  PAPAYA supports switching between SyncFL and
// AsyncFL "via a configuration change" (App. E.3) — here that is literally
// the `mode` field; everything else in the server honours it.

#include <cstdint>
#include <string>

#include "fl/model_update.hpp"

namespace papaya::fl {

enum class TrainingMode {
  kSync,   ///< rounds + (optional) over-selection, cohort semantics
  kAsync,  ///< FedBuff: buffered asynchronous aggregation
};

struct TaskConfig {
  std::string name;
  TrainingMode mode = TrainingMode::kAsync;

  /// Maximum number of concurrently participating devices (App. E.1).  For
  /// SyncFL this is the (over-selected) cohort size.
  std::size_t concurrency = 100;

  /// Aggregation goal K: client updates buffered before a server step.  For
  /// SyncFL with over-selection this is less than `concurrency`; the paper
  /// uses concurrency = 1.3 * goal (30% over-selection).
  std::size_t aggregation_goal = 10;

  /// Client-side training timeout (the paper sets 4 minutes).
  double client_timeout_s = 240.0;

  /// AsyncFL: clients whose staleness would exceed this are aborted after
  /// each server model update (App. E.1, E.2).
  std::uint64_t max_staleness = 100;

  /// Number of model parameters; with `concurrency` this drives the
  /// Coordinator's workload estimate for task placement (Sec. 6.3).
  std::size_t model_size = 0;

  /// Aggregation shards for this task (Sec. 6.3): client update streams are
  /// consistent-hashed onto this many independent ParallelAggregator shards,
  /// each one queue, one worker thread and one intermediate, with a
  /// cross-shard reduce at each server step.  This is the fold's only
  /// parallelism.  1 (or 0, normalized to 1) keeps a single shard.
  std::size_t aggregator_shards = 1;

  /// Read by nothing in src/: each SecAgg contribution crosses to the TSA
  /// on its own as it arrives, and the plaintext path folds each update as
  /// it arrives.  It remains because benchmark/workloads.cpp still assigns
  /// it.
  std::size_t aggregation_batch_size = 1;

  /// Pipelined client runtime (Sec. 6.1): overlap local training,
  /// incremental update serialization, and chunked upload on each device,
  /// so per-client round latency becomes ~max(train, serialize + first
  /// chunk) + the residual upload tail instead of the stage sum.  The
  /// pipelined latency model is observational by design (like ModelStore
  /// metering): it changes per-client latency and device-busy accounting
  /// but provably cannot perturb training dynamics — with the same seed, a
  /// simulation produces bit-identical model trajectories with this knob
  /// on or off (equivalence suite in tests/sim_test.cpp).  Default off =
  /// bit-identical behaviour AND metrics to the sequential runtime.
  bool pipelined_clients = false;

  /// Closed-loop client scheduling: the pipelined runtime's completion
  /// time becomes the *actual* upload-arrival event — the report lands when
  /// the last chunk's upload finishes under the overlapped schedule
  /// (PipelinedClientSession::finish_time), instead of at the open-loop
  /// sequential charge (download + train + upload).  With the knob on,
  /// aggregation-goal waits, SecAgg epoch releases, and round cadence
  /// respond to real client latency — updates arrive *earlier* when the
  /// pipeline overlaps stages, so the simulated clock is honest about what
  /// the protocol would actually observe.  Changes *when* updates
  /// arrive, never *what* a client draws: the simulator's per-entity RNG
  /// streams make every device's draw sequence schedule-independent, and
  /// the simulator forces `pipelined_clients` on.  Default off = the
  /// observational open-loop model.
  bool closed_loop_clients = false;

  /// Whether updates travel through Asynchronous SecAgg.
  bool secagg_enabled = false;

  /// FedBuff weighting ablations (Sec. 3.1 / App. E.2): the paper weights
  /// each update by example count and by 1/sqrt(1 + staleness).  These
  /// default on; benches switch them off to quantify each choice.
  bool example_weighting = true;
  bool staleness_weighting = true;

  /// Which staleness down-weighting family applies when
  /// `staleness_weighting` is on (App. E.2 default: inverse-sqrt).
  StalenessScheme staleness_scheme = StalenessScheme::kInverseSqrt;
  StalenessParams staleness_params;

  /// Central differential privacy (the paper's stated future-work
  /// extension): per-update L2 clipping plus Gaussian noise on the
  /// aggregated mean delta.  noise stddev = noise_multiplier * clip_norm /
  /// aggregation_goal (the Gaussian mechanism on a mean of clipped
  /// updates).
  struct DifferentialPrivacy {
    bool enabled = false;
    float clip_norm = 1.0f;
    float noise_multiplier = 0.0f;
  };
  DifferentialPrivacy dp;

  /// Device capability tag a client must match to be eligible (Sec. 6.2
  /// "task eligibility"); empty = any client.
  std::string required_capability;

  /// Coordinator workload estimate (Sec. 6.3: "estimates this workload using
  /// the task concurrency and model size").  Deliberately independent of
  /// `aggregator_shards`: all of a task's shards run in-process on the one
  /// owning Aggregator, so sharding shortens the wall-clock of each reduce
  /// but does not shrink the host's total fold work — dividing by the shard
  /// count here would under-report load on exactly the busiest host.
  double estimated_workload() const {
    return static_cast<double>(concurrency) * static_cast<double>(model_size);
  }

  /// Helper: SyncFL cohort sizing with over-selection factor `o` around an
  /// aggregation goal (concurrency = goal * (1 + o), rounded).
  static std::size_t over_selected_cohort(std::size_t goal, double o) {
    return static_cast<std::size_t>(static_cast<double>(goal) * (1.0 + o) + 0.5);
  }
};

}  // namespace papaya::fl
