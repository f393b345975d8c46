#pragma once
// The Aggregator server component (Secs. 4, 6.3, App. E).
//
// Persistent and stateful: tasks are assigned to it by the Coordinator and
// stay for the life of the task (apart from failures).  For each task it
//  - serves the current model to joining clients,
//  - buffers client updates (through the sharded parallel aggregation
//    pipeline of Sec. 6.3: TaskConfig::aggregator_shards consistent-hashed
//    worker pools per task) until the aggregation goal is reached,
//  - performs the server optimizer step (FedAdam) and bumps the version,
//  - enforces max concurrency, client timeouts, staleness aborts (App. E.1,
//    E.2), and the SyncFL round/over-selection semantics (App. E.3),
//  - tracks client demand and reports it for the Coordinator's consolidated
//    view (Sec. 6.2).

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "fl/model_update.hpp"
#include "fl/sharded_agg.hpp"
#include "fl/secure_buffer.hpp"
#include "fl/task.hpp"
#include "ml/optimizer.hpp"
#include "util/rng.hpp"

namespace papaya::fl {

/// Why a client's participation ended, from the Aggregator's perspective.
enum class ReportOutcome {
  kAccepted,              ///< update buffered (counts toward the goal)
  kDiscardedOverSelection,///< SyncFL: round already closed; update discarded
  kDiscardedStale,        ///< AsyncFL: staleness above the configured max
  /// Client not in the active set (aborted/expired), or a malformed report
  /// it made: a plaintext delta whose length is not the task's model size,
  /// or a masked contribution the secure path refused.
  kRejectedUnknown,
  kRejectedTimeout,       ///< report arrived after the client's deadline
};

struct JoinResult {
  bool accepted = false;
  std::uint64_t model_version = 0;
};

struct ReportResult {
  ReportOutcome outcome = ReportOutcome::kRejectedUnknown;
  /// True when this report completed an aggregation goal and the server
  /// model was updated.
  bool server_stepped = false;
  /// Clients aborted as a consequence (SyncFL: over-selected still-running
  /// clients at round close; AsyncFL: clients whose staleness bound is now
  /// violated, App. E.2).
  std::vector<std::uint64_t> aborted_clients;
};

/// Aggregate counters for the evaluation section's metrics.
struct TaskStats {
  std::uint64_t updates_received = 0;   ///< "communication trips" (Fig. 3/9)
  std::uint64_t updates_applied = 0;
  std::uint64_t updates_discarded = 0;  ///< over-selection + staleness drops
  std::uint64_t server_steps = 0;
  std::uint64_t clients_aborted = 0;
  std::uint64_t clients_failed = 0;
};

class Aggregator {
 public:
  /// `num_threads` sizes each aggregation shard's worker pool (Sec. 6.3);
  /// the shard count itself is per-task (TaskConfig::aggregator_shards).
  Aggregator(std::string id, std::size_t num_threads = 2);

  const std::string& id() const { return id_; }

  // -- Task lifecycle (Coordinator-driven) ---------------------------------

  void assign_task(const TaskConfig& config, std::vector<float> initial_model,
                   ml::ServerOptimizerConfig server_opt,
                   std::uint64_t initial_version = 0);

  /// Model + version checkpoint, moved when a task is reassigned after an
  /// Aggregator failure (App. E.4).  Optimizer moments are soft state and
  /// are rebuilt on the new Aggregator.
  struct TaskCheckpoint {
    std::vector<float> model;
    std::uint64_t version = 0;
  };
  /// Remove a task and return its checkpoint (for reassignment).
  TaskCheckpoint remove_task(const std::string& task);
  bool has_task(const std::string& task) const;
  std::vector<std::string> task_names() const;

  // -- Client participation protocol (Sec. 6.1) ----------------------------

  /// A selected client checks in; accepted iff the task has positive demand.
  JoinResult client_join(const std::string& task, std::uint64_t client_id,
                         double now);

  /// Download stage: current model parameters.
  const std::vector<float>& model(const std::string& task) const;
  std::uint64_t model_version(const std::string& task) const;

  /// Upload stage: a client reports its (serialized) update.
  ReportResult client_report(const std::string& task,
                             const util::Bytes& serialized_update, double now);

  // -- Secure upload path (Sec. 5; used when TaskConfig::secagg_enabled) ---

  /// Report stage under SecAgg: the server hands the client the upload +
  /// SecAgg configuration for the current masking epoch (Sec. 6.1 stage 3).
  std::optional<SecureUploadConfig> secure_upload_config(
      const std::string& task);

  /// The attestation verifier (vendor collateral) clients check quotes
  /// against.
  const secagg::SimulatedEnclavePlatform& secure_platform(
      const std::string& task) const;

  /// Upload stage under SecAgg: a masked contribution plus public metadata.
  /// Same admission semantics as client_report; the Aggregator never sees
  /// the plaintext update.
  ReportResult client_report_secure(const std::string& task,
                                    const SecureReport& report, double now);

  /// The weight the secure path applies for a client (clients pre-scale
  /// before masking, so it must be computable client-side: example
  /// weighting only).
  double secure_update_weight(const std::string& task,
                              std::size_t num_examples) const;

  /// The client dropped out (device lost eligibility, network, crash).
  void client_failed(const std::string& task, std::uint64_t client_id,
                     double now);

  /// Abort clients whose deadline has passed (server-side timeout sweep).
  std::vector<std::uint64_t> expire_timeouts(const std::string& task,
                                             double now);

  // -- Demand + reporting (Sec. 6.2) ---------------------------------------

  /// Client demand for the task (App. E.3): async demand is
  /// concurrency - active; sync demand is cohort - completed - active,
  /// within the current round.
  std::int64_t client_demand(const std::string& task) const;

  std::size_t active_clients(const std::string& task) const;
  const TaskStats& stats(const std::string& task) const;

  /// Aggregation shards actually instantiated for the task (normalized
  /// TaskConfig::aggregator_shards; tests assert this survives failover).
  std::size_t task_shards(const std::string& task) const;

  /// Fold strategy the task was registered with (validated
  /// TaskConfig::aggregation_strategy; kAuto means per-shard adaptive).
  AggStrategy task_strategy(const std::string& task) const;

  /// Estimated total workload across assigned tasks (for Coordinator
  /// placement decisions).
  double estimated_workload() const;

  /// Monotone sequence number for Coordinator reports (stale-assignment
  /// detection, App. E.4).
  std::uint64_t next_report_sequence() { return ++report_sequence_; }

 private:
  struct ActiveClient {
    std::uint64_t initial_version = 0;
    double deadline = 0.0;
  };

  struct TaskState {
    TaskConfig config;
    std::vector<float> model;
    std::uint64_t version = 0;
    std::unique_ptr<ml::ServerOptimizer> server_opt;
    std::unique_ptr<ShardedAggregator> pipeline;

    std::map<std::uint64_t, ActiveClient> active;
    std::size_t buffered = 0;             ///< updates counted toward the goal
    std::size_t completed_this_round = 0; ///< SyncFL only
    TaskStats stats;
    util::Rng dp_rng{0};                  ///< Gaussian-mechanism noise source
    std::unique_ptr<SecureBufferManager> secure;  ///< when secagg_enabled
  };

  TaskState& state(const std::string& task);
  const TaskState& state(const std::string& task) const;

  /// Perform the server optimizer step from the drained buffer.
  void server_step(TaskState& ts);
  /// Shared tail of both server-step paths: DP noise, optimizer, version.
  void apply_step(TaskState& ts, std::vector<float> mean_delta,
                  std::size_t count);

  /// Post-step abort pass; returns aborted client ids.
  std::vector<std::uint64_t> abort_after_step(TaskState& ts);

  std::string id_;
  std::size_t num_threads_;
  std::map<std::string, TaskState> tasks_;
  std::uint64_t report_sequence_ = 0;
};

}  // namespace papaya::fl
