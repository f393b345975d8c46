#pragma once
// The Coordinator server component (Secs. 4, 6.1–6.3, App. E.4).
//
// There is exactly one Coordinator.  It (1) places tasks onto Aggregators by
// estimated workload and moves them on failure, (2) pools client demand from
// Aggregator reports into a consolidated view and assigns clients to eligible
// tasks at random, explicitly accounting for assigned-but-unconfirmed
// clients, and (3) detects Aggregator failures via missed heartbeats,
// reassigning their tasks and bumping the assignment-map version that
// Selectors cache.
//
// Aggregators are registered as non-owning references: in production these
// are RPC channels; in this repository the simulator owns the Aggregator
// objects and the Coordinator talks to them directly.

#include <cstdint>
#include <map>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "fl/aggregator.hpp"
#include "fl/task.hpp"
#include "util/rng.hpp"
#include "util/sync.hpp"

namespace papaya::fl {

/// The task -> aggregator routing table distributed to Selectors.
struct AssignmentMap {
  std::uint64_t version = 0;
  std::map<std::string, std::string> task_to_aggregator;
};

/// One task's entry in an Aggregator's periodic report.
struct TaskReport {
  std::string task;
  std::int64_t demand = 0;
  std::uint64_t model_version = 0;
};

/// What a client is told after selection.
struct ClientAssignment {
  std::string task;
  std::string aggregator_id;
};

/// A client's capabilities, matched against TaskConfig::required_capability.
struct ClientCapabilities {
  std::vector<std::string> capabilities;

  bool matches(const std::string& required) const {
    if (required.empty()) return true;
    for (const auto& c : capabilities) {
      if (c == required) return true;
    }
    return false;
  }
};

class Coordinator {
 public:
  explicit Coordinator(std::uint64_t seed = 0);

  // -- Aggregator fleet ----------------------------------------------------

  void register_aggregator(Aggregator& aggregator, double now);

  /// Periodic Aggregator report (heartbeat + per-task demand).  Reports with
  /// a sequence number older than the last seen are ignored (App. E.4:
  /// stale-assignment detection via sequence numbers).
  void aggregator_report(const std::string& aggregator_id,
                         std::uint64_t sequence, double now,
                         const std::vector<TaskReport>& reports);

  /// Detect aggregators whose last heartbeat is older than `timeout` and
  /// reassign their tasks (Sec. 6.3, App. E.4).  Returns the ids of the
  /// aggregators declared failed.  Total outage (no live replacement) does
  /// not throw: the task is *orphaned* — its checkpoint is held, it leaves
  /// the routing map, and the next aggregator registration or resurrecting
  /// heartbeat re-places it at the exact checkpointed version.
  std::vector<std::string> detect_failures(double now, double timeout);

  // -- Task lifecycle ------------------------------------------------------

  /// Place a new task on the least-loaded live Aggregator.  A nonzero
  /// `initial_version` restores a checkpointed task (leader failover).
  void submit_task(const TaskConfig& config, std::vector<float> initial_model,
                   ml::ServerOptimizerConfig server_opt,
                   std::uint64_t initial_version = 0);
  void remove_task(const std::string& task);

  /// Register task metadata *without* placing it on an Aggregator: a newly
  /// elected leader adopts the durable task store this way, then
  /// recover_from_aggregator_state() discovers which Aggregator actually
  /// runs each task (App. E.4).  Demand starts at zero until reports
  /// arrive, and the task is *ineligible for client assignment* until an
  /// owner is known — either via recovery or via the first report from the
  /// Aggregator actually running it — so an assignment can never point at
  /// the empty-string aggregator.
  void adopt_task(const TaskConfig& config,
                  ml::ServerOptimizerConfig server_opt);

  /// Point-in-time copy of the routing table.  By value: the Coordinator is
  /// internally locked, and a reference into it would race placement and
  /// failover updates (Selectors cache their own copy anyway).
  AssignmentMap assignment_map() const {
    util::LockGuard lock(mutex_);
    return map_;
  }

  /// Aggregation shard count the Coordinator tracks for a task (normalized
  /// TaskConfig::aggregator_shards; 0 for unknown tasks).  Placement,
  /// failover and recovery all preserve it.
  std::size_t task_shards(const std::string& task) const;

  // -- Client assignment (Sec. 6.2) ----------------------------------------

  /// Assign an available client to a random eligible task (capability match
  /// + positive remaining demand).  Counts the assignment as pending until
  /// confirmed or abandoned.
  std::optional<ClientAssignment> assign_client(const ClientCapabilities& caps);

  /// The client's join attempt concluded (accepted or rejected); release the
  /// pending slot.
  void assignment_concluded(const std::string& task);

  /// Consolidated demand view (reported demand minus pending assignments).
  std::int64_t pooled_demand(const std::string& task) const;

  // -- Failure recovery (App. E.4) -----------------------------------------

  /// Simulate Coordinator failure + leader re-election: wipe soft state and
  /// rebuild the assignment map from Aggregator task lists, as the recovery
  /// period does in production.
  void recover_from_aggregator_state(double now);

  // -- Invariant inspection (test hook) ------------------------------------

  /// Point-in-time snapshot of Coordinator internals, taken under one lock
  /// hold, for the FSM workload harness's invariant layer (routing-table
  /// consistency, checkpoint-version monotonicity).  Reads each owning
  /// Aggregator's model version under mutex_ — legal exactly when every
  /// Aggregator mutation goes through Coordinator APIs (the harness
  /// discipline; Aggregator itself is not internally locked).
  struct Inspection {
    struct TaskView {
      std::string aggregator_id;  ///< empty: unowned (adopted or orphaned)
      bool orphaned = false;      ///< holding a checkpoint, awaiting placement
      std::int64_t reported_demand = 0;
      std::int64_t pending_assignments = 0;
      /// Owner's live version, or the orphan checkpoint's version; 0 for
      /// adopted tasks whose owner is still unknown.
      std::uint64_t model_version = 0;
    };
    std::uint64_t map_version = 0;
    std::map<std::string, std::string> task_to_aggregator;
    std::set<std::string> registered_aggregators;
    std::set<std::string> live_aggregators;
    std::map<std::string, TaskView> tasks;
  };
  Inspection inspect() const;

 private:
  struct AggregatorEntry {
    Aggregator* aggregator = nullptr;  // non-owning
    double last_heartbeat = 0.0;
    std::uint64_t last_sequence = 0;
    bool alive = true;
  };

  struct TaskEntry {
    TaskConfig config;
    ml::ServerOptimizerConfig server_opt;
    std::string aggregator_id;
    std::int64_t reported_demand = 0;
    std::int64_t pending_assignments = 0;
    /// Set while the task has no live owner after a total-outage failover:
    /// the checkpoint pulled off the failed Aggregator, preserved so the
    /// next placement resumes from the exact pre-failure version.
    std::optional<Aggregator::TaskCheckpoint> orphan_checkpoint;
  };

  /// Least-loaded live aggregator by estimated workload.
  Aggregator* pick_aggregator() PAPAYA_REQUIRES(mutex_);

  /// Re-place orphaned tasks onto live aggregators (called when an
  /// aggregator registers or a dead one's heartbeat resumes).  Returns the
  /// number placed; bumps the map version when any were.
  std::size_t place_orphans() PAPAYA_REQUIRES(mutex_);

  /// Guards all Coordinator soft state.  Hierarchy (util/sync.hpp): held
  /// *above* the aggregation locks — placement and failover call into
  /// Aggregator task assignment/removal, which constructs or tears down
  /// ParallelAggregator shards and their queue_mutex_.  Aggregator code never
  /// calls back into the Coordinator, so the order is acyclic.
  mutable util::Mutex mutex_;
  util::Rng rng_ PAPAYA_GUARDED_BY(mutex_);
  std::map<std::string, AggregatorEntry> aggregators_ PAPAYA_GUARDED_BY(mutex_);
  std::map<std::string, TaskEntry> tasks_ PAPAYA_GUARDED_BY(mutex_);
  AssignmentMap map_ PAPAYA_GUARDED_BY(mutex_);
};

}  // namespace papaya::fl
