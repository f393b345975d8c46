#pragma once
// Concrete FSM workloads over the coordinator/aggregator/SecAgg surface.
//
// Each workload owns one shared system-under-test plus per-actor slots; N
// harness actors drive it concurrently (fsm/workload.hpp).  The invariants
// each one carries are the ones the repo's hand-written hammers check at a
// single point — here they are checked continuously, under randomized
// interleavings and injected scenarios:
//
//   SessionChurnWorkload       token uniqueness, forward-only stages
//                              (pairs with diurnal availability waves)
//   CoordinatorFailoverWorkload routing-table consistency and
//                              checkpoint-version monotonicity under
//                              failover/adopt/reshard (pairs with partitions)
//   ShardedAggWorkload         update conservation across shards and
//                              concurrent reduces (pairs with straggler
//                              storms)
//   SecAggFloodWorkload        accept/reject accounting under malformed
//                              floods (pairs with byzantine scenarios)

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <unordered_set>
#include <vector>

#include "fl/coordinator.hpp"
#include "fl/secure_buffer.hpp"
#include "fl/session.hpp"
#include "fl/sharded_agg.hpp"
#include "fsm/workload.hpp"
#include "util/sync.hpp"

namespace papaya::fsm {

/// Open/touch/advance/upload/complete/abort/expire/prune churn against one
/// shared VirtualSessionManager.  Invariants: every open() returns a
/// globally fresh token; a successful advance never observes the session
/// before its target stage; the table never holds more sessions than were
/// opened.
class SessionChurnWorkload final : public Workload {
 public:
  explicit SessionChurnWorkload(std::size_t actors);

  std::string name() const override { return "session_churn"; }
  std::string initial_state() const override { return "open"; }
  std::vector<StateDef> states() override;
  void check_quiesce(std::uint64_t step,
                     InvariantCollector& invariants) override;

 private:
  double tick();
  void drop(std::size_t actor, std::size_t index);

  struct ActorSlot {
    std::vector<std::uint64_t> tokens;  ///< live sessions this actor drives
    std::uint64_t opened = 0;
  };

  fl::VirtualSessionManager manager_;
  std::atomic<std::uint64_t> clock_{0};
  std::atomic<std::uint64_t> opened_total_{0};
  mutable util::Mutex token_mutex_;
  std::unordered_set<std::uint64_t> seen_tokens_ PAPAYA_GUARDED_BY(token_mutex_);
  std::vector<ActorSlot> slots_;
};

/// Submit/heartbeat/detect/assign/reshard/adopt/recover/remove churn against
/// one Coordinator with a small aggregator fleet.  Every mutation goes
/// through Coordinator APIs (the Aggregator objects are never touched
/// directly — they are not internally locked).  Invariants, via
/// Coordinator::inspect(): routing entries target live registered
/// aggregators and agree with the task table; unowned tasks are unroutable;
/// the map version is monotone; a task's model version never drops below
/// the floor its last (re)submission established — failover and
/// total-outage orphaning must preserve checkpoints.
class CoordinatorFailoverWorkload final : public Workload {
 public:
  struct Config {
    std::size_t aggregators = 3;
    std::size_t max_tasks_per_actor = 4;
    std::size_t max_adopted_per_actor = 3;
    double heartbeat_timeout = 30.0;
    std::size_t model_size = 8;
  };

  explicit CoordinatorFailoverWorkload(std::size_t actors);
  CoordinatorFailoverWorkload(std::size_t actors, Config config);

  std::string name() const override { return "coordinator_failover"; }
  std::string initial_state() const override { return "submit"; }
  std::vector<StateDef> states() override;
  void check_quiesce(std::uint64_t step,
                     InvariantCollector& invariants) override;

 private:
  double tick();
  fl::TaskConfig make_task(const std::string& task, std::size_t shards) const;
  void set_floor(const std::string& task, std::uint64_t floor);
  void erase_floor(const std::string& task);

  struct ActorSlot {
    std::vector<std::string> owned;
    std::vector<std::string> adopted;
    std::uint64_t next_id = 0;
  };

  Config config_;
  std::vector<std::unique_ptr<fl::Aggregator>> aggregators_;
  fl::Coordinator coordinator_;
  std::atomic<std::uint64_t> clock_{0};
  std::atomic<std::uint64_t> heartbeat_seq_{0};
  std::uint64_t last_map_version_ = 0;  ///< quiesce-only (threads joined)
  mutable util::Mutex floors_mutex_;
  /// Version floor per task: the initial_version of its last (re)submit.
  std::map<std::string, std::uint64_t> version_floors_
      PAPAYA_GUARDED_BY(floors_mutex_);
  std::vector<ActorSlot> slots_;
};

/// Enqueue/burst/reduce/drain churn against one ShardedAggregator.
/// Invariants: exact update-count and integer-weight conservation across
/// shards and concurrent reduces; per-shard enqueued == folded + dropped,
/// with nothing dropped, after a quiesce drain.
class ShardedAggWorkload final : public Workload {
 public:
  struct Config {
    std::size_t model_size = 16;
    std::size_t shards = 3;
  };

  explicit ShardedAggWorkload(std::size_t actors);
  ShardedAggWorkload(std::size_t actors, Config config);

  std::string name() const override { return "sharded_agg"; }
  std::string initial_state() const override { return "enqueue"; }
  std::vector<StateDef> states() override;
  void check_quiesce(std::uint64_t step,
                     InvariantCollector& invariants) override;

 private:
  void enqueue_one(StepContext& ctx);
  void credit_reduce(const fl::ParallelAggregator::Reduced& reduced);

  fl::ShardedAggregator agg_;
  std::size_t model_size_;
  std::atomic<std::uint64_t> enqueued_{0};
  std::atomic<std::uint64_t> enqueued_weight_units_{0};
  std::atomic<std::uint64_t> reduced_{0};
  std::atomic<std::uint64_t> reduced_weight_units_{0};
};

/// Contribute/finalize/probe churn against one SecureBufferManager, with
/// the scenario flipping contributions malformed (tampered sealed seeds, or
/// masked updates of the wrong length).  Invariants, via accounting():
/// every submission is accepted, rejected or wrong-epoch (no drift), and
/// malformed contributions are never accepted.
class SecAggFloodWorkload final : public Workload {
 public:
  struct Config {
    std::size_t model_size = 8;
    std::size_t goal = 6;
    std::uint64_t seed = 0x5ecf100dULL;
  };

  explicit SecAggFloodWorkload(std::size_t actors);
  SecAggFloodWorkload(std::size_t actors, Config config);

  std::string name() const override { return "secagg_flood"; }
  std::string initial_state() const override { return "contribute"; }
  std::vector<StateDef> states() override;
  void check_quiesce(std::uint64_t step,
                     InvariantCollector& invariants) override;

  std::uint64_t valid_submitted() const { return valid_.load(); }
  std::uint64_t malformed_submitted() const { return malformed_.load(); }
  std::uint64_t wrong_length_submitted() const {
    return wrong_length_.load();
  }

 private:
  fl::SecureBufferManager manager_;
  std::size_t model_size_;
  std::atomic<std::uint64_t> submitted_{0};
  std::atomic<std::uint64_t> valid_{0};
  std::atomic<std::uint64_t> malformed_{0};
  std::atomic<std::uint64_t> wrong_length_{0};
  std::atomic<std::uint64_t> finalized_{0};
};

}  // namespace papaya::fsm
