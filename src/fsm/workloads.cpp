#include "fsm/workloads.hpp"

#include <cmath>
#include <stdexcept>
#include <string>

#include "fl/model_update.hpp"
#include "fsm/scenario.hpp"

namespace papaya::fsm {

namespace {

/// Shared transition menu: every state can follow every state; the weights
/// shape the mix (MongoDB's $config transition tables do the same, per
/// state — here one menu per workload keeps the tables readable).
std::vector<std::pair<std::string, double>> menu(
    std::initializer_list<std::pair<const char*, double>> entries) {
  std::vector<std::pair<std::string, double>> out;
  for (const auto& [name, weight] : entries) out.emplace_back(name, weight);
  return out;
}

}  // namespace

// ---------------------------------------------------------------------------
// SessionChurnWorkload
// ---------------------------------------------------------------------------

namespace {
constexpr double kSessionTick = 0.5;
constexpr std::size_t kMaxTokensPerActor = 24;
constexpr double kSessionTtl = 50.0;
constexpr double kSessionRetention = 50.0;
}  // namespace

SessionChurnWorkload::SessionChurnWorkload(std::size_t actors)
    : manager_(fl::VirtualSessionManager::Options{kSessionTtl, 2},
               /*seed=*/0x5e5510ULL),
      slots_(actors) {}

double SessionChurnWorkload::tick() {
  return kSessionTick *
         static_cast<double>(clock_.fetch_add(1, std::memory_order_relaxed));
}

void SessionChurnWorkload::drop(std::size_t actor, std::size_t index) {
  auto& tokens = slots_[actor].tokens;
  tokens[index] = tokens.back();
  tokens.pop_back();
}

std::vector<StateDef> SessionChurnWorkload::states() {
  const auto transitions = menu({{"open", 3.0},
                                 {"touch", 3.0},
                                 {"advance", 2.5},
                                 {"chunk", 2.0},
                                 {"complete", 1.0},
                                 {"abort_one", 1.0},
                                 {"expire", 0.5},
                                 {"prune", 0.5}});
  std::vector<StateDef> states;

  states.push_back({"open",
                    [this](StepContext& ctx) {
                      auto& slot = slots_[ctx.actor];
                      const std::uint64_t client =
                          (ctx.actor << 32) | slot.opened;
                      const std::uint64_t token = manager_.open(client, tick());
                      ++slot.opened;
                      opened_total_.fetch_add(1, std::memory_order_relaxed);
                      bool fresh;
                      {
                        util::LockGuard lock(token_mutex_);
                        fresh = seen_tokens_.insert(token).second;
                      }
                      ctx.check(fresh, "open() returned a token that an "
                                       "earlier open() already handed out");
                      slot.tokens.push_back(token);
                      if (slot.tokens.size() > kMaxTokensPerActor) {
                        manager_.complete(slot.tokens.front(), tick());
                        slot.tokens.erase(slot.tokens.begin());
                      }
                    },
                    transitions});

  states.push_back({"touch",
                    [this](StepContext& ctx) {
                      auto& slot = slots_[ctx.actor];
                      if (slot.tokens.empty()) return;
                      const std::size_t i = static_cast<std::size_t>(
                          ctx.rng().uniform_int(slot.tokens.size()));
                      const auto outcome =
                          manager_.touch(slot.tokens[i], tick());
                      if (outcome != fl::SessionOutcome::kOk) {
                        drop(ctx.actor, i);
                      }
                    },
                    transitions});

  states.push_back(
      {"advance",
       [this](StepContext& ctx) {
         auto& slot = slots_[ctx.actor];
         if (slot.tokens.empty()) return;
         const std::size_t i = static_cast<std::size_t>(
             ctx.rng().uniform_int(slot.tokens.size()));
         const std::uint64_t token = slot.tokens[i];
         const int target = 1 + static_cast<int>(ctx.rng().uniform_int(5));
         const auto stage = static_cast<fl::SessionStage>(target);
         const auto outcome = manager_.advance(token, stage, tick());
         if (outcome == fl::SessionOutcome::kOk) {
           // Forward-only means monotone: once advance succeeded, no later
           // observation may sit before the target (a concurrent expire may
           // have pushed it *past*, to kAborted; a concurrent prune may have
           // dropped the then-terminal record entirely).
           const auto info = manager_.lookup(token);
           ctx.check(!info.has_value() ||
                         static_cast<int>(info->stage) >= target,
                     "advance() returned kOk but the session moved backwards");
           if (stage == fl::SessionStage::kCompleted) drop(ctx.actor, i);
         } else if (outcome != fl::SessionOutcome::kOutOfOrder) {
           drop(ctx.actor, i);
         }
       },
       transitions});

  states.push_back({"chunk",
                    [this](StepContext& ctx) {
                      auto& slot = slots_[ctx.actor];
                      if (slot.tokens.empty()) return;
                      const std::size_t i = static_cast<std::size_t>(
                          ctx.rng().uniform_int(slot.tokens.size()));
                      const auto outcome =
                          manager_.record_chunk(slot.tokens[i], tick());
                      if (outcome != fl::SessionOutcome::kOk) {
                        drop(ctx.actor, i);
                      }
                    },
                    transitions});

  states.push_back({"complete",
                    [this](StepContext& ctx) {
                      auto& slot = slots_[ctx.actor];
                      if (slot.tokens.empty()) return;
                      const std::size_t i = static_cast<std::size_t>(
                          ctx.rng().uniform_int(slot.tokens.size()));
                      manager_.complete(slot.tokens[i], tick());
                      drop(ctx.actor, i);
                    },
                    transitions});

  states.push_back({"abort_one",
                    [this](StepContext& ctx) {
                      auto& slot = slots_[ctx.actor];
                      if (slot.tokens.empty()) return;
                      const std::size_t i = static_cast<std::size_t>(
                          ctx.rng().uniform_int(slot.tokens.size()));
                      manager_.abort(slot.tokens[i], tick());
                      drop(ctx.actor, i);
                    },
                    transitions});

  states.push_back({"expire",
                    [this](StepContext& ctx) {
                      (void)ctx;
                      manager_.expire(tick());
                    },
                    transitions});

  states.push_back({"prune",
                    [this](StepContext& ctx) {
                      (void)ctx;
                      manager_.prune_terminal(tick(), kSessionRetention);
                    },
                    transitions});

  return states;
}

void SessionChurnWorkload::check_quiesce(std::uint64_t step,
                                         InvariantCollector& invariants) {
  const std::uint64_t opened = opened_total_.load(std::memory_order_relaxed);
  std::size_t unique_tokens;
  {
    util::LockGuard lock(token_mutex_);
    unique_tokens = seen_tokens_.size();
  }
  if (unique_tokens != opened) {
    invariants.fail(name(), 0, step,
                    "token uniqueness broke: " + std::to_string(opened) +
                        " opens produced " + std::to_string(unique_tokens) +
                        " distinct tokens");
  }
  if (manager_.active_sessions() > manager_.total_sessions()) {
    invariants.fail(name(), 0, step, "active sessions exceed table size");
  }
  if (manager_.total_sessions() > opened) {
    invariants.fail(name(), 0, step,
                    "session table holds more sessions than were opened");
  }
}

// ---------------------------------------------------------------------------
// CoordinatorFailoverWorkload
// ---------------------------------------------------------------------------

namespace {
constexpr double kCoordTick = 0.5;
}  // namespace

CoordinatorFailoverWorkload::CoordinatorFailoverWorkload(std::size_t actors)
    : CoordinatorFailoverWorkload(actors, Config()) {}

CoordinatorFailoverWorkload::CoordinatorFailoverWorkload(std::size_t actors,
                                                         Config config)
    : config_(config), coordinator_(/*seed=*/0xc0feULL), slots_(actors) {
  for (std::size_t a = 0; a < config_.aggregators; ++a) {
    aggregators_.push_back(std::make_unique<fl::Aggregator>(
        "agg" + std::to_string(a), /*num_threads=*/1));
    coordinator_.register_aggregator(*aggregators_.back(), 0.0);
  }
}

double CoordinatorFailoverWorkload::tick() {
  return kCoordTick *
         static_cast<double>(clock_.fetch_add(1, std::memory_order_relaxed));
}

fl::TaskConfig CoordinatorFailoverWorkload::make_task(
    const std::string& task, std::size_t shards) const {
  fl::TaskConfig config;
  config.name = task;
  config.mode = fl::TrainingMode::kAsync;
  config.concurrency = 8;
  config.aggregation_goal = 4;
  config.model_size = config_.model_size;
  config.aggregator_shards = shards;
  return config;
}

void CoordinatorFailoverWorkload::set_floor(const std::string& task,
                                            std::uint64_t floor) {
  util::LockGuard lock(floors_mutex_);
  version_floors_[task] = floor;
}

void CoordinatorFailoverWorkload::erase_floor(const std::string& task) {
  util::LockGuard lock(floors_mutex_);
  version_floors_.erase(task);
}

std::vector<StateDef> CoordinatorFailoverWorkload::states() {
  const auto transitions = menu({{"submit", 2.0},
                                 {"heartbeat", 3.0},
                                 {"detect", 1.5},
                                 {"assign", 2.0},
                                 {"reshard", 1.5},
                                 {"adopt", 1.0},
                                 {"recover", 0.5},
                                 {"remove", 1.0}});
  std::vector<StateDef> states;

  states.push_back(
      {"submit",
       [this](StepContext& ctx) {
         auto& slot = slots_[ctx.actor];
         if (slot.owned.size() >= config_.max_tasks_per_actor) return;
         const std::string task = "w" + std::to_string(ctx.actor) + "_t" +
                                  std::to_string(slot.next_id++);
         const std::size_t shards =
             1 + static_cast<std::size_t>(ctx.rng().uniform_int(2));
         try {
           coordinator_.submit_task(
               make_task(task, shards),
               std::vector<float>(config_.model_size, 0.0f), {}, 0);
         } catch (const std::runtime_error&) {
           return;  // total outage: submit legitimately refuses
         }
         slot.owned.push_back(task);
         set_floor(task, 0);
       },
       transitions});

  states.push_back(
      {"heartbeat",
       [this](StepContext& ctx) {
         const double now = tick();
         for (std::size_t a = 0; a < aggregators_.size(); ++a) {
           if (ctx.partitioned(a)) continue;  // unreachable: no heartbeat
           coordinator_.aggregator_report(
               aggregators_[a]->id(),
               heartbeat_seq_.fetch_add(1, std::memory_order_relaxed) + 1, now,
               {});
         }
       },
       transitions});

  states.push_back({"detect",
                    [this](StepContext& ctx) {
                      (void)ctx;
                      coordinator_.detect_failures(tick(),
                                                   config_.heartbeat_timeout);
                    },
                    transitions});

  states.push_back(
      {"assign",
       [this](StepContext& ctx) {
         const auto assignment = coordinator_.assign_client({});
         if (!assignment) return;
         ctx.check(!assignment->aggregator_id.empty(),
                   "assignment points a client at the empty aggregator");
         coordinator_.assignment_concluded(assignment->task);
       },
       transitions});

  states.push_back(
      {"reshard",
       [this](StepContext& ctx) {
         auto& slot = slots_[ctx.actor];
         if (slot.owned.empty()) return;
         const std::size_t i = static_cast<std::size_t>(
             ctx.rng().uniform_int(slot.owned.size()));
         const std::string task = slot.owned[i];
         const auto inspection = coordinator_.inspect();
         const auto it = inspection.tasks.find(task);
         // Skip while unowned (orphaned mid-outage): the live version is
         // only known once the task is placed again.
         if (it == inspection.tasks.end() ||
             it->second.aggregator_id.empty()) {
           return;
         }
         const std::uint64_t next_version = it->second.model_version + 1;
         const std::size_t shards =
             1 + static_cast<std::size_t>(ctx.rng().uniform_int(3));
         coordinator_.remove_task(task);
         try {
           coordinator_.submit_task(
               make_task(task, shards),
               std::vector<float>(config_.model_size, 0.0f), {}, next_version);
         } catch (const std::runtime_error&) {
           // Removed but nowhere to re-place: forget the task.
           slot.owned.erase(slot.owned.begin() +
                            static_cast<std::ptrdiff_t>(i));
           erase_floor(task);
           return;
         }
         set_floor(task, next_version);
       },
       transitions});

  states.push_back(
      {"adopt",
       [this](StepContext& ctx) {
         auto& slot = slots_[ctx.actor];
         if (slot.adopted.size() >= config_.max_adopted_per_actor) {
           coordinator_.remove_task(slot.adopted.front());
           slot.adopted.erase(slot.adopted.begin());
         }
         const std::string task = "w" + std::to_string(ctx.actor) + "_a" +
                                  std::to_string(slot.next_id++);
         coordinator_.adopt_task(make_task(task, 1), {});
         slot.adopted.push_back(task);
       },
       transitions});

  states.push_back({"recover",
                    [this](StepContext& ctx) {
                      (void)ctx;
                      coordinator_.recover_from_aggregator_state(tick());
                    },
                    transitions});

  states.push_back(
      {"remove",
       [this](StepContext& ctx) {
         auto& slot = slots_[ctx.actor];
         if (!slot.owned.empty()) {
           const std::size_t i = static_cast<std::size_t>(
               ctx.rng().uniform_int(slot.owned.size()));
           coordinator_.remove_task(slot.owned[i]);
           erase_floor(slot.owned[i]);
           slot.owned.erase(slot.owned.begin() +
                            static_cast<std::ptrdiff_t>(i));
         } else if (!slot.adopted.empty()) {
           coordinator_.remove_task(slot.adopted.front());
           slot.adopted.erase(slot.adopted.begin());
         }
       },
       transitions});

  return states;
}

void CoordinatorFailoverWorkload::check_quiesce(
    std::uint64_t step, InvariantCollector& invariants) {
  const auto inspection = coordinator_.inspect();

  for (const auto& [task, agg] : inspection.task_to_aggregator) {
    if (!inspection.registered_aggregators.count(agg)) {
      invariants.fail(name(), 0, step,
                      "routing entry for '" + task +
                          "' targets unregistered aggregator '" + agg + "'");
    } else if (!inspection.live_aggregators.count(agg)) {
      invariants.fail(name(), 0, step,
                      "routing entry for '" + task +
                          "' targets dead aggregator '" + agg + "'");
    }
    const auto it = inspection.tasks.find(task);
    if (it == inspection.tasks.end()) {
      invariants.fail(name(), 0, step,
                      "routing entry for unknown task '" + task + "'");
    } else if (it->second.aggregator_id != agg) {
      invariants.fail(name(), 0, step,
                      "routing map and task table disagree on '" + task + "'");
    }
  }

  for (const auto& [task, view] : inspection.tasks) {
    if (view.aggregator_id.empty() &&
        inspection.task_to_aggregator.count(task)) {
      invariants.fail(name(), 0, step,
                      "unowned task '" + task + "' is still routable");
    }
    if (view.pending_assignments < 0) {
      invariants.fail(name(), 0, step,
                      "negative pending assignments on '" + task + "'");
    }
  }

  if (inspection.map_version < last_map_version_) {
    invariants.fail(name(), 0, step, "assignment-map version went backwards");
  }
  last_map_version_ = inspection.map_version;

  util::LockGuard lock(floors_mutex_);
  for (const auto& [task, floor] : version_floors_) {
    const auto it = inspection.tasks.find(task);
    if (it == inspection.tasks.end()) continue;
    if (it->second.model_version < floor) {
      invariants.fail(
          name(), 0, step,
          "checkpoint-version monotonicity broke on '" + task + "': version " +
              std::to_string(it->second.model_version) + " below floor " +
              std::to_string(floor) + " (checkpoint lost in failover?)");
    }
  }
}

// ---------------------------------------------------------------------------
// ShardedAggWorkload
// ---------------------------------------------------------------------------

namespace {

fl::ShardedAggregator::Config sharded_config(
    const ShardedAggWorkload::Config& config) {
  fl::ShardedAggregator::Config out;
  out.model_size = config.model_size;
  out.num_shards = config.shards;
  out.threads_per_shard = config.threads_per_shard;
  out.drain_batch = config.drain_batch;
  out.strategy = fl::AggStrategy::kAuto;
  return out;
}

}  // namespace

ShardedAggWorkload::ShardedAggWorkload(std::size_t actors)
    : ShardedAggWorkload(actors, Config()) {}

ShardedAggWorkload::ShardedAggWorkload(std::size_t actors, Config config)
    : agg_(sharded_config(config)), model_size_(config.model_size) {
  (void)actors;  // all actor bookkeeping is atomic totals
}

void ShardedAggWorkload::enqueue_one(StepContext& ctx) {
  // A handful of streams per actor so consistent hashing spreads them over
  // shards but per-stream FIFO still gets exercised.
  const std::uint64_t stream_key =
      ctx.actor * 97 + ctx.rng().uniform_int(64);
  const double weight = 1.0 + static_cast<double>(ctx.rng().uniform_int(3));
  fl::ModelUpdate update;
  update.client_id = stream_key;
  update.initial_version = 0;
  update.num_examples = static_cast<std::size_t>(weight);
  update.delta.resize(model_size_);
  for (auto& v : update.delta) {
    v = static_cast<float>(ctx.rng().uniform(-1.0, 1.0));
  }
  agg_.enqueue(stream_key, update.serialize(), weight);
  enqueued_.fetch_add(1, std::memory_order_relaxed);
  // Weights are small integers, so double sums are exact and conservation
  // can be asserted with == instead of a float tolerance.
  enqueued_weight_units_.fetch_add(static_cast<std::uint64_t>(weight),
                                   std::memory_order_relaxed);
}

void ShardedAggWorkload::credit_reduce(
    const fl::ParallelAggregator::Reduced& reduced) {
  reduced_.fetch_add(reduced.count, std::memory_order_relaxed);
  reduced_weight_units_.fetch_add(
      static_cast<std::uint64_t>(std::llround(reduced.weight_sum)),
      std::memory_order_relaxed);
}

std::vector<StateDef> ShardedAggWorkload::states() {
  const auto transitions = menu({{"enqueue", 4.0},
                                 {"burst", 1.5},
                                 {"switch_strategy", 1.0},
                                 {"reduce", 1.0},
                                 {"drain", 0.5}});
  std::vector<StateDef> states;

  states.push_back(
      {"enqueue", [this](StepContext& ctx) { enqueue_one(ctx); }, transitions});

  states.push_back({"burst",
                    [this](StepContext& ctx) {
                      for (int i = 0; i < 8; ++i) enqueue_one(ctx);
                    },
                    transitions});

  states.push_back(
      {"switch_strategy",
       [this](StepContext& ctx) {
         static constexpr fl::AggStrategy kChoices[] = {
             fl::AggStrategy::kLocked, fl::AggStrategy::kMorsel,
             fl::AggStrategy::kStriped, fl::AggStrategy::kAuto};
         agg_.force_strategy(kChoices[ctx.rng().uniform_int(4)]);
       },
       transitions});

  states.push_back(
      {"reduce",
       [this](StepContext& ctx) {
         const auto reduced = agg_.reduce_and_reset();
         ctx.check(reduced.count > 0 || reduced.weight_sum == 0.0,
                   "empty reduce carries nonzero weight");
         for (const float v : reduced.mean_delta) {
           if (!std::isfinite(v)) {
             ctx.check(false, "non-finite value in reduced mean");
             break;
           }
         }
         credit_reduce(reduced);
       },
       transitions});

  states.push_back({"drain",
                    [this](StepContext& ctx) {
                      (void)ctx;
                      agg_.drain();
                    },
                    transitions});

  return states;
}

void ShardedAggWorkload::check_quiesce(std::uint64_t step,
                                       InvariantCollector& invariants) {
  agg_.drain();
  credit_reduce(agg_.reduce_and_reset());

  const std::uint64_t enqueued = enqueued_.load(std::memory_order_relaxed);
  const std::uint64_t reduced = reduced_.load(std::memory_order_relaxed);
  if (enqueued != reduced) {
    invariants.fail(name(), 0, step,
                    "update conservation broke: " + std::to_string(enqueued) +
                        " enqueued vs " + std::to_string(reduced) +
                        " reduced across shards and strategy switches");
  }
  if (enqueued_weight_units_.load(std::memory_order_relaxed) !=
      reduced_weight_units_.load(std::memory_order_relaxed)) {
    invariants.fail(name(), 0, step, "weight conservation broke");
  }

  const auto stats = agg_.stats_snapshot();
  if (stats.enqueued != enqueued) {
    invariants.fail(name(), 0, step, "stats enqueued count drifted");
  }
  if (stats.dropped != 0) {
    invariants.fail(name(), 0, step,
                    std::to_string(stats.dropped) +
                        " well-formed updates dropped as malformed");
  }
  std::uint64_t per_shard_enqueued = 0;
  for (std::size_t s = 0; s < agg_.num_shards(); ++s) {
    const auto shard = agg_.shard_stats(s);
    if (shard.folded + shard.dropped != shard.enqueued) {
      invariants.fail(name(), 0, step,
                      "shard " + std::to_string(s) +
                          " leaked queued updates (folded " +
                          std::to_string(shard.folded) + " of " +
                          std::to_string(shard.enqueued) + ")");
    }
    per_shard_enqueued += shard.enqueued;
  }
  if (per_shard_enqueued != stats.enqueued) {
    invariants.fail(name(), 0, step,
                    "per-shard counters disagree with the cross-shard sum");
  }
}

// ---------------------------------------------------------------------------
// SecAggFloodWorkload
// ---------------------------------------------------------------------------

SecAggFloodWorkload::SecAggFloodWorkload(std::size_t actors)
    : SecAggFloodWorkload(actors, Config()) {}

SecAggFloodWorkload::SecAggFloodWorkload(std::size_t actors, Config config)
    : manager_(config.model_size, config.goal, config.seed, config.batch_size),
      model_size_(config.model_size),
      goal_(config.goal) {
  (void)actors;
}

std::vector<StateDef> SecAggFloodWorkload::states() {
  const auto transitions = menu({{"contribute", 5.0},
                                 {"finalize", 1.5},
                                 {"claim", 1.0},
                                 {"probe", 1.0}});
  std::vector<StateDef> states;

  states.push_back(
      {"contribute",
       [this](StepContext& ctx) {
         // Drawn unconditionally, before any early return, so the scenario
         // stream's draw count stays a pure function of (actor, step).
         const bool byzantine = ctx.byzantine();
         const auto config = manager_.next_upload_config();
         if (!config) return;  // epoch exhausted until the next release
         std::vector<float> delta(model_size_, 0.25f);
         auto report = fl::SecureBufferManager::prepare_report(
             manager_.platform(), *config,
             /*client_id=*/(ctx.actor << 20) + ctx.step,
             /*initial_version=*/0, /*num_examples=*/4, /*weight=*/1.0, delta,
             /*client_seed=*/ctx.rng().next());
         ctx.check(report.has_value(),
                   "prepare_report refused a fresh upload config");
         if (!report) return;
         // Malformed contributions alternate by step: on even steps a
         // corrupt sealed seed, which the TSA's authenticated decryption
         // must refuse; on odd steps a masked update one word short or
         // long, which submit() must refuse before it is buffered.
         const bool wrong_length = byzantine && ctx.step % 2 == 1;
         if (wrong_length) {
           report->contribution.masked_update.resize(
               ctx.step % 4 == 1 ? model_size_ - 1 : model_size_ + 1);
           wrong_length_.fetch_add(1, std::memory_order_relaxed);
         } else if (byzantine) {
           auto& ciphertext = report->contribution.sealed_seed.ciphertext;
           if (!ciphertext.empty()) {
             ciphertext[ctx.rng().uniform_int(ciphertext.size())] ^= 1;
           }
         }
         (byzantine ? malformed_ : valid_)
             .fetch_add(1, std::memory_order_relaxed);
         const fl::SecureSubmitOutcome outcome =
             manager_.submit(*report, /*weight=*/1.0);
         submitted_.fetch_add(1, std::memory_order_relaxed);
         ctx.check(!byzantine || outcome != fl::SecureSubmitOutcome::kAccepted,
                   "a malformed contribution was accepted");
         ctx.check(!wrong_length ||
                       outcome == fl::SecureSubmitOutcome::kMalformed ||
                       outcome == fl::SecureSubmitOutcome::kWrongEpoch,
                   "a wrong-length masked update was not refused at submit");
       },
       transitions});

  states.push_back({"finalize",
                    [this](StepContext& ctx) {
                      (void)ctx;
                      if (!manager_.goal_reached()) return;
                      if (manager_.finalize_mean().has_value()) {
                        finalized_.fetch_add(1, std::memory_order_relaxed);
                      }
                    },
                    transitions});

  states.push_back({"claim",
                    [this](StepContext& ctx) {
                      (void)ctx;
                      manager_.take_rejected();
                    },
                    transitions});

  states.push_back(
      {"probe",
       [this](StepContext& ctx) {
         const auto acct = manager_.accounting();
         ctx.check(acct.submitted == acct.accepted + acct.rejected +
                                         acct.wrong_epoch + acct.pending,
                   "SecAgg accounting leak: submitted != accepted + rejected "
                   "+ wrong_epoch + pending");
         ctx.check(acct.pending == acct.pending_weight_slots,
                   "buffered contribution/weight slots out of step");
       },
       transitions});

  return states;
}

void SecAggFloodWorkload::check_quiesce(std::uint64_t step,
                                        InvariantCollector& invariants) {
  const auto acct = manager_.accounting();
  if (acct.submitted !=
      acct.accepted + acct.rejected + acct.wrong_epoch + acct.pending) {
    invariants.fail(name(), 0, step,
                    "SecAgg accounting leak at quiesce: submitted " +
                        std::to_string(acct.submitted) + " != " +
                        std::to_string(acct.accepted) + " accepted + " +
                        std::to_string(acct.rejected) + " rejected + " +
                        std::to_string(acct.wrong_epoch) + " wrong-epoch + " +
                        std::to_string(acct.pending) + " pending");
  }
  if (acct.pending != acct.pending_weight_slots) {
    invariants.fail(name(), 0, step, "buffered-slot leak at quiesce");
  }
  if (acct.submitted != submitted_.load(std::memory_order_relaxed)) {
    invariants.fail(name(), 0, step, "manager lost track of submissions");
  }
  if (acct.accepted > valid_.load(std::memory_order_relaxed)) {
    invariants.fail(
        name(), 0, step,
        "accepted count exceeds valid submissions: a malformed contribution "
        "was accepted (accepted-set drift)");
  }
  // Reports stay pending only while they cannot complete the goal; that is
  // what lets finalize_mean() release without flushing.
  if (acct.pending > 0 && acct.accepted_this_epoch + acct.pending >= goal_) {
    invariants.fail(name(), 0, step,
                    "pending reports could complete the goal but were not "
                    "flushed");
  }
}

}  // namespace papaya::fsm
