#include "fl/aggregator.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace papaya::fl {

Aggregator::Aggregator(std::string id, std::size_t num_threads)
    : id_(std::move(id)), num_threads_(num_threads == 0 ? 1 : num_threads) {}

Aggregator::TaskState& Aggregator::state(const std::string& task) {
  const auto it = tasks_.find(task);
  if (it == tasks_.end()) {
    throw std::out_of_range("Aggregator " + id_ + ": unknown task " + task);
  }
  return it->second;
}

const Aggregator::TaskState& Aggregator::state(const std::string& task) const {
  const auto it = tasks_.find(task);
  if (it == tasks_.end()) {
    throw std::out_of_range("Aggregator " + id_ + ": unknown task " + task);
  }
  return it->second;
}

void Aggregator::assign_task(const TaskConfig& config,
                             std::vector<float> initial_model,
                             ml::ServerOptimizerConfig server_opt,
                             std::uint64_t initial_version) {
  if (config.aggregation_goal == 0) {
    throw std::invalid_argument("Aggregator: aggregation goal must be > 0");
  }
  if (initial_model.size() != config.model_size) {
    throw std::invalid_argument("Aggregator: model size mismatch");
  }
  if (config.mode == TrainingMode::kSync &&
      config.aggregation_goal > config.concurrency) {
    throw std::invalid_argument(
        "Aggregator: SyncFL aggregation goal cannot exceed concurrency");
  }
  // Registration-boundary validation: a strategy value outside the enum
  // (deserialized or cast garbage) is rejected, and a zero shard count is
  // normalized here even when registration bypassed Coordinator placement —
  // 0 must never reach the ring modulo.
  if (!valid_agg_strategy(config.aggregation_strategy)) {
    throw std::invalid_argument(
        "Aggregator: unknown aggregation strategy for task " + config.name);
  }
  TaskState ts;
  ts.config = config;
  if (ts.config.aggregator_shards == 0) ts.config.aggregator_shards = 1;
  ts.model = std::move(initial_model);
  ts.version = initial_version;
  ts.server_opt = std::make_unique<ml::ServerOptimizer>(config.model_size, server_opt);
  // Sharded pipeline (Sec. 6.3): `aggregator_shards` independent worker
  // pools, each with one intermediate per worker to keep contention low,
  // all folding via the task's configured strategy.
  ShardedAggregator::Config pipeline_cfg;
  pipeline_cfg.model_size = config.model_size;
  pipeline_cfg.num_shards = ts.config.aggregator_shards;
  pipeline_cfg.threads_per_shard = num_threads_;
  pipeline_cfg.intermediates_per_shard = num_threads_;
  pipeline_cfg.clip_norm = config.dp.enabled ? config.dp.clip_norm : 0.0f;
  pipeline_cfg.drain_batch = config.aggregation_batch_size;
  pipeline_cfg.strategy = config.aggregation_strategy;
  ts.pipeline = std::make_unique<ShardedAggregator>(pipeline_cfg);
  ts.dp_rng.reseed(std::hash<std::string>{}(config.name) ^ 0xd9ULL);
  if (config.secagg_enabled) {
    ts.secure = std::make_unique<SecureBufferManager>(
        config.model_size, config.aggregation_goal,
        std::hash<std::string>{}(config.name) ^ 0x5ecULL,
        config.aggregation_batch_size);
  }
  tasks_.insert_or_assign(config.name, std::move(ts));
}

Aggregator::TaskCheckpoint Aggregator::remove_task(const std::string& task) {
  auto& ts = state(task);
  TaskCheckpoint checkpoint{std::move(ts.model), ts.version};
  tasks_.erase(task);
  return checkpoint;
}

bool Aggregator::has_task(const std::string& task) const {
  return tasks_.contains(task);
}

std::vector<std::string> Aggregator::task_names() const {
  std::vector<std::string> out;
  out.reserve(tasks_.size());
  for (const auto& [name, _] : tasks_) out.push_back(name);
  return out;
}

JoinResult Aggregator::client_join(const std::string& task,
                                   std::uint64_t client_id, double now) {
  auto& ts = state(task);
  if (client_demand(task) <= 0) return {};  // no demand: reject (Sec. 6.1)
  if (ts.active.contains(client_id)) return {};
  ts.active[client_id] = {ts.version, now + ts.config.client_timeout_s};
  return {true, ts.version};
}

const std::vector<float>& Aggregator::model(const std::string& task) const {
  return state(task).model;
}

std::uint64_t Aggregator::model_version(const std::string& task) const {
  return state(task).version;
}

void Aggregator::server_step(TaskState& ts) {
  // Cross-shard reduce: every shard drains + folds, sums combine globally.
  ParallelAggregator::Reduced reduced = ts.pipeline->reduce_and_reset();
  if (reduced.count == 0) return;
  apply_step(ts, std::move(reduced.mean_delta), reduced.count);
}

void Aggregator::apply_step(TaskState& ts, std::vector<float> mean_delta,
                            std::size_t count) {
  if (ts.config.dp.enabled && ts.config.dp.noise_multiplier > 0.0f) {
    // Gaussian mechanism on a mean of clipped updates: each update's
    // contribution to the mean is bounded by clip_norm / K, so noise stddev
    // = noise_multiplier * clip_norm / K delivers the configured
    // noise-to-sensitivity ratio.
    const double sigma = static_cast<double>(ts.config.dp.noise_multiplier) *
                         ts.config.dp.clip_norm /
                         static_cast<double>(ts.config.aggregation_goal);
    for (auto& v : mean_delta) {
      v += static_cast<float>(ts.dp_rng.normal(0.0, sigma));
    }
  }
  ts.server_opt->step(ts.model, mean_delta);
  ++ts.version;
  ++ts.stats.server_steps;
  ts.stats.updates_applied += count;
  ts.buffered = 0;
}

std::vector<std::uint64_t> Aggregator::abort_after_step(TaskState& ts) {
  std::vector<std::uint64_t> aborted;
  if (ts.config.mode == TrainingMode::kSync) {
    // Round closed: everyone still training was over-selected; abort them
    // (App. E.3 "users that are still training are aborted").
    for (const auto& [id, _] : ts.active) aborted.push_back(id);
    ts.active.clear();
    ts.completed_this_round = 0;
  } else {
    // AsyncFL: abort clients whose staleness already exceeds the bound
    // (App. E.2: "after every server model update, the aggregator aborts
    // clients whose staleness is larger than maximum staleness").
    for (const auto& [id, client] : ts.active) {
      if (ts.version - client.initial_version > ts.config.max_staleness) {
        aborted.push_back(id);
      }
    }
    for (const std::uint64_t id : aborted) ts.active.erase(id);
  }
  ts.stats.clients_aborted += aborted.size();
  return aborted;
}

ReportResult Aggregator::client_report(const std::string& task,
                                       const util::Bytes& serialized_update,
                                       double now) {
  auto& ts = state(task);
  // Only the header is needed here; the shard worker decodes the delta.  It
  // is read before any counter moves, so a malformed report that throws
  // leaves the task's stats and active set as they were.
  const UpdateHeader header = UpdateHeader::read(serialized_update);
  ++ts.stats.updates_received;

  const auto it = ts.active.find(header.client_id);
  if (it == ts.active.end()) {
    // Not active: previously aborted (over-selection / staleness) or never
    // joined.  SyncFL over-selected stragglers land here after round close.
    ++ts.stats.updates_discarded;
    return {ReportOutcome::kRejectedUnknown, false, {}};
  }
  if (now > it->second.deadline) {
    ts.active.erase(it);
    ++ts.stats.updates_discarded;
    ++ts.stats.clients_failed;
    return {ReportOutcome::kRejectedTimeout, false, {}};
  }

  const std::uint64_t staleness = ts.version - header.initial_version;

  if (ts.config.mode == TrainingMode::kAsync &&
      staleness > ts.config.max_staleness) {
    ts.active.erase(it);
    ++ts.stats.updates_discarded;
    ++ts.stats.clients_aborted;
    return {ReportOutcome::kDiscardedStale, false, {}};
  }

  if (header.delta_size != ts.config.model_size) {
    // A delta of the wrong length can never fold.  Refuse it here, as the
    // secure path refuses a malformed contribution, so it neither counts
    // toward the goal nor closes a SyncFL round; the slot frees up.
    ts.active.erase(it);
    ++ts.stats.updates_discarded;
    return {ReportOutcome::kRejectedUnknown, false, {}};
  }

  ts.active.erase(it);
  if (ts.config.mode == TrainingMode::kSync) ++ts.completed_this_round;

  double weight = 1.0;
  if (ts.config.example_weighting) {
    weight *= std::sqrt(static_cast<double>(header.num_examples));
  }
  if (ts.config.staleness_weighting &&
      ts.config.mode == TrainingMode::kAsync) {
    weight *= staleness_weight(ts.config.staleness_scheme, staleness,
                               ts.config.staleness_params);
  }
  // The client id keys the stream: all of a client's updates land on the
  // same aggregation shard (consistent-hash placement, Sec. 6.3).
  ts.pipeline->enqueue(header.client_id, serialized_update, weight);
  ++ts.buffered;

  ReportResult result{ReportOutcome::kAccepted, false, {}};
  if (ts.buffered >= ts.config.aggregation_goal) {
    server_step(ts);
    result.server_stepped = true;
    result.aborted_clients = abort_after_step(ts);
  }
  return result;
}

std::optional<SecureUploadConfig> Aggregator::secure_upload_config(
    const std::string& task) {
  auto& ts = state(task);
  if (!ts.secure) return std::nullopt;
  return ts.secure->next_upload_config();
}

const secagg::SimulatedEnclavePlatform& Aggregator::secure_platform(
    const std::string& task) const {
  const auto& ts = state(task);
  if (!ts.secure) {
    throw std::logic_error("Aggregator: SecAgg not enabled for task " + task);
  }
  return ts.secure->platform();
}

double Aggregator::secure_update_weight(const std::string& task,
                                        std::size_t num_examples) const {
  const auto& ts = state(task);
  return ts.config.example_weighting
             ? std::sqrt(static_cast<double>(num_examples))
             : 1.0;
}

ReportResult Aggregator::client_report_secure(const std::string& task,
                                              const SecureReport& report,
                                              double now) {
  auto& ts = state(task);
  if (!ts.secure) {
    throw std::logic_error("Aggregator: SecAgg not enabled for task " + task);
  }
  ++ts.stats.updates_received;

  const auto it = ts.active.find(report.client_id);
  if (it == ts.active.end()) {
    ++ts.stats.updates_discarded;
    return {ReportOutcome::kRejectedUnknown, false, {}};
  }
  if (now > it->second.deadline) {
    ts.active.erase(it);
    ++ts.stats.updates_discarded;
    ++ts.stats.clients_failed;
    return {ReportOutcome::kRejectedTimeout, false, {}};
  }

  // Staleness bounds still apply: the version metadata is public even
  // though the update is masked (App. E.2).
  const std::uint64_t staleness = ts.version - report.initial_version;
  if (ts.config.mode == TrainingMode::kAsync &&
      staleness > ts.config.max_staleness) {
    ts.active.erase(it);
    ++ts.stats.updates_discarded;
    ++ts.stats.clients_aborted;
    return {ReportOutcome::kDiscardedStale, false, {}};
  }

  const double weight = secure_update_weight(task, report.num_examples);
  const SecureSubmitOutcome outcome = ts.secure->submit(report, weight);
  ts.active.erase(it);
  const bool admitted = outcome == SecureSubmitOutcome::kAccepted ||
                        outcome == SecureSubmitOutcome::kBuffered;
  if (admitted) {
    if (ts.config.mode == TrainingMode::kSync) ++ts.completed_this_round;
    ++ts.buffered;
  } else {
    // Tampered/replayed/malformed/epoch-expired contributions are dropped;
    // the client slot is freed so a replacement can be selected.
    ++ts.stats.updates_discarded;
  }

  // This submit may have flushed earlier reports, which were counted as
  // buffered when they returned kBuffered and whose TSA rejections only
  // surface now.  Un-count them the way a returned kTsaRejected never
  // counted: as discarded, not buffered, and not completing a SyncFL slot —
  // so the round's demand frees up and a replacement client can be selected.
  if (const std::size_t rejected = ts.secure->take_rejected(); rejected > 0) {
    ts.stats.updates_discarded += rejected;
    ts.buffered -= std::min(ts.buffered, rejected);
    if (ts.config.mode == TrainingMode::kSync) {
      ts.completed_this_round -= std::min(ts.completed_this_round, rejected);
    }
  }
  if (!admitted) return {ReportOutcome::kRejectedUnknown, false, {}};

  ReportResult result{ReportOutcome::kAccepted, false, {}};
  if (ts.secure->goal_reached()) {
    auto mean = ts.secure->finalize_mean();
    if (mean) {
      apply_step(ts, std::move(*mean), ts.config.aggregation_goal);
      result.server_stepped = true;
      result.aborted_clients = abort_after_step(ts);
    }
  }
  return result;
}

void Aggregator::client_failed(const std::string& task, std::uint64_t client_id,
                               double /*now*/) {
  auto& ts = state(task);
  if (ts.active.erase(client_id) > 0) ++ts.stats.clients_failed;
}

std::vector<std::uint64_t> Aggregator::expire_timeouts(const std::string& task,
                                                       double now) {
  auto& ts = state(task);
  std::vector<std::uint64_t> expired;
  for (const auto& [id, client] : ts.active) {
    if (now > client.deadline) expired.push_back(id);
  }
  for (const std::uint64_t id : expired) {
    ts.active.erase(id);
    ++ts.stats.clients_failed;
  }
  return expired;
}

std::int64_t Aggregator::client_demand(const std::string& task) const {
  const auto& ts = state(task);
  const auto active = static_cast<std::int64_t>(ts.active.size());
  const auto concurrency = static_cast<std::int64_t>(ts.config.concurrency);
  if (ts.config.mode == TrainingMode::kAsync) {
    // App. E.3: demand = concurrency - active clients.
    return concurrency - active;
  }
  // SyncFL: demand = cohort - completed - active, within the current round.
  // `concurrency` already includes the over-selection factor.
  const auto completed = static_cast<std::int64_t>(ts.completed_this_round);
  return concurrency - completed - active;
}

std::size_t Aggregator::active_clients(const std::string& task) const {
  return state(task).active.size();
}

const TaskStats& Aggregator::stats(const std::string& task) const {
  return state(task).stats;
}

std::size_t Aggregator::task_shards(const std::string& task) const {
  return state(task).pipeline->num_shards();
}

AggStrategy Aggregator::task_strategy(const std::string& task) const {
  return state(task).config.aggregation_strategy;
}

double Aggregator::estimated_workload() const {
  double total = 0.0;
  for (const auto& [_, ts] : tasks_) total += ts.config.estimated_workload();
  return total;
}

}  // namespace papaya::fl
