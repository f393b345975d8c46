#include "fl/aggregator.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace papaya::fl {

namespace {

/// Whether an update may enter a weighted mean: its weight must be a
/// positive finite number.  A report that declares zero examples weighs 0.
bool usable_weight(double weight) {
  return weight > 0.0 && std::isfinite(weight);
}

}  // namespace

Aggregator::Aggregator(std::string id, std::size_t) : id_(std::move(id)) {}

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
  // A zero shard count is normalized here even when registration bypassed
  // Coordinator placement: 0 must never reach shard placement.
  TaskState ts;
  ts.config = config;
  if (ts.config.aggregator_shards == 0) ts.config.aggregator_shards = 1;
  ts.model = std::move(initial_model);
  ts.version = initial_version;
  ts.server_opt = std::make_unique<ml::ServerOptimizer>(config.model_size, server_opt);
  // Sharded pipeline (Sec. 6.3): `aggregator_shards` shards, each one worker
  // thread folding into its own intermediate.
  ShardedAggregator::Config pipeline_cfg;
  pipeline_cfg.model_size = config.model_size;
  pipeline_cfg.num_shards = ts.config.aggregator_shards;
  pipeline_cfg.clip_norm = config.dp.enabled ? config.dp.clip_norm : 0.0f;
  ts.pipeline = std::make_unique<ShardedAggregator>(pipeline_cfg);
  ts.dp_rng.reseed(std::hash<std::string>{}(config.name) ^ 0xd9ULL);
  if (config.secagg_enabled) {
    ts.secure = std::make_unique<SecureBufferManager>(
        config.model_size, config.aggregation_goal,
        std::hash<std::string>{}(config.name) ^ 0x5ecULL);
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

bool Aggregator::server_step(TaskState& ts) {
  // Cross-shard reduce: every shard drains + folds, sums combine globally.
  ParallelAggregator::Reduced reduced = ts.pipeline->reduce_and_reset();
  // Each shard's sum is finite, but the sum of several can overflow, and a
  // non-finite mean must never reach the optimizer.
  const bool finite =
      std::all_of(reduced.mean_delta.begin(), reduced.mean_delta.end(),
                  [](float v) { return std::isfinite(v); });
  const std::size_t applied = finite ? reduced.count : 0;
  // Buffered updates the step does not apply: the ones the fold dropped as
  // non-finite, or the whole buffer when nothing can be applied.
  const std::size_t discarded = ts.buffered - std::min(ts.buffered, applied);
  ts.stats.updates_discarded += discarded;
  if (applied == 0) {
    // The buffer starts over.  A SyncFL round frees the discarded updates'
    // slots, as it frees a refused report's, so replacements can be
    // selected.
    ts.buffered = 0;
    if (ts.config.mode == TrainingMode::kSync) {
      ts.completed_this_round -= std::min(ts.completed_this_round, discarded);
    }
    return false;
  }
  apply_step(ts, std::move(reduced.mean_delta), applied);
  return true;
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

ReportOutcome Aggregator::admit_report(TaskState& ts, std::uint64_t client_id,
                                       std::uint64_t initial_version,
                                       double now) {
  ++ts.stats.updates_received;
  const auto it = ts.active.find(client_id);
  if (it == ts.active.end()) {
    // Not active: previously aborted (over-selection / staleness) or never
    // joined.  SyncFL over-selected stragglers land here after round close.
    ++ts.stats.updates_discarded;
    return ReportOutcome::kRejectedUnknown;
  }
  const double deadline = it->second.deadline;
  ts.active.erase(it);
  if (now > deadline) {
    ++ts.stats.updates_discarded;
    ++ts.stats.clients_failed;
    return ReportOutcome::kRejectedTimeout;
  }
  // The version metadata is public even when the update is masked, so the
  // staleness bound applies on both paths (App. E.2).
  if (ts.config.mode == TrainingMode::kAsync &&
      ts.version - initial_version > ts.config.max_staleness) {
    ++ts.stats.updates_discarded;
    ++ts.stats.clients_aborted;
    return ReportOutcome::kDiscardedStale;
  }
  return ReportOutcome::kAccepted;
}

ReportResult Aggregator::client_report(const std::string& task,
                                       const util::Bytes& serialized_update,
                                       double now) {
  auto& ts = state(task);
  // Only the header is needed here; the shard worker decodes the delta.  It
  // is read before any counter moves, so a malformed report that throws
  // leaves the task's stats and active set as they were.
  const UpdateHeader header = UpdateHeader::read(serialized_update);
  if (const ReportOutcome admitted =
          admit_report(ts, header.client_id, header.initial_version, now);
      admitted != ReportOutcome::kAccepted) {
    return {admitted, false, {}};
  }
  const std::uint64_t staleness = ts.version - header.initial_version;

  double weight = 1.0;
  if (ts.config.example_weighting) {
    weight *= std::sqrt(static_cast<double>(header.num_examples));
  }
  if (ts.config.staleness_weighting &&
      ts.config.mode == TrainingMode::kAsync) {
    weight *= staleness_weight(ts.config.staleness_scheme, staleness,
                               ts.config.staleness_params);
  }

  if (header.delta_size != ts.config.model_size || !usable_weight(weight)) {
    // A delta of the wrong length can never fold.  One that weighs nothing
    // (its client declares zero examples) adds nothing to the mean, yet
    // would count toward the goal, and a buffer of such updates would step
    // the server.  Refuse both here, as the secure path refuses a malformed
    // contribution, so neither counts toward the goal nor closes a SyncFL
    // round; the slot frees up.
    ++ts.stats.updates_discarded;
    return {ReportOutcome::kRejectedUnknown, false, {}};
  }

  if (ts.config.mode == TrainingMode::kSync) ++ts.completed_this_round;

  // The client id keys the stream: all of a client's updates land on the
  // same aggregation shard (consistent-hash placement, Sec. 6.3).
  ts.pipeline->enqueue(header.client_id, serialized_update, weight);
  ++ts.buffered;

  ReportResult result{ReportOutcome::kAccepted, false, {}};
  if (ts.buffered >= ts.config.aggregation_goal && server_step(ts)) {
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
  if (const ReportOutcome admitted =
          admit_report(ts, report.client_id, report.initial_version, now);
      admitted != ReportOutcome::kAccepted) {
    return {admitted, false, {}};
  }
  // A report that weighs nothing is refused before the TSA sees it, as
  // client_report refuses a plaintext update that weighs nothing.  submit
  // refuses a tampered, replayed, malformed or epoch-expired contribution.
  // Either way the update is dropped and the client's slot is free for a
  // replacement.
  const double weight = secure_update_weight(task, report.num_examples);
  if (!usable_weight(weight) || ts.secure->submit(report, weight) !=
                                    SecureSubmitOutcome::kAccepted) {
    ++ts.stats.updates_discarded;
    return {ReportOutcome::kRejectedUnknown, false, {}};
  }
  if (ts.config.mode == TrainingMode::kSync) ++ts.completed_this_round;
  ++ts.buffered;

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

double Aggregator::estimated_workload() const {
  double total = 0.0;
  for (const auto& [_, ts] : tasks_) total += ts.config.estimated_workload();
  return total;
}

}  // namespace papaya::fl
