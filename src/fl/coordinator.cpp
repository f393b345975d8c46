#include "fl/coordinator.hpp"

#include <limits>
#include <stdexcept>

#include "util/log.hpp"

namespace papaya::fl {

Coordinator::Coordinator(std::uint64_t seed) : rng_(seed ^ 0xc00dULL) {}

void Coordinator::register_aggregator(Aggregator& aggregator, double now) {
  util::LockGuard lock(mutex_);
  aggregators_[aggregator.id()] = {&aggregator, now, 0, true};
  place_orphans();
}

std::size_t Coordinator::place_orphans() {
  std::size_t placed = 0;
  for (auto& [task_name, entry] : tasks_) {
    if (!entry.orphan_checkpoint) continue;
    Aggregator* agg = pick_aggregator();
    if (agg == nullptr) break;
    Aggregator::TaskCheckpoint checkpoint = std::move(*entry.orphan_checkpoint);
    entry.orphan_checkpoint.reset();
    agg->assign_task(entry.config, std::move(checkpoint.model),
                     entry.server_opt, checkpoint.version);
    entry.aggregator_id = agg->id();
    entry.reported_demand = static_cast<std::int64_t>(entry.config.concurrency);
    entry.pending_assignments = 0;
    map_.task_to_aggregator[task_name] = agg->id();
    ++placed;
  }
  if (placed > 0) ++map_.version;
  return placed;
}

Aggregator* Coordinator::pick_aggregator() {
  Aggregator* best = nullptr;
  double best_load = std::numeric_limits<double>::infinity();
  for (auto& [id, entry] : aggregators_) {
    if (!entry.alive) continue;
    const double load = entry.aggregator->estimated_workload();
    if (load < best_load) {
      best_load = load;
      best = entry.aggregator;
    }
  }
  return best;
}

void Coordinator::submit_task(const TaskConfig& config,
                              std::vector<float> initial_model,
                              ml::ServerOptimizerConfig server_opt,
                              std::uint64_t initial_version) {
  util::LockGuard lock(mutex_);
  Aggregator* agg = pick_aggregator();
  if (agg == nullptr) {
    throw std::runtime_error("Coordinator: no live aggregators available");
  }
  TaskConfig placed = config;
  // Normalize the shard count at the placement boundary so every layer
  // below (Aggregator pipelines, failover, recovery) sees the same value.
  if (placed.aggregator_shards == 0) placed.aggregator_shards = 1;
  agg->assign_task(placed, std::move(initial_model), server_opt,
                   initial_version);
  TaskEntry entry;
  entry.config = placed;
  entry.server_opt = server_opt;
  entry.aggregator_id = agg->id();
  // Until the first report arrives, assume full demand so clients can start
  // joining immediately.
  entry.reported_demand = static_cast<std::int64_t>(config.concurrency);
  tasks_.insert_or_assign(config.name, std::move(entry));
  map_.task_to_aggregator[config.name] = agg->id();
  ++map_.version;
}

void Coordinator::adopt_task(const TaskConfig& config,
                             ml::ServerOptimizerConfig server_opt) {
  util::LockGuard lock(mutex_);
  TaskEntry entry;
  entry.config = config;
  if (entry.config.aggregator_shards == 0) entry.config.aggregator_shards = 1;
  entry.server_opt = server_opt;
  entry.reported_demand = 0;  // unknown until the owner's first report
  // aggregator_id stays empty: the task is unowned (and therefore not
  // assignable) until recover_from_aggregator_state() or an owner report
  // names the Aggregator actually running it.
  tasks_.insert_or_assign(config.name, std::move(entry));
}

std::size_t Coordinator::task_shards(const std::string& task) const {
  util::LockGuard lock(mutex_);
  const auto it = tasks_.find(task);
  return it == tasks_.end() ? 0 : it->second.config.aggregator_shards;
}

void Coordinator::remove_task(const std::string& task) {
  util::LockGuard lock(mutex_);
  const auto it = tasks_.find(task);
  if (it == tasks_.end()) return;
  const auto agg_it = aggregators_.find(it->second.aggregator_id);
  if (agg_it != aggregators_.end() && agg_it->second.alive &&
      agg_it->second.aggregator->has_task(task)) {
    agg_it->second.aggregator->remove_task(task);
  }
  tasks_.erase(it);
  map_.task_to_aggregator.erase(task);
  ++map_.version;
}

void Coordinator::aggregator_report(const std::string& aggregator_id,
                                    std::uint64_t sequence, double now,
                                    const std::vector<TaskReport>& reports) {
  util::LockGuard lock(mutex_);
  const auto it = aggregators_.find(aggregator_id);
  if (it == aggregators_.end()) return;
  if (sequence <= it->second.last_sequence) return;  // stale report
  it->second.last_sequence = sequence;
  it->second.last_heartbeat = now;
  const bool resurrected = !it->second.alive;
  it->second.alive = true;
  if (resurrected) place_orphans();
  for (const auto& report : reports) {
    const auto task_it = tasks_.find(report.task);
    if (task_it == tasks_.end()) continue;
    if (task_it->second.aggregator_id.empty()) {
      // Adopted task (App. E.4) whose owner was unknown: the first report
      // from an Aggregator actually running it claims ownership, which is
      // what makes the task assignable again.
      if (!it->second.aggregator->has_task(report.task)) continue;
      task_it->second.aggregator_id = aggregator_id;
      map_.task_to_aggregator[report.task] = aggregator_id;
      ++map_.version;
    } else if (task_it->second.aggregator_id != aggregator_id) {
      continue;  // stale: task has since moved to another Aggregator
    }
    task_it->second.reported_demand = report.demand;
    // A fresh report reflects all joins that reached the aggregator, so the
    // pending estimate resets.
    task_it->second.pending_assignments = 0;
  }
}

std::vector<std::string> Coordinator::detect_failures(double now,
                                                      double timeout) {
  util::LockGuard lock(mutex_);
  std::vector<std::string> failed;
  for (auto& [id, entry] : aggregators_) {
    if (entry.alive && now - entry.last_heartbeat > timeout) {
      entry.alive = false;
      failed.push_back(id);
      PAPAYA_LOG(util::LogLevel::kWarning)
          << "aggregator " << id << " missed heartbeats (last at "
          << entry.last_heartbeat << ", now " << now << "); reassigning";
    }
  }
  if (failed.empty()) return failed;

  // Reassign every task owned by a failed aggregator.  Model state comes
  // from the task's checkpoint — simulated by pulling the model out of the
  // failed Aggregator object, standing in for the persistent store.
  for (const auto& failed_id : failed) {
    Aggregator* dead = aggregators_.at(failed_id).aggregator;
    for (auto& [task_name, entry] : tasks_) {
      if (entry.aggregator_id != failed_id) continue;
      Aggregator::TaskCheckpoint checkpoint =
          dead->has_task(task_name)
              ? dead->remove_task(task_name)
              : Aggregator::TaskCheckpoint{
                    std::vector<float>(entry.config.model_size, 0.0f), 0};
      Aggregator* replacement = pick_aggregator();
      if (replacement == nullptr) {
        // Total outage: nowhere to move the task.  Throwing here would
        // abandon the loop mid-reassignment with tasks_ half-updated;
        // instead the task is orphaned — checkpoint held, routing entry
        // dropped — and place_orphans() re-places it (at the checkpointed
        // version) when an aggregator registers or comes back.
        entry.aggregator_id.clear();
        entry.orphan_checkpoint = std::move(checkpoint);
        entry.reported_demand = 0;
        entry.pending_assignments = 0;
        map_.task_to_aggregator.erase(task_name);
        continue;
      }
      // entry.config carries the task's shard count, so the replacement
      // rebuilds the same sharded pipeline around the checkpointed model.
      replacement->assign_task(entry.config, std::move(checkpoint.model),
                               entry.server_opt, checkpoint.version);
      entry.aggregator_id = replacement->id();
      entry.reported_demand =
          static_cast<std::int64_t>(entry.config.concurrency);
      entry.pending_assignments = 0;
      map_.task_to_aggregator[task_name] = replacement->id();
    }
  }
  ++map_.version;
  return failed;
}

std::optional<ClientAssignment> Coordinator::assign_client(
    const ClientCapabilities& caps) {
  util::LockGuard lock(mutex_);
  // Build the eligible-task list (Sec. 6.2): capability match and positive
  // remaining demand.
  std::vector<const std::string*> eligible;
  for (const auto& [name, entry] : tasks_) {
    // Unowned (freshly adopted) tasks are ineligible: handing out an
    // assignment would point the client at the empty-string aggregator.
    if (entry.aggregator_id.empty()) continue;
    if (!caps.matches(entry.config.required_capability)) continue;
    if (entry.reported_demand - entry.pending_assignments <= 0) continue;
    eligible.push_back(&name);
  }
  if (eligible.empty()) return std::nullopt;

  const auto& chosen = *eligible[rng_.uniform_int(eligible.size())];
  auto& entry = tasks_.at(chosen);
  ++entry.pending_assignments;
  return ClientAssignment{chosen, entry.aggregator_id};
}

void Coordinator::assignment_concluded(const std::string& task) {
  util::LockGuard lock(mutex_);
  const auto it = tasks_.find(task);
  if (it == tasks_.end()) return;
  if (it->second.pending_assignments > 0) --it->second.pending_assignments;
}

std::int64_t Coordinator::pooled_demand(const std::string& task) const {
  util::LockGuard lock(mutex_);
  const auto it = tasks_.find(task);
  if (it == tasks_.end()) return 0;
  return it->second.reported_demand - it->second.pending_assignments;
}

void Coordinator::recover_from_aggregator_state(double now) {
  util::LockGuard lock(mutex_);
  // Leader re-election recovery (App. E.4): rebuild the assignment map from
  // what the live aggregators are actually running.
  map_.task_to_aggregator.clear();
  for (auto& [agg_id, entry] : aggregators_) {
    if (!entry.alive) continue;
    entry.last_heartbeat = now;
    for (const auto& task_name : entry.aggregator->task_names()) {
      map_.task_to_aggregator[task_name] = agg_id;
      const auto task_it = tasks_.find(task_name);
      if (task_it != tasks_.end()) {
        task_it->second.aggregator_id = agg_id;
        task_it->second.pending_assignments = 0;
      }
    }
  }
  ++map_.version;
  place_orphans();
}

Coordinator::Inspection Coordinator::inspect() const {
  util::LockGuard lock(mutex_);
  Inspection out;
  out.map_version = map_.version;
  out.task_to_aggregator = map_.task_to_aggregator;
  for (const auto& [id, entry] : aggregators_) {
    out.registered_aggregators.insert(id);
    if (entry.alive) out.live_aggregators.insert(id);
  }
  for (const auto& [name, entry] : tasks_) {
    Inspection::TaskView view;
    view.aggregator_id = entry.aggregator_id;
    view.orphaned = entry.orphan_checkpoint.has_value();
    view.reported_demand = entry.reported_demand;
    view.pending_assignments = entry.pending_assignments;
    if (entry.orphan_checkpoint) {
      view.model_version = entry.orphan_checkpoint->version;
    } else if (!entry.aggregator_id.empty()) {
      const auto agg_it = aggregators_.find(entry.aggregator_id);
      if (agg_it != aggregators_.end() &&
          agg_it->second.aggregator->has_task(name)) {
        view.model_version = agg_it->second.aggregator->model_version(name);
      }
    }
    out.tasks.emplace(name, std::move(view));
  }
  return out;
}

}  // namespace papaya::fl
