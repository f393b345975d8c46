#include "fl/session.hpp"

namespace papaya::fl {

const char* to_string(SessionStage stage) {
  switch (stage) {
    case SessionStage::kSelected:
      return "selected";
    case SessionStage::kDownloading:
      return "downloading";
    case SessionStage::kTraining:
      return "training";
    case SessionStage::kReporting:
      return "reporting";
    case SessionStage::kUploading:
      return "uploading";
    case SessionStage::kCompleted:
      return "completed";
    case SessionStage::kAborted:
      return "aborted";
  }
  return "?";
}

VirtualSessionManager::VirtualSessionManager()
    : VirtualSessionManager(Options{}) {}

VirtualSessionManager::VirtualSessionManager(Options options,
                                             std::uint64_t seed)
    : options_(options), token_stream_(seed | 1) {}

std::uint64_t VirtualSessionManager::open(std::uint64_t client_id,
                                          double now) {
  util::LockGuard lock(mutex_);
  // SplitMix64 stream: unique, non-sequential tokens.
  for (;;) {
    const std::uint64_t token = token_stream_.next();
    if (token == 0 || sessions_.count(token) != 0) continue;
    SessionInfo info;
    info.token = token;
    info.client_id = client_id;
    info.stage = SessionStage::kSelected;
    // The shard the client's upload stream will hit (the same placement as
    // the ShardedAggregator folding that stream).
    info.shard = shard_for(client_id, options_.aggregator_shards);
    info.opened_at = now;
    info.last_touched = now;
    sessions_.emplace(token, info);
    return token;
  }
}

VirtualSessionManager::SessionInfo* VirtualSessionManager::live_session(
    std::uint64_t token, double now, SessionOutcome& outcome) {
  const auto it = sessions_.find(token);
  if (it == sessions_.end()) {
    outcome = SessionOutcome::kUnknownToken;
    return nullptr;
  }
  SessionInfo& info = it->second;
  if (is_terminal(info.stage)) {
    outcome = SessionOutcome::kTerminal;
    return nullptr;
  }
  if (now - info.last_touched > options_.session_ttl_s) {
    info.stage = SessionStage::kAborted;
    outcome = SessionOutcome::kExpired;
    return nullptr;
  }
  outcome = SessionOutcome::kOk;
  return &info;
}

SessionOutcome VirtualSessionManager::touch(std::uint64_t token, double now) {
  util::LockGuard lock(mutex_);
  SessionOutcome outcome;
  SessionInfo* info = live_session(token, now, outcome);
  if (info == nullptr) return outcome;
  // A gap longer than 10% of the TTL counts as a resume after a transient
  // failure (diagnostics only; any gap within the TTL is fine).
  if (now - info->last_touched > 0.1 * options_.session_ttl_s) {
    ++info->resumes;
  }
  info->last_touched = now;
  return SessionOutcome::kOk;
}

SessionOutcome VirtualSessionManager::advance(std::uint64_t token,
                                              SessionStage stage, double now) {
  util::LockGuard lock(mutex_);
  SessionOutcome outcome;
  SessionInfo* info = live_session(token, now, outcome);
  if (info == nullptr) return outcome;
  if (is_terminal(stage) || stage <= info->stage) {
    return SessionOutcome::kOutOfOrder;  // terminal moves use complete/abort
  }
  info->stage = stage;
  info->last_touched = now;
  return SessionOutcome::kOk;
}

SessionOutcome VirtualSessionManager::record_chunk(std::uint64_t token,
                                                   double now) {
  util::LockGuard lock(mutex_);
  SessionOutcome outcome;
  SessionInfo* info = live_session(token, now, outcome);
  if (info == nullptr) return outcome;
  // Forward-only, like advance(): chunks never rewind a session, and a
  // session already uploading just accumulates progress.
  if (info->stage < SessionStage::kUploading) {
    info->stage = SessionStage::kUploading;
  }
  ++info->chunks_uploaded;
  info->last_touched = now;
  return SessionOutcome::kOk;
}

SessionOutcome VirtualSessionManager::complete(std::uint64_t token,
                                               double now) {
  util::LockGuard lock(mutex_);
  SessionOutcome outcome;
  SessionInfo* info = live_session(token, now, outcome);
  if (info == nullptr) return outcome;
  info->stage = SessionStage::kCompleted;
  info->last_touched = now;
  return SessionOutcome::kOk;
}

SessionOutcome VirtualSessionManager::abort(std::uint64_t token, double now) {
  util::LockGuard lock(mutex_);
  SessionOutcome outcome;
  SessionInfo* info = live_session(token, now, outcome);
  if (info == nullptr) return outcome;
  info->stage = SessionStage::kAborted;
  info->last_touched = now;
  return SessionOutcome::kOk;
}

std::optional<VirtualSessionManager::SessionInfo>
VirtualSessionManager::lookup(std::uint64_t token) const {
  util::LockGuard lock(mutex_);
  const auto it = sessions_.find(token);
  if (it == sessions_.end()) return std::nullopt;
  return it->second;
}

std::vector<std::uint64_t> VirtualSessionManager::expire(double now) {
  util::LockGuard lock(mutex_);
  std::vector<std::uint64_t> aborted_clients;
  for (auto& [token, info] : sessions_) {
    if (is_terminal(info.stage)) continue;
    if (now - info.last_touched > options_.session_ttl_s) {
      info.stage = SessionStage::kAborted;
      aborted_clients.push_back(info.client_id);
    }
  }
  return aborted_clients;
}

std::size_t VirtualSessionManager::prune_terminal(double now,
                                                  double retention_s) {
  util::LockGuard lock(mutex_);
  std::size_t pruned = 0;
  for (auto it = sessions_.begin(); it != sessions_.end();) {
    if (is_terminal(it->second.stage) &&
        now - it->second.last_touched > retention_s) {
      it = sessions_.erase(it);
      ++pruned;
    } else {
      ++it;
    }
  }
  return pruned;
}

std::size_t VirtualSessionManager::active_sessions() const {
  util::LockGuard lock(mutex_);
  std::size_t n = 0;
  for (const auto& [token, info] : sessions_) {
    n += !is_terminal(info.stage);
  }
  return n;
}

}  // namespace papaya::fl
