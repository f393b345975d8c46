#pragma once
// Virtual sessions for the client participation protocol (Sec. 6.1).
//
// "Transient client failures do not cause clients to dropout because the
// client protocol is based on virtual sessions instead of persistent
// connections.  ...  All stages happen within a virtual session established
// during selection."
//
// A session is a server-side token-addressed record of where a client is in
// the 4-stage participation protocol (download -> train -> report ->
// upload).  A client that loses connectivity mid-stage simply resumes with
// its token — the session survives as long as it is touched within the TTL.
// Sessions expire (and the client counts as failed) only after sustained
// silence, and stages may only move forward, so a replayed or reordered
// request cannot rewind a session.

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "fl/shard_ring.hpp"
#include "util/rng.hpp"
#include "util/sync.hpp"

namespace papaya::fl {

/// The participation stages of Sec. 6.1, in protocol order.
enum class SessionStage {
  kSelected = 0,   ///< accepted by the Aggregator, nothing transferred yet
  kDownloading,    ///< fetching model parameters / code / config
  kTraining,       ///< local training in progress
  kReporting,      ///< reporting status, receiving upload (SecAgg) config
  kUploading,      ///< uploading the (possibly masked) update in chunks
  kCompleted,      ///< terminal: update delivered
  kAborted,        ///< terminal: expired, failed, or server-aborted
};

const char* to_string(SessionStage stage);

/// Outcome of a session operation.
enum class SessionOutcome {
  kOk,
  kUnknownToken,   ///< no such session (never existed or already pruned)
  kExpired,        ///< TTL elapsed; the session was aborted
  kOutOfOrder,     ///< attempted to move backwards or skip a terminal state
  kTerminal,       ///< session already completed/aborted
};

/// Server-side session table for one task.
class VirtualSessionManager {
 public:
  struct Options {
    /// Silence tolerated before a session is declared dead.  The paper's
    /// 4-minute client timeout bounds training; the TTL bounds *protocol*
    /// silence within a stage and across transient disconnects.
    double session_ttl_s = 300.0;

    /// Aggregation shard count of the task this session table serves
    /// (TaskConfig::aggregator_shards).  Sessions are stamped at open with
    /// the shard fl::shard_for places their client's update stream on, so
    /// the upload stage can be routed straight to the owning shard's queue.
    std::size_t aggregator_shards = 1;
  };

  struct SessionInfo {
    std::uint64_t token = 0;
    std::uint64_t client_id = 0;
    SessionStage stage = SessionStage::kSelected;
    /// Aggregation shard this client's update stream hashes to (the same
    /// jump consistent hash as ShardedAggregator, so session routing and
    /// folding agree).
    std::size_t shard = 0;
    double opened_at = 0.0;
    double last_touched = 0.0;
    std::uint32_t resumes = 0;  ///< touches after a gap (diagnostics)
    /// Upload-stage progress: chunks received so far.  Pipelined clients
    /// stream chunks while still training, so this can grow before the
    /// session ever reports kTraining done.
    std::uint32_t chunks_uploaded = 0;
  };

  VirtualSessionManager();
  explicit VirtualSessionManager(Options options,
                                 std::uint64_t seed = 0x5e5510ULL);

  /// Open a session for a selected client.  Tokens are unique and
  /// unpredictable enough for a simulation (64-bit from a seeded stream).
  std::uint64_t open(std::uint64_t client_id, double now);

  /// Resume/heartbeat: refresh the TTL.  Returns kExpired (and aborts the
  /// session) if the TTL had already lapsed at `now`.
  SessionOutcome touch(std::uint64_t token, double now);

  /// Move the session forward to `stage`.  Forward-only: the target must be
  /// strictly later than the current stage (skipping intermediate stages is
  /// allowed — e.g. a cached model skips kDownloading).  Also refreshes the
  /// TTL on success.
  SessionOutcome advance(std::uint64_t token, SessionStage stage, double now);

  /// Upload progress: one chunk of the client's update arrived.  Counts
  /// the chunk, moves the session forward to kUploading if it was in an
  /// earlier live stage (pipelined clients stream their first chunks while
  /// local training is still running), and refreshes the TTL — a
  /// long-training pipelined client stays alive chunk by chunk where a
  /// silent sequential client would expire.
  SessionOutcome record_chunk(std::uint64_t token, double now);

  /// Terminal transitions.
  SessionOutcome complete(std::uint64_t token, double now);
  SessionOutcome abort(std::uint64_t token, double now);

  std::optional<SessionInfo> lookup(std::uint64_t token) const;

  /// Expire sessions silent for longer than the TTL; returns the client ids
  /// whose sessions were aborted (the Aggregator marks them failed and
  /// refills demand, Sec. 6.2).
  std::vector<std::uint64_t> expire(double now);

  /// Drop terminal sessions older than `retention_s` (table hygiene).
  std::size_t prune_terminal(double now, double retention_s);

  std::size_t active_sessions() const;
  std::size_t total_sessions() const {
    util::LockGuard lock(mutex_);
    return sessions_.size();
  }

 private:
  bool is_terminal(SessionStage stage) const {
    return stage == SessionStage::kCompleted ||
           stage == SessionStage::kAborted;
  }
  /// Returns the live session or sets `outcome` and nullptr.
  SessionInfo* live_session(std::uint64_t token, double now,
                            SessionOutcome& outcome) PAPAYA_REQUIRES(mutex_);

  Options options_;          ///< immutable after construction

  /// Independent root lock (see util/sync.hpp): one session table serves
  /// every protocol-facing thread of a task, so token draws and stage
  /// transitions serialize here.
  mutable util::Mutex mutex_;
  util::SplitMix64 token_stream_ PAPAYA_GUARDED_BY(mutex_);
  std::map<std::uint64_t, SessionInfo> sessions_ PAPAYA_GUARDED_BY(mutex_);
};

}  // namespace papaya::fl
