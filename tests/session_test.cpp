// Tests for the virtual-session layer (Sec. 6.1): the 4-stage participation
// protocol moves forward only, transient disconnects resume within the TTL,
// sustained silence expires the session, and tokens are unique.

#include <gtest/gtest.h>

#include <set>
#include <thread>
#include <vector>

#include "fl/session.hpp"
#include "fl/shard_ring.hpp"

namespace papaya::fl {
namespace {

VirtualSessionManager::Options ttl(double seconds) {
  VirtualSessionManager::Options o;
  o.session_ttl_s = seconds;
  return o;
}

TEST(VirtualSession, OpensInSelectedStage) {
  VirtualSessionManager mgr;
  const std::uint64_t token = mgr.open(42, 1.0);
  const auto info = mgr.lookup(token);
  ASSERT_TRUE(info.has_value());
  EXPECT_EQ(info->client_id, 42u);
  EXPECT_EQ(info->stage, SessionStage::kSelected);
  EXPECT_EQ(mgr.active_sessions(), 1u);
}

TEST(VirtualSession, StampsStreamShardFromTaskPlacement) {
  // A session records the aggregation shard its client's update stream
  // hashes to — the same placement the ShardedAggregator uses — so the
  // upload stage can route straight to the owning shard's queue.
  VirtualSessionManager::Options opts;
  opts.aggregator_shards = 4;
  VirtualSessionManager mgr(opts);
  std::set<std::size_t> shards_seen;
  for (std::uint64_t client = 0; client < 64; ++client) {
    const auto info = mgr.lookup(mgr.open(client, 0.0));
    ASSERT_TRUE(info.has_value());
    EXPECT_EQ(info->shard, shard_for(client, 4));
    shards_seen.insert(info->shard);
  }
  EXPECT_EQ(shards_seen.size(), 4u);

  // Default (unsharded) tables stamp shard 0 for every session.
  VirtualSessionManager unsharded;
  EXPECT_EQ(unsharded.lookup(unsharded.open(7, 0.0))->shard, 0u);
}

TEST(VirtualSession, TokensAreUniqueAndNonZero) {
  VirtualSessionManager mgr;
  std::set<std::uint64_t> tokens;
  for (int i = 0; i < 1000; ++i) {
    const std::uint64_t t = mgr.open(i, 0.0);
    EXPECT_NE(t, 0u);
    EXPECT_TRUE(tokens.insert(t).second);
  }
}

TEST(VirtualSession, FullProtocolWalk) {
  VirtualSessionManager mgr;
  const std::uint64_t t = mgr.open(1, 0.0);
  EXPECT_EQ(mgr.advance(t, SessionStage::kDownloading, 1.0),
            SessionOutcome::kOk);
  EXPECT_EQ(mgr.advance(t, SessionStage::kTraining, 2.0), SessionOutcome::kOk);
  EXPECT_EQ(mgr.advance(t, SessionStage::kReporting, 60.0),
            SessionOutcome::kOk);
  EXPECT_EQ(mgr.advance(t, SessionStage::kUploading, 61.0),
            SessionOutcome::kOk);
  EXPECT_EQ(mgr.complete(t, 62.0), SessionOutcome::kOk);
  EXPECT_EQ(mgr.lookup(t)->stage, SessionStage::kCompleted);
  EXPECT_EQ(mgr.active_sessions(), 0u);
}

TEST(VirtualSession, StagesMayBeSkippedButNeverRewound) {
  VirtualSessionManager mgr;
  const std::uint64_t t = mgr.open(1, 0.0);
  // A client with a cached model skips straight to training.
  EXPECT_EQ(mgr.advance(t, SessionStage::kTraining, 1.0), SessionOutcome::kOk);
  // A replayed "downloading" request must not rewind the session.
  EXPECT_EQ(mgr.advance(t, SessionStage::kDownloading, 2.0),
            SessionOutcome::kOutOfOrder);
  EXPECT_EQ(mgr.lookup(t)->stage, SessionStage::kTraining);
  // Re-sending the current stage is also rejected (idempotence guard).
  EXPECT_EQ(mgr.advance(t, SessionStage::kTraining, 3.0),
            SessionOutcome::kOutOfOrder);
}

TEST(VirtualSession, TerminalStagesOnlyViaCompleteOrAbort) {
  VirtualSessionManager mgr;
  const std::uint64_t t = mgr.open(1, 0.0);
  EXPECT_EQ(mgr.advance(t, SessionStage::kCompleted, 1.0),
            SessionOutcome::kOutOfOrder);
  EXPECT_EQ(mgr.advance(t, SessionStage::kAborted, 1.0),
            SessionOutcome::kOutOfOrder);
  EXPECT_EQ(mgr.abort(t, 2.0), SessionOutcome::kOk);
  // Terminal is final.
  EXPECT_EQ(mgr.advance(t, SessionStage::kTraining, 3.0),
            SessionOutcome::kTerminal);
  EXPECT_EQ(mgr.complete(t, 3.0), SessionOutcome::kTerminal);
  EXPECT_EQ(mgr.touch(t, 3.0), SessionOutcome::kTerminal);
}

TEST(VirtualSession, TransientDisconnectResumesWithinTtl) {
  VirtualSessionManager mgr(ttl(100.0));
  const std::uint64_t t = mgr.open(1, 0.0);
  ASSERT_EQ(mgr.advance(t, SessionStage::kTraining, 1.0), SessionOutcome::kOk);
  // 90 s of silence (device lost connectivity mid-training): still alive.
  EXPECT_EQ(mgr.touch(t, 91.0), SessionOutcome::kOk);
  EXPECT_EQ(mgr.lookup(t)->resumes, 1u);
  // The session proceeds normally after the resume.
  EXPECT_EQ(mgr.advance(t, SessionStage::kReporting, 92.0),
            SessionOutcome::kOk);
}

TEST(VirtualSession, SustainedSilenceExpires) {
  VirtualSessionManager mgr(ttl(100.0));
  const std::uint64_t t = mgr.open(1, 0.0);
  EXPECT_EQ(mgr.touch(t, 150.0), SessionOutcome::kExpired);
  EXPECT_EQ(mgr.lookup(t)->stage, SessionStage::kAborted);
}

TEST(VirtualSession, ExpireSweepAbortsOnlySilentSessions) {
  VirtualSessionManager mgr(ttl(100.0));
  const std::uint64_t quiet = mgr.open(1, 0.0);
  const std::uint64_t chatty = mgr.open(2, 0.0);
  (void)mgr.touch(chatty, 90.0);
  const auto aborted = mgr.expire(150.0);
  ASSERT_EQ(aborted.size(), 1u);
  EXPECT_EQ(aborted.front(), 1u);
  EXPECT_EQ(mgr.lookup(quiet)->stage, SessionStage::kAborted);
  EXPECT_EQ(mgr.lookup(chatty)->stage, SessionStage::kSelected);
  // The sweep is idempotent.
  EXPECT_TRUE(mgr.expire(151.0).empty());
}

TEST(VirtualSession, UnknownTokenRejected) {
  VirtualSessionManager mgr;
  EXPECT_EQ(mgr.touch(12345, 0.0), SessionOutcome::kUnknownToken);
  EXPECT_EQ(mgr.advance(12345, SessionStage::kTraining, 0.0),
            SessionOutcome::kUnknownToken);
  EXPECT_FALSE(mgr.lookup(12345).has_value());
}

TEST(VirtualSession, PruneRemovesOldTerminalSessionsOnly) {
  VirtualSessionManager mgr(ttl(1000.0));
  const std::uint64_t done = mgr.open(1, 0.0);
  const std::uint64_t live = mgr.open(2, 0.0);
  (void)mgr.complete(done, 10.0);
  EXPECT_EQ(mgr.prune_terminal(20.0, 60.0), 0u);  // too recent
  EXPECT_EQ(mgr.prune_terminal(100.0, 60.0), 1u);
  EXPECT_FALSE(mgr.lookup(done).has_value());
  EXPECT_TRUE(mgr.lookup(live).has_value());
  EXPECT_EQ(mgr.total_sessions(), 1u);
}

// Regression for the lock-discipline migration (util/sync.hpp): before the
// session table was internally locked, concurrent open() calls raced the
// SplitMix64 token stream and the std::map insert — duplicate or lost
// tokens under load.  Hammers the table from several threads and checks
// every token is unique and every session is present.  Runs under the
// sanitizer CI jobs (label: concurrency).
TEST(VirtualSession, ConcurrentOpensYieldUniqueTokens) {
  VirtualSessionManager mgr(ttl(1000.0));
  constexpr std::size_t kThreads = 8;
  constexpr std::size_t kPerThread = 250;

  std::vector<std::vector<std::uint64_t>> tokens(kThreads);
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&mgr, &tokens, t] {
      tokens[t].reserve(kPerThread);
      for (std::size_t i = 0; i < kPerThread; ++i) {
        tokens[t].push_back(mgr.open(t * kPerThread + i, 0.0));
      }
    });
  }
  for (auto& th : threads) th.join();

  std::set<std::uint64_t> unique;
  for (const auto& per_thread : tokens) {
    for (const std::uint64_t token : per_thread) {
      EXPECT_NE(token, 0u);
      EXPECT_TRUE(unique.insert(token).second) << "duplicate token";
    }
  }
  EXPECT_EQ(unique.size(), kThreads * kPerThread);
  EXPECT_EQ(mgr.total_sessions(), kThreads * kPerThread);
  // Every session is intact and individually addressable.
  for (const std::uint64_t token : unique) {
    EXPECT_TRUE(mgr.lookup(token).has_value());
  }
}

TEST(VirtualSession, StageNamesCoverAllStages) {
  EXPECT_STREQ(to_string(SessionStage::kSelected), "selected");
  EXPECT_STREQ(to_string(SessionStage::kDownloading), "downloading");
  EXPECT_STREQ(to_string(SessionStage::kTraining), "training");
  EXPECT_STREQ(to_string(SessionStage::kReporting), "reporting");
  EXPECT_STREQ(to_string(SessionStage::kUploading), "uploading");
  EXPECT_STREQ(to_string(SessionStage::kCompleted), "completed");
  EXPECT_STREQ(to_string(SessionStage::kAborted), "aborted");
}

}  // namespace
}  // namespace papaya::fl
