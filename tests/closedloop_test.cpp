// The RNG stream hierarchy and closed-loop scheduling (ctest -L closedloop).
//
// Determinism contract under test:
//  1. util::StreamRng draw i is a pure function of (root, entity, purpose, i).
//  2. sim::SimStreams draws are independent of request interleaving — the
//     property that makes a reactive (closed-loop) event schedule legal.
//  3. TaskConfig::closed_loop_clients changes *when* reports arrive (the
//     pipelined arrival process), never *what* any device draws.

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <vector>

#include "fl/client_runtime.hpp"
#include "sim/fl_simulator.hpp"
#include "sim/streams.hpp"
#include "util/rng.hpp"

namespace papaya::sim {
namespace {

// ---------------------------------------------------------------- StreamRng --

TEST(StreamRng, DrawIsPureFunctionOfKeyAndIndex) {
  util::StreamRng a(7, 3, 2);
  util::StreamRng b(7, 3, 2);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next(), b.next());

  // Random access: seeking back replays the identical suffix.
  a.seek(10);
  util::StreamRng c(7, 3, 2);
  c.seek(10);
  for (int i = 0; i < 50; ++i) EXPECT_EQ(a.next(), c.next());
  EXPECT_EQ(a.draw_index(), 60u);
}

TEST(StreamRng, MatchesSplitMix64OverTheSameKey) {
  // The stream *is* SplitMix64 started at its key, with the counter held
  // explicitly — so existing SplitMix64-derived behaviour is embeddable.
  const std::uint64_t key = util::StreamRng::derive_key(11, 4, 9);
  util::StreamRng stream(key);
  util::SplitMix64 reference(key);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(stream.next(), reference.next());
}

TEST(StreamRng, HierarchicalKeysDecorrelate) {
  // Sibling streams (same root, different entity or purpose) must not
  // collide or share prefixes.
  util::StreamRng base(5, 1, 1);
  util::StreamRng other_entity(5, 2, 1);
  util::StreamRng other_purpose(5, 1, 2);
  util::StreamRng other_root(6, 1, 1);
  EXPECT_NE(base.key(), other_entity.key());
  EXPECT_NE(base.key(), other_purpose.key());
  EXPECT_NE(base.key(), other_root.key());
  EXPECT_NE(base.next(), other_entity.next());
  EXPECT_NE(base.next(), other_purpose.next());
}

TEST(StreamRng, DistributionsBehave) {
  util::StreamRng rng(13, 0, 1);
  for (int i = 0; i < 1000; ++i) {
    const double u = rng.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
    EXPECT_LT(rng.uniform_int(17), 17u);
    EXPECT_GT(rng.lognormal(0.0, 0.5), 0.0);
    EXPECT_GT(rng.exponential(2.0), 0.0);
  }
  // Bernoulli frequency sanity.
  util::StreamRng coin(13, 0, 2);
  int heads = 0;
  for (int i = 0; i < 10000; ++i) heads += coin.bernoulli(0.3);
  EXPECT_NEAR(heads / 10000.0, 0.3, 0.03);
}

// --------------------------------------------------------------- SimStreams --

TEST(SimStreams, PerEntityDrawsAreIndependentOfInterleaving) {
  // Same requests, two different global interleavings: every
  // (entity, purpose) sequence must come out identical.  This is the
  // invariant that lets a closed-loop schedule reorder events freely.
  SimStreams a(7);
  SimStreams b(7);

  std::vector<double> a_exec_1, a_exec_2, a_back_1;
  for (int i = 0; i < 20; ++i) {
    a_exec_1.push_back(a.uniform01(1, StreamPurpose::kExecTime));
    a_back_1.push_back(a.exponential(1, StreamPurpose::kCheckInBackoff, 2.0));
    a_exec_2.push_back(a.uniform01(2, StreamPurpose::kExecTime));
  }

  std::vector<double> b_exec_1, b_exec_2, b_back_1;
  for (int i = 0; i < 20; ++i) {  // entity 2 first, purposes swapped
    b_exec_2.push_back(b.uniform01(2, StreamPurpose::kExecTime));
  }
  for (int i = 0; i < 20; ++i) {
    b_back_1.push_back(b.exponential(1, StreamPurpose::kCheckInBackoff, 2.0));
    b_exec_1.push_back(b.uniform01(1, StreamPurpose::kExecTime));
  }

  EXPECT_EQ(a_exec_1, b_exec_1);
  EXPECT_EQ(a_exec_2, b_exec_2);
  EXPECT_EQ(a_back_1, b_back_1);
}

TEST(SimStreams, TrainingSeedIsScheduleFree) {
  // Derived from the stream hierarchy, untouched by other draws.
  SimStreams streams(21);
  const std::uint64_t before = streams.training_seed(5, 3);
  (void)streams.uniform01(5, StreamPurpose::kExecTime);
  (void)streams.uniform01(6, StreamPurpose::kDropout);
  EXPECT_EQ(streams.training_seed(5, 3), before);
  EXPECT_NE(streams.training_seed(5, 3), streams.training_seed(6, 3));
  EXPECT_NE(streams.training_seed(5, 3), streams.training_seed(5, 4));
}

// ---------------------------------------------------- Closed-loop simulator --

SimulationConfig small_config() {
  SimulationConfig cfg;
  cfg.task.name = "lm";
  cfg.task.mode = fl::TrainingMode::kAsync;
  cfg.task.concurrency = 12;
  cfg.task.aggregation_goal = 2;
  cfg.population.num_devices = 100;
  cfg.corpus.vocab_size = 32;
  cfg.model.vocab_size = 32;
  cfg.model.embed_dim = 6;
  cfg.model.hidden_dim = 8;
  cfg.max_server_steps = 15;
  cfg.eval_every_steps = 10;
  cfg.seed = 5;
  // Slow uplink + small chunks: uploads are a real fraction of a
  // participation and pipeline across several chunks, so the closed-loop
  // arrival process is measurably earlier than the sequential charge.
  cfg.network.mean_upload_mbps = 0.002;
  cfg.upload_chunk_bytes = 256;
  return cfg;
}

TEST(ClosedLoop, ForcesPipelinedRuntime) {
  SimulationConfig cfg = small_config();
  cfg.task.closed_loop_clients = true;
  cfg.task.pipelined_clients = false;  // normalized on
  FlSimulator simulator(cfg);
  const auto result = simulator.run();
  EXPECT_EQ(result.server_steps, 15u);

  // In closed-loop mode the report *is* the pipelined arrival: the
  // round-trip latency equals the pipelined latency on every completed
  // participation (no separate observational column).
  std::size_t completed = 0;
  for (const auto& p : result.participations) {
    if (p.round_latency_s <= 0.0) continue;
    ++completed;
    // round_latency is measured on the event clock ((join + delay) - join),
    // so it matches the planned pipelined latency only up to float
    // non-associativity.
    EXPECT_NEAR(p.round_latency_s, p.pipelined_latency_s,
                1e-9 * p.round_latency_s);
    EXPECT_GT(p.upload_chunks, 1u);
  }
  EXPECT_GT(completed, 0u);
}

TEST(ClosedLoop, DeterministicFromSeed) {
  SimulationConfig cfg = small_config();
  cfg.task.closed_loop_clients = true;
  cfg.record_utilization = true;
  FlSimulator first(cfg);
  FlSimulator second(cfg);
  const auto a = first.run();
  const auto b = second.run();
  EXPECT_EQ(a.final_model, b.final_model);
  EXPECT_DOUBLE_EQ(a.end_time_s, b.end_time_s);
  EXPECT_EQ(a.loss_curve.times, b.loss_curve.times);
  EXPECT_EQ(a.loss_curve.values, b.loss_curve.values);
  EXPECT_EQ(a.busy_clients.times, b.busy_clients.times);
}

TEST(ClosedLoop, PerEntityOpenLoopDeterministicFromSeed) {
  SimulationConfig cfg = small_config();
  FlSimulator first(cfg);
  FlSimulator second(cfg);
  const auto a = first.run();
  const auto b = second.run();
  EXPECT_EQ(a.final_model, b.final_model);
  EXPECT_DOUBLE_EQ(a.end_time_s, b.end_time_s);
}

TEST(ClosedLoop, ChangesWhenUpdatesArriveNotWhatClientsDraw) {
  // Open loop vs closed loop over the same per-entity streams.  The arrival
  // process changes (overlapped uploads land earlier, so the same number of
  // server steps completes sooner), but every device's draw sequence is
  // keyed to (entity, purpose, index): its k-th participation samples the
  // identical execution time in both runs, no matter how differently the
  // two schedules interleave.
  SimulationConfig cfg = small_config();
  cfg.task.pipelined_clients = true;
  FlSimulator open_loop(cfg);
  cfg.task.closed_loop_clients = true;
  FlSimulator closed_loop(cfg);

  const auto open = open_loop.run();
  const auto closed = closed_loop.run();
  EXPECT_EQ(open.server_steps, closed.server_steps);
  EXPECT_LT(closed.end_time_s, open.end_time_s);

  auto per_client_exec = [](const SimulationResult& r) {
    std::map<std::uint64_t, std::vector<double>> exec;
    for (const auto& p : r.participations) {
      exec[p.client_id].push_back(p.exec_time_s);
    }
    return exec;
  };
  const auto open_exec = per_client_exec(open);
  const auto closed_exec = per_client_exec(closed);
  std::size_t compared = 0;
  for (const auto& [client, open_draws] : open_exec) {
    const auto it = closed_exec.find(client);
    if (it == closed_exec.end()) continue;
    const std::size_t n = std::min(open_draws.size(), it->second.size());
    for (std::size_t k = 0; k < n; ++k) {
      EXPECT_DOUBLE_EQ(open_draws[k], it->second[k])
          << "client " << client << " participation " << k;
      ++compared;
    }
  }
  EXPECT_GT(compared, 10u);
}

TEST(ClosedLoop, PipelinedSessionExposesArrivalTimes) {
  // The event API the closed-loop scheduler consumes: per-chunk upload
  // completions, last entry == finish_time, non-decreasing.
  fl::PipelineTimings timings;
  timings.train_s = 10.0;
  timings.serialize_chunk_s = {1.0, 1.0, 1.0};
  timings.upload_chunk_s = {4.0, 4.0, 4.0};
  fl::PipelinedClientSession session(timings);
  const auto arrivals = session.upload_completion_times();
  ASSERT_EQ(arrivals.size(), 3u);
  EXPECT_TRUE(std::is_sorted(arrivals.begin(), arrivals.end()));
  fl::PipelinedClientSession replay(timings);
  EXPECT_DOUBLE_EQ(arrivals.back(), replay.finish_time());
  // And it does not disturb the session's own cursor.
  EXPECT_FALSE(session.done());
  EXPECT_DOUBLE_EQ(session.now(), 0.0);
}

}  // namespace
}  // namespace papaya::sim
