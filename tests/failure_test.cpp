// Failure-injection tests (App. E.4): Aggregator crashes, Coordinator
// restarts, Selector staleness, and client-visible behaviour through each.

#include <gtest/gtest.h>

#include "fl/aggregator.hpp"
#include "fl/coordinator.hpp"
#include "fl/selector.hpp"
#include "sim/fl_simulator.hpp"

namespace papaya {
namespace {

fl::TaskConfig tiny_task(const std::string& name = "t") {
  fl::TaskConfig cfg;
  cfg.name = name;
  cfg.mode = fl::TrainingMode::kAsync;
  cfg.concurrency = 4;
  cfg.aggregation_goal = 2;
  cfg.model_size = 2;
  return cfg;
}

util::Bytes update(std::uint64_t client, std::uint64_t version) {
  fl::ModelUpdate u;
  u.client_id = client;
  u.initial_version = version;
  u.num_examples = 1;
  u.delta = {0.1f, 0.1f};
  return u.serialize();
}

TEST(Failover, InFlightClientsOnFailedAggregatorAreLost) {
  // Clients active on the dead Aggregator are not in the replacement's
  // active set: their uploads are rejected and they re-select (the paper
  // accepts this as "isolated impact").
  fl::Aggregator a("a"), b("b");
  fl::Coordinator coord;
  coord.register_aggregator(a, 0.0);
  coord.register_aggregator(b, 0.0);
  coord.submit_task(tiny_task(), std::vector<float>(2, 0.0f), {});
  const std::string owner_id = coord.assignment_map().task_to_aggregator.at("t");
  fl::Aggregator& owner = owner_id == "a" ? a : b;
  fl::Aggregator& standby = owner_id == "a" ? b : a;

  ASSERT_TRUE(owner.client_join("t", 1, 0.0).accepted);
  coord.aggregator_report(standby.id(), 1, 100.0, {});
  coord.detect_failures(100.0, 30.0);
  ASSERT_TRUE(standby.has_task("t"));

  const auto result = standby.client_report("t", update(1, 0), 101.0);
  EXPECT_EQ(result.outcome, fl::ReportOutcome::kRejectedUnknown);
  // ...but the client can immediately rejoin on the new owner.
  EXPECT_TRUE(standby.client_join("t", 1, 102.0).accepted);
}

TEST(Failover, MultipleTasksAllMoveOffFailedAggregator) {
  fl::Aggregator a("a"), b("b"), c("c");
  fl::Coordinator coord;
  coord.register_aggregator(a, 0.0);
  coord.register_aggregator(b, 0.0);
  coord.register_aggregator(c, 0.0);
  for (int i = 0; i < 6; ++i) {
    coord.submit_task(tiny_task("t" + std::to_string(i)),
                      std::vector<float>(2, 0.0f), {});
  }
  // Fail aggregator "a"; others heartbeat.
  coord.aggregator_report("b", 1, 100.0, {});
  coord.aggregator_report("c", 1, 100.0, {});
  coord.detect_failures(100.0, 30.0);
  EXPECT_TRUE(a.task_names().empty());
  for (const auto& [task, agg_id] :
       coord.assignment_map().task_to_aggregator) {
    EXPECT_NE(agg_id, "a") << task;
  }
}

TEST(Failover, FailedAggregatorStaysOutOfPlacement) {
  fl::Aggregator a("a"), b("b");
  fl::Coordinator coord;
  coord.register_aggregator(a, 0.0);
  coord.register_aggregator(b, 0.0);
  coord.aggregator_report("b", 1, 100.0, {});
  coord.detect_failures(100.0, 30.0);  // "a" is now dead
  for (int i = 0; i < 4; ++i) {
    coord.submit_task(tiny_task("t" + std::to_string(i)),
                      std::vector<float>(2, 0.0f), {});
    EXPECT_EQ(coord.assignment_map().task_to_aggregator.at(
                  "t" + std::to_string(i)),
              "b");
  }
}

TEST(Failover, ShardedTaskKeepsCheckpointAndShardsAcrossFailover) {
  // detect_failures() must move a sharded task with its checkpointed model
  // *and* its shard count, rebuilding the same sharded pipeline on the
  // replacement Aggregator.
  fl::Aggregator a("a"), b("b");
  fl::Coordinator coord;
  coord.register_aggregator(a, 0.0);
  coord.register_aggregator(b, 0.0);
  fl::TaskConfig cfg = tiny_task();
  cfg.aggregator_shards = 3;
  coord.submit_task(cfg, std::vector<float>(2, 0.25f), {});
  const std::string owner_id = coord.assignment_map().task_to_aggregator.at("t");
  fl::Aggregator& owner = owner_id == "a" ? a : b;
  fl::Aggregator& standby = owner_id == "a" ? b : a;
  ASSERT_EQ(owner.task_shards("t"), 3u);

  // Drive one server step so the checkpoint version is non-trivial.
  ASSERT_TRUE(owner.client_join("t", 1, 0.0).accepted);
  ASSERT_TRUE(owner.client_join("t", 2, 0.0).accepted);
  owner.client_report("t", update(1, 0), 1.0);
  ASSERT_TRUE(owner.client_report("t", update(2, 0), 1.0).server_stepped);
  ASSERT_EQ(owner.model_version("t"), 1u);
  const std::vector<float> stepped_model = owner.model("t");

  coord.aggregator_report(standby.id(), 1, 100.0, {});
  coord.detect_failures(100.0, 30.0);
  ASSERT_TRUE(standby.has_task("t"));
  EXPECT_EQ(standby.model_version("t"), 1u);  // checkpoint version preserved
  EXPECT_EQ(standby.model("t"), stepped_model);
  EXPECT_EQ(standby.task_shards("t"), 3u);    // shard config preserved
  EXPECT_EQ(coord.task_shards("t"), 3u);

  // The rebuilt sharded pipeline keeps folding on the new owner.
  ASSERT_TRUE(standby.client_join("t", 7, 101.0).accepted);
  ASSERT_TRUE(standby.client_join("t", 8, 101.0).accepted);
  standby.client_report("t", update(7, 1), 102.0);
  EXPECT_TRUE(standby.client_report("t", update(8, 1), 102.0).server_stepped);
  EXPECT_EQ(standby.model_version("t"), 2u);
}

TEST(Failover, RecoveredAggregatorRejoinsViaReport) {
  // A failed Aggregator that starts heartbeating again becomes placeable.
  fl::Aggregator a("a"), b("b");
  fl::Coordinator coord;
  coord.register_aggregator(a, 0.0);
  coord.register_aggregator(b, 0.0);
  coord.aggregator_report("b", 1, 100.0, {});
  coord.detect_failures(100.0, 30.0);
  // "a" comes back.
  coord.aggregator_report("a", 1, 150.0, {});
  coord.submit_task(tiny_task("big"), std::vector<float>(2, 0.0f), {});
  // Load "b" heavily first so "a" is least-loaded for the next task.
  coord.submit_task(tiny_task("t2"), std::vector<float>(2, 0.0f), {});
  EXPECT_TRUE(a.has_task("big") || a.has_task("t2"));
}

TEST(Failover, StaleSelectorRoutesToOldOwnerUntilRefresh) {
  fl::Aggregator a("a"), b("b");
  fl::Coordinator coord;
  coord.register_aggregator(a, 0.0);
  coord.register_aggregator(b, 0.0);
  coord.submit_task(tiny_task(), std::vector<float>(2, 0.0f), {});
  const std::string original = coord.assignment_map().task_to_aggregator.at("t");

  fl::Selector stale("stale");
  stale.refresh(coord);

  fl::Aggregator& standby = original == "a" ? b : a;
  coord.aggregator_report(standby.id(), 1, 100.0, {});
  coord.detect_failures(100.0, 30.0);

  // The stale selector still points at the dead owner...
  EXPECT_EQ(*stale.route("t"), original);
  EXPECT_TRUE(stale.is_stale(coord));
  // ...until refresh, after which it routes to the replacement.
  stale.refresh(coord);
  EXPECT_EQ(*stale.route("t"), standby.id());
}

TEST(Failover, CoordinatorRestartPreservesRouting) {
  fl::Aggregator a("a"), b("b");
  fl::Coordinator coord;
  coord.register_aggregator(a, 0.0);
  coord.register_aggregator(b, 0.0);
  for (int i = 0; i < 4; ++i) {
    coord.submit_task(tiny_task("t" + std::to_string(i)),
                      std::vector<float>(2, 0.0f), {});
  }
  const auto before = coord.assignment_map().task_to_aggregator;
  coord.recover_from_aggregator_state(50.0);
  EXPECT_EQ(coord.assignment_map().task_to_aggregator, before);
  // Map version bumps so Selectors re-pull after the recovery period.
  fl::Selector sel("s");
  sel.refresh(coord);
  EXPECT_FALSE(sel.is_stale(coord));
}

TEST(Failover, SimulatedFailoverIsDeterministic) {
  sim::SimulationConfig cfg;
  cfg.task.name = "lm";
  cfg.task.mode = fl::TrainingMode::kAsync;
  cfg.task.concurrency = 12;
  cfg.task.aggregation_goal = 4;
  cfg.population.num_devices = 100;
  cfg.corpus.vocab_size = 32;
  cfg.model.vocab_size = 32;
  cfg.model.embed_dim = 6;
  cfg.model.hidden_dim = 8;
  cfg.num_aggregators = 2;
  cfg.aggregator_failure_at_s = 80.0;
  cfg.aggregator_failure_timeout_s = 15.0;
  cfg.max_sim_time_s = 400.0;
  cfg.seed = 21;
  sim::FlSimulator s1(cfg), s2(cfg);
  const auto r1 = s1.run();
  const auto r2 = s2.run();
  EXPECT_EQ(r1.final_model, r2.final_model);
  EXPECT_EQ(r1.server_steps, r2.server_steps);
}

TEST(Failover, DropoutHeavyPopulationStillConverges) {
  // 30% dropouts: replacements keep the pipeline fed and training converges.
  sim::SimulationConfig cfg;
  cfg.task.name = "lm";
  cfg.task.mode = fl::TrainingMode::kAsync;
  cfg.task.concurrency = 16;
  cfg.task.aggregation_goal = 4;
  cfg.population.num_devices = 150;
  cfg.population.dropout_prob = 0.30;
  cfg.corpus.vocab_size = 32;
  cfg.model.vocab_size = 32;
  cfg.model.embed_dim = 8;
  cfg.model.hidden_dim = 12;
  cfg.server_opt.lr = 0.05f;
  cfg.max_server_steps = 25;
  cfg.eval_every_steps = 5;
  cfg.seed = 13;
  sim::FlSimulator simulator(cfg);
  const auto result = simulator.run();
  EXPECT_LT(result.final_eval_loss, result.loss_curve.values.front());
  EXPECT_GT(result.task_stats.clients_failed, 0u);
}

}  // namespace
}  // namespace papaya
