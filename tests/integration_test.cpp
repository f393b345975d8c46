// End-to-end integration tests: full simulations driving the production
// components, sync vs async semantics at the system level, SecAgg wired into
// a server step, and determinism.

#include <gtest/gtest.h>

#include <cmath>

#include "secagg/secagg_batch.hpp"
#include "secagg/secagg_client.hpp"
#include "sim/fl_simulator.hpp"
#include "util/stats.hpp"

namespace papaya {
namespace {

sim::SimulationConfig small_config(fl::TrainingMode mode) {
  sim::SimulationConfig cfg;
  cfg.task.name = "lm";
  cfg.task.mode = mode;
  if (mode == fl::TrainingMode::kAsync) {
    cfg.task.concurrency = 16;
    cfg.task.aggregation_goal = 4;
  } else {
    cfg.task.aggregation_goal = 12;
    cfg.task.concurrency = fl::TaskConfig::over_selected_cohort(12, 0.3);
  }
  cfg.task.max_staleness = 20;
  cfg.task.client_timeout_s = 2000.0;

  cfg.population.num_devices = 120;
  cfg.population.seed = 5;
  cfg.population.min_examples = 4;
  cfg.population.max_examples = 24;

  cfg.corpus.vocab_size = 32;
  cfg.model.vocab_size = 32;
  cfg.model.embed_dim = 8;
  cfg.model.hidden_dim = 12;
  cfg.model.context = 2;
  cfg.model_kind = sim::ModelKind::kMlp;

  cfg.trainer.learning_rate = 0.3f;
  cfg.trainer.compute_losses = false;
  cfg.server_opt.lr = 0.05f;

  cfg.max_server_steps = 25;
  cfg.eval_every_steps = 5;
  cfg.eval_set_size = 80;
  cfg.seed = 11;
  cfg.record_utilization = true;
  return cfg;
}

TEST(Integration, AsyncTrainingReducesEvalLoss) {
  sim::FlSimulator simulator(small_config(fl::TrainingMode::kAsync));
  const sim::SimulationResult result = simulator.run();
  ASSERT_GE(result.server_steps, 25u);
  ASSERT_GE(result.loss_curve.size(), 2u);
  EXPECT_LT(result.final_eval_loss, result.loss_curve.values.front());
  EXPECT_GT(result.comm_trips, 0u);
}

TEST(Integration, SyncTrainingReducesEvalLoss) {
  sim::FlSimulator simulator(small_config(fl::TrainingMode::kSync));
  const sim::SimulationResult result = simulator.run();
  ASSERT_GE(result.server_steps, 25u);
  EXPECT_LT(result.final_eval_loss, result.loss_curve.values.front());
}

TEST(Integration, AsyncUtilizationStaysNearConcurrency) {
  // Fig. 7: async keeps utilization ~flat near the concurrency target.
  auto cfg = small_config(fl::TrainingMode::kAsync);
  cfg.max_server_steps = 40;
  sim::FlSimulator simulator(cfg);
  const auto result = simulator.run();

  // Skip the warm-up third, then expect high mean utilization.
  const auto& series = result.active_clients;
  ASSERT_GT(series.size(), 10u);
  const double t_warm = result.end_time_s / 3.0;
  std::vector<double> active;
  for (std::size_t i = 0; i < series.size(); ++i) {
    if (series.times[i] >= t_warm) active.push_back(series.values[i]);
  }
  ASSERT_FALSE(active.empty());
  EXPECT_GT(util::mean(active), 0.8 * 16);
}

TEST(Integration, SyncUtilizationSawtoothsBelowAsync) {
  auto sync_cfg = small_config(fl::TrainingMode::kSync);
  sync_cfg.max_server_steps = 15;
  sim::FlSimulator sync_sim(sync_cfg);
  const auto sync_result = sync_sim.run();

  // Sync utilization dips toward zero at round boundaries: its minimum after
  // warm-up must be far below the cohort size.
  const auto& series = sync_result.active_clients;
  ASSERT_GT(series.size(), 10u);
  const double t_warm = sync_result.end_time_s / 3.0;
  double min_active = 1e9;
  for (std::size_t i = 0; i < series.size(); ++i) {
    if (series.times[i] >= t_warm) {
      min_active = std::min(min_active, series.values[i]);
    }
  }
  EXPECT_LT(min_active, 4.0);
}

TEST(Integration, AsyncProducesMoreServerStepsPerSimHour) {
  // Fig. 8's mechanism at miniature scale: same concurrency, async K=4 vs
  // sync goal=12 -> async steps much more often.
  auto async_cfg = small_config(fl::TrainingMode::kAsync);
  async_cfg.task.concurrency = 16;
  async_cfg.task.aggregation_goal = 4;
  async_cfg.max_server_steps = 30;
  sim::FlSimulator async_sim(async_cfg);
  const auto async_result = async_sim.run();

  auto sync_cfg = small_config(fl::TrainingMode::kSync);
  sync_cfg.task.aggregation_goal = 12;
  sync_cfg.task.concurrency = 16;
  sync_cfg.max_server_steps = 30;
  sim::FlSimulator sync_sim(sync_cfg);
  const auto sync_result = sync_sim.run();

  const double async_rate =
      static_cast<double>(async_result.server_steps) / async_result.end_time_s;
  const double sync_rate =
      static_cast<double>(sync_result.server_steps) / sync_result.end_time_s;
  EXPECT_GT(async_rate, 1.5 * sync_rate);
}

TEST(Integration, DeterministicGivenSeed) {
  auto cfg = small_config(fl::TrainingMode::kAsync);
  cfg.max_server_steps = 10;
  sim::FlSimulator a(cfg), b(cfg);
  const auto ra = a.run();
  const auto rb = b.run();
  EXPECT_EQ(ra.server_steps, rb.server_steps);
  EXPECT_EQ(ra.comm_trips, rb.comm_trips);
  EXPECT_DOUBLE_EQ(ra.end_time_s, rb.end_time_s);
  EXPECT_EQ(ra.final_model, rb.final_model);
}

TEST(Integration, ParticipationRecordsCoverAllStartedParticipations) {
  auto cfg = small_config(fl::TrainingMode::kAsync);
  cfg.max_server_steps = 10;
  sim::FlSimulator simulator(cfg);
  const auto result = simulator.run();
  // Every recorded participation is one of: applied, dropped, or discarded;
  // records can lag participations started (in-flight at stop).
  EXPECT_LE(result.participations.size(), result.participations_started);
  EXPECT_GT(result.participations.size(), 0u);
  std::size_t applied = 0;
  for (const auto& p : result.participations) applied += p.update_applied;
  EXPECT_EQ(applied, result.task_stats.updates_applied);
}

TEST(Integration, MaxAppliedUpdatesBudgetStopsRun) {
  auto cfg = small_config(fl::TrainingMode::kAsync);
  cfg.max_server_steps = 0;
  cfg.max_applied_updates = 20;
  sim::FlSimulator simulator(cfg);
  const auto result = simulator.run();
  EXPECT_GE(result.task_stats.updates_applied, 20u);
  EXPECT_LT(result.task_stats.updates_applied, 20u + cfg.task.aggregation_goal);
}

TEST(Integration, SecAggAggregateMatchesPlaintextAggregate) {
  // Wire SecAgg around a buffer of real model updates and check the secure
  // weighted sum matches the plaintext sum to fixed-point resolution.
  const std::size_t model_size = 64;
  const std::size_t n_clients = 6;

  const crypto::DhParams& dh = crypto::DhParams::simulation256();
  const secagg::SimulatedEnclavePlatform platform(1);
  const crypto::Digest binary = crypto::Sha256::hash(std::string("tsa"));
  crypto::VerifiableLog log;
  log.append(binary);

  secagg::SecAggParams params;
  params.vector_length = model_size;
  params.threshold = n_clients;
  const secagg::FixedPointParams fp =
      secagg::FixedPointParams::for_budget(2.0, n_clients);

  secagg::TrustedSecureAggregator tsa(dh, params, n_clients + 2, platform,
                                      binary, 3);
  secagg::QuoteExpectations expectations{params.hash(dh), log.snapshot()};
  secagg::BatchedSecureAggregationSession session(tsa, model_size, n_clients);

  util::Rng rng(17);
  std::vector<float> plaintext_sum(model_size, 0.0f);
  for (std::uint64_t c = 0; c < n_clients; ++c) {
    std::vector<float> delta(model_size);
    for (auto& v : delta) v = static_cast<float>(rng.uniform(-0.5, 0.5));
    for (std::size_t i = 0; i < model_size; ++i) plaintext_sum[i] += delta[i];

    secagg::SecAggClient client(dh, fp, c);
    const auto contribution = client.prepare_contribution(
        platform, expectations, tsa.initial_messages().at(c),
        log.prove_inclusion(0), delta);
    ASSERT_TRUE(contribution.has_value());
    ASSERT_EQ(session.accept_batch({&*contribution, 1}).front(),
              secagg::TsaAccept::kAccepted);
  }

  const auto secure_sum = session.finalize_decoded(fp);
  ASSERT_TRUE(secure_sum.has_value());
  for (std::size_t i = 0; i < model_size; ++i) {
    EXPECT_NEAR((*secure_sum)[i], plaintext_sum[i],
                static_cast<double>(n_clients) / fp.scale + 1e-4);
  }
}

TEST(Integration, SecAggEnabledTrainingStillConverges) {
  // Full simulation with the secure aggregation path in the training loop:
  // the Aggregator never sees plaintext updates, and the model still learns.
  auto cfg = small_config(fl::TrainingMode::kAsync);
  cfg.task.secagg_enabled = true;
  cfg.task.concurrency = 8;
  cfg.task.aggregation_goal = 4;
  cfg.population.num_devices = 60;
  cfg.max_server_steps = 12;
  cfg.eval_every_steps = 4;
  sim::FlSimulator simulator(cfg);
  const sim::SimulationResult result = simulator.run();
  ASSERT_GE(result.server_steps, 12u);
  EXPECT_LT(result.final_eval_loss, result.loss_curve.values.front());
}

TEST(Integration, DpTrainingConvergesWithModestNoise) {
  auto cfg = small_config(fl::TrainingMode::kAsync);
  cfg.task.dp.enabled = true;
  cfg.task.dp.clip_norm = 5.0f;
  cfg.task.dp.noise_multiplier = 0.02f;
  cfg.max_server_steps = 40;
  sim::FlSimulator simulator(cfg);
  const sim::SimulationResult result = simulator.run();
  EXPECT_LT(result.final_eval_loss, result.loss_curve.values.front());
}

TEST(Integration, TrainingSurvivesAggregatorFailover) {
  // App. E.4: the Aggregator owning the task crashes mid-training; the
  // Coordinator detects the missed heartbeats, moves the task (checkpointed
  // model + version) to the other Aggregator, Selectors refresh, and
  // training continues to the target.
  auto cfg = small_config(fl::TrainingMode::kAsync);
  cfg.num_aggregators = 2;
  cfg.max_server_steps = 0;
  cfg.target_loss = 3.35;
  cfg.max_sim_time_s = 2.0e5;
  cfg.aggregator_failure_at_s = 60.0;
  cfg.aggregator_failure_timeout_s = 20.0;
  sim::FlSimulator simulator(cfg);
  const sim::SimulationResult result = simulator.run();
  EXPECT_TRUE(result.reached_target);
  EXPECT_GT(result.time_to_target_s, 60.0);  // target hit after the crash
}

TEST(Integration, FailoverPreservesModelVersionAndCheckpoint) {
  // Component-level: version continuity across reassignment.
  fl::Aggregator a("a"), b("b");
  fl::Coordinator coord;
  coord.register_aggregator(a, 0.0);
  coord.register_aggregator(b, 0.0);
  fl::TaskConfig cfg;
  cfg.name = "t";
  cfg.mode = fl::TrainingMode::kAsync;
  cfg.concurrency = 4;
  cfg.aggregation_goal = 1;
  cfg.model_size = 2;
  coord.submit_task(cfg, std::vector<float>(2, 0.0f), {.lr = 0.1f});
  const std::string owner_id = coord.assignment_map().task_to_aggregator.at("t");
  fl::Aggregator& owner = owner_id == "a" ? a : b;
  fl::Aggregator& other = owner_id == "a" ? b : a;

  // Drive three server steps on the owner.
  for (std::uint64_t c = 1; c <= 3; ++c) {
    owner.client_join("t", c, 0.0);
    fl::ModelUpdate u;
    u.client_id = c;
    u.initial_version = owner.model_version("t");
    u.num_examples = 1;
    u.delta = {0.1f, 0.1f};
    owner.client_report("t", u.serialize(), 1.0);
  }
  EXPECT_EQ(owner.model_version("t"), 3u);
  const float model_before = owner.model("t")[0];

  // Crash the owner: only the other aggregator heartbeats.
  coord.aggregator_report(other.id(), 1, 100.0, {});
  coord.detect_failures(100.0, 30.0);
  ASSERT_TRUE(other.has_task("t"));
  EXPECT_EQ(other.model_version("t"), 3u);  // version survived
  EXPECT_FLOAT_EQ(other.model("t")[0], model_before);
}

TEST(Integration, LstmModelTrainsInSimulator) {
  auto cfg = small_config(fl::TrainingMode::kAsync);
  cfg.model_kind = sim::ModelKind::kLstm;
  cfg.model.embed_dim = 6;
  cfg.model.hidden_dim = 8;
  cfg.task.concurrency = 8;
  cfg.task.aggregation_goal = 4;
  cfg.population.num_devices = 60;
  cfg.max_server_steps = 15;
  cfg.eval_every_steps = 5;
  cfg.eval_set_size = 40;
  sim::FlSimulator simulator(cfg);
  const sim::SimulationResult result = simulator.run();
  EXPECT_LT(result.final_eval_loss, result.loss_curve.values.front());
}

TEST(Integration, OverSelectionBiasesParticipantDistribution) {
  // Miniature Sec. 7.4: with over-selection, the applied-update exec-time
  // distribution is visibly faster than the full started distribution.
  auto cfg = small_config(fl::TrainingMode::kSync);
  cfg.task.aggregation_goal = 8;
  cfg.task.concurrency = fl::TaskConfig::over_selected_cohort(8, 0.5);
  cfg.max_server_steps = 40;
  cfg.population.num_devices = 200;
  sim::FlSimulator simulator(cfg);
  const auto result = simulator.run();

  std::vector<double> applied_times, all_times;
  for (const auto& p : result.participations) {
    if (p.dropped_out) continue;
    all_times.push_back(p.exec_time_s);
    if (p.update_applied) applied_times.push_back(p.exec_time_s);
  }
  ASSERT_GT(applied_times.size(), 50u);
  ASSERT_GT(all_times.size(), applied_times.size());
  EXPECT_LT(util::mean(applied_times), util::mean(all_times));
}

}  // namespace
}  // namespace papaya
