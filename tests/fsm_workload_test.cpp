// FSM workload harness suite (`ctest -L fsm`): four composed workloads —
// each pairing one workload with an adversarial scenario — plus the harness
// meta-tests (byte-identical replay, failure repro lines, override parsing).
//
// Replaying a failure: every broken invariant prints
//   repro: ./fsm_workload_test --seed=S --steps=K --workload=W
// and this binary's main() installs those flags (or the PAPAYA_FSM_*
// environment — see fsm/repro.hpp) over each test's defaults before gtest
// runs.  --workload narrows the run to the failing workload; the others
// skip themselves.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <map>
#include <string>
#include <vector>

#include "fsm/repro.hpp"
#include "fsm/scenario.hpp"
#include "fsm/workload.hpp"
#include "fsm/workloads.hpp"

namespace papaya::fsm {
namespace {

HarnessOptions defaults(std::uint64_t seed, std::size_t actors,
                        std::uint64_t steps, std::uint64_t quiesce_every,
                        const Scenario* scenario) {
  HarnessOptions options;
  options.seed = seed;
  options.actors = actors;
  options.steps = steps;
  options.quiesce_every = quiesce_every;
  options.scenario = scenario;
  return apply_overrides(options);
}

// ------------------------------------------------- composed workload runs --

TEST(FsmWorkload, SessionChurnUnderDiurnalWave) {
  if (!workload_selected("session_churn")) GTEST_SKIP();
  DiurnalWaveScenario::Config wave_config;
  wave_config.period_steps = 48;
  wave_config.min_availability = 0.25;
  DiurnalWaveScenario wave(wave_config);
  const HarnessOptions options = defaults(101, 4, 160, 40, &wave);
  SessionChurnWorkload workload(options.actors);
  const HarnessResult result = run_workload(workload, options);
  EXPECT_TRUE(result.ok()) << result.summary();
  EXPECT_EQ(result.steps_run, options.steps);
}

TEST(FsmWorkload, CoordinatorFailoverUnderPartitionAndStragglers) {
  if (!workload_selected("coordinator_failover")) GTEST_SKIP();
  // Two of the three aggregators drop off the network mid-run: their
  // heartbeats stop, detect_failures moves (or orphans) their tasks, and
  // after the partition heals the first resumed heartbeat re-places any
  // orphans — all while a straggler storm skews the actor interleaving.
  PartitionScenario::Config partition_config;
  partition_config.begin_step = 40;
  partition_config.end_step = 90;
  partition_config.nodes = {0, 1};
  PartitionScenario partition(partition_config);
  StragglerStormScenario::Config storm_config;
  storm_config.begin_step = 30;
  storm_config.end_step = 120;
  storm_config.every_kth_actor = 2;
  storm_config.yields = 8;
  StragglerStormScenario storm(storm_config);
  ComposedScenario composed({&partition, &storm});
  const HarnessOptions options = defaults(202, 4, 160, 40, &composed);
  CoordinatorFailoverWorkload workload(options.actors);
  const HarnessResult result = run_workload(workload, options);
  EXPECT_TRUE(result.ok()) << result.summary();
  EXPECT_EQ(result.steps_run, options.steps);
}

TEST(FsmWorkload, ShardedAggregationUnderStragglerStorm) {
  if (!workload_selected("sharded_agg")) GTEST_SKIP();
  StragglerStormScenario::Config storm_config;
  storm_config.begin_step = 20;
  storm_config.end_step = 100;
  storm_config.every_kth_actor = 2;
  storm_config.yields = 16;
  StragglerStormScenario storm(storm_config);
  const HarnessOptions options = defaults(303, 4, 120, 40, &storm);
  ShardedAggWorkload workload(options.actors);
  const HarnessResult result = run_workload(workload, options);
  EXPECT_TRUE(result.ok()) << result.summary();
  EXPECT_EQ(result.steps_run, options.steps);
}

TEST(FsmWorkload, SecAggUnderByzantineFlood) {
  if (!workload_selected("secagg_flood")) GTEST_SKIP();
  ByzantineFloodScenario::Config flood_config;
  flood_config.probability = 0.45;
  ByzantineFloodScenario flood(flood_config);
  const HarnessOptions options = defaults(404, 3, 60, 20, &flood);
  SecAggFloodWorkload workload(options.actors);
  const HarnessResult result = run_workload(workload, options);
  EXPECT_TRUE(result.ok()) << result.summary();
  EXPECT_EQ(result.steps_run, options.steps);
  // The flood must actually have exercised every path, or the accounting
  // invariants were vacuous.
  EXPECT_GT(workload.valid_submitted(), 0u);
  EXPECT_GT(workload.malformed_submitted(), workload.wrong_length_submitted());
  EXPECT_GT(workload.wrong_length_submitted(), 0u);
}

// ---------------------------------------------------- harness meta-tests --

TEST(FsmWorkload, SameSeedReplaysByteIdenticalStepLog) {
  if (!workload_selected("session_churn")) GTEST_SKIP();
  DiurnalWaveScenario::Config wave_config;
  wave_config.period_steps = 32;
  wave_config.min_availability = 0.3;
  DiurnalWaveScenario wave(wave_config);
  const HarnessOptions options = defaults(7, 4, 80, 40, &wave);

  SessionChurnWorkload first(options.actors);
  const HarnessResult a = run_workload(first, options);
  SessionChurnWorkload second(options.actors);
  const HarnessResult b = run_workload(second, options);
  ASSERT_TRUE(a.ok()) << a.summary();
  ASSERT_TRUE(b.ok()) << b.summary();
  // The acceptance artifact: thread interleavings vary, the chosen
  // trajectory does not.
  EXPECT_EQ(a.step_log, b.step_log);

  HarnessOptions reseeded = options;
  reseeded.seed = options.seed + 1;
  SessionChurnWorkload third(reseeded.actors);
  const HarnessResult c = run_workload(third, reseeded);
  ASSERT_TRUE(c.ok()) << c.summary();
  EXPECT_NE(a.step_log, c.step_log);
}

/// A deliberately broken workload: the negative control proving a violated
/// invariant surfaces as a failure with a usable repro line.
class AlwaysBrokenWorkload final : public Workload {
 public:
  std::string name() const override { return "always_broken"; }
  std::string initial_state() const override { return "noop"; }
  std::vector<StateDef> states() override {
    return {{"noop", [](StepContext&) {}, {{"noop", 1.0}}}};
  }
  void check_quiesce(std::uint64_t step,
                     InvariantCollector& invariants) override {
    invariants.fail(name(), 0, step, "deliberately broken (negative control)");
  }
};

TEST(FsmWorkload, BrokenInvariantFailsWithReproLine) {
  AlwaysBrokenWorkload workload;
  HarnessOptions options;
  options.seed = 99;
  options.actors = 2;
  options.steps = 32;
  options.quiesce_every = 8;
  const HarnessResult result = run_workload(workload, options);
  EXPECT_FALSE(result.ok());
  // The run stops at the first failing quiesce barrier instead of burning
  // the remaining steps.
  EXPECT_EQ(result.steps_run, options.quiesce_every);
  const std::string summary = result.summary();
  EXPECT_NE(summary.find("deliberately broken"), std::string::npos) << summary;
  EXPECT_NE(summary.find("--seed=99"), std::string::npos) << summary;
  EXPECT_NE(summary.find("--steps=32"), std::string::npos) << summary;
  EXPECT_NE(summary.find("--workload=always_broken"), std::string::npos)
      << summary;
  EXPECT_NE(summary.find("PAPAYA_FSM_SEED=99"), std::string::npos) << summary;
  EXPECT_EQ(result.repro_line(),
            "repro: ./fsm_workload_test --seed=99 --steps=32 "
            "--workload=always_broken");
}

TEST(FsmWorkload, MalformedStateTableIsRejectedUpFront) {
  class BadTargetWorkload final : public Workload {
   public:
    std::string name() const override { return "bad_target"; }
    std::string initial_state() const override { return "a"; }
    std::vector<StateDef> states() override {
      return {{"a", [](StepContext&) {}, {{"no_such_state", 1.0}}}};
    }
  };
  BadTargetWorkload workload;
  EXPECT_THROW(run_workload(workload, HarnessOptions{}),
               std::invalid_argument);
}

// ------------------------------------------------------- override parsing --

TEST(FsmRepro, ParsesEnvironmentAndFlagsWithFlagsWinning) {
  const std::map<std::string, std::string> env_map = {
      {"PAPAYA_FSM_SEED", "11"},
      {"PAPAYA_FSM_STEPS", "22"},
      {"PAPAYA_FSM_WORKLOAD", "from_env"},
  };
  const EnvLookup env = [&env_map](const char* name) -> const char* {
    const auto it = env_map.find(name);
    return it == env_map.end() ? nullptr : it->second.c_str();
  };

  {
    const ReproOverrides o = parse_overrides(1, nullptr, env);
    ASSERT_TRUE(o.seed.has_value());
    EXPECT_EQ(*o.seed, 11u);
    ASSERT_TRUE(o.steps.has_value());
    EXPECT_EQ(*o.steps, 22u);
    ASSERT_TRUE(o.workload.has_value());
    EXPECT_EQ(*o.workload, "from_env");
    EXPECT_FALSE(o.long_run);
  }
  {
    const char* argv[] = {"fsm_workload_test", "--seed=33",
                          "--workload=from_flag", "--long",
                          "--gtest_color=no"};
    const ReproOverrides o = parse_overrides(5, argv, env);
    EXPECT_EQ(*o.seed, 33u);        // flag wins over env
    EXPECT_EQ(*o.steps, 22u);       // env survives where no flag given
    EXPECT_EQ(*o.workload, "from_flag");
    EXPECT_TRUE(o.long_run);
  }
  {
    // Garbage numerics are ignored rather than misparsed.
    const char* argv[] = {"fsm_workload_test", "--seed=12x"};
    const ReproOverrides o = parse_overrides(2, argv, nullptr);
    EXPECT_FALSE(o.seed.has_value());
    EXPECT_FALSE(o.workload.has_value());
  }
}

TEST(FsmRepro, AppliedOverridesScaleLongRunsUnlessStepsPinned) {
  // Exercise apply_overrides() against a scratch copy of the process-wide
  // overrides, restoring them afterwards so the other tests keep honouring
  // whatever main() installed.
  const ReproOverrides installed = overrides();
  HarnessOptions base;
  base.seed = 5;
  base.steps = 100;

  overrides() = ReproOverrides{};
  overrides().long_run = true;
  EXPECT_EQ(apply_overrides(base).steps, 1000u);

  overrides().steps = 7;
  EXPECT_EQ(apply_overrides(base).steps, 7u);  // explicit steps pin the soak

  overrides().workload = "session_churn";
  EXPECT_TRUE(workload_selected("session_churn"));
  EXPECT_FALSE(workload_selected("sharded_agg"));

  overrides() = installed;
}

}  // namespace
}  // namespace papaya::fsm

// Custom main: gtest strips its own flags first, then the repro flags are
// parsed from what remains (plus the PAPAYA_FSM_* environment).
int main(int argc, char** argv) {
  ::testing::InitGoogleTest(&argc, argv);
  papaya::fsm::overrides() = papaya::fsm::parse_overrides(
      argc, argv, [](const char* name) -> const char* {
        return std::getenv(name);
      });
  return RUN_ALL_TESTS();
}
