// Tests for CSV trace export: quoting/parsing round-trips, table builders,
// and the end-to-end export of a real simulation run.  Also hosts the
// simulator-grid invariant sweep: for every (mode, secagg, failure) cell,
// one short run must satisfy the cross-cutting accounting invariants.

#include <gtest/gtest.h>

#include <cstdlib>
#include <tuple>

#include "sim/fl_simulator.hpp"
#include "sim/trace_export.hpp"

namespace papaya::sim {
namespace {

// ------------------------------------------------------------------- CSV ----

TEST(Csv, SimpleTableRoundTrips) {
  CsvTable table;
  table.header = {"a", "b"};
  table.rows = {{"1", "2"}, {"3", "4"}};
  const CsvTable back = parse_csv(to_csv(table));
  EXPECT_EQ(back.header, table.header);
  EXPECT_EQ(back.rows, table.rows);
}

TEST(Csv, QuotingRoundTripsHostileFields) {
  CsvTable table;
  table.header = {"name", "note"};
  table.rows = {{"comma,field", "quote\"field"},
                {"newline\nfield", "crlf\r\nfield"},
                {"", "plain"}};
  const CsvTable back = parse_csv(to_csv(table));
  ASSERT_EQ(back.rows.size(), 3u);
  EXPECT_EQ(back.rows[0][0], "comma,field");
  EXPECT_EQ(back.rows[0][1], "quote\"field");
  EXPECT_EQ(back.rows[1][0], "newline\nfield");
  // \r inside a quoted field is preserved verbatim by the writer; the
  // reader tolerates CRLF line endings outside quotes.
  EXPECT_EQ(back.rows[2][1], "plain");
}

TEST(Csv, RaggedRowRejectedOnWrite) {
  CsvTable table;
  table.header = {"a", "b"};
  table.rows = {{"only-one"}};
  EXPECT_THROW(to_csv(table), std::invalid_argument);
}

TEST(Csv, RaggedRowRejectedOnParse) {
  EXPECT_THROW(parse_csv("a,b\n1\n"), std::invalid_argument);
}

TEST(Csv, UnterminatedQuoteRejected) {
  EXPECT_THROW(parse_csv("a\n\"oops\n"), std::invalid_argument);
}

TEST(Csv, EmptyInputRejected) {
  EXPECT_THROW(parse_csv(""), std::invalid_argument);
}

TEST(Csv, TimeSeriesTable) {
  TimeSeries series;
  series.add(0.5, 3.25);
  series.add(1.5, 3.00);
  const CsvTable table = time_series_table(series, "eval_loss");
  ASSERT_EQ(table.num_rows(), 2u);
  EXPECT_EQ(table.header[1], "eval_loss");
  EXPECT_EQ(std::atof(table.rows[1][1].c_str()), 3.0);
}

TEST(Csv, ParticipationTableColumns) {
  ParticipationRecord rec;
  rec.client_id = 9;
  rec.exec_time_s = 12.5;
  rec.num_examples = 40;
  rec.update_applied = true;
  rec.staleness = 3;
  const CsvTable table = participation_table({rec});
  ASSERT_EQ(table.num_rows(), 1u);
  EXPECT_EQ(table.rows[0][0], "9");
  EXPECT_EQ(table.rows[0][2], "12.5");
  EXPECT_EQ(table.rows[0][4], "1");
  EXPECT_EQ(table.rows[0][6], "3");
}

TEST(Csv, ExportTracesFromRealRun) {
  SimulationConfig cfg;
  cfg.task.name = "lm";
  cfg.task.mode = fl::TrainingMode::kAsync;
  cfg.task.concurrency = 8;
  cfg.task.aggregation_goal = 2;
  cfg.population.num_devices = 80;
  cfg.corpus.vocab_size = 32;
  cfg.model.vocab_size = 32;
  cfg.model.embed_dim = 6;
  cfg.model.hidden_dim = 8;
  cfg.max_server_steps = 10;
  cfg.eval_every_steps = 5;
  cfg.record_utilization = true;
  cfg.seed = 3;
  FlSimulator simulator(cfg);
  const SimulationResult result = simulator.run();

  const SimulationTraces traces = export_traces(result);
  EXPECT_GT(traces.loss_curve.num_rows(), 0u);
  EXPECT_GT(traces.participations.num_rows(), 0u);
  EXPECT_GE(traces.summary.num_rows(), 9u);
  // The whole bundle survives serialization.
  for (const CsvTable* t : {&traces.loss_curve, &traces.active_clients,
                            &traces.participations, &traces.summary}) {
    if (t->num_rows() == 0 && t->header.empty()) continue;
    const CsvTable back = parse_csv(to_csv(*t));
    EXPECT_EQ(back.rows, t->rows);
  }
  // Summary values agree with the result object.
  for (const auto& row : traces.summary.rows) {
    if (row[0] == "server_steps") {
      EXPECT_EQ(row[1], std::to_string(result.server_steps));
    }
  }
}

// ------------------------------------------------ Simulator invariant grid --

struct GridParam {
  fl::TrainingMode mode;
  bool secagg;
  bool inject_failure;
};

class SimulatorGrid : public ::testing::TestWithParam<GridParam> {};

TEST_P(SimulatorGrid, AccountingInvariantsHold) {
  const GridParam p = GetParam();
  SimulationConfig cfg;
  cfg.task.name = "lm";
  cfg.task.mode = p.mode;
  cfg.task.aggregation_goal = 3;
  cfg.task.concurrency =
      p.mode == fl::TrainingMode::kSync
          ? fl::TaskConfig::over_selected_cohort(3, 0.3)
          : 9;
  cfg.task.secagg_enabled = p.secagg;
  cfg.population.num_devices = 90;
  cfg.corpus.vocab_size = 32;
  cfg.model.vocab_size = 32;
  cfg.model.embed_dim = 6;
  cfg.model.hidden_dim = 8;
  cfg.max_server_steps = 8;
  cfg.max_sim_time_s = 1.0e5;
  cfg.eval_every_steps = 4;
  cfg.num_aggregators = p.inject_failure ? 2 : 1;
  if (p.inject_failure) {
    cfg.aggregator_failure_at_s = 100.0;
    cfg.aggregator_failure_timeout_s = 20.0;
  }
  cfg.seed = 17;

  FlSimulator simulator(cfg);
  const SimulationResult result = simulator.run();

  // Conservation: received >= applied + discarded; steps quantized by K
  // (an in-flight partial buffer may remain at shutdown).
  const fl::TaskStats& stats = result.task_stats;
  EXPECT_GE(stats.updates_received,
            stats.updates_applied + stats.updates_discarded);
  EXPECT_EQ(result.server_steps,
            stats.updates_applied / cfg.task.aggregation_goal);
  EXPECT_GT(result.server_steps, 0u);
  // Comm trips are the received updates (Fig. 3's metric).
  EXPECT_EQ(result.comm_trips, stats.updates_received);
  // Participations cover at least the received updates.
  EXPECT_GE(result.participations_started, stats.updates_received);
  // Time moved and the final model is finite.
  EXPECT_GT(result.end_time_s, 0.0);
  for (float v : result.final_model) EXPECT_TRUE(std::isfinite(v));
}

INSTANTIATE_TEST_SUITE_P(
    Cells, SimulatorGrid,
    ::testing::Values(GridParam{fl::TrainingMode::kAsync, false, false},
                      GridParam{fl::TrainingMode::kAsync, true, false},
                      GridParam{fl::TrainingMode::kAsync, false, true},
                      GridParam{fl::TrainingMode::kSync, false, false},
                      GridParam{fl::TrainingMode::kSync, true, false},
                      GridParam{fl::TrainingMode::kSync, false, true}),
    [](const ::testing::TestParamInfo<GridParam>& info) {
      std::string name =
          info.param.mode == fl::TrainingMode::kAsync ? "async" : "sync";
      if (info.param.secagg) name += "_secagg";
      if (info.param.inject_failure) name += "_failover";
      return name;
    });

}  // namespace
}  // namespace papaya::sim
