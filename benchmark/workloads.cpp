#include "workloads.hpp"

#include <chrono>
#include <cmath>
#include <optional>
#include <span>

#include "fl/aggregator.hpp"
#include "fl/chunking.hpp"
#include "fl/model_update.hpp"
#include "sim/fl_simulator.hpp"
#include "util/rng.hpp"

namespace papaya::benchmark {

namespace {

// ---------------------------------------------------------------------------
// Shared pieces
// ---------------------------------------------------------------------------

constexpr double kTargetLoss = 3.35;

std::uint64_t fnv1a(std::span<const float> values,
                    std::uint64_t hash = 0xcbf29ce484222325ULL) {
  const auto* bytes = reinterpret_cast<const std::uint8_t*>(values.data());
  for (std::size_t i = 0; i < values.size_bytes(); ++i) {
    hash = (hash ^ bytes[i]) * 0x100000001b3ULL;
  }
  return hash;
}

void expect(Outcome& out, bool ok, const std::string& what) {
  if (!ok) out.failures.push_back(what);
}

/// The figure benches' miniature next-word task: a small MLP language model
/// over a 64-word vocabulary, SGD on device, FedAdam on the server.
sim::SimulationConfig base_config(std::uint64_t seed) {
  sim::SimulationConfig cfg;
  cfg.task.name = "next-word-lm";
  cfg.task.client_timeout_s = 240.0;
  cfg.task.max_staleness = 100;
  cfg.population.seed = seed;
  cfg.corpus.vocab_size = 64;
  cfg.model.vocab_size = 64;
  cfg.model.embed_dim = 12;
  cfg.model.hidden_dim = 24;
  cfg.model.context = 2;
  cfg.model_kind = sim::ModelKind::kMlp;
  cfg.trainer.learning_rate = 0.3f;
  cfg.trainer.batch_size = 32;
  cfg.trainer.compute_losses = false;
  cfg.server_opt.lr = 0.05f;
  cfg.eval_set_size = 150;
  cfg.record_participations = false;
  cfg.seed = seed;
  return cfg;
}

/// Every field that picks between the simulator's default modes and its
/// million-device recipe is set here and nowhere else, so retiring one of
/// those modes edits this one function.
void apply_scale_recipe(sim::SimulationConfig& cfg) {
  cfg.population.synthesis = sim::ProfileSynthesis::kKeyedLazy;
  cfg.event_queue = sim::EventQueueBackend::kCalendar;
  cfg.rng_streams = sim::RngStreamMode::kPerEntity;
}

/// A workload of one or more simulator runs, each from its own config.
class SimulatorWorkload : public Workload {
 public:
  explicit SimulatorWorkload(std::vector<sim::SimulationConfig> configs)
      : configs_(std::move(configs)) {}

  void setup() override {
    for (const auto& cfg : configs_) {
      sims_.push_back(std::make_unique<sim::FlSimulator>(cfg));
    }
  }

  Outcome run() override {
    std::vector<sim::SimulationResult> results;
    for (auto& simulator : sims_) results.push_back(simulator->run());
    Outcome out;
    out.model_hash = 0xcbf29ce484222325ULL;
    for (const auto& r : results) {
      out.updates += r.comm_trips;
      out.events += r.events_processed;
      out.steps += r.server_steps;
      out.model_hash = fnv1a(r.final_model, out.model_hash);
    }
    check(results, out);
    return out;
  }

  void reset() override { sims_.clear(); }

  Op op() const override { return Op::kUpdate; }

  std::vector<trace::Span> per_update_spans() const override {
    const bool secure = configs_.front().task.secagg_enabled;
    return {trace::Span::kMlTrain,
            secure ? trace::Span::kSecaggReport : trace::Span::kFlReport};
  }

 protected:
  virtual void check(const std::vector<sim::SimulationResult>& results,
                     Outcome& out) const = 0;

  std::vector<sim::SimulationConfig> configs_;

 private:
  std::vector<std::unique_ptr<sim::FlSimulator>> sims_;
};

// ---------------------------------------------------------------------------
// fig9: the paper's headline comparison at one concurrency
// ---------------------------------------------------------------------------

/// SyncFL with 30% over-selection against AsyncFL with K = concurrency / 8,
/// both run to the target loss on the simulator's default modes.
std::vector<sim::SimulationConfig> fig9_configs(std::uint64_t seed,
                                                std::size_t concurrency) {
  constexpr double kOverSelection = 0.30;
  const auto goal = static_cast<std::size_t>(
      static_cast<double>(concurrency) / (1.0 + kOverSelection) + 0.5);
  sim::SimulationConfig sync = base_config(seed);
  sync.task.mode = fl::TrainingMode::kSync;
  sync.task.aggregation_goal = goal;
  sync.task.concurrency = fl::TaskConfig::over_selected_cohort(goal, kOverSelection);
  sync.population.num_devices =
      std::max<std::size_t>(6 * sync.task.concurrency, 600);
  sync.eval_every_steps = 1;

  sim::SimulationConfig async = base_config(seed);
  async.task.mode = fl::TrainingMode::kAsync;
  async.task.concurrency = concurrency;
  async.task.aggregation_goal = std::max<std::size_t>(13, concurrency / 8);
  async.population.num_devices = std::max<std::size_t>(6 * concurrency, 600);
  async.eval_every_steps = 5;

  for (auto* cfg : {&sync, &async}) {
    cfg->target_loss = kTargetLoss;
    cfg->max_sim_time_s = 4.0e5;
  }
  return {sync, async};
}

class Fig9 final : public SimulatorWorkload {
 public:
  Fig9(std::uint64_t seed, std::size_t concurrency)
      : SimulatorWorkload(fig9_configs(seed, concurrency)) {}

 protected:
  void check(const std::vector<sim::SimulationResult>& results,
             Outcome& out) const override {
    const sim::SimulationResult& sync = results[0];
    const sim::SimulationResult& async = results[1];
    expect(out, sync.reached_target, "sync did not reach the target loss");
    expect(out, async.reached_target, "async did not reach the target loss");
    const double speedup = sync.time_to_target_s / async.time_to_target_s;
    const double trip_ratio = static_cast<double>(sync.comm_trips) /
                              static_cast<double>(async.comm_trips);
    expect(out, speedup > 1.0, "async is not faster to the target than sync");
    expect(out, trip_ratio > 1.0, "async does not use fewer trips than sync");
    out.info = {
        {"sim_h_to_target", async.time_to_target_s / 3600.0, "h", "lower"},
        {"speedup", speedup, "x", "higher"},
        {"trip_ratio", trip_ratio, "x", "higher"},
        {"final_loss", async.final_eval_loss, "nats", "lower"},
    };
  }
};

// ---------------------------------------------------------------------------
// secagg: AsyncFL with every update through asynchronous SecAgg
// ---------------------------------------------------------------------------

constexpr std::size_t kSecaggGoal = 13;
constexpr std::size_t kSecaggBatch = 8;

sim::SimulationConfig secagg_config(std::uint64_t seed, std::uint64_t steps) {
  sim::SimulationConfig cfg = base_config(seed);
  cfg.task.mode = fl::TrainingMode::kAsync;
  cfg.task.concurrency = 104;
  cfg.task.aggregation_goal = kSecaggGoal;
  cfg.task.secagg_enabled = true;
  cfg.task.aggregation_batch_size = kSecaggBatch;
  cfg.population.num_devices = 6 * cfg.task.concurrency;
  cfg.max_server_steps = steps;
  cfg.eval_every_steps = steps;
  return cfg;
}

class Secagg final : public SimulatorWorkload {
 public:
  Secagg(std::uint64_t seed, std::uint64_t steps)
      : SimulatorWorkload({secagg_config(seed, steps)}), steps_(steps) {}

 protected:
  void check(const std::vector<sim::SimulationResult>& results,
             Outcome& out) const override {
    const sim::SimulationResult& r = results[0];
    const fl::TaskStats& s = r.task_stats;
    expect(out, r.server_steps == steps_, "server steps != the step budget");
    expect(out, std::isfinite(r.final_eval_loss), "final loss is not finite");
    // Every received update is applied, discarded, or still buffered for the
    // next epoch; the buffer never holds more than one goal plus one batch.
    expect(out, s.updates_received >= s.updates_applied + s.updates_discarded,
           "more updates applied or discarded than received");
    expect(out,
           s.updates_received - s.updates_applied - s.updates_discarded <=
               kSecaggGoal + kSecaggBatch,
           "received updates unaccounted for");
    out.info = {{"final_loss", r.final_eval_loss, "nats", "lower"}};
  }

 private:
  std::uint64_t steps_;
};

// ---------------------------------------------------------------------------
// population: a large virtual fleet on the scale recipe
// ---------------------------------------------------------------------------

constexpr std::uint64_t kPopulationSteps = 10;

sim::SimulationConfig population_config(std::uint64_t seed,
                                        std::size_t devices) {
  sim::SimulationConfig cfg = base_config(seed);
  apply_scale_recipe(cfg);
  cfg.task.mode = fl::TrainingMode::kAsync;
  cfg.task.concurrency = 104;
  cfg.task.aggregation_goal = 13;
  cfg.population.num_devices = devices;
  cfg.mean_checkin_interval_s = 60.0;
  cfg.max_server_steps = kPopulationSteps;
  cfg.max_sim_time_s = 1.0e7;
  cfg.eval_every_steps = kPopulationSteps;
  cfg.metrics.max_timeseries_points = 256;
  return cfg;
}

class Population final : public SimulatorWorkload {
 public:
  Population(std::uint64_t seed, std::size_t devices)
      : SimulatorWorkload({population_config(seed, devices)}) {}

  /// The event engine is what this workload measures.
  Op op() const override { return Op::kEvent; }

 protected:
  void check(const std::vector<sim::SimulationResult>& results,
             Outcome& out) const override {
    expect(out, results[0].server_steps == kPopulationSteps,
           "server steps != the step budget");
  }
};

// ---------------------------------------------------------------------------
// ingest: the server upload path driven directly
// ---------------------------------------------------------------------------

/// Closed loop with one caller: 64 clients each upload a 65,536-float update
/// as 64 KiB chunk frames, wait for the ack, and rejoin.  The aggregator
/// runs AsyncFL with K = 64 over 2 shards of 1 worker each.  One upload in
/// 64 carries one bit-flipped frame, which the client retransmits clean.
class Ingest final : public Workload {
 public:
  static constexpr std::size_t kParams = 65536;
  static constexpr std::size_t kClients = 64;
  static constexpr std::size_t kGoal = 64;
  static constexpr std::size_t kChunkBytes = 64 * 1024;
  static constexpr std::size_t kCorruptEvery = 64;
  /// Frame layout (UploadChunk::serialize): session u64, index u32, total
  /// u32, payload length u64, payload, crc u32.
  static constexpr std::size_t kFramePayloadOffset = 24;
  /// ModelUpdate wire layout: client id u64, initial version u64, ...
  static constexpr std::size_t kVersionOffset = 8;

  Ingest(std::uint64_t seed, std::size_t uploads) : uploads_(uploads) {
    util::Rng rng(seed);
    initial_model_.resize(kParams);
    for (float& v : initial_model_) v = static_cast<float>(rng.uniform(-0.1, 0.1));
    for (std::size_t c = 0; c < kClients; ++c) {
      fl::ModelUpdate update;
      update.client_id = rng.next();
      update.num_examples = 4 + rng.uniform_int(61);
      update.delta.resize(kParams);
      for (float& v : update.delta) {
        v = static_cast<float>(rng.uniform(-1e-3, 1e-3));
      }
      std::vector<fl::UploadChunk> chunks = fl::chunk_upload(
          update.client_id, update.serialize(), kChunkBytes);
      Client client;
      client.id = update.client_id;
      client.total = static_cast<std::uint32_t>(chunks.size());
      client.head_payload = std::move(chunks.front().payload);
      for (std::size_t i = 1; i < chunks.size(); ++i) {
        client.tail_frames.push_back(chunks[i].serialize());
      }
      clients_.push_back(std::move(client));
    }
    // Which frame of each corrupted upload is flipped, and which bit.
    for (std::size_t u = rng.uniform_int(kCorruptEvery); u < uploads_;
         u += kCorruptEvery) {
      const Client& client = clients_[u % kClients];
      const auto frame = static_cast<std::uint32_t>(rng.uniform_int(client.total));
      const std::size_t payload_bytes =
          frame == 0 ? client.head_payload.size()
                     : client.tail_frames[frame - 1].size() -
                           kFramePayloadOffset - 4;
      corruptions_.push_back({u, frame, rng.uniform_int(8 * payload_bytes)});
    }

    task_.name = "ingest";
    task_.mode = fl::TrainingMode::kAsync;
    task_.concurrency = kClients;
    task_.aggregation_goal = kGoal;
    task_.model_size = kParams;
    task_.aggregator_shards = 2;
  }

  void setup() override {
    aggregator_ = std::make_unique<fl::Aggregator>("ingest-agg",
                                                   /*num_threads=*/1);
    aggregator_->assign_task(task_, initial_model_, ml::ServerOptimizerConfig{});
  }

  Outcome run() override {
    using Clock = std::chrono::steady_clock;
    fl::Aggregator& agg = *aggregator_;
    Outcome out;
    out.ack_ms.reserve(uploads_);
    std::vector<std::uint64_t> versions(kClients);
    for (std::size_t c = 0; c < kClients; ++c) {
      const fl::JoinResult join = agg.client_join(task_.name, clients_[c].id, 0.0);
      expect(out, join.accepted, "initial join refused");
      versions[c] = join.model_version;
    }

    std::size_t next_corruption = 0;
    std::uint64_t injected = 0;
    std::uint64_t rejected = 0;
    std::uint64_t clean_refused = 0;
    for (std::size_t u = 0; u < uploads_; ++u) {
      const std::size_t c = u % kClients;
      const Client& client = clients_[c];
      const double now = static_cast<double>(u) * 1e-3;

      // The client rebuilds only chunk 0, which carries its join version.
      fl::UploadChunk head;
      head.session_id = client.id;
      head.index = 0;
      head.total = client.total;
      head.payload = client.head_payload;
      for (std::size_t b = 0; b < 8; ++b) {
        head.payload[kVersionOffset + b] =
            static_cast<std::uint8_t>(versions[c] >> (8 * b));
      }
      head.crc = fl::chunk_crc(head);
      const util::Bytes head_frame = head.serialize();

      const Corruption* corruption = nullptr;
      if (next_corruption < corruptions_.size() &&
          corruptions_[next_corruption].upload == u) {
        corruption = &corruptions_[next_corruption++];
      }

      const Clock::time_point sent = Clock::now();
      fl::ChunkAssembler assembler(client.id);
      for (std::uint32_t f = 0; f < client.total; ++f) {
        const util::Bytes& frame = f == 0 ? head_frame : client.tail_frames[f - 1];
        if (corruption != nullptr && corruption->frame == f) {
          util::Bytes bad = frame;
          bad[kFramePayloadOffset + corruption->bit / 8] ^=
              static_cast<std::uint8_t>(1u << (corruption->bit % 8));
          ++injected;
          const auto verdict = assembler.accept(fl::UploadChunk::deserialize(bad));
          if (verdict == fl::ChunkAssembler::Accept::kCorrupt) ++rejected;
        }
        const auto verdict = assembler.accept(fl::UploadChunk::deserialize(frame));
        if (verdict != fl::ChunkAssembler::Accept::kAccepted &&
            verdict != fl::ChunkAssembler::Accept::kComplete) {
          ++clean_refused;
        }
      }
      const std::optional<util::Bytes> update = assembler.assemble();
      fl::ReportResult report;
      if (update) report = agg.client_report(task_.name, *update, now);
      out.ack_ms.push_back(
          std::chrono::duration<double, std::milli>(Clock::now() - sent).count());
      if (report.outcome != fl::ReportOutcome::kAccepted) ++out.failed_updates;

      const fl::JoinResult join = agg.client_join(task_.name, client.id, now);
      if (!join.accepted) ++out.failed_updates;
      versions[c] = join.model_version;
    }

    out.updates = uploads_;
    out.steps = agg.stats(task_.name).server_steps;
    out.model_hash = fnv1a(agg.model(task_.name));
    expect(out, out.failed_updates == 0, "a clean upload was not accepted");
    expect(out, clean_refused == 0, "a clean frame was refused");
    expect(out, injected == corruptions_.size() && rejected == injected,
           "corrupt frames rejected != corrupt frames injected");
    expect(out, out.steps == uploads_ / kGoal, "server steps != uploads / K");
    return out;
  }

  void reset() override { aggregator_.reset(); }

  Op op() const override { return Op::kUpdate; }

  std::vector<trace::Span> per_update_spans() const override {
    return {trace::Span::kFlReport};
  }

 private:
  struct Client {
    std::uint64_t id = 0;
    std::uint32_t total = 0;
    util::Bytes head_payload;  ///< chunk 0's payload, version field zeroed
    std::vector<util::Bytes> tail_frames;
  };
  struct Corruption {
    std::size_t upload = 0;
    std::uint32_t frame = 0;
    std::uint64_t bit = 0;  ///< bit offset into the frame's payload
  };

  std::size_t uploads_;
  std::vector<float> initial_model_;
  std::vector<Client> clients_;
  std::vector<Corruption> corruptions_;
  fl::TaskConfig task_;
  std::unique_ptr<fl::Aggregator> aggregator_;
};

}  // namespace

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names = {
      "fig9_c104", "secagg_c104", "population_1m", "ingest_256k"};
  return names;
}

std::unique_ptr<Workload> make_workload(std::string_view name,
                                        std::uint64_t seed, bool smoke) {
  if (name == "fig9_c104") return std::make_unique<Fig9>(seed, smoke ? 26 : 104);
  if (name == "secagg_c104") return std::make_unique<Secagg>(seed, smoke ? 4 : 10);
  if (name == "population_1m") {
    return std::make_unique<Population>(seed, smoke ? 100'000 : 1'000'000);
  }
  if (name == "ingest_256k") {
    return std::make_unique<Ingest>(seed, smoke ? 640 : 1'600);
  }
  return nullptr;
}

}  // namespace papaya::benchmark
