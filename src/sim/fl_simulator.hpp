#pragma once
// End-to-end federated-learning simulator.
//
// Drives the production components of src/fl (Coordinator, Selectors,
// Aggregators, client runtimes) over a discrete-event clock with a
// heterogeneous device population, exactly as a fleet of real devices would
// through the message-level API: check-in -> selection -> download -> local
// training -> report -> chunked upload, with dropouts, timeouts, staleness
// aborts, over-selection and mid-round replacement.  Local training is real
// SGD on each client's non-IID data; server steps are real FedAdam steps.
//
// This module is the substitute for the paper's ~100M-device production
// fleet (DESIGN.md): population sizes and model sizes are scaled down so the
// experiments run on one machine, which rescales absolute numbers but not
// the sync-vs-async comparison shapes.

#include <cstdint>
#include <limits>
#include <memory>
#include <optional>
#include <unordered_map>
#include <vector>

#include "fl/aggregator.hpp"
#include "fl/chunking.hpp"
#include "fl/client_runtime.hpp"
#include "fl/coordinator.hpp"
#include "fl/model_store.hpp"
#include "fl/selector.hpp"
#include "fl/task.hpp"
#include "ml/dataset.hpp"
#include "ml/model.hpp"
#include "ml/optimizer.hpp"
#include "sim/event_queue.hpp"
#include "sim/metrics.hpp"
#include "sim/network.hpp"
#include "sim/population.hpp"
#include "sim/streams.hpp"

namespace papaya::sim {

enum class ModelKind { kMlp, kLstm };

struct SimulationConfig {
  /// Task knobs, including `task.aggregator_shards`: scenarios that set it
  /// > 1 run the server's sharded aggregation path (client update streams
  /// consistent-hashed onto independent per-shard worker pools, Sec. 6.3)
  /// end-to-end through the same message-level API.
  fl::TaskConfig task;
  PopulationConfig population;
  ml::CorpusConfig corpus;
  ml::LmConfig model;
  ModelKind model_kind = ModelKind::kMlp;
  fl::TrainerConfig trainer;
  ml::ServerOptimizerConfig server_opt;
  NetworkConfig network;

  /// Model-distribution store (Sec. 7.3): every server step publishes the
  /// new model through this write-bandwidth-limited channel.  The default is
  /// unconstrained; constrained configs meter how often steps outpace the
  /// store (SimulationResult::model_store_stats) without perturbing the
  /// training dynamics.
  fl::ModelStore::Config model_store;

  // -- Stopping criteria (first to trigger wins) ---------------------------
  double target_loss = 0.0;              ///< 0 = disabled
  double max_sim_time_s = 2.0e6;
  std::uint64_t max_server_steps = 0;    ///< 0 = unlimited
  std::uint64_t max_applied_updates = 0; ///< 0 = unlimited (Table 1 budget)

  // -- Evaluation ----------------------------------------------------------
  std::size_t eval_set_size = 150;
  std::uint64_t eval_every_steps = 5;

  // -- Client availability / server cadence --------------------------------
  double mean_checkin_interval_s = 15.0;
  double device_unavailable_prob = 0.2;  ///< not idle/charging/unmetered
  /// Participation-history policy (Sec. 4: the client "tracks prior
  /// participation history to enable fair and unbiased client selection").
  fl::EligibilityPolicy eligibility;
  double report_interval_s = 10.0;
  /// Upload chunk size (Sec. 6.1 stage 4); uploads travel as CRC-checked
  /// chunks reassembled server-side.
  std::size_t upload_chunk_bytes = 64 * 1024;

  std::size_t num_aggregators = 1;
  std::size_t num_selectors = 2;
  std::uint64_t seed = 1;

  /// Event-queue backend (sim/event_queue.hpp): the amortized-O(1)
  /// calendar queue, or the binary heap the differential tests use as the
  /// reference.  Pop order is identical on both, so no trajectory depends
  /// on this field.
  EventQueueBackend event_queue = EventQueueBackend::kCalendar;

  /// Streaming-metrics memory policy.  Defaults keep the historical
  /// unlimited recording; million-device runs set caps so results stay
  /// O(cap) regardless of how many participations the run produces.
  /// SimulationResult::summary is exact in every case — only the raw
  /// samples are thinned, and the sampling draws come from their own keyed
  /// stream (StreamPurpose::kMetricsSampling), so enabling a cap cannot
  /// change a trajectory.
  struct MetricsPolicy {
    /// > 0: keep a uniform reservoir sample (Algorithm R) of at most this
    /// many ParticipationRecords instead of all of them.  The sample is
    /// unordered once the cap is hit.
    std::size_t max_participation_records = 0;
    /// > 0: cap each TimeSeries via stride-doubling decimation
    /// (TimeSeries::set_capacity).
    std::size_t max_timeseries_points = 0;
  };
  MetricsPolicy metrics;

  /// How participation-path randomness is addressed (sim/streams.hpp).
  /// kSharedLegacy (default) consumes one shared xoshiro in event order —
  /// bit-identical to the pre-stream simulator from the same seed.
  /// kPerEntity keys every draw by (seed, device, purpose, draw index), so
  /// draw values are independent of the event schedule; it changes draw
  /// values (not distributions) relative to legacy mode, and it is forced
  /// on by `task.closed_loop_clients`, whose reactive schedule is only
  /// legal over schedule-independent streams.
  RngStreamMode rng_streams = RngStreamMode::kSharedLegacy;

  /// Failure injection (App. E.4): if > 0, the Aggregator owning the task
  /// stops heartbeating at this sim time; the Coordinator must detect the
  /// failure and move the task, and training must continue.
  double aggregator_failure_at_s = 0.0;
  /// Heartbeat timeout used by the Coordinator's failure detector.
  double aggregator_failure_timeout_s = 30.0;

  bool record_participations = true;
  bool record_utilization = false;
};

struct SimulationResult {
  bool reached_target = false;
  double time_to_target_s = std::numeric_limits<double>::infinity();
  double end_time_s = 0.0;
  std::uint64_t server_steps = 0;
  /// Client updates received at the server — the paper's "communication
  /// trips" metric (Fig. 3 caption).
  std::uint64_t comm_trips = 0;
  /// Participations started (model downloads), including dropouts/aborts.
  std::uint64_t participations_started = 0;
  fl::TaskStats task_stats;

  TimeSeries loss_curve;       ///< (sim time, evaluation loss)
  TimeSeries active_clients;   ///< (sim time, # active) when recorded
  /// (sim time, # devices busy in their pipelined schedule).  Recorded only
  /// when record_utilization and task.pipelined_clients are both set: a
  /// pipelined device finishes its overlapped train/serialize/upload work
  /// before its protocol slot closes, so this series sits below
  /// active_clients — the gap is the overlap saving (Fig. 7 extension).
  TimeSeries busy_clients;
  /// Raw records; the complete set by default, a uniform reservoir sample
  /// when MetricsPolicy::max_participation_records caps it, empty when
  /// record_participations is off.  `summary` covers every participation
  /// regardless.
  std::vector<ParticipationRecord> participations;
  /// Constant-memory digest of ALL participations (counts, moments, P²
  /// percentile sketches) — exact even when `participations` is capped or
  /// disabled.
  ParticipationSummary summary;
  /// Discrete events the queue pumped during run() (events/sec numerator
  /// for bench_macro_population).
  std::uint64_t events_processed = 0;

  double final_eval_loss = 0.0;
  std::vector<float> final_model;

  /// Write pressure on the model store (Sec. 7.3): stall_s > 0 means the
  /// configured aggregation goal demanded more server-model publishes than
  /// the store's write bandwidth sustains.
  fl::ModelStore::Stats model_store_stats;
};

class FlSimulator {
 public:
  explicit FlSimulator(SimulationConfig config);
  ~FlSimulator();

  FlSimulator(const FlSimulator&) = delete;
  FlSimulator& operator=(const FlSimulator&) = delete;

  SimulationResult run();

  /// The corpus (exposed so harnesses can evaluate the final model on
  /// per-client test splits, e.g. Table 1's percentile analysis).
  const ml::FederatedCorpus& corpus() const { return *corpus_; }
  const DevicePopulation& population() const { return *population_; }

  /// Build a fresh model with this simulation's architecture and parameters.
  std::unique_ptr<ml::LanguageModel> make_model_with_params(
      std::span<const float> params) const;

 private:
  // Per-device bookkeeping is SoA and pool-backed so permanent state is 8
  // bytes per device (a generation counter and a participation-slot index)
  // — a 10M-device population costs ~80 MB of bookkeeping, not a
  // DeviceState struct each.  Everything heavier lives only while a device
  // is actually participating (the pooled Participation below, sized by
  // peak concurrency) or once it has ever joined (its ClientRuntime, keyed
  // in a map).
  static constexpr std::uint32_t kNoParticipation = ~std::uint32_t{0};

  /// Event kinds for the queue (sim/event_queue.hpp).  Every simulation
  /// event is one of these — scheduled as a (kind, device, generation)
  /// triple, no closure, no allocation — and dispatch_event below is the
  /// dispatcher the queue is constructed with.
  enum class SimEvent : EventKind {
    kCheckIn = 1,           ///< entity = device
    kDropout = 2,           ///< entity = device, payload = generation
    kCompletion = 3,        ///< entity = device, payload = generation
    kCloseBusy = 4,         ///< entity = device, payload = generation
    kReportTick = 5,        ///< server heartbeat/timeout sweep
    kAggregatorFailure = 6, ///< injected failure (App. E.4)
  };
  /// The queue dispatcher: a plain function pointer (ctx = this) fanning
  /// out to the handle_* methods.
  static void dispatch_event(void* ctx, EventKind kind, std::uint32_t entity,
                             std::uint32_t payload, double now);
  /// Schedule one simulation event `delay` seconds out (tie_key 0: events
  /// at one time pop in scheduling order).
  void schedule_sim_event_in(double delay, SimEvent kind, std::size_t device,
                             std::uint32_t generation = 0);

  /// State of one in-flight participation, pool-allocated and recycled.
  struct Participation {
    std::vector<float> model_snapshot;  ///< params downloaded at join
    std::uint64_t version_at_join = 0;
    double join_time = 0.0;
    double exec_time = 0.0;
    /// Pipelined runtime plan for this participation (pipelined mode only):
    /// join → last chunk uploaded under the overlapped schedule.
    double pipelined_latency_s = 0.0;
    std::uint32_t upload_chunks = 0;
    bool busy_open = false;  ///< device counted in the busy series
  };

  /// Per-device bookkeeping, packed into 16 bytes so the rejected check-in
  /// — the overwhelmingly common event at 10M devices: participation test,
  /// backoff draw, availability draw — touches exactly one cache line.
  /// The two SimStreams counters are routed here via bind_dense_counters
  /// (draw values are bit-identical to the unpacked layout).
  struct DeviceRecord {
    std::uint32_t part_slot = kNoParticipation;  ///< kNoParticipation = idle
    std::uint32_t generation = 0;  ///< bumped to cancel in-flight events
    std::uint32_t checkin_counter = 0;  ///< kCheckInBackoff draw counter
    std::uint32_t avail_counter = 0;    ///< kAvailability draw counter
  };
  static_assert(sizeof(DeviceRecord) == 16, "one cache line covers 4 devices");

  bool participating(std::size_t device) const {
    return devices_[device].part_slot != kNoParticipation;
  }
  Participation& participation(std::size_t device) {
    return part_pool_[devices_[device].part_slot];
  }
  std::uint32_t acquire_slot(std::size_t device);
  void release_slot(std::size_t device);

  void schedule_check_in(std::size_t device, double delay);
  void handle_check_in(std::size_t device, double now);
  /// The Aggregator currently owning the task, routed through a Selector's
  /// cached map exactly as a client request would be (nullptr on a stale
  /// routing miss).  `entity` keys the Selector-choice draw: the device on
  /// client paths, SimStreams::kServerEntity on server-side paths.
  fl::Aggregator* route_to_owner(std::uint64_t entity);
  void handle_completion(std::size_t device, std::uint64_t generation,
                         double now);
  void handle_dropout(std::size_t device, std::uint64_t generation, double now);
  void handle_server_report_tick(double now);
  void end_participation(std::size_t device, double now, bool reschedule);
  void on_aborted_clients(const std::vector<std::uint64_t>& aborted, double now);
  void maybe_evaluate(double now, bool force);
  void record_active(double now);
  /// Pipelined-mode device-busy accounting.  Purely observational: these
  /// touch only metrics state (no RNG draws, no protocol state), so the
  /// extra events cannot perturb the simulation's training dynamics.
  void plan_pipeline(std::size_t device, double download, double upload);
  void record_busy(double now);
  void close_busy(std::size_t device, double now);
  bool should_stop() const { return stopped_; }
  void stop(double now);
  /// Fold `rec` into the exact streaming summary, then retain it per the
  /// record_participations flag and MetricsPolicy cap.
  void note_participation(const ParticipationRecord& rec);

  /// The device's ClientRuntime, materialized (with its per-client dataset)
  /// on first use.  find_runtime never materializes — the check-in path
  /// uses it so the common rejected check-in stays allocation-free at
  /// million-device scale.
  fl::ClientRuntime& runtime_for(std::size_t device);
  fl::ClientRuntime* find_runtime(std::size_t device);

  SimulationConfig config_;
  SimStreams streams_;
  EventQueue queue_;

  std::unique_ptr<ml::FederatedCorpus> corpus_;
  std::unique_ptr<DevicePopulation> population_;
  std::unique_ptr<NetworkModel> network_;
  std::unique_ptr<fl::Executor> executor_;
  std::vector<ml::Sequence> eval_set_;
  std::unique_ptr<ml::LanguageModel> eval_model_;

  std::vector<std::unique_ptr<fl::Aggregator>> aggregators_;
  std::unique_ptr<fl::Coordinator> coordinator_;
  std::vector<std::unique_ptr<fl::Selector>> selectors_;

  std::vector<DeviceRecord> devices_;  ///< packed per-device hot state
  /// One bit per device: whether runtimes_ holds a ClientRuntime.  1.25 MB
  /// at 10M devices — cache-resident, so find_runtime answers "never
  /// joined" (the overwhelming majority at scale) without a hash probe.
  std::vector<std::uint64_t> has_runtime_;
  std::vector<Participation> part_pool_;
  std::vector<std::uint32_t> free_slots_;
  std::unordered_map<std::uint64_t, std::unique_ptr<fl::ClientRuntime>>
      runtimes_;  ///< only devices that have ever joined

  SimulationResult result_;
  util::StreamRng metrics_rng_;  ///< reservoir draws (kMetricsSampling)
  std::uint64_t reservoir_seen_ = 0;
  std::unique_ptr<fl::ModelStore> model_store_;
  std::uint64_t last_published_version_ = 0;
  std::uint64_t model_bytes_ = 0;
  std::size_t active_count_ = 0;
  std::size_t busy_count_ = 0;  ///< pipelined-mode device-busy gauge
  bool stopped_ = false;
  std::string failed_aggregator_;  ///< injected failure, stops heartbeating
};

}  // namespace papaya::sim
