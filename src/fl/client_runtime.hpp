#pragma once
// The client runtime (Secs. 4, 6.1, App. E.5).
//
// On-device pieces: the Example Store (local training data behind a
// use/retention policy), the Executor (model-agnostic local training), and
// the eligibility logic — a device participates only when idle, charging,
// and on an unmetered network, and participation history is tracked "to
// enable fair and unbiased client selection".

#include <cstdint>
#include <limits>
#include <memory>
#include <optional>
#include <utility>
#include <vector>

#include "fl/model_update.hpp"
#include "ml/dataset.hpp"
#include "ml/model.hpp"
#include "ml/optimizer.hpp"
#include "util/rng.hpp"

namespace papaya::fl {

/// Instantaneous device conditions checked against the participation policy.
struct DeviceConditions {
  bool idle = true;
  bool charging = true;
  bool unmetered_network = true;
};

/// Training-eligibility policy (Sec. 7.1, following Hard et al. 2019).
struct EligibilityPolicy {
  /// Minimum time between two participations of the same device.
  double min_participation_interval_s = 0.0;

  bool eligible(const DeviceConditions& conditions,
                std::optional<double> last_participation, double now) const {
    if (!conditions.idle || !conditions.charging ||
        !conditions.unmetered_network) {
      return false;
    }
    return !last_participation ||
           now - *last_participation >= min_participation_interval_s;
  }
};

/// Data use and retention policy enforced by the Example Store (App. E.5:
/// the store "collects training data in persistent storage and enforces the
/// data use and retention policy").
struct RetentionPolicy {
  /// Count cap; the oldest examples are evicted first.
  std::size_t max_examples = std::numeric_limits<std::size_t>::max();
  /// Age cap: examples older than this are purged on the next sweep.
  double max_age_s = std::numeric_limits<double>::infinity();
  /// Use cap: an example may contribute to at most this many training
  /// sessions before it is retired (the "data use" half of the policy).
  std::uint64_t max_uses = std::numeric_limits<std::uint64_t>::max();
};

/// The Example Store (App. E.5): local sequences behind a use/retention
/// policy.  Training examples carry an ingestion timestamp and a use count;
/// purge() enforces the policy and is invoked automatically on ingestion
/// and when a training session is recorded.
class ExampleStore {
 public:
  ExampleStore() = default;
  /// Bulk-load a dataset (ingestion time 0) with a simple count cap.
  ExampleStore(ml::ClientDataset dataset, std::size_t max_retained_examples);
  /// Empty store with a full policy; feed it via add_example().
  explicit ExampleStore(RetentionPolicy policy);

  const ml::ClientDataset& dataset() const { return dataset_; }
  std::size_t num_train_examples() const { return dataset_.train.size(); }
  const RetentionPolicy& policy() const { return policy_; }

  /// Ingest one training example collected at time `now`.
  void add_example(ml::Sequence example, double now);

  /// Record that a training session at time `now` consumed the current
  /// training split; examples whose use budget is exhausted are retired.
  void record_training_use(double now);

  /// Enforce the retention policy at time `now` (age, use and count caps).
  /// Returns the number of examples purged.
  std::size_t purge(double now);

 private:
  ml::ClientDataset dataset_;
  RetentionPolicy policy_;
  /// Parallel to dataset_.train: (ingestion time, uses so far).
  std::vector<std::pair<double, std::uint64_t>> train_meta_;
};

/// Local-training hyperparameters (Sec. 7.1: SGD, one epoch, B = 32).
struct TrainerConfig {
  float learning_rate = 0.3f;
  std::size_t batch_size = 32;
  std::size_t epochs = 1;
  float gradient_clip = 5.0f;
  /// Read by nothing.  It remains because benchmark/workloads.cpp still
  /// assigns it; training never measures the loss of the whole training set.
  bool compute_losses = false;
};

struct LocalTrainingResult {
  ModelUpdate update;
};

/// The Executor (App. E.5): swaps global parameters into a working model,
/// runs local SGD, emits the weight delta.  One Executor can serve many
/// simulated clients; it is model-architecture-agnostic through the
/// LanguageModel interface (standing in for PyTorch Mobile's interpreter).
class Executor {
 public:
  Executor(std::unique_ptr<ml::LanguageModel> working_model,
           TrainerConfig config);

  /// Run local training from `global_params` (model version `version`) over
  /// the store's training split.
  LocalTrainingResult train(std::span<const float> global_params,
                            std::uint64_t version, std::uint64_t client_id,
                            const ExampleStore& store, util::Rng& rng) const;

  std::size_t model_size() const { return model_->num_params(); }

 private:
  std::unique_ptr<ml::LanguageModel> model_;
  TrainerConfig config_;
};

/// Stage timings for one pipelined client participation (Sec. 6.1).  The
/// sequential runtime charges train + serialize + upload; the pipelined
/// runtime overlaps them, so round latency is dominated by the slowest
/// stage plus the residual tail of the stages after it.
struct PipelineTimings {
  /// Local-training duration.
  double train_s = 0.0;
  /// Per-chunk serialization cost, in chunk order.
  std::vector<double> serialize_chunk_s;
  /// Per-chunk upload cost, in chunk order (same length).
  std::vector<double> upload_chunk_s;

  /// When chunk i's source bytes become final relative to training:
  ///  - kProgressive: the executor finalizes the update tensor range by
  ///    range as training advances, so chunk i may serialize once
  ///    (i+1)/n of training has elapsed (the last chunk always waits for
  ///    training to finish — its bytes depend on the final weights).
  ///  - kPostTraining: nothing serializes before training completes; only
  ///    serialization and upload overlap.
  enum class Readiness { kProgressive, kPostTraining };
  Readiness readiness = Readiness::kProgressive;
};

/// The pipelined participation state machine: train ∥ serialize ∥ chunked
/// upload.  Chunk i uploads as soon as (a) its bytes are serialized and
/// (b) the uplink has finished chunk i-1; chunk i serializes as soon as
/// (a) its source data is ready and (b) the serializer has finished chunk
/// i-1.  Driven event by event so a discrete-event simulator (or a test)
/// can observe every stage transition; all times are relative to
/// participation start (t = 0).
///
/// With train time T, serialize times σ_i and upload times u_i this yields
/// the recurrences
///   s_i = max(ready_i, s_{i-1}) + σ_i      (serialize completion)
///   f_i = max(s_i,     f_{i-1}) + u_i      (upload completion)
/// so total latency ≈ max(T, σ_0 + u_0 tail) + residual upload — the
/// slowest stage dominates instead of the stage sum (ISSUE: Fig. 2 / 7).
class PipelinedClientSession {
 public:
  enum class Stage { kTraining, kSerializing, kUploading, kDone };

  struct Event {
    enum class Kind { kTrainingComplete, kChunkSerialized, kChunkUploaded };
    Kind kind = Kind::kTrainingComplete;
    std::uint32_t chunk = 0;  ///< chunk index (serialize/upload events)
    double at = 0.0;          ///< completion time, seconds from start
  };

  explicit PipelinedClientSession(PipelineTimings timings);

  std::size_t num_chunks() const { return timings_.upload_chunk_s.size(); }
  bool done() const;
  /// Time of the last processed event (0 before any event).
  double now() const { return now_; }

  /// The next stage-completion event, without processing it.
  Event peek() const;
  /// Process and return the next event.  Event times are non-decreasing.
  Event advance();
  /// Run the machine to completion; returns the total participation
  /// latency (the last chunk's upload completion).
  double finish_time();

  /// Per-chunk upload-arrival times under the overlapped schedule, in chunk
  /// order (replays a copy; this session's event cursor is untouched).  The
  /// last entry equals finish_time(), which is the instant the closed-loop
  /// simulator schedules the report's arrival; the per-chunk entries are
  /// the observable arrival schedule for analysis/tests (the simulator does
  /// not yet schedule chunk-level server events).
  std::vector<double> upload_completion_times() const;

  bool training_complete() const { return train_done_; }
  std::size_t chunks_serialized() const { return serialized_; }
  std::size_t chunks_uploaded() const { return uploaded_; }
  /// Coarse protocol stage (Sec. 6.1) for session bookkeeping: the
  /// earliest stage still incomplete.  Later stages may already be active
  /// underneath it — that is the point of the pipeline.
  Stage stage() const;

  /// What the same timings cost without any overlap (the sequential
  /// runtime's charge: train + Σ serialize + Σ upload).
  static double sequential_latency(const PipelineTimings& timings);

 private:
  double ready_at(std::size_t chunk) const;
  /// Completion time of the next serialize / upload candidate (infinity
  /// when that pipeline lane has no admissible work).
  double next_serialize_at() const;
  double next_upload_at() const;

  PipelineTimings timings_;
  double now_ = 0.0;
  bool train_done_ = false;
  std::size_t serialized_ = 0;
  std::size_t uploaded_ = 0;
  /// Completion times of processed serialize events (upload lane reads
  /// them; sized num_chunks, filled in order).
  std::vector<double> serialize_done_;
  double last_upload_done_ = 0.0;
};

/// Per-device runtime state: conditions, history, capabilities.
class ClientRuntime {
 public:
  ClientRuntime(std::uint64_t client_id, ExampleStore store);

  std::uint64_t client_id() const { return client_id_; }
  const ExampleStore& store() const { return store_; }

  DeviceConditions& conditions() { return conditions_; }
  const DeviceConditions& conditions() const { return conditions_; }

  bool check_in_allowed(const EligibilityPolicy& policy, double now) const {
    return policy.eligible(conditions_, last_participation_, now);
  }
  void record_participation(double now) { last_participation_ = now; }
  std::optional<double> last_participation() const {
    return last_participation_;
  }

 private:
  std::uint64_t client_id_;
  ExampleStore store_;
  DeviceConditions conditions_;
  std::optional<double> last_participation_;
};

}  // namespace papaya::fl
