#include "fl/client_runtime.hpp"

#include <algorithm>
#include <numeric>
#include <stdexcept>

namespace papaya::fl {

ExampleStore::ExampleStore(ml::ClientDataset dataset,
                           std::size_t max_retained_examples)
    : dataset_(std::move(dataset)) {
  policy_.max_examples = max_retained_examples;
  // Retention policy: keep at most `max_retained_examples` training
  // sequences (newest-first semantics don't matter for synthetic data).
  if (dataset_.train.size() > max_retained_examples) {
    dataset_.train.resize(max_retained_examples);
  }
  train_meta_.assign(dataset_.train.size(), {0.0, 0});
}

ExampleStore::ExampleStore(RetentionPolicy policy) : policy_(policy) {}

void ExampleStore::add_example(ml::Sequence example, double now) {
  dataset_.train.push_back(std::move(example));
  train_meta_.emplace_back(now, 0);
  purge(now);
}

void ExampleStore::record_training_use(double now) {
  for (auto& [ingested, uses] : train_meta_) ++uses;
  purge(now);
}

std::size_t ExampleStore::purge(double now) {
  const std::size_t before = dataset_.train.size();

  // Age and use caps.
  std::size_t kept = 0;
  for (std::size_t i = 0; i < dataset_.train.size(); ++i) {
    const auto& [ingested, uses] = train_meta_[i];
    const bool expired = now - ingested > policy_.max_age_s;
    const bool exhausted = uses >= policy_.max_uses;
    if (expired || exhausted) continue;
    if (kept != i) {
      dataset_.train[kept] = std::move(dataset_.train[i]);
      train_meta_[kept] = train_meta_[i];
    }
    ++kept;
  }
  dataset_.train.resize(kept);
  train_meta_.resize(kept);

  // Count cap: evict oldest-ingested first (stable: entries are in
  // ingestion order).
  if (dataset_.train.size() > policy_.max_examples) {
    const std::size_t excess = dataset_.train.size() - policy_.max_examples;
    dataset_.train.erase(dataset_.train.begin(),
                         dataset_.train.begin() + excess);
    train_meta_.erase(train_meta_.begin(), train_meta_.begin() + excess);
  }
  return before - dataset_.train.size();
}

Executor::Executor(std::unique_ptr<ml::LanguageModel> working_model,
                   TrainerConfig config)
    : model_(std::move(working_model)), config_(config) {
  if (!model_) throw std::invalid_argument("Executor: null model");
  if (config_.batch_size == 0) {
    throw std::invalid_argument("Executor: batch size must be > 0");
  }
}

LocalTrainingResult Executor::train(std::span<const float> global_params,
                                    std::uint64_t version,
                                    std::uint64_t client_id,
                                    const ExampleStore& store,
                                    util::Rng& rng) const {
  if (global_params.size() != model_->num_params()) {
    throw std::invalid_argument("Executor: global model size mismatch");
  }
  std::copy(global_params.begin(), global_params.end(),
            model_->params().begin());

  const auto& train_set = store.dataset().train;
  LocalTrainingResult result;
  result.update.client_id = client_id;
  result.update.initial_version = version;
  result.update.num_examples = train_set.size();

  if (train_set.empty()) {
    result.update.delta.assign(model_->num_params(), 0.0f);
    return result;
  }

  const ml::Sgd sgd(config_.learning_rate, config_.gradient_clip);
  std::vector<float> grad(model_->num_params());
  std::vector<std::size_t> order(train_set.size());
  std::iota(order.begin(), order.end(), 0);

  std::vector<ml::Sequence> batch;
  for (std::size_t epoch = 0; epoch < config_.epochs; ++epoch) {
    // Fisher–Yates shuffle with the caller's deterministic rng.
    for (std::size_t i = order.size(); i > 1; --i) {
      std::swap(order[i - 1], order[rng.uniform_int(i)]);
    }
    for (std::size_t start = 0; start < order.size();
         start += config_.batch_size) {
      const std::size_t end =
          std::min(start + config_.batch_size, order.size());
      batch.clear();
      for (std::size_t i = start; i < end; ++i) {
        batch.push_back(train_set[order[i]]);
      }
      model_->loss(batch, grad);
      sgd.step(model_->params(), grad);
    }
  }

  // Model update = trained - initial (Sec. 3.1).
  result.update.delta.resize(model_->num_params());
  const std::span<const float> trained = model_->params();
  for (std::size_t i = 0; i < trained.size(); ++i) {
    result.update.delta[i] = trained[i] - global_params[i];
  }
  return result;
}

PipelinedClientSession::PipelinedClientSession(PipelineTimings timings)
    : timings_(std::move(timings)) {
  const std::size_t n = timings_.upload_chunk_s.size();
  if (n == 0 || timings_.serialize_chunk_s.size() != n) {
    throw std::invalid_argument(
        "PipelinedClientSession: need one serialize and one upload time per "
        "chunk (at least one chunk)");
  }
  if (timings_.train_s < 0.0) {
    throw std::invalid_argument("PipelinedClientSession: negative train time");
  }
  for (std::size_t i = 0; i < n; ++i) {
    if (timings_.serialize_chunk_s[i] < 0.0 || timings_.upload_chunk_s[i] < 0.0) {
      throw std::invalid_argument(
          "PipelinedClientSession: negative stage time");
    }
  }
  serialize_done_.assign(n, 0.0);
}

bool PipelinedClientSession::done() const {
  return train_done_ && uploaded_ == num_chunks();
}

double PipelinedClientSession::ready_at(std::size_t chunk) const {
  if (timings_.readiness == PipelineTimings::Readiness::kPostTraining) {
    return timings_.train_s;
  }
  // Progressive finalization: chunk i's source range is final once
  // (i+1)/n of training has elapsed; the last chunk waits for the end.
  return timings_.train_s * static_cast<double>(chunk + 1) /
         static_cast<double>(num_chunks());
}

double PipelinedClientSession::next_serialize_at() const {
  if (serialized_ == num_chunks()) {
    return std::numeric_limits<double>::infinity();
  }
  const double prev_done = serialized_ == 0 ? 0.0 : serialize_done_[serialized_ - 1];
  return std::max(ready_at(serialized_), prev_done) +
         timings_.serialize_chunk_s[serialized_];
}

double PipelinedClientSession::next_upload_at() const {
  if (uploaded_ == num_chunks() || uploaded_ >= serialized_) {
    return std::numeric_limits<double>::infinity();
  }
  return std::max(serialize_done_[uploaded_], last_upload_done_) +
         timings_.upload_chunk_s[uploaded_];
}

PipelinedClientSession::Event PipelinedClientSession::peek() const {
  if (done()) {
    throw std::logic_error("PipelinedClientSession: already done");
  }
  Event event;
  event.at = std::numeric_limits<double>::infinity();
  // Tie-break at equal times in protocol order: training completes before
  // the chunk it unblocks serializes, which completes before it uploads.
  if (!train_done_) {
    event = {Event::Kind::kTrainingComplete, 0, timings_.train_s};
  }
  if (const double at = next_serialize_at(); at < event.at) {
    event = {Event::Kind::kChunkSerialized,
             static_cast<std::uint32_t>(serialized_), at};
  }
  if (const double at = next_upload_at(); at < event.at) {
    event = {Event::Kind::kChunkUploaded,
             static_cast<std::uint32_t>(uploaded_), at};
  }
  return event;
}

PipelinedClientSession::Event PipelinedClientSession::advance() {
  const Event event = peek();
  switch (event.kind) {
    case Event::Kind::kTrainingComplete:
      train_done_ = true;
      break;
    case Event::Kind::kChunkSerialized:
      serialize_done_[serialized_] = event.at;
      ++serialized_;
      break;
    case Event::Kind::kChunkUploaded:
      last_upload_done_ = event.at;
      ++uploaded_;
      break;
  }
  now_ = event.at;
  return event;
}

double PipelinedClientSession::finish_time() {
  while (!done()) advance();
  return now_;
}

std::vector<double> PipelinedClientSession::upload_completion_times() const {
  PipelinedClientSession replay(timings_);
  std::vector<double> times;
  times.reserve(replay.num_chunks());
  while (!replay.done()) {
    const Event event = replay.advance();
    if (event.kind == Event::Kind::kChunkUploaded) times.push_back(event.at);
  }
  return times;
}

PipelinedClientSession::Stage PipelinedClientSession::stage() const {
  if (!train_done_) return Stage::kTraining;
  if (serialized_ < num_chunks()) return Stage::kSerializing;
  if (uploaded_ < num_chunks()) return Stage::kUploading;
  return Stage::kDone;
}

double PipelinedClientSession::sequential_latency(
    const PipelineTimings& timings) {
  double total = timings.train_s;
  for (const double s : timings.serialize_chunk_s) total += s;
  for (const double u : timings.upload_chunk_s) total += u;
  return total;
}

ClientRuntime::ClientRuntime(std::uint64_t client_id, ExampleStore store)
    : client_id_(client_id), store_(std::move(store)) {}

}  // namespace papaya::fl
