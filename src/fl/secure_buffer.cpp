#include "fl/secure_buffer.hpp"

#include <stdexcept>

namespace papaya::fl {

namespace {

/// Initial messages per epoch: the goal plus headroom for contributions
/// that arrive after the goal is hit (they are rejected but must not starve
/// the next epoch's handshakes mid-buffer).
std::size_t messages_per_epoch(std::size_t goal) { return 2 * goal + 4; }

}  // namespace

SecureBufferManager::SecureBufferManager(std::size_t model_size,
                                         std::size_t goal, std::uint64_t seed,
                                         std::size_t batch_size)
    : model_size_(model_size),
      goal_(goal),
      seed_(seed),
      batch_size_(batch_size == 0 ? 1 : batch_size),
      platform_(seed ^ 0x5ec9ULL),
      binary_measurement_(
          crypto::Sha256::hash(std::string("papaya-tsa-trusted-binary-v1"))) {
  if (goal == 0) throw std::invalid_argument("SecureBufferManager: goal 0");
  binary_leaf_ = log_.append(binary_measurement_);
  // Per-component budget: sqrt(max examples) * per-component delta bound,
  // aggregated over one buffer.  8.0 is generous for clipped LM deltas.
  fixed_point_ = secagg::FixedPointParams::for_budget(8.0, goal);
  util::LockGuard lock(mutex_);
  rotate_epoch();
}

void SecureBufferManager::rotate_epoch() {
  ++epoch_;
  tsa_ = std::make_unique<secagg::TrustedSecureAggregator>(
      crypto::DhParams::simulation256(),
      secagg::SecAggParams{model_size_, goal_}, messages_per_epoch(goal_),
      platform_, binary_measurement_, seed_ ^ (epoch_ * 0x9e37ULL));
  session_ = std::make_unique<secagg::BatchedSecureAggregationSession>(
      *tsa_, model_size_, goal_);
  next_message_ = 0;
  accepted_ = 0;
  weight_sum_ = 0.0;
}

std::optional<SecureUploadConfig> SecureBufferManager::next_upload_config() {
  util::LockGuard lock(mutex_);
  if (next_message_ >= tsa_->initial_messages().size()) return std::nullopt;
  SecureUploadConfig config;
  config.epoch = epoch_;
  config.initial_message = tsa_->initial_messages()[next_message_++];
  ++configs_handed_;
  config.log_proof = log_.prove_inclusion(binary_leaf_);
  config.expectations.expected_params_hash =
      secagg::SecAggParams{model_size_, goal_}.hash(
          crypto::DhParams::simulation256());
  config.expectations.log_snapshot = log_.snapshot();
  config.fixed_point = fixed_point_;
  return config;
}

std::optional<SecureReport> SecureBufferManager::prepare_report(
    const secagg::SimulatedEnclavePlatform& platform,
    const SecureUploadConfig& config, std::uint64_t client_id,
    std::uint64_t initial_version, std::size_t num_examples, double weight,
    std::span<const float> delta, std::uint64_t client_seed) {
  // Client-side example weighting: scale before masking.
  std::vector<float> scaled(delta.begin(), delta.end());
  for (auto& v : scaled) v = static_cast<float>(v * weight);

  secagg::SecAggClient client(crypto::DhParams::simulation256(),
                              config.fixed_point, client_seed);
  auto contribution = client.prepare_contribution(
      platform, config.expectations, config.initial_message, config.log_proof,
      scaled);
  if (!contribution) return std::nullopt;

  SecureReport report;
  report.epoch = config.epoch;
  report.client_id = client_id;
  report.initial_version = initial_version;
  report.num_examples = num_examples;
  report.contribution = std::move(*contribution);
  return report;
}

SecureSubmitOutcome SecureBufferManager::submit(const SecureReport& report,
                                                double weight) {
  util::LockGuard lock(mutex_);
  ++submitted_total_;
  if (report.epoch != epoch_) {
    ++wrong_epoch_total_;
    return SecureSubmitOutcome::kWrongEpoch;
  }
  // accept_batch throws on a wrong length, which would strand every report
  // pending beside this one; refuse it before it is buffered.
  if (report.contribution.masked_update.size() != model_size_) {
    ++rejected_total_;
    return SecureSubmitOutcome::kMalformed;
  }
  pending_.push_back(report.contribution);
  pending_weights_.push_back(weight);
  // Flush when the batch is full or when the flush could complete the
  // aggregation goal.  The goal condition makes forward progress independent
  // of the batch size: the epoch finalizes after the same accepted
  // contribution at any batch size, and the aggregate is bit-identical.
  if (pending_.size() < batch_size_ && accepted_ + pending_.size() < goal_) {
    return SecureSubmitOutcome::kBuffered;
  }
  const std::vector<secagg::TsaAccept> verdicts =
      session_->accept_batch(pending_);
  for (std::size_t i = 0; i < verdicts.size(); ++i) {
    if (verdicts[i] == secagg::TsaAccept::kAccepted) {
      ++accepted_;
      ++accepted_total_;
      weight_sum_ += pending_weights_[i];
    } else {
      ++rejected_total_;
      // The last verdict is this report's and is returned below; earlier
      // reports already returned kBuffered and learn theirs here.
      if (i + 1 < verdicts.size()) ++rejected_unclaimed_;
    }
  }
  pending_.clear();
  pending_weights_.clear();
  return verdicts.back() == secagg::TsaAccept::kAccepted
             ? SecureSubmitOutcome::kAccepted
             : SecureSubmitOutcome::kTsaRejected;
}

std::size_t SecureBufferManager::take_rejected() {
  util::LockGuard lock(mutex_);
  const std::size_t out = rejected_unclaimed_;
  rejected_unclaimed_ = 0;
  return out;
}

std::optional<std::vector<float>> SecureBufferManager::finalize_mean() {
  util::LockGuard lock(mutex_);
  const auto decoded = session_->finalize_decoded(fixed_point_);
  if (!decoded) return std::nullopt;
  std::vector<float> mean = *decoded;
  if (weight_sum_ > 0.0) {
    const auto inv = static_cast<float>(1.0 / weight_sum_);
    for (auto& v : mean) v *= inv;
  }
  ++epochs_released_;
  rotate_epoch();
  return mean;
}

SecureBufferManager::Accounting SecureBufferManager::accounting() const {
  util::LockGuard lock(mutex_);
  Accounting out;
  out.submitted = submitted_total_;
  out.accepted = accepted_total_;
  out.rejected = rejected_total_;
  out.wrong_epoch = wrong_epoch_total_;
  out.pending = pending_.size();
  out.pending_weight_slots = pending_weights_.size();
  out.configs_handed = configs_handed_;
  out.epochs_released = epochs_released_;
  out.epoch = epoch_;
  out.accepted_this_epoch = accepted_;
  out.weight_sum_this_epoch = weight_sum_;
  return out;
}

}  // namespace papaya::fl
