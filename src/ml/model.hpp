#pragma once
// Language-model interface and configuration.
//
// The paper trains an LSTM-based next-word-prediction model (Kim et al.
// 2015).  One implementation stands in for it here: an n-gram MLP
// (concatenated context embeddings -> tanh hidden -> softmax), which every
// figure bench, example and benchmark workload trains.  It keeps its
// parameters in one flat float vector, because FL model updates are flat
// vectors: update = params_after_training - params_received.
//
// LanguageModel is the Executor's model-agnostic seam (App. E.5: it stands
// in for PyTorch Mobile's interpreter), and it keeps the kernel out of this
// header.

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "util/rng.hpp"

namespace papaya::ml {

/// One training example: a token sequence.  The model predicts token[t+1]
/// from tokens[0..t] at every position.
using Sequence = std::vector<std::int32_t>;

struct LmConfig {
  std::size_t vocab_size = 64;
  std::size_t embed_dim = 16;
  std::size_t hidden_dim = 32;
  /// Number of previous tokens in the context window.
  std::size_t context = 3;
};

/// A next-word-prediction model with flat parameters and manual gradients.
class LanguageModel {
 public:
  virtual ~LanguageModel() = default;

  virtual std::size_t num_params() const = 0;
  virtual std::span<float> params() = 0;
  virtual std::span<const float> params() const = 0;

  /// Mean cross-entropy (nats/token) over the sequences; if `grad` is
  /// non-null it must have num_params() entries and receives d(loss)/d(params)
  /// (overwritten, not accumulated).
  virtual double loss(std::span<const Sequence> batch,
                      std::span<float> grad) const = 0;

  /// Perplexity = exp(mean cross-entropy).
  double perplexity(std::span<const Sequence> batch) const;

  /// Number of next-token predictions in a batch (sum of len-1 per sequence).
  static std::size_t num_predictions(std::span<const Sequence> batch);

  virtual std::unique_ptr<LanguageModel> clone() const = 0;
};

/// The MLP language model; parameters initialized from `rng` (uniform
/// +-0.08, the classic small-LSTM init).
std::unique_ptr<LanguageModel> make_mlp_lm(const LmConfig& config,
                                           util::Rng& rng);

}  // namespace papaya::ml
