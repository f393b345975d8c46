#pragma once
// Optimizers: SGD for the client, Adam and the FedOpt family for the server.
//
// FedAdam (Reddi et al. 2020, "Adaptive Federated Optimization") treats the
// aggregated client model-delta as a pseudo-gradient and applies an Adam-style
// server update.  The paper runs SGD on the client and FedAdam on the server
// for both SyncFL and AsyncFL (Sec. 7.1).  The other members of Reddi et
// al.'s family — FedSGD, FedAvgM, FedAdagrad, FedYogi — are implemented for
// the server-optimizer ablation (bench_ablation_server_opt); all five run
// through ServerOptimizer.

#include <cstdint>
#include <span>
#include <vector>

namespace papaya::ml {

/// Plain SGD: w -= lr * g.  Optional gradient clipping by global norm.
class Sgd {
 public:
  explicit Sgd(float lr, float clip = 0.0f) : lr_(lr), clip_(clip) {}

  /// Throws std::invalid_argument if grad and params differ in size.
  void step(std::span<float> params, std::span<float> grad) const;

  float learning_rate() const { return lr_; }

 private:
  float lr_;
  float clip_;
};

/// Adam with bias correction.
class Adam {
 public:
  struct Config {
    float lr = 1e-3f;
    float beta1 = 0.9f;
    float beta2 = 0.999f;
    float epsilon = 1e-8f;
  };

  Adam(std::size_t num_params, Config config);

  /// w -= lr * m_hat / (sqrt(v_hat) + eps).
  void step(std::span<float> params, std::span<const float> grad);

  std::uint64_t steps_taken() const { return t_; }

 private:
  Config config_;
  std::vector<float> m_, v_;
  std::uint64_t t_ = 0;
};

/// Which member of the FedOpt family (Reddi et al. 2020) the server runs.
enum class ServerOptimizerKind {
  kFedSgd,      ///< w += lr * delta
  kFedAvgM,     ///< heavy-ball momentum on the delta
  kFedAdagrad,  ///< accumulated second moment (no decay)
  /// EMA second moment, bias-corrected (the paper's choice):
  /// w += lr * m_hat / (sqrt(v_hat) + tau).
  kFedAdam,
  kFedYogi,     ///< Yogi's additive second-moment update
};

const char* to_string(ServerOptimizerKind kind);

/// Configuration for any server optimizer.  An aggregate, so call sites can
/// use designated initializers; defaults match the paper's FedAdam setup.
struct ServerOptimizerConfig {
  ServerOptimizerKind kind = ServerOptimizerKind::kFedAdam;
  float lr = 1e-2f;       ///< server learning rate (eta)
  float beta1 = 0.9f;     ///< momentum / first moment (the paper tunes it)
  float beta2 = 0.999f;   ///< second moment (adaptive variants)
  float tau = 1e-3f;      ///< adaptivity degree (epsilon in Adam terms)
};

/// Unified server optimizer: applies an aggregated client *delta* (average
/// of per-client (trained - initial) weight differences) as a
/// pseudo-gradient with the configured FedOpt rule.  All rules share the
/// m/v state layout; which moments are maintained depends on `kind`.
class ServerOptimizer {
 public:
  ServerOptimizer(std::size_t num_params, ServerOptimizerConfig config);

  /// Apply one server step from an aggregated delta.  The delta already
  /// points downhill, so updates are added.
  void step(std::span<float> params, std::span<const float> aggregated_delta);

  std::uint64_t steps_taken() const { return t_; }
  const ServerOptimizerConfig& config() const { return config_; }

 private:
  ServerOptimizerConfig config_;
  std::vector<float> m_, v_;
  std::uint64_t t_ = 0;
};

}  // namespace papaya::ml
