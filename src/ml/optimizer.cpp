#include "ml/optimizer.hpp"

#include <cmath>
#include <stdexcept>

#include "ml/math.hpp"

namespace papaya::ml {

void Sgd::step(std::span<float> params, std::span<float> grad) const {
  if (params.size() != grad.size()) {
    throw std::invalid_argument("Sgd::step: size mismatch");
  }
  // A non-finite gradient is left as it is; no rescale would fix it.
  if (clip_ > 0.0f) (void)clip_norm(grad, clip_);
  for (std::size_t i = 0; i < params.size(); ++i) params[i] -= lr_ * grad[i];
}

Adam::Adam(std::size_t num_params, Config config)
    : config_(config), m_(num_params, 0.0f), v_(num_params, 0.0f) {}

void Adam::step(std::span<float> params, std::span<const float> grad) {
  if (params.size() != m_.size() || grad.size() != m_.size()) {
    throw std::invalid_argument("Adam::step: size mismatch");
  }
  ++t_;
  const float bc1 = 1.0f - std::pow(config_.beta1, static_cast<float>(t_));
  const float bc2 = 1.0f - std::pow(config_.beta2, static_cast<float>(t_));
  for (std::size_t i = 0; i < params.size(); ++i) {
    m_[i] = config_.beta1 * m_[i] + (1.0f - config_.beta1) * grad[i];
    v_[i] = config_.beta2 * v_[i] + (1.0f - config_.beta2) * grad[i] * grad[i];
    const float m_hat = m_[i] / bc1;
    const float v_hat = v_[i] / bc2;
    params[i] -= config_.lr * m_hat / (std::sqrt(v_hat) + config_.epsilon);
  }
}

const char* to_string(ServerOptimizerKind kind) {
  switch (kind) {
    case ServerOptimizerKind::kFedSgd:
      return "FedSGD";
    case ServerOptimizerKind::kFedAvgM:
      return "FedAvgM";
    case ServerOptimizerKind::kFedAdagrad:
      return "FedAdagrad";
    case ServerOptimizerKind::kFedAdam:
      return "FedAdam";
    case ServerOptimizerKind::kFedYogi:
      return "FedYogi";
  }
  return "?";
}

ServerOptimizer::ServerOptimizer(std::size_t num_params,
                                 ServerOptimizerConfig config)
    : config_(config), m_(num_params, 0.0f), v_(num_params, 0.0f) {}

void ServerOptimizer::step(std::span<float> params,
                           std::span<const float> aggregated_delta) {
  if (params.size() != m_.size() || aggregated_delta.size() != m_.size()) {
    throw std::invalid_argument("ServerOptimizer::step: size mismatch");
  }
  ++t_;
  const float b1 = config_.beta1;
  const float b2 = config_.beta2;
  // Bias correction only applies to the EMA moments of FedAdam.
  const float bc1 = 1.0f - std::pow(b1, static_cast<float>(t_));
  const float bc2 = 1.0f - std::pow(b2, static_cast<float>(t_));

  for (std::size_t i = 0; i < params.size(); ++i) {
    const float d = aggregated_delta[i];
    switch (config_.kind) {
      case ServerOptimizerKind::kFedSgd:
        params[i] += config_.lr * d;
        break;
      case ServerOptimizerKind::kFedAvgM:
        // Heavy-ball: m = b1 * m + d (Reddi et al., Sec. 5 "momentum").
        m_[i] = b1 * m_[i] + d;
        params[i] += config_.lr * m_[i];
        break;
      case ServerOptimizerKind::kFedAdagrad:
        m_[i] = b1 * m_[i] + (1.0f - b1) * d;
        v_[i] += d * d;  // no decay: Adagrad accumulates
        params[i] += config_.lr * m_[i] / (std::sqrt(v_[i]) + config_.tau);
        break;
      case ServerOptimizerKind::kFedAdam: {
        m_[i] = b1 * m_[i] + (1.0f - b1) * d;
        v_[i] = b2 * v_[i] + (1.0f - b2) * d * d;
        const float m_hat = m_[i] / bc1;
        const float v_hat = v_[i] / bc2;
        params[i] += config_.lr * m_hat / (std::sqrt(v_hat) + config_.tau);
        break;
      }
      case ServerOptimizerKind::kFedYogi: {
        m_[i] = b1 * m_[i] + (1.0f - b1) * d;
        const float d2 = d * d;
        const float sign = v_[i] > d2 ? 1.0f : (v_[i] < d2 ? -1.0f : 0.0f);
        v_[i] = v_[i] - (1.0f - b2) * d2 * sign;
        params[i] += config_.lr * m_[i] / (std::sqrt(v_[i]) + config_.tau);
        break;
      }
    }
  }
}

}  // namespace papaya::ml
