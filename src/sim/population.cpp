#include "sim/population.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "sim/streams.hpp"

namespace papaya::sim {

namespace {

/// Standard normal CDF.
double phi(double z) { return 0.5 * std::erfc(-z / std::sqrt(2.0)); }

}  // namespace

std::size_t DevicePopulation::example_count_from_quantile(double u,
                                                          std::size_t lo,
                                                          std::size_t hi) {
  const auto range = static_cast<double>(hi - lo + 1);
  auto bucket = static_cast<std::size_t>(std::floor(u * range));
  // Half-open buckets: only u == 1.0 exactly lands on `range`, and the top
  // bucket owns its closed upper edge.  (The old code clamped the final
  // example count instead, which mapped the same inputs to the same outputs
  // but left the off-by-one latent for any caller without the clamp.)
  if (bucket >= static_cast<std::size_t>(range)) {
    bucket = static_cast<std::size_t>(range) - 1;
  }
  return lo + bucket;
}

DevicePopulation::DevicePopulation(const PopulationConfig& config)
    : config_(config) {
  if (config.num_devices == 0) {
    throw std::invalid_argument("DevicePopulation: need at least one device");
  }
  if (config.min_examples > config.max_examples) {
    throw std::invalid_argument("DevicePopulation: bad example range");
  }
}

DeviceProfile DevicePopulation::profile(std::size_t i) const {
  if (i >= config_.num_devices) {
    throw std::out_of_range("DevicePopulation: device index out of range");
  }
  // Keyed synthesis: the profile is a pure function of (seed, i) via the
  // kProfileSynthesis purpose — the same (root, entity, purpose) hierarchy
  // the simulator's per-entity streams use, so when population.seed matches
  // the simulation seed the profile draws slot into that key space.
  util::StreamRng rng(config_.seed, static_cast<std::uint64_t>(i),
                      static_cast<std::uint64_t>(
                          StreamPurpose::kProfileSynthesis));
  const double z_h = rng.normal();
  const double z_mix = rng.normal();

  // Gaussian copula: z_h drives hardware slowness; the example draw mixes
  // z_h (weight rho) with an independent normal so slow devices tend to
  // have more data.
  const double rho =
      std::clamp(config_.slowness_example_correlation, -1.0, 1.0);
  const double z_e = rho * z_h + std::sqrt(1.0 - rho * rho) * z_mix;

  DeviceProfile d;
  d.id = static_cast<std::uint64_t>(i);
  d.hardware_factor =
      std::exp(config_.lognormal_mu + config_.lognormal_sigma * z_h);
  d.num_examples = example_count_from_quantile(
      phi(z_e), config_.min_examples, config_.max_examples);
  d.mean_exec_time_s =
      d.hardware_factor *
      (config_.base_exec_time_s +
       config_.per_example_time_s * static_cast<double>(d.num_examples));
  d.dropout_prob = config_.dropout_prob;
  return d;
}

}  // namespace papaya::sim
