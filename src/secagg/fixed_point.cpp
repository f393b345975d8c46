#include "secagg/fixed_point.hpp"

#include <cmath>
#include <stdexcept>

namespace papaya::secagg {

FixedPointParams FixedPointParams::for_budget(double per_update_magnitude,
                                              std::size_t num_updates) {
  if (per_update_magnitude <= 0.0 || num_updates == 0) {
    throw std::invalid_argument("FixedPointParams::for_budget: bad budget");
  }
  const double worst_sum =
      per_update_magnitude * static_cast<double>(num_updates);
  // 2x headroom below the wrap-around bound.
  const double scale = (static_cast<double>(1ULL << 31) - 1.0) / (2.0 * worst_sum);
  FixedPointParams params;
  params.scale = scale;
  return params;
}

std::uint32_t encode_value(double v, const FixedPointParams& params) {
  const double scaled = std::nearbyint(v * params.scale);
  // Written as "not inside the range" so that NaN, which compares false
  // both ways, is rejected too rather than reaching the integer cast.
  if (!(scaled >= -static_cast<double>(1ULL << 31) &&
        scaled < static_cast<double>(1ULL << 31))) {
    throw std::range_error("fixed_point: value exceeds representable range");
  }
  // Two's-complement mapping of [-2^31, 2^31) onto Z_{2^32}.
  return static_cast<std::uint32_t>(static_cast<std::int64_t>(scaled));
}

double decode_value(std::uint32_t e, const FixedPointParams& params) {
  return static_cast<double>(static_cast<std::int32_t>(e)) / params.scale;
}

GroupVec encode(std::span<const float> values, const FixedPointParams& params) {
  GroupVec out(values.size());
  for (std::size_t i = 0; i < values.size(); ++i) {
    out[i] = encode_value(values[i], params);
  }
  return out;
}

std::vector<float> decode(std::span<const std::uint32_t> elements,
                          const FixedPointParams& params) {
  std::vector<float> out(elements.size());
  for (std::size_t i = 0; i < elements.size(); ++i) {
    out[i] = static_cast<float>(decode_value(elements[i], params));
  }
  return out;
}

}  // namespace papaya::secagg
