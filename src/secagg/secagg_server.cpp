#include "secagg/secagg_server.hpp"

#include <stdexcept>

namespace papaya::secagg {

NaiveTeeAggregator::NaiveTeeAggregator(std::size_t vector_length,
                                       std::size_t threshold)
    : sum_(vector_length, 0), threshold_(threshold) {}

void NaiveTeeAggregator::submit_update(
    std::span<const std::uint32_t> encrypted_update) {
  if (encrypted_update.size() != sum_.size()) {
    throw std::invalid_argument("NaiveTeeAggregator: wrong update size");
  }
  // The whole ciphertext crosses the boundary: that is the O(K*m) term.
  boundary_.record_call(encrypted_update.size() * sizeof(std::uint32_t), 1);
  add_in_place(sum_, encrypted_update);
  ++count_;
}

std::optional<GroupVec> NaiveTeeAggregator::release() {
  // A refusal exports nothing (0-byte status); the aggregate's bytes cross
  // the boundary exactly once, on the first successful release.
  const bool first_release = count_ >= threshold_ && !released_;
  boundary_.record_call(
      0, first_release ? sum_.size() * sizeof(std::uint32_t) : 0);
  if (count_ < threshold_) return std::nullopt;
  released_ = true;
  return sum_;
}

}  // namespace papaya::secagg
