#pragma once
// The naive TEE-aggregation baseline that Asynchronous SecAgg is compared
// against in Fig. 6.  The untrusted-server side of the protocol itself is
// BatchedSecureAggregationSession (secagg_batch.hpp).

#include <cstdint>
#include <optional>
#include <span>

#include "secagg/boundary.hpp"
#include "secagg/group.hpp"

namespace papaya::secagg {

/// Baseline for Fig. 6: naive TEE aggregation.  Every client's *entire
/// encrypted update* crosses the boundary into the enclave, which decrypts
/// and aggregates inside — O(K*m) boundary traffic.  The enclave mechanics
/// are simulated just enough to meter the traffic honestly.
class NaiveTeeAggregator {
 public:
  NaiveTeeAggregator(std::size_t vector_length, std::size_t threshold);

  /// Push one full (encrypted) update across the boundary.
  void submit_update(std::span<const std::uint32_t> encrypted_update);

  /// Pull the aggregate back out (only when >= threshold updates arrived).
  /// Metering matches how Fig. 6 counts boundary traffic: a below-threshold
  /// refusal moves nothing (a 0-byte status call), and the aggregate's bytes
  /// are charged exactly once — repeated calls after a release re-serve the
  /// already-exported sum without re-crossing it.
  std::optional<GroupVec> release();

  const BoundaryMeter& boundary() const { return boundary_; }

 private:
  GroupVec sum_;
  std::size_t threshold_;
  std::size_t count_ = 0;
  bool released_ = false;
  BoundaryMeter boundary_;
};

}  // namespace papaya::secagg
