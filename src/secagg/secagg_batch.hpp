#pragma once
// Untrusted-server side of Asynchronous SecAgg (Fig. 16 steps 5, 7, 8).
//
// The server incrementally aggregates *masked* updates (it never sees a
// plaintext update), forwards each client's sealed seed to the TSA, and once
// the aggregation goal is reached asks the TSA for the unmasking vector and
// subtracts it.  Contributions arrive as a std::span, so a batch pays the
// control path once: one TSA boundary crossing, one mask expansion pass,
// and one cache-blocked fold of all accepted masked updates into the running
// sum.  The serving layer (fl::SecureBufferManager) hands over a span of
// one per report as it arrives, so each report learns its own verdict at
// once; longer spans remain for tests and micro benchmarks.
//
// The result does not depend on the split.  Z_{2^32} addition is
// associative and commutative, so any split of the same contribution stream
// yields the same masked sum; a rejected contribution discards only itself
// (its verdict slot says why); and accepted counts, index consumption and
// release behaviour follow the stream order, not the batch boundaries.

#include <optional>
#include <vector>

#include "secagg/fixed_point.hpp"
#include "secagg/secagg_client.hpp"
#include "secagg/tsa.hpp"

namespace papaya::secagg {

/// One secure-aggregation session on the untrusted server, bound to a TSA
/// instance.  Incremental: contributions arrive whenever clients finish,
/// with no inter-client coordination, in spans whose length the caller
/// chooses.
class BatchedSecureAggregationSession {
 public:
  BatchedSecureAggregationSession(TrustedSecureAggregator& tsa,
                                  std::size_t vector_length,
                                  std::size_t aggregation_goal);

  /// Step 5: fold a batch of masked updates into the running sum and
  /// forward the clients' TSA-destined material in one crossing.
  /// verdicts[i] is the TSA's verdict on batch[i] (duplicate indices resolve
  /// in stream order).  Accepted masked updates are folded with one blocked
  /// reduction; a rejected one is discarded, since an update the TSA cannot
  /// unmask would poison the aggregate.  Throws if any contribution has the
  /// wrong vector length (checked up front, before anything is processed).
  std::vector<TsaAccept> accept_batch(
      std::span<const ClientContribution> batch);

  std::size_t accepted_count() const { return accepted_; }
  bool goal_reached() const { return accepted_ >= goal_; }

  /// The running masked sum (exposed so equivalence tests can compare the
  /// blocked fold bit-for-bit against a reference sum).
  const GroupVec& masked_sum() const { return masked_sum_; }

  /// Steps 7–8: request the unmasking vector and recover the plaintext sum
  /// of group elements.  Returns nullopt if the TSA refuses (threshold not
  /// met or already released).
  std::optional<GroupVec> finalize();

  /// Convenience: finalize and decode to floats.
  std::optional<std::vector<float>> finalize_decoded(const FixedPointParams& fp);

 private:
  TrustedSecureAggregator& tsa_;
  GroupVec masked_sum_;
  std::size_t goal_;
  std::size_t accepted_ = 0;
};

}  // namespace papaya::secagg
