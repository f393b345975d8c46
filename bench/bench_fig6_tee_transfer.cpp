// Figure 6 reproduction: data transfer time across the host->TEE boundary as
// a function of the aggregation goal K, for a 20 MB model.
//
// Paper result: naive TEE aggregation transfers O(K*m) bytes (~650 ms at
// K=100, ~6500 ms at K=1000), while AsyncSecAgg transfers only a 16-byte
// seed (plus DH material) per client — O(K + m) — so its cost is nearly flat
// in K.  We meter actual protocol messages and apply the calibrated boundary
// cost model.

#include <cstdio>

#include "secagg/boundary.hpp"
#include "secagg/secagg_batch.hpp"
#include "secagg/secagg_client.hpp"
#include "secagg/secagg_server.hpp"
#include "secagg/tsa.hpp"
#include "util/rng.hpp"

namespace {

using namespace papaya;

// 20 MB model = 5M float32 parameters.  The boundary byte counts we meter
// scale exactly linearly in the vector length, so we measure with a smaller
// vector and scale the *per-update masked payload* analytically to 20 MB —
// the protocol messages that actually cross the TEE boundary (seeds, DH
// completing messages) are measured at full fidelity.
constexpr std::size_t kMeasuredLength = 4096;
constexpr double kTargetModelBytes = 20.0 * 1000 * 1000;
constexpr double kScale =
    kTargetModelBytes / (kMeasuredLength * sizeof(std::uint32_t));

double async_secagg_transfer_ms(std::size_t k) {
  const crypto::DhParams& dh = crypto::DhParams::simulation256();
  const secagg::SimulatedEnclavePlatform platform(1);
  const crypto::Digest binary = crypto::Sha256::hash(std::string("tsa"));
  crypto::VerifiableLog log;
  log.append(binary);

  secagg::SecAggParams params;
  params.vector_length = kMeasuredLength;
  params.threshold = k;
  const auto fp = secagg::FixedPointParams::for_budget(1.0, k);

  secagg::TrustedSecureAggregator tsa(dh, params, k, platform, binary, 7);
  const secagg::QuoteExpectations expectations{params.hash(dh), log.snapshot()};
  secagg::BatchedSecureAggregationSession session(tsa, kMeasuredLength, k);

  const std::vector<float> update(kMeasuredLength, 0.01f);
  const auto proof = log.prove_inclusion(0);
  for (std::size_t c = 0; c < k; ++c) {
    secagg::SecAggClient client(dh, fp, c);
    const auto contribution = client.prepare_contribution(
        platform, expectations, tsa.initial_messages().at(c), proof, update);
    if (!contribution) {
      std::fprintf(stderr, "client %zu aborted unexpectedly\n", c);
      return -1.0;
    }
    session.accept_batch({&*contribution, 1});
  }
  (void)session.finalize();

  // In AsyncSecAgg only the seeds + completing messages + the single
  // unmasking vector cross the boundary; the masked model stays host-side.
  // The unmasking vector is m group elements — scale it to the 20 MB model.
  const secagg::BoundaryMeter& meter = tsa.boundary();
  secagg::BoundaryMeter scaled;
  const auto unmask_bytes =
      static_cast<std::uint64_t>(kMeasuredLength * sizeof(std::uint32_t));
  const std::uint64_t seed_bytes = meter.total_bytes() - unmask_bytes;
  scaled.record_call(seed_bytes,
                     static_cast<std::uint64_t>(unmask_bytes * kScale));
  // Restore the per-call count (one ecall per client + one release call).
  for (std::uint64_t i = 1; i < meter.calls(); ++i) scaled.record_call(0, 0);
  return secagg::BoundaryCostModel{}.transfer_time_ms(scaled);
}

double naive_tsa_transfer_ms(std::size_t k) {
  secagg::NaiveTeeAggregator naive(kMeasuredLength, k);
  const secagg::GroupVec update(kMeasuredLength, 1u);
  for (std::size_t c = 0; c < k; ++c) naive.submit_update(update);
  (void)naive.release();

  const secagg::BoundaryMeter& meter = naive.boundary();
  secagg::BoundaryMeter scaled;
  scaled.record_call(static_cast<std::uint64_t>(
                         static_cast<double>(meter.bytes_in()) * kScale),
                     static_cast<std::uint64_t>(
                         static_cast<double>(meter.bytes_out()) * kScale));
  for (std::uint64_t i = 1; i < meter.calls(); ++i) scaled.record_call(0, 0);
  return secagg::BoundaryCostModel{}.transfer_time_ms(scaled);
}

}  // namespace

int main() {
  std::printf(
      "Figure 6: host->TEE data transfer time vs aggregation goal (20 MB "
      "model)\n");
  std::printf("%-18s %-22s %-22s\n", "aggregation goal K", "Naive TSA (ms)",
              "AsyncSecAgg (ms)");
  for (const std::size_t k : {10UL, 50UL, 100UL, 500UL, 1000UL}) {
    const double naive_ms = naive_tsa_transfer_ms(k);
    const double async_ms = async_secagg_transfer_ms(k);
    std::printf("%-18zu %-22.1f %-22.2f\n", k, naive_ms, async_ms);
  }
  std::printf(
      "\nExpected shape (paper): naive grows linearly in K (~650 ms at "
      "K=100,\n~6500 ms at K=1000); AsyncSecAgg stays nearly flat (seed "
      "traffic is\nO(K) 16-byte seeds + one O(m) unmask vector).\n");
  return 0;
}
