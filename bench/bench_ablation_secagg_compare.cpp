// Ablation: SMPC-based synchronous SecAgg (Bonawitz et al. 2016) versus
// PAPAYA's TEE-based Asynchronous SecAgg (Sec. 5).
//
// The paper's argument for a new protocol is architectural: SMPC SecAgg
// "requires clients participating in a round to form a cohort and run a
// multi-leg protocol through the duration of the round", which is
// incompatible with asynchronous training.  This bench makes the costs
// concrete by running both protocols end to end and metering
//   - synchronous protocol legs every client must stay online for,
//   - client<->server traffic (SMPC's O(n^2) share ciphertexts vs
//     AsyncSecAgg's O(1) per-client overhead),
//   - server-side wall time per released aggregate.

#include <chrono>
#include <cstdio>
#include <vector>

#include "crypto/dh.hpp"
#include "crypto/sha256.hpp"
#include "secagg/fixed_point.hpp"
#include "secagg/secagg_batch.hpp"
#include "secagg/secagg_client.hpp"
#include "secagg/tsa.hpp"
#include "smpc/protocol.hpp"
#include "util/rng.hpp"

namespace {

using namespace papaya;
using Clock = std::chrono::steady_clock;

constexpr std::size_t kVectorLength = 1024;  // 4 KB masked payload

double ms_since(Clock::time_point start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - start)
      .count();
}

struct SmpcNumbers {
  double wall_ms = 0.0;
  std::uint64_t total_bytes = 0;
  std::uint64_t overhead_bytes = 0;  ///< total minus the masked payloads
};

SmpcNumbers run_smpc(std::size_t n) {
  util::Rng rng(n);
  std::vector<secagg::GroupVec> inputs(n);
  for (auto& v : inputs) {
    v.resize(kVectorLength);
    for (auto& x : v) x = static_cast<std::uint32_t>(rng.next());
  }
  smpc::SmpcConfig config;
  config.vector_length = kVectorLength;
  config.threshold = (2 * n + 2) / 3;

  const auto start = Clock::now();
  const auto result = smpc::run_smpc_round(config, inputs, {}, n);
  SmpcNumbers out;
  out.wall_ms = ms_since(start);
  out.total_bytes = result.traffic.client_to_server_bytes +
                    result.traffic.server_to_client_bytes;
  const std::uint64_t payload = n * (4 * kVectorLength + 8);
  out.overhead_bytes = out.total_bytes - payload;
  return out;
}

struct AsyncNumbers {
  double wall_ms = 0.0;
  std::uint64_t total_bytes = 0;
  std::uint64_t overhead_bytes = 0;
};

AsyncNumbers run_async(std::size_t k) {
  const crypto::DhParams& dh = crypto::DhParams::simulation256();
  const secagg::SimulatedEnclavePlatform platform(1);
  const crypto::Digest binary = crypto::Sha256::hash(std::string("tsa"));
  crypto::VerifiableLog log;
  log.append(binary);

  secagg::SecAggParams params;
  params.vector_length = kVectorLength;
  params.threshold = k;
  const auto fp = secagg::FixedPointParams::for_budget(1.0, k);

  const auto start = Clock::now();
  secagg::TrustedSecureAggregator tsa(dh, params, k, platform, binary, 7);
  const secagg::QuoteExpectations expectations{params.hash(dh),
                                               log.snapshot()};
  secagg::BatchedSecureAggregationSession session(tsa, kVectorLength, k);
  const std::vector<float> update(kVectorLength, 0.01f);
  const auto proof = log.prove_inclusion(0);

  AsyncNumbers out;
  for (std::size_t c = 0; c < k; ++c) {
    secagg::SecAggClient client(dh, fp, c);
    const auto contribution = client.prepare_contribution(
        platform, expectations, tsa.initial_messages().at(c), proof, update);
    session.accept_batch({&*contribution, 1});
    // Per-client wire traffic: one DH initial message down, then one upload
    // of {masked vector, sealed 16-byte seed, DH completing message}.
    const std::uint64_t dh_bytes = 2 * dh.byte_width();
    const std::uint64_t seed_box = 12 + 16 + 32;  // nonce + body + tag
    out.total_bytes += dh_bytes + 4 * kVectorLength + 8 + seed_box;
    out.overhead_bytes += dh_bytes + seed_box;
  }
  (void)session.finalize();
  out.wall_ms = ms_since(start);
  return out;
}

}  // namespace

int main() {
  std::printf(
      "Ablation: SMPC SecAgg (Bonawitz et al. 2016) vs Asynchronous SecAgg "
      "(Sec. 5)\n");
  std::printf("vector length = %zu words (%zu KB payload per client)\n\n",
              kVectorLength, kVectorLength * 4 / 1024);
  std::printf("%-6s | %-10s %-12s %-12s | %-10s %-12s %-12s | %s\n", "n",
              "smpc ms", "smpc KB", "smpc ovh KB", "async ms", "async KB",
              "async ovh KB", "ovh ratio");
  double last_ovh_per_n2 = 0.0;
  for (const std::size_t n : {4UL, 8UL, 16UL, 32UL}) {
    const SmpcNumbers s = run_smpc(n);
    const AsyncNumbers a = run_async(n);
    const double ratio = static_cast<double>(s.overhead_bytes) /
                         static_cast<double>(a.overhead_bytes);
    std::printf(
        "%-6zu | %-10.1f %-12.1f %-12.1f | %-10.1f %-12.1f %-12.1f | %.1fx\n",
        n, s.wall_ms, s.total_bytes / 1024.0, s.overhead_bytes / 1024.0,
        a.wall_ms, a.total_bytes / 1024.0, a.overhead_bytes / 1024.0, ratio);
    last_ovh_per_n2 =
        static_cast<double>(s.overhead_bytes) / (static_cast<double>(n) * n);
  }

  // SMPC share traffic is quadratic in the cohort; extrapolate to the
  // paper's aggregation goals.
  std::printf("\nExtrapolated SMPC share overhead (quadratic fit):\n");
  for (const std::size_t n : {100UL, 1000UL}) {
    std::printf("  n = %-5zu ~ %.1f MB of share ciphertexts per round\n", n,
                last_ovh_per_n2 * n * n / (1024.0 * 1024.0));
  }
  std::printf(
      "\nStructural costs (why Sec. 5 rules SMPC out for AsyncFL):\n"
      "  SMPC SecAgg:  %d synchronous legs; cohort fixed at round start;\n"
      "                every client must hold shares of every other client.\n"
      "  AsyncSecAgg:  1 leg per client; no inter-client dependency; a\n"
      "                client can contribute the moment it finishes "
      "training.\n",
      smpc::SmpcTraffic::kSynchronousLegs);
  return 0;
}
