// Example: the full Asynchronous SecAgg protocol, message by message.
//
// Walks the deployment story of Sec. 5 and Appendices B-C:
//   1. the operator logs the trusted binary in a verifiable log,
//   2. the TSA (simulated enclave) pre-generates attested DH initial
//      messages,
//   3. clients verify the attestation quote + log inclusion proof, mask
//      their updates with a seed-expanded one-time pad, and upload,
//   4. the untrusted server aggregates masked updates incrementally,
//   5. at the aggregation goal the TSA releases the unmasking vector once,
//   6. the server recovers ONLY the sum -- and a tampering attempt is shown
//      to be rejected.
//
// Exits non-zero if the tampered seed is accepted or the recovered sum
// misses the true sum by more than the fixed-point resolution.
//
//   $ ./secure_aggregation

#include <cmath>
#include <cstdio>

#include "secagg/secagg_batch.hpp"
#include "secagg/secagg_client.hpp"
#include "util/rng.hpp"

int main() {
  using namespace papaya;

  const std::size_t model_size = 8;
  const std::size_t num_clients = 4;

  // --- Step 0: publish the trusted binary in the verifiable log.
  const crypto::Digest binary_hash =
      crypto::Sha256::hash(std::string("papaya-tsa-binary v1.2.0"));
  crypto::VerifiableLog log;
  const std::uint64_t leaf = log.append(binary_hash);
  std::printf("verifiable log: binary measurement logged at leaf %llu, "
              "root %.16s...\n",
              static_cast<unsigned long long>(leaf),
              util::to_hex(log.snapshot().root).c_str());

  // --- Step 1: the TSA boots inside the (simulated) enclave and publishes
  // attested DH initial messages.
  const crypto::DhParams& dh = crypto::DhParams::simulation256();
  const secagg::SimulatedEnclavePlatform platform(2024);
  secagg::SecAggParams params;
  params.vector_length = model_size;
  params.threshold = num_clients;  // t: minimum clients before release
  secagg::TrustedSecureAggregator tsa(dh, params, /*num_initial_messages=*/8,
                                      platform, binary_hash, /*seed=*/99);
  std::printf("TSA: %zu attested DH initial messages published\n",
              tsa.initial_messages().size());

  // --- Steps 2-4: clients verify, mask, and contribute.
  const secagg::FixedPointParams fp =
      secagg::FixedPointParams::for_budget(1.0, num_clients);
  const secagg::QuoteExpectations expectations{params.hash(dh),
                                               log.snapshot()};
  secagg::BatchedSecureAggregationSession session(tsa, model_size,
                                                  num_clients);

  util::Rng rng(5);
  std::vector<double> true_sum(model_size, 0.0);
  for (std::uint64_t c = 0; c < num_clients; ++c) {
    std::vector<float> update(model_size);
    for (auto& v : update) v = static_cast<float>(rng.uniform(-0.5, 0.5));
    for (std::size_t i = 0; i < model_size; ++i) true_sum[i] += update[i];

    secagg::SecAggClient client(dh, fp, /*client_seed=*/c);
    const auto contribution = client.prepare_contribution(
        platform, expectations, tsa.initial_messages().at(c),
        log.prove_inclusion(leaf), update);
    if (!contribution) {
      std::printf("client %llu: attestation verification FAILED, aborting\n",
                  static_cast<unsigned long long>(c));
      return 1;
    }
    // Each upload is handed to the TSA on its own: a batch of one.
    const secagg::TsaAccept verdict =
        session.accept_batch({&*contribution, 1}).front();
    std::printf("client %llu: quote verified, masked update uploaded "
                "(TSA verdict: %s)\n",
                static_cast<unsigned long long>(c),
                verdict == secagg::TsaAccept::kAccepted ? "accepted"
                                                        : "rejected");
  }

  // --- A tampering attempt: the server flips a bit in a sealed seed.
  bool ok = true;
  {
    secagg::SecAggClient attacker_view(dh, fp, 77);
    auto contribution = attacker_view.prepare_contribution(
        platform, expectations, tsa.initial_messages().at(num_clients),
        log.prove_inclusion(leaf), std::vector<float>(model_size, 0.1f));
    contribution->sealed_seed.ciphertext[20] ^= 0x01;
    const secagg::TsaAccept verdict =
        session.accept_batch({&*contribution, 1}).front();
    ok = verdict == secagg::TsaAccept::kDecryptionFailed;
    std::printf("tampered seed ciphertext: TSA verdict = %s\n",
                ok ? "decryption failed (rejected)" : "UNEXPECTEDLY ACCEPTED");
  }

  // --- Steps 5-6: unmask at the goal; the server learns only the sum.
  const auto sum = session.finalize();
  if (!sum) {
    std::printf("TSA refused to release (below threshold?)\n");
    return 1;
  }
  // Each client's encoding rounds by at most half the resolution 1/scale.
  const double tolerance = static_cast<double>(num_clients) / fp.scale;
  std::printf("\n%-6s %-12s %-12s\n", "idx", "secure sum", "true sum");
  for (std::size_t i = 0; i < model_size; ++i) {
    const double secure = secagg::decode_value((*sum)[i], fp);
    std::printf("%-6zu %-12.5f %-12.5f\n", i, secure, true_sum[i]);
    if (std::abs(secure - true_sum[i]) > tolerance) {
      std::printf("idx %zu: secure sum misses the true sum by more than %g\n",
                  i, tolerance);
      ok = false;
    }
  }
  std::printf("\nboundary traffic into TSA: %llu bytes over %llu calls "
              "(model is %zu bytes x %zu clients = %zu bytes that did NOT "
              "cross)\n",
              static_cast<unsigned long long>(tsa.boundary().bytes_in()),
              static_cast<unsigned long long>(tsa.boundary().calls()),
              model_size * 4, num_clients, model_size * 4 * num_clients);
  return ok ? 0 : 1;
}
