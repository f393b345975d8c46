#pragma once
// Client side of Asynchronous SecAgg (Fig. 16 steps 2–4, Fig. 19 step 3).
//
// Given an initial message relayed by the untrusted server, the client
// verifies the attestation quote and the verifiable-log inclusion proof,
// completes the DH exchange, picks a random 16-byte seed, masks its
// fixed-point-encoded model update, and produces:
//   - the masked update, destined for the untrusted Aggregator, and
//   - the sealed seed + DH completing message, destined for the TSA.
// If any verification fails, or the update cannot be encoded, the client
// aborts (returns nullopt) and its private update never leaves the device.

#include <optional>

#include "crypto/dh.hpp"
#include "secagg/attestation.hpp"
#include "secagg/fixed_point.hpp"
#include "secagg/otp.hpp"
#include "secagg/tsa.hpp"

namespace papaya::secagg {

/// What the client hands back to the server after local masking.
struct ClientContribution {
  std::uint64_t message_index = 0;   ///< which TSA initial message was used
  GroupVec masked_update;            ///< -> Aggregator (untrusted)
  util::Bytes completing_message;    ///< -> TSA (via server)
  crypto::SealedBox sealed_seed;     ///< -> TSA (via server)
};

class SecAggClient {
 public:
  /// `client_seed` seeds this client's key/seed randomness so simulations
  /// replay deterministically.
  SecAggClient(const crypto::DhParams& dh, FixedPointParams fixed_point,
               std::uint64_t client_seed);

  /// Run the client's half of the protocol.  Returns nullopt — the client
  /// aborts — if the attestation quote or log proof does not verify, or if
  /// an element of the update has no fixed-point encoding (NaN, +-inf, or
  /// out of range at `fixed_point`'s scale).
  std::optional<ClientContribution> prepare_contribution(
      const SimulatedEnclavePlatform& platform,
      const QuoteExpectations& expectations,
      const TsaInitialMessage& initial_message,
      const crypto::InclusionProof& log_proof,
      std::span<const float> model_update);

 private:
  const crypto::DhParams& dh_;
  FixedPointParams fixed_point_;
  crypto::DhRandom random_;
};

}  // namespace papaya::secagg
