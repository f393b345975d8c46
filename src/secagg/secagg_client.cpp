#include "secagg/secagg_client.hpp"

#include <stdexcept>

namespace papaya::secagg {

namespace {
constexpr const char* kChannelLabel = "papaya-tsa-channel-v1";
}

SecAggClient::SecAggClient(const crypto::DhParams& dh,
                           FixedPointParams fixed_point,
                           std::uint64_t client_seed)
    : dh_(dh), fixed_point_(fixed_point), random_([&] {
        util::ByteWriter w;
        w.str("papaya-secagg-client-seed");
        w.u64(client_seed);
        const crypto::Digest d = crypto::Sha256::hash(w.data());
        return crypto::DhRandom(d);
      }()) {}

std::optional<ClientContribution> SecAggClient::prepare_contribution(
    const SimulatedEnclavePlatform& platform,
    const QuoteExpectations& expectations,
    const TsaInitialMessage& initial_message,
    const crypto::InclusionProof& log_proof,
    std::span<const float> model_update) {
  // Fig. 19 step 3: validate the quote; abort on failure.
  if (!verify_attested_message(platform, initial_message.quote, expectations,
                               initial_message.dh_public, log_proof)) {
    return std::nullopt;
  }

  // An element the fixed-point encoding cannot represent (NaN, +-inf, or
  // beyond the scale's budget) aborts the client too.
  GroupVec encoded;
  try {
    encoded = encode(model_update, fixed_point_);
  } catch (const std::range_error&) {
    return std::nullopt;
  }

  // Complete the DH exchange (Fig. 16 step 3).
  const crypto::DhKeyPair kp = crypto::dh_generate(dh_, random_);
  crypto::BigUInt tsa_public;
  try {
    tsa_public = crypto::BigUInt::from_bytes(initial_message.dh_public);
  } catch (const std::exception&) {
    return std::nullopt;
  }
  crypto::Digest key;
  try {
    const crypto::BigUInt shared =
        crypto::dh_shared_element(dh_, kp.private_key, tsa_public);
    key = crypto::dh_derive_key(dh_, shared, kChannelLabel);
  } catch (const std::exception&) {
    return std::nullopt;
  }

  // Pick the 16-byte seed and mask the encoded update (Fig. 16 step 4).
  const util::Bytes seed_bytes = random_.bytes(std::tuple_size_v<Seed>);
  Seed seed{};
  std::copy(seed_bytes.begin(), seed_bytes.end(), seed.begin());

  ClientContribution out;
  out.message_index = initial_message.index;
  out.masked_update = mask(encoded, seed);
  out.completing_message = kp.public_key.to_bytes(dh_.byte_width());
  out.sealed_seed = crypto::seal(key, /*sequence=*/initial_message.index, seed);
  return out;
}

}  // namespace papaya::secagg
