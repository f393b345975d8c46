#include "secagg/tsa.hpp"

#include <stdexcept>

namespace papaya::secagg {

namespace {
constexpr const char* kChannelLabel = "papaya-tsa-channel-v1";
}

crypto::Digest SecAggParams::hash(const crypto::DhParams& dh) const {
  util::ByteWriter w;
  w.str("papaya-secagg-params-v1");
  w.str("Z_2^32");
  w.u64(vector_length);
  w.u64(threshold);
  w.bytes(dh.p.to_bytes());
  w.bytes(dh.g.to_bytes());
  return crypto::Sha256::hash(w.data());
}

TrustedSecureAggregator::TrustedSecureAggregator(
    const crypto::DhParams& dh, SecAggParams params,
    std::size_t num_initial_messages, const SimulatedEnclavePlatform& platform,
    const crypto::Digest& binary_measurement, std::uint64_t enclave_seed)
    : dh_(dh), params_(params), mask_sum_(params.vector_length, 0) {
  if (params_.vector_length == 0) {
    throw std::invalid_argument("TSA: vector length must be > 0");
  }
  if (params_.threshold == 0) {
    throw std::invalid_argument("TSA: threshold must be > 0");
  }
  params_hash_ = params_.hash(dh_);

  util::ByteWriter seed_writer;
  seed_writer.str("papaya-tsa-enclave-seed");
  seed_writer.u64(enclave_seed);
  const crypto::Digest seed_digest = crypto::Sha256::hash(seed_writer.data());
  crypto::DhRandom random(seed_digest);

  initial_messages_.reserve(num_initial_messages);
  private_keys_.reserve(num_initial_messages);
  index_consumed_.assign(num_initial_messages, false);
  for (std::size_t i = 0; i < num_initial_messages; ++i) {
    const crypto::DhKeyPair kp = crypto::dh_generate(dh_, random);
    TsaInitialMessage msg;
    msg.index = i;
    msg.dh_public = kp.public_key.to_bytes(dh_.byte_width());
    msg.quote = platform.sign_quote(binary_measurement, params_hash_,
                                    crypto::Sha256::hash(msg.dh_public));
    initial_messages_.push_back(std::move(msg));
    private_keys_.push_back(kp.private_key);
  }
}

TsaAccept TrustedSecureAggregator::admit_contribution(
    std::uint64_t index, std::span<const std::uint8_t> completing_message,
    const crypto::SealedBox& sealed_seed, std::uint64_t sequence, Seed& seed) {
  if (released_) return TsaAccept::kReleased;
  if (index >= private_keys_.size()) return TsaAccept::kIndexUnknown;
  if (index_consumed_[index]) return TsaAccept::kIndexConsumed;

  // Honest clients send exactly byte_width() bytes; any other length is
  // malformed, even when it parses to the same integer.
  if (completing_message.size() != dh_.byte_width()) {
    return TsaAccept::kBadPublicKey;
  }
  const crypto::BigUInt client_public =
      crypto::BigUInt::from_bytes(completing_message);

  crypto::Digest key;
  try {
    const crypto::BigUInt shared =
        crypto::dh_shared_element(dh_, private_keys_[index], client_public);
    key = crypto::dh_derive_key(dh_, shared, kChannelLabel);
  } catch (const std::exception&) {
    return TsaAccept::kBadPublicKey;
  }

  const auto plaintext = crypto::open(key, sequence, sealed_seed);
  if (!plaintext || plaintext->size() != std::tuple_size_v<Seed>) {
    // Tampered or replayed ciphertext: ignore the update (Fig. 16 step 6).
    return TsaAccept::kDecryptionFailed;
  }

  std::copy(plaintext->begin(), plaintext->end(), seed.begin());

  // The index is consumed: "the trusted party will not process any further
  // completing messages to i'th initial message".
  index_consumed_[index] = true;
  ++accepted_;
  return TsaAccept::kAccepted;
}

TsaAccept TrustedSecureAggregator::process_contribution(
    std::uint64_t index, std::span<const std::uint8_t> completing_message,
    const crypto::SealedBox& sealed_seed, std::uint64_t sequence) {
  // Everything entering the enclave is metered: index + completing message +
  // sealed seed in; a one-byte status out.
  boundary_.record_call(
      sizeof(index) + completing_message.size() + sealed_seed.ciphertext.size(),
      1);

  Seed seed{};
  const TsaAccept verdict =
      admit_contribution(index, completing_message, sealed_seed, sequence, seed);
  if (verdict != TsaAccept::kAccepted) return verdict;

  // Re-generate the client's mask from the seed and fold it in.
  crypto::MaskPrng prng(seed);
  for (auto& e : mask_sum_) e += prng.next_u32();
  return TsaAccept::kAccepted;
}

std::vector<TsaAccept> TrustedSecureAggregator::process_contributions(
    std::span<const ContributionRef> batch) {
  // One boundary crossing for the whole batch: the summed inputs in, one
  // status byte per contribution out.  This is the control-path
  // amortization the batched pipeline exists for.
  std::uint64_t bytes_in = 0;
  for (const ContributionRef& c : batch) {
    bytes_in += sizeof(c.index) + c.completing_message.size() +
                c.sealed_seed->ciphertext.size();
  }
  boundary_.record_call(bytes_in, batch.size());

  std::vector<TsaAccept> verdicts;
  verdicts.reserve(batch.size());
  std::vector<Seed> seeds;
  seeds.reserve(batch.size());
  for (const ContributionRef& c : batch) {
    Seed seed{};
    const TsaAccept verdict = admit_contribution(
        c.index, c.completing_message, *c.sealed_seed, c.sequence, seed);
    if (verdict == TsaAccept::kAccepted) seeds.push_back(seed);
    verdicts.push_back(verdict);
  }

  // Bulk unmask material: all accepted seeds expand through the
  // multi-stream ChaCha20 path and fold cache-blocked into the mask sum.
  accumulate_masks(seeds, mask_sum_);
  return verdicts;
}

std::optional<GroupVec> TrustedSecureAggregator::request_unmask() {
  boundary_.record_call(0, released_ || accepted_ < params_.threshold
                               ? 1
                               : mask_sum_.size() * sizeof(std::uint32_t));
  if (released_) return std::nullopt;
  if (accepted_ < params_.threshold) return std::nullopt;
  released_ = true;
  return mask_sum_;
}

}  // namespace papaya::secagg
