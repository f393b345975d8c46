#pragma once
// The Trusted Secure Aggregator (TSA) — the trusted party of Fig. 16,
// realized in production by an Intel SGX enclave (App. C) and here by an
// in-process object behind a narrow, metered message API.
//
// Protocol responsibilities (numbers refer to Fig. 16 steps):
//  1. Pre-generate N > n DH key-exchange initial messages, each carrying an
//     attestation quote binding it to the trusted-binary measurement and the
//     public-parameter hash.
//  6. For each client: recover the shared secret from the completing
//     message, decrypt the 16-byte seed, re-generate the client's mask, and
//     fold it into a running sum.  A given initial-message index is consumed
//     by the first valid completing message; later ones are rejected.
//  7. Release the aggregated mask only once >= t clients have been
//     processed, then ignore all further messages (one-shot release).

#include <cstdint>
#include <optional>
#include <vector>

#include "crypto/auth_enc.hpp"
#include "crypto/dh.hpp"
#include "secagg/attestation.hpp"
#include "secagg/boundary.hpp"
#include "secagg/group.hpp"
#include "secagg/otp.hpp"

namespace papaya::secagg {

/// Public protocol parameters (Fig. 15): the group is fixed to Z_{2^32} by
/// construction, so the parameters are the vector length and threshold, plus
/// the DH group.  Hashed into every attestation quote.
struct SecAggParams {
  std::size_t vector_length = 0;  ///< l: number of group elements per update
  std::size_t threshold = 1;      ///< t: minimum clients before release

  crypto::Digest hash(const crypto::DhParams& dh) const;
};

/// A DH initial message published by the TSA (Fig. 16 step 1): index,
/// serialized public value, attestation quote.
struct TsaInitialMessage {
  std::uint64_t index = 0;
  util::Bytes dh_public;
  AttestationQuote quote;
};

/// Outcome of feeding one client contribution into the TSA.
enum class TsaAccept {
  kAccepted,
  kIndexUnknown,        ///< index out of range
  kIndexConsumed,       ///< a completing message already used this index
  kDecryptionFailed,    ///< tampered ciphertext / wrong key (Fig. 16 step 6)
  kReleased,            ///< TSA already released; ignores further messages
  kBadPublicKey,        ///< malformed DH completing message
};

class TrustedSecureAggregator {
 public:
  /// `enclave_seed` seeds the TSA's internal randomness (key generation);
  /// `binary_measurement` is the published hash of the trusted binary.
  TrustedSecureAggregator(const crypto::DhParams& dh, SecAggParams params,
                          std::size_t num_initial_messages,
                          const SimulatedEnclavePlatform& platform,
                          const crypto::Digest& binary_measurement,
                          std::uint64_t enclave_seed);

  /// Step 1: the pre-generated initial messages (served via the untrusted
  /// server; quotes make tampering detectable).
  const std::vector<TsaInitialMessage>& initial_messages() const {
    return initial_messages_;
  }

  /// A borrowed view of one contribution's TSA-destined material: the
  /// client's completing message and encrypted seed.  `sequence` is the
  /// sequence number the client sealed the seed under (the protocol uses
  /// the initial-message index).
  struct ContributionRef {
    std::uint64_t index = 0;
    std::span<const std::uint8_t> completing_message;
    const crypto::SealedBox* sealed_seed = nullptr;
    std::uint64_t sequence = 0;
  };

  /// Step 6: process a batch of contributions in one boundary crossing.  The
  /// control path (index bookkeeping, DH key recovery, seed decryption) runs
  /// per contribution in batch order, so a duplicate index is rejected the
  /// same way whether its first use arrived in this batch or an earlier one.
  /// Then all accepted seeds' masks are expanded and folded into the
  /// running mask sum in one cache-blocked pass; Z_{2^32} addition commutes, so the verdicts and the mask sum do
  /// not depend on how contributions are split into batches.  The boundary
  /// meter records one call per batch: the summed input bytes in, one
  /// status byte out per contribution.
  std::vector<TsaAccept> process_contributions(
      std::span<const ContributionRef> batch);

  /// Step 7: release the aggregated mask if >= t contributions were
  /// processed; afterwards the TSA ignores everything.  Returns nullopt
  /// (and stays live) when below threshold.
  std::optional<GroupVec> request_unmask();

  std::size_t accepted_count() const { return accepted_; }
  bool released() const { return released_; }

  const BoundaryMeter& boundary() const { return boundary_; }

 private:
  /// Control path for one contribution: index bookkeeping, DH key recovery,
  /// seed decryption.  On kAccepted the index is consumed, accepted_ is
  /// incremented, and `seed` holds the decrypted mask seed, which
  /// process_contributions then expands and folds.
  TsaAccept admit_contribution(std::uint64_t index,
                               std::span<const std::uint8_t> completing_message,
                               const crypto::SealedBox& sealed_seed,
                               std::uint64_t sequence, Seed& seed);

  const crypto::DhParams& dh_;
  SecAggParams params_;
  crypto::Digest params_hash_{};

  std::vector<TsaInitialMessage> initial_messages_;
  std::vector<crypto::BigUInt> private_keys_;   // enclave-resident
  std::vector<bool> index_consumed_;

  GroupVec mask_sum_;
  std::size_t accepted_ = 0;
  bool released_ = false;

  BoundaryMeter boundary_;
};

}  // namespace papaya::secagg
