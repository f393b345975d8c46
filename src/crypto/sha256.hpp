#pragma once
// SHA-256 (FIPS 180-4), implemented from scratch.
//
// Used for attestation measurements, Merkle-tree hashing in the verifiable
// log, HMAC, and HKDF.  Streaming interface plus one-shot helper.

#include <array>
#include <cstdint>
#include <span>

#include "util/bytes.hpp"

namespace papaya::crypto {

using Digest = std::array<std::uint8_t, 32>;

class Sha256 {
 public:
  Sha256() { reset(); }

  void reset();
  void update(std::span<const std::uint8_t> data);
  /// Finalize and return the digest.  The object must be reset() before
  /// further use.
  Digest finish();

  /// One-shot convenience.
  static Digest hash(std::span<const std::uint8_t> data);
  static Digest hash(const std::string& s);

 private:
  std::array<std::uint32_t, 8> state_{};
  std::array<std::uint8_t, 64> buffer_{};
  std::size_t buffer_len_ = 0;
  std::uint64_t total_len_ = 0;
};

/// HMAC-SHA256 (RFC 2104).
Digest hmac_sha256(std::span<const std::uint8_t> key,
                   std::span<const std::uint8_t> message);

/// HKDF-SHA256 (RFC 5869): extract-then-expand, output up to 255*32 bytes.
util::Bytes hkdf_sha256(std::span<const std::uint8_t> ikm,
                        std::span<const std::uint8_t> salt,
                        std::span<const std::uint8_t> info,
                        std::size_t length);

}  // namespace papaya::crypto
