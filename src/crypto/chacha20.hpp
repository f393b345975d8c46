#pragma once
// ChaCha20 stream cipher (RFC 8439), implemented from scratch.
//
// Two roles in PAPAYA's Asynchronous SecAgg:
//  1. The cryptographically secure PRNG that expands a 16-byte client seed
//     into an as-large-as-the-model additive one-time pad (App. A.2).  The
//     client and the TSA must expand the same seed to identical masks.
//  2. The stream cipher inside the authenticated encryption used to ship
//     the seed to the TSA over the DH-established channel (Fig. 16 step 4).

#include <array>
#include <cstdint>
#include <span>
#include <vector>

#include "util/bytes.hpp"

namespace papaya::crypto {

/// ChaCha20 block function keystream generator.
class ChaCha20 {
 public:
  static constexpr std::size_t kKeySize = 32;
  static constexpr std::size_t kNonceSize = 12;

  ChaCha20(std::span<const std::uint8_t> key,
           std::span<const std::uint8_t> nonce, std::uint32_t counter = 0);

  /// XOR the keystream into `data` in place (encrypt == decrypt).
  void xor_stream(std::span<std::uint8_t> data);

  /// Produce `n` keystream bytes.
  util::Bytes keystream(std::size_t n);

  /// Next 32 bits of keystream interpreted as a little-endian word.  This is
  /// the primitive mask-generation call: mask vectors over Z_{2^32} are read
  /// word-by-word from the stream.
  std::uint32_t next_u32();

  /// Fill `out` with keystream words.  Bit-identical to calling next_u32()
  /// out.size() times, but whole blocks are produced straight from the core
  /// without the per-byte buffer bookkeeping, eight consecutive blocks at a
  /// time through a SIMD tile kernel (one vector lane per block).
  void keystream_words(std::span<std::uint32_t> out);

 private:
  void refill();

  std::array<std::uint32_t, 16> state_{};
  std::array<std::uint8_t, 64> block_{};
  std::size_t block_pos_ = 64;  // force refill on first use
};

/// Deterministic seed-expansion PRNG: expands a seed (typically 16 bytes)
/// into mask words via ChaCha20 keyed by HKDF(seed).  Both the client and
/// the TSA construct this from the same seed and obtain identical masks.
class MaskPrng {
 public:
  explicit MaskPrng(std::span<const std::uint8_t> seed);

  std::uint32_t next_u32() { return cipher_.next_u32(); }

  /// Fill a vector of n mask words.
  std::vector<std::uint32_t> words(std::size_t n);

  /// Batched expansion: outs[i][0..n) receives the next n words of
  /// prngs[i], one PRNG after another.
  static void fill_words_multi(std::span<MaskPrng* const> prngs,
                               std::span<std::uint32_t* const> outs,
                               std::size_t n);

 private:
  ChaCha20 cipher_;
};

}  // namespace papaya::crypto
