#include "crypto/chacha20.hpp"

#include <cstring>
#include <stdexcept>

#include "crypto/sha256.hpp"

namespace papaya::crypto {

namespace {

inline std::uint32_t rotl(std::uint32_t x, int n) {
  return (x << n) | (x >> (32 - n));
}

inline void quarter_round(std::uint32_t& a, std::uint32_t& b, std::uint32_t& c,
                          std::uint32_t& d) {
  a += b; d ^= a; d = rotl(d, 16);
  c += d; b ^= c; b = rotl(b, 12);
  a += b; d ^= a; d = rotl(d, 8);
  c += d; b ^= c; b = rotl(b, 7);
}

inline std::uint32_t load32(const std::uint8_t* p) {
  return static_cast<std::uint32_t>(p[0]) |
         (static_cast<std::uint32_t>(p[1]) << 8) |
         (static_cast<std::uint32_t>(p[2]) << 16) |
         (static_cast<std::uint32_t>(p[3]) << 24);
}

/// The 10 double rounds on a working copy of the state (no feed-forward add).
inline void core_rounds(std::array<std::uint32_t, 16>& x) {
  for (int i = 0; i < 10; ++i) {
    quarter_round(x[0], x[4], x[8], x[12]);
    quarter_round(x[1], x[5], x[9], x[13]);
    quarter_round(x[2], x[6], x[10], x[14]);
    quarter_round(x[3], x[7], x[11], x[15]);
    quarter_round(x[0], x[5], x[10], x[15]);
    quarter_round(x[1], x[6], x[11], x[12]);
    quarter_round(x[2], x[7], x[8], x[13]);
    quarter_round(x[3], x[4], x[9], x[14]);
  }
}

// Blocks per call of the tile kernel, one per vector lane.
constexpr std::size_t kTileBlocks = 8;

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#define PAPAYA_CHACHA_X86 1
#endif

// The tile kernel: kTileBlocks consecutive ChaCha20 blocks of one stream,
// lane l at counter state[12] + l (wrapping in 32 bits), block l written to
// out[16l .. 16l + 15].  `state` is not advanced.
//
// One row of 8 lanes spans two SSE registers but only one AVX2 register,
// and the register file is the bottleneck: the AVX2 build runs the 8-lane
// rounds without spilling every quarter-round.  The body is built twice,
// portable and `target("avx2")`, and a function-local static picks one per
// process with __builtin_cpu_supports, as the MLP kernel, the fold and the
// chunk CRC do.  Integer lanes, so both builds produce the same bits.
#if defined(__GNUC__) || defined(__clang__)
// GNU vector extensions guarantee the SIMD shape (GCC 12's SLP pass does
// not reliably vectorize the equivalent lane-array loops); targets without
// wide registers get correct element-wise lowering.
typedef std::uint32_t LaneVec
    __attribute__((vector_size(kTileBlocks * sizeof(std::uint32_t))));

[[gnu::always_inline]] inline void expand_tile_body(
    const std::array<std::uint32_t, 16>& state, std::uint32_t* out) {
  LaneVec st[16];
  for (std::size_t w = 0; w < 16; ++w) st[w] = LaneVec{} + state[w];
  for (std::size_t l = 0; l < kTileBlocks; ++l) {
    st[12][l] += static_cast<std::uint32_t>(l);
  }
#define PAPAYA_CHACHA_QR(a, b, c, d)                                   \
  do {                                                                 \
    x[a] += x[b]; x[d] ^= x[a]; x[d] = (x[d] << 16) | (x[d] >> 16);    \
    x[c] += x[d]; x[b] ^= x[c]; x[b] = (x[b] << 12) | (x[b] >> 20);    \
    x[a] += x[b]; x[d] ^= x[a]; x[d] = (x[d] << 8) | (x[d] >> 24);     \
    x[c] += x[d]; x[b] ^= x[c]; x[b] = (x[b] << 7) | (x[b] >> 25);     \
  } while (0)
  LaneVec x[16];
  std::memcpy(x, st, sizeof(x));
  for (int r = 0; r < 10; ++r) {
    PAPAYA_CHACHA_QR(0, 4, 8, 12);
    PAPAYA_CHACHA_QR(1, 5, 9, 13);
    PAPAYA_CHACHA_QR(2, 6, 10, 14);
    PAPAYA_CHACHA_QR(3, 7, 11, 15);
    PAPAYA_CHACHA_QR(0, 5, 10, 15);
    PAPAYA_CHACHA_QR(1, 6, 11, 12);
    PAPAYA_CHACHA_QR(2, 7, 8, 13);
    PAPAYA_CHACHA_QR(3, 4, 9, 14);
  }
#undef PAPAYA_CHACHA_QR
  for (std::size_t w = 0; w < 16; ++w) {
    const LaneVec v = x[w] + st[w];
    for (std::size_t l = 0; l < kTileBlocks; ++l) out[16 * l + w] = v[l];
  }
}
#else
inline void expand_tile_body(const std::array<std::uint32_t, 16>& state,
                             std::uint32_t* out) {
  for (std::size_t l = 0; l < kTileBlocks; ++l) {
    std::array<std::uint32_t, 16> in = state;
    in[12] += static_cast<std::uint32_t>(l);
    std::array<std::uint32_t, 16> x = in;
    core_rounds(x);
    for (std::size_t w = 0; w < 16; ++w) out[16 * l + w] = x[w] + in[w];
  }
}
#endif

#ifdef PAPAYA_CHACHA_X86
bool cpu_has_avx2() {
  static const bool has = [] {
    __builtin_cpu_init();
    return __builtin_cpu_supports("avx2");
  }();
  return has;
}
#endif

}  // namespace

namespace detail {

// The tile kernel's two builds.  Not in a header: tests/crypto_test.cpp
// declares them to check both.
void expand_tile_portable(const std::array<std::uint32_t, 16>& state,
                          std::uint32_t* out) {
  expand_tile_body(state, out);
}

#ifdef PAPAYA_CHACHA_X86
// Needs an AVX2 CPU.
__attribute__((target("avx2"))) void expand_tile_avx2(
    const std::array<std::uint32_t, 16>& state, std::uint32_t* out) {
  expand_tile_body(state, out);
}
#endif

}  // namespace detail

namespace {

void expand_tile(const std::array<std::uint32_t, 16>& state,
                 std::uint32_t* out) {
#ifdef PAPAYA_CHACHA_X86
  if (cpu_has_avx2()) return detail::expand_tile_avx2(state, out);
#endif
  detail::expand_tile_portable(state, out);
}

}  // namespace

ChaCha20::ChaCha20(std::span<const std::uint8_t> key,
                   std::span<const std::uint8_t> nonce,
                   std::uint32_t counter) {
  if (key.size() != kKeySize) {
    throw std::invalid_argument("ChaCha20: key must be 32 bytes");
  }
  if (nonce.size() != kNonceSize) {
    throw std::invalid_argument("ChaCha20: nonce must be 12 bytes");
  }
  state_[0] = 0x61707865;
  state_[1] = 0x3320646e;
  state_[2] = 0x79622d32;
  state_[3] = 0x6b206574;
  for (int i = 0; i < 8; ++i) state_[4 + i] = load32(key.data() + 4 * i);
  state_[12] = counter;
  for (int i = 0; i < 3; ++i) state_[13 + i] = load32(nonce.data() + 4 * i);
}

void ChaCha20::refill() {
  std::array<std::uint32_t, 16> x = state_;
  core_rounds(x);
  for (int i = 0; i < 16; ++i) {
    const std::uint32_t v = x[i] + state_[i];
    block_[4 * i] = static_cast<std::uint8_t>(v);
    block_[4 * i + 1] = static_cast<std::uint8_t>(v >> 8);
    block_[4 * i + 2] = static_cast<std::uint8_t>(v >> 16);
    block_[4 * i + 3] = static_cast<std::uint8_t>(v >> 24);
  }
  ++state_[12];
  block_pos_ = 0;
}

void ChaCha20::xor_stream(std::span<std::uint8_t> data) {
  for (auto& byte : data) {
    if (block_pos_ == 64) refill();
    byte ^= block_[block_pos_++];
  }
}

util::Bytes ChaCha20::keystream(std::size_t n) {
  util::Bytes out(n, 0);
  xor_stream(out);
  return out;
}

std::uint32_t ChaCha20::next_u32() {
  std::uint8_t b[4];
  for (auto& byte : b) {
    if (block_pos_ == 64) refill();
    byte = block_[block_pos_++];
  }
  return load32(b);
}

void ChaCha20::keystream_words(std::span<std::uint32_t> out) {
  std::size_t i = 0;
  // Drain any buffered partial block first so the word sequence lines up
  // with repeated next_u32() calls.
  while (i < out.size() && block_pos_ != 64) out[i++] = next_u32();
  // kTileBlocks consecutive blocks per tile call: lane l runs this stream
  // at counter c + l.  Word w of a block is the little-endian load of bytes
  // 4w..4w+3, i.e. exactly x[w] + state_[w].
  constexpr std::size_t kTileWords = 16 * kTileBlocks;
  for (; i + kTileWords <= out.size(); i += kTileWords) {
    expand_tile(state_, out.data() + i);
    state_[12] += kTileBlocks;
  }
  // Whole blocks straight from the core.
  for (; i + 16 <= out.size(); i += 16) {
    std::array<std::uint32_t, 16> x = state_;
    core_rounds(x);
    for (int w = 0; w < 16; ++w) out[i + w] = x[w] + state_[w];
    ++state_[12];
  }
  while (i < out.size()) out[i++] = next_u32();
}

MaskPrng::MaskPrng(std::span<const std::uint8_t> seed)
    : cipher_([&] {
        static const std::string info = "papaya-mask-prng-v1";
        const util::Bytes key = hkdf_sha256(
            seed, {},
            {reinterpret_cast<const std::uint8_t*>(info.data()), info.size()},
            ChaCha20::kKeySize);
        const std::array<std::uint8_t, ChaCha20::kNonceSize> nonce{};
        return ChaCha20(key, nonce);
      }()) {}

std::vector<std::uint32_t> MaskPrng::words(std::size_t n) {
  std::vector<std::uint32_t> out(n);
  cipher_.keystream_words(out);
  return out;
}

void MaskPrng::fill_words_multi(std::span<MaskPrng* const> prngs,
                                std::span<std::uint32_t* const> outs,
                                std::size_t n) {
  if (prngs.size() != outs.size()) {
    throw std::invalid_argument("MaskPrng: prngs/outs size mismatch");
  }
  for (std::size_t i = 0; i < prngs.size(); ++i) {
    prngs[i]->cipher_.keystream_words({outs[i], n});
  }
}

}  // namespace papaya::crypto
