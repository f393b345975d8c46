#include "crypto/sha256.hpp"

#include <cstring>
#include <stdexcept>

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#include <immintrin.h>
#define PAPAYA_SHA_X86 1
#endif

namespace papaya::crypto {

namespace {

constexpr std::uint32_t kInit[8] = {
    0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a,
    0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19};

constexpr std::uint32_t kRound[64] = {
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1,
    0x923f82a4, 0xab1c5ed5, 0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3,
    0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174, 0xe49b69c1, 0xefbe4786,
    0x0fc19dc6, 0x240ca1cc, 0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da,
    0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147,
    0x06ca6351, 0x14292967, 0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13,
    0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85, 0xa2bfe8a1, 0xa81a664b,
    0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070,
    0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a,
    0x5b9cca4f, 0x682e6ff3, 0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208,
    0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2};

inline std::uint32_t rotr(std::uint32_t x, int n) {
  return (x >> n) | (x << (32 - n));
}

#ifdef PAPAYA_SHA_X86
bool cpu_has_sha() {
  static const bool has = [] {
    __builtin_cpu_init();
    return __builtin_cpu_supports("sha") && __builtin_cpu_supports("sse4.1");
  }();
  return has;
}
#endif

}  // namespace

namespace detail {

// The compression function's two builds.  Not in a header:
// tests/crypto_test.cpp declares them to check both.  The portable one is
// FIPS 180-4 6.2.2 on each block.
void sha256_blocks_portable(std::array<std::uint32_t, 8>& state,
                            const std::uint8_t* p, std::size_t blocks) {
  for (; blocks > 0; --blocks, p += 64) {
    std::uint32_t w[64];
    for (int i = 0; i < 16; ++i) {
      w[i] = (static_cast<std::uint32_t>(p[4 * i]) << 24) |
             (static_cast<std::uint32_t>(p[4 * i + 1]) << 16) |
             (static_cast<std::uint32_t>(p[4 * i + 2]) << 8) |
             static_cast<std::uint32_t>(p[4 * i + 3]);
    }
    for (int i = 16; i < 64; ++i) {
      const std::uint32_t s0 =
          rotr(w[i - 15], 7) ^ rotr(w[i - 15], 18) ^ (w[i - 15] >> 3);
      const std::uint32_t s1 =
          rotr(w[i - 2], 17) ^ rotr(w[i - 2], 19) ^ (w[i - 2] >> 10);
      w[i] = w[i - 16] + s0 + w[i - 7] + s1;
    }

    std::uint32_t a = state[0], b = state[1], c = state[2], d = state[3];
    std::uint32_t e = state[4], f = state[5], g = state[6], h = state[7];

    for (int i = 0; i < 64; ++i) {
      const std::uint32_t s1 = rotr(e, 6) ^ rotr(e, 11) ^ rotr(e, 25);
      const std::uint32_t ch = (e & f) ^ (~e & g);
      const std::uint32_t t1 = h + s1 + ch + kRound[i] + w[i];
      const std::uint32_t s0 = rotr(a, 2) ^ rotr(a, 13) ^ rotr(a, 22);
      const std::uint32_t maj = (a & b) ^ (a & c) ^ (b & c);
      const std::uint32_t t2 = s0 + maj;
      h = g;
      g = f;
      f = e;
      e = d + t1;
      d = c;
      c = b;
      b = a;
      a = t1 + t2;
    }

    state[0] += a;
    state[1] += b;
    state[2] += c;
    state[3] += d;
    state[4] += e;
    state[5] += f;
    state[6] += g;
    state[7] += h;
  }
}

#ifdef PAPAYA_SHA_X86
// The same rounds on the SHA extensions (Intel's SHA-NI): sha256rnds2 runs
// two rounds on the working variables packed as ABEF and CDGH, and
// sha256msg1/sha256msg2 compute the message schedule four words at a time.
// Integer operations only, so the digest is the portable one's.  The target
// adds SSE4.1 (and with it SSSE3) for the byte shuffle, alignr and blend.
// Needs a CPU with SHA and SSE4.1.
__attribute__((target("sha,sse4.1"))) void sha256_blocks_shani(
    std::array<std::uint32_t, 8>& state, const std::uint8_t* data,
    std::size_t blocks) {
  // Loads each 32-bit message word big-endian.
  const __m128i bswap =
      _mm_set_epi64x(0x0c0d0e0f08090a0bLL, 0x0405060700010203LL);
  // state is A..H; the round instruction wants ABEF and CDGH, high lane
  // first.
  __m128i tmp = _mm_shuffle_epi32(
      _mm_loadu_si128(reinterpret_cast<const __m128i*>(&state[0])), 0xb1);
  __m128i cdgh = _mm_shuffle_epi32(
      _mm_loadu_si128(reinterpret_cast<const __m128i*>(&state[4])), 0x1b);
  __m128i abef = _mm_alignr_epi8(tmp, cdgh, 8);
  cdgh = _mm_blend_epi16(cdgh, tmp, 0xf0);

  for (; blocks > 0; --blocks, data += 64) {
    const __m128i abef_in = abef;
    const __m128i cdgh_in = cdgh;
    // Four rounds per group g.  w[g % 4] holds message words 4g..4g+3
    // while group g runs; from group g + 1 the slot holds sha256msg1's
    // partial schedule of words 4(g+4)..4(g+4)+3, which group g + 3
    // completes with sha256msg2.
    __m128i w[4];
#pragma GCC unroll 16
    for (int g = 0; g < 16; ++g) {
      if (g < 4) {
        w[g] = _mm_shuffle_epi8(
            _mm_loadu_si128(reinterpret_cast<const __m128i*>(data + 16 * g)),
            bswap);
      }
      __m128i msg = _mm_add_epi32(
          w[g % 4],
          _mm_loadu_si128(reinterpret_cast<const __m128i*>(&kRound[4 * g])));
      cdgh = _mm_sha256rnds2_epu32(cdgh, abef, msg);
      if (g >= 3 && g < 15) {
        // Words 4(g+1)..4(g+1)+3 from the partial schedule and the last two
        // groups.
        const int n = (g + 1) % 4;
        w[n] = _mm_sha256msg2_epu32(
            _mm_add_epi32(w[n],
                          _mm_alignr_epi8(w[g % 4], w[(g + 3) % 4], 4)),
            w[g % 4]);
      }
      msg = _mm_shuffle_epi32(msg, 0x0e);
      abef = _mm_sha256rnds2_epu32(abef, cdgh, msg);
      if (g >= 1 && g < 13) {
        w[(g + 3) % 4] = _mm_sha256msg1_epu32(w[(g + 3) % 4], w[g % 4]);
      }
    }
    abef = _mm_add_epi32(abef, abef_in);
    cdgh = _mm_add_epi32(cdgh, cdgh_in);
  }

  // Back from ABEF / CDGH to A..H.
  tmp = _mm_shuffle_epi32(abef, 0x1b);
  cdgh = _mm_shuffle_epi32(cdgh, 0xb1);
  _mm_storeu_si128(reinterpret_cast<__m128i*>(&state[0]),
                   _mm_blend_epi16(tmp, cdgh, 0xf0));
  _mm_storeu_si128(reinterpret_cast<__m128i*>(&state[4]),
                   _mm_alignr_epi8(cdgh, tmp, 8));
}
#endif

}  // namespace detail

namespace {

// The compression function for whole 64-byte blocks, built twice: portable,
// and `target("sha,sse4.1")` on the SHA extensions.  A function-local static
// picks one per process with __builtin_cpu_supports, as the MLP kernel, the
// fold, the chunk CRC and the ChaCha20 tile do.
void compress(std::array<std::uint32_t, 8>& state, const std::uint8_t* data,
              std::size_t blocks) {
#ifdef PAPAYA_SHA_X86
  if (cpu_has_sha()) return detail::sha256_blocks_shani(state, data, blocks);
#endif
  detail::sha256_blocks_portable(state, data, blocks);
}

}  // namespace

void Sha256::reset() {
  std::memcpy(state_.data(), kInit, sizeof(kInit));
  buffer_len_ = 0;
  total_len_ = 0;
}

void Sha256::update(std::span<const std::uint8_t> data) {
  total_len_ += data.size();
  std::size_t off = 0;
  if (buffer_len_ > 0) {
    const std::size_t need = 64 - buffer_len_;
    const std::size_t take = std::min(need, data.size());
    std::memcpy(buffer_.data() + buffer_len_, data.data(), take);
    buffer_len_ += take;
    off = take;
    if (buffer_len_ == 64) {
      compress(state_, buffer_.data(), 1);
      buffer_len_ = 0;
    }
  }
  if (const std::size_t blocks = (data.size() - off) / 64; blocks > 0) {
    compress(state_, data.data() + off, blocks);
    off += 64 * blocks;
  }
  if (off < data.size()) {
    std::memcpy(buffer_.data(), data.data() + off, data.size() - off);
    buffer_len_ = data.size() - off;
  }
}

Digest Sha256::finish() {
  // 0x80, zeros up to 56 mod 64, then the message length in bits, big-endian:
  // one or two blocks, in one update.
  const std::uint64_t bit_len = total_len_ * 8;
  std::uint8_t pad[128] = {0x80};
  const std::size_t zeros_end = buffer_len_ < 56 ? 56 : 120;
  const std::size_t pad_len = zeros_end - buffer_len_ + 8;
  for (int i = 0; i < 8; ++i) {
    pad[pad_len - 8 + i] = static_cast<std::uint8_t>(bit_len >> (56 - 8 * i));
  }
  update({pad, pad_len});

  Digest out{};
  for (int i = 0; i < 8; ++i) {
    out[4 * i] = static_cast<std::uint8_t>(state_[i] >> 24);
    out[4 * i + 1] = static_cast<std::uint8_t>(state_[i] >> 16);
    out[4 * i + 2] = static_cast<std::uint8_t>(state_[i] >> 8);
    out[4 * i + 3] = static_cast<std::uint8_t>(state_[i]);
  }
  return out;
}

Digest Sha256::hash(std::span<const std::uint8_t> data) {
  Sha256 h;
  h.update(data);
  return h.finish();
}

Digest Sha256::hash(const std::string& s) {
  return hash({reinterpret_cast<const std::uint8_t*>(s.data()), s.size()});
}

Digest hmac_sha256(std::span<const std::uint8_t> key,
                   std::span<const std::uint8_t> message) {
  std::array<std::uint8_t, 64> k{};
  if (key.size() > 64) {
    const Digest d = Sha256::hash(key);
    std::memcpy(k.data(), d.data(), d.size());
  } else {
    std::memcpy(k.data(), key.data(), key.size());
  }

  std::array<std::uint8_t, 64> ipad{}, opad{};
  for (int i = 0; i < 64; ++i) {
    ipad[i] = k[i] ^ 0x36;
    opad[i] = k[i] ^ 0x5c;
  }

  Sha256 inner;
  inner.update(ipad);
  inner.update(message);
  const Digest inner_digest = inner.finish();

  Sha256 outer;
  outer.update(opad);
  outer.update(inner_digest);
  return outer.finish();
}

util::Bytes hkdf_sha256(std::span<const std::uint8_t> ikm,
                        std::span<const std::uint8_t> salt,
                        std::span<const std::uint8_t> info,
                        std::size_t length) {
  if (length > 255 * 32) {
    throw std::invalid_argument("hkdf_sha256: output too long");
  }
  // Extract.
  std::array<std::uint8_t, 32> zero_salt{};
  const Digest prk =
      hmac_sha256(salt.empty() ? std::span<const std::uint8_t>(zero_salt) : salt,
                  ikm);

  // Expand.
  util::Bytes okm;
  okm.reserve(length);
  Digest t{};
  std::size_t t_len = 0;
  std::uint8_t counter = 1;
  while (okm.size() < length) {
    util::ByteWriter w;
    w.raw({t.data(), t_len});
    w.raw(info);
    w.u8(counter++);
    t = hmac_sha256(prk, w.data());
    t_len = t.size();
    const std::size_t take = std::min(t.size(), length - okm.size());
    okm.insert(okm.end(), t.begin(), t.begin() + static_cast<std::ptrdiff_t>(take));
  }
  return okm;
}

}  // namespace papaya::crypto
