// Unit tests for the crypto substrate: SHA-256 / HMAC / HKDF known-answer
// tests, ChaCha20 RFC 8439 vectors, big-integer arithmetic properties,
// Diffie-Hellman agreement, and authenticated-encryption tamper detection.

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdio>
#include <cstring>
#include <string>
#include <utility>
#include <vector>

#include "crypto/auth_enc.hpp"
#include "crypto/bigint.hpp"
#include "crypto/chacha20.hpp"
#include "crypto/dh.hpp"
#include "crypto/sha256.hpp"
#include "util/rng.hpp"

namespace papaya::crypto {
namespace detail {
// ChaCha20's tile kernel, portable and AVX2 builds (src/crypto/chacha20.cpp):
// eight consecutive blocks of one stream into out[0..128).  keystream_words
// takes the AVX2 one on a CPU that has it.
void expand_tile_portable(const std::array<std::uint32_t, 16>& state,
                          std::uint32_t* out);
#if defined(__x86_64__)
void expand_tile_avx2(const std::array<std::uint32_t, 16>& state,
                      std::uint32_t* out);
#endif
// SHA-256's compression function over whole blocks, portable and SHA-NI
// builds (src/crypto/sha256.cpp); Sha256 takes the SHA-NI one on a CPU with
// the SHA extensions.
void sha256_blocks_portable(std::array<std::uint32_t, 8>& state,
                            const std::uint8_t* data, std::size_t blocks);
#if defined(__x86_64__)
void sha256_blocks_shani(std::array<std::uint32_t, 8>& state,
                         const std::uint8_t* data, std::size_t blocks);
#endif
// The Montgomery multiply's 4-limb and generic instantiations
// (src/crypto/bigint.cpp); powmod takes the 4-limb one for 4-limb moduli.
void mont_mul_4(const std::uint64_t* a, const std::uint64_t* b,
                const std::uint64_t* m, std::uint64_t m_inv,
                std::uint64_t* out);
void mont_mul_generic(const std::uint64_t* a, const std::uint64_t* b,
                      const std::uint64_t* m, std::uint64_t m_inv,
                      std::size_t n, std::uint64_t* t, std::uint64_t* out);
}  // namespace detail

namespace {

using util::Bytes;
using util::to_hex;

Bytes from_string(const std::string& s) {
  return Bytes(s.begin(), s.end());
}

// ---------------------------------------------------------------- SHA-256 --

TEST(Sha256, Fips180EmptyString) {
  EXPECT_EQ(to_hex(Sha256::hash(std::string(""))),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855");
}

TEST(Sha256, Fips180Abc) {
  EXPECT_EQ(to_hex(Sha256::hash(std::string("abc"))),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
}

TEST(Sha256, Fips180TwoBlockMessage) {
  EXPECT_EQ(
      to_hex(Sha256::hash(std::string(
          "abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"))),
      "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1");
}

TEST(Sha256, MillionAs) {
  Sha256 h;
  const std::string chunk(1000, 'a');
  for (int i = 0; i < 1000; ++i) {
    h.update({reinterpret_cast<const std::uint8_t*>(chunk.data()), chunk.size()});
  }
  Digest d = h.finish();
  EXPECT_EQ(to_hex(d),
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0");
}

TEST(Sha256, StreamingMatchesOneShot) {
  const std::string msg = "papaya secure aggregation protocol";
  Sha256 h;
  for (char c : msg) {
    const auto b = static_cast<std::uint8_t>(c);
    h.update({&b, 1});
  }
  EXPECT_EQ(h.finish(), Sha256::hash(msg));
}

// The compression function's builds, each with this test's own padding:
// 0x80, zeros to 56 mod 64, the bit length big-endian.
struct Sha256Build {
  const char* name;
  void (*blocks)(std::array<std::uint32_t, 8>&, const std::uint8_t*,
                 std::size_t);
};

std::vector<Sha256Build> sha256_builds() {
  std::vector<Sha256Build> builds = {
      {"portable", detail::sha256_blocks_portable}};
#if defined(__x86_64__)
  if (__builtin_cpu_supports("sha") && __builtin_cpu_supports("sse4.1")) {
    builds.push_back({"sha-ni", detail::sha256_blocks_shani});
  } else {
    std::printf("[ SKIPPED  ] the SHA-NI build: this CPU has no SHA extensions\n");
  }
#endif
  return builds;
}

Digest sha256_with(const Sha256Build& build, const Bytes& message) {
  Bytes padded = message;
  padded.push_back(0x80);
  while (padded.size() % 64 != 56) padded.push_back(0);
  const std::uint64_t bits = 8 * static_cast<std::uint64_t>(message.size());
  for (int i = 7; i >= 0; --i) {
    padded.push_back(static_cast<std::uint8_t>(bits >> (8 * i)));
  }
  std::array<std::uint32_t, 8> state = {0x6a09e667, 0xbb67ae85, 0x3c6ef372,
                                        0xa54ff53a, 0x510e527f, 0x9b05688c,
                                        0x1f83d9ab, 0x5be0cd19};
  build.blocks(state, padded.data(), padded.size() / 64);
  Digest out{};
  for (std::size_t i = 0; i < 32; ++i) {
    out[i] = static_cast<std::uint8_t>(state[i / 4] >> (24 - 8 * (i % 4)));
  }
  return out;
}

TEST(Sha256, BothBuildsMatchFips180Vectors) {
  const std::vector<std::pair<std::string, std::string>> vectors = {
      {"", "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"},
      {"abc",
       "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"},
      {"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq",
       "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1"},
      {std::string(1000000, 'a'),
       "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0"}};
  for (const Sha256Build& build : sha256_builds()) {
    for (const auto& [message, digest] : vectors) {
      EXPECT_EQ(to_hex(sha256_with(build, from_string(message))), digest)
          << build.name << " length " << message.size();
    }
  }
}

TEST(Sha256, BuildsAndStreamingAgreeOnRandomMessages) {
  // Every length from 0 to 1,000 bytes (55, 56, 63, 64, 119 and 120 sit at
  // the padding's one- and two-block edges), random bytes: each build with
  // the reference padding, and the dispatching Sha256 one-shot and fed in
  // random pieces, give one digest.
  const auto builds = sha256_builds();
  util::Rng rng(180);
  for (std::size_t length = 0; length <= 1000; ++length) {
    Bytes message(length);
    for (auto& b : message) b = static_cast<std::uint8_t>(rng.uniform_int(256));
    const Digest reference = sha256_with(builds[0], message);
    for (std::size_t b = 1; b < builds.size(); ++b) {
      EXPECT_EQ(sha256_with(builds[b], message), reference)
          << builds[b].name << " length " << length;
    }
    EXPECT_EQ(Sha256::hash(message), reference) << "length " << length;
    Sha256 streaming;
    for (std::size_t off = 0; off < length;) {
      const std::size_t piece =
          std::min<std::size_t>(length - off, rng.uniform_int(130));
      streaming.update({message.data() + off, piece});
      off += piece;
    }
    EXPECT_EQ(streaming.finish(), reference) << "streamed, length " << length;
  }
}

TEST(HmacSha256, Rfc4231Case1) {
  const Bytes key(20, 0x0b);
  EXPECT_EQ(to_hex(hmac_sha256(key, from_string("Hi There"))),
            "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7");
}

TEST(HmacSha256, Rfc4231Case2) {
  EXPECT_EQ(to_hex(hmac_sha256(from_string("Jefe"),
                               from_string("what do ya want for nothing?"))),
            "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843");
}

TEST(HmacSha256, Rfc4231Case6LongKey) {
  const Bytes key(131, 0xaa);
  EXPECT_EQ(to_hex(hmac_sha256(
                key, from_string("Test Using Larger Than Block-Size Key - "
                                 "Hash Key First"))),
            "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54");
}

TEST(HkdfSha256, Rfc5869Case1) {
  const Bytes ikm(22, 0x0b);
  const Bytes salt{0x00, 0x01, 0x02, 0x03, 0x04, 0x05, 0x06,
                   0x07, 0x08, 0x09, 0x0a, 0x0b, 0x0c};
  const Bytes info{0xf0, 0xf1, 0xf2, 0xf3, 0xf4, 0xf5, 0xf6, 0xf7, 0xf8, 0xf9};
  const Bytes okm = hkdf_sha256(ikm, salt, info, 42);
  EXPECT_EQ(to_hex(okm),
            "3cb25f25faacd57a90434f64d0362f2a2d2d0a90cf1a5a4c5db02d56ecc4c5bf"
            "34007208d5b887185865");
}

TEST(HkdfSha256, DifferentInfoDifferentKeys) {
  const Bytes ikm(32, 0x42);
  const Bytes a = hkdf_sha256(ikm, {}, from_string("context-a"), 32);
  const Bytes b = hkdf_sha256(ikm, {}, from_string("context-b"), 32);
  EXPECT_NE(a, b);
}

TEST(HkdfSha256, RejectsOverlongOutput) {
  const Bytes ikm(32, 1);
  EXPECT_THROW(hkdf_sha256(ikm, {}, {}, 255 * 32 + 1), std::invalid_argument);
}

// --------------------------------------------------------------- ChaCha20 --

TEST(ChaCha20, Rfc8439Section231KeystreamBlock) {
  // RFC 8439 2.3.2 test vector: key 00..1f, nonce 000000090000004a00000000,
  // counter 1.
  Bytes key(32);
  for (int i = 0; i < 32; ++i) key[static_cast<std::size_t>(i)] = static_cast<std::uint8_t>(i);
  const Bytes nonce{0x00, 0x00, 0x00, 0x09, 0x00, 0x00,
                    0x00, 0x4a, 0x00, 0x00, 0x00, 0x00};
  ChaCha20 cipher(key, nonce, 1);
  const Bytes ks = cipher.keystream(64);
  EXPECT_EQ(to_hex(ks),
            "10f1e7e4d13b5915500fdd1fa32071c4c7d1f4c733c068030422aa9ac3d46c4e"
            "d2826446079faa0914c2d705d98b02a2b5129cd1de164eb9cbd083e8a2503c4e");
}

TEST(ChaCha20, Rfc8439Section24Encryption) {
  Bytes key(32);
  for (int i = 0; i < 32; ++i) key[static_cast<std::size_t>(i)] = static_cast<std::uint8_t>(i);
  const Bytes nonce{0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
                    0x00, 0x4a, 0x00, 0x00, 0x00, 0x00};
  const std::string plaintext =
      "Ladies and Gentlemen of the class of '99: If I could offer you only "
      "one tip for the future, sunscreen would be it.";
  Bytes data = from_string(plaintext);
  ChaCha20 cipher(key, nonce, 1);
  cipher.xor_stream(data);
  EXPECT_EQ(to_hex(Bytes(data.begin(), data.begin() + 16)),
            "6e2e359a2568f98041ba0728dd0d6981");
}

TEST(ChaCha20, EncryptDecryptRoundTrip) {
  const Bytes key(32, 0x11);
  const Bytes nonce(12, 0x22);
  Bytes data = from_string("asynchronous secure aggregation");
  const Bytes original = data;
  ChaCha20 enc(key, nonce);
  enc.xor_stream(data);
  EXPECT_NE(data, original);
  ChaCha20 dec(key, nonce);
  dec.xor_stream(data);
  EXPECT_EQ(data, original);
}

TEST(ChaCha20, RejectsBadKeyOrNonceSize) {
  const Bytes short_key(16, 0);
  const Bytes nonce(12, 0);
  EXPECT_THROW(ChaCha20(short_key, nonce), std::invalid_argument);
  const Bytes key(32, 0);
  const Bytes short_nonce(8, 0);
  EXPECT_THROW(ChaCha20(key, short_nonce), std::invalid_argument);
}

TEST(MaskPrng, DeterministicFromSeed) {
  const Bytes seed{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16};
  MaskPrng a(seed), b(seed);
  for (int i = 0; i < 1000; ++i) EXPECT_EQ(a.next_u32(), b.next_u32());
}

TEST(MaskPrng, DifferentSeedsDiverge) {
  const Bytes s1(16, 0x01), s2(16, 0x02);
  MaskPrng a(s1), b(s2);
  int same = 0;
  for (int i = 0; i < 1000; ++i) same += a.next_u32() == b.next_u32();
  EXPECT_LT(same, 5);
}

TEST(ChaCha20, KeystreamWordsMatchesNextU32) {
  // The whole-block word path must be bit-identical to the per-word path,
  // including lengths that are not block multiples and streams that start
  // with a partially consumed block.
  const Bytes key(ChaCha20::kKeySize, 0x3c);
  const Bytes nonce(ChaCha20::kNonceSize, 0x15);
  for (const std::size_t skip : {0UL, 1UL, 7UL, 16UL}) {
    for (const std::size_t n : {0UL, 1UL, 15UL, 16UL, 17UL, 100UL}) {
      ChaCha20 scalar(key, nonce), blocked(key, nonce);
      for (std::size_t i = 0; i < skip; ++i) {
        EXPECT_EQ(scalar.next_u32(), blocked.next_u32());
      }
      std::vector<std::uint32_t> expected(n), actual(n);
      for (auto& w : expected) w = scalar.next_u32();
      blocked.keystream_words(actual);
      EXPECT_EQ(actual, expected) << "skip " << skip << " n " << n;
    }
  }
}

TEST(ChaCha20, SingleStreamTilesMatchNextU32) {
  // keystream_words produces eight consecutive blocks per tile call, lane l
  // at counter c + l.  Against next_u32: lengths around the 128-word tile,
  // starting inside a block (after 1, 7 or 17 words) or on one, and counters
  // at and just below the 32-bit wrap, where a tile runs 0xfffffff8..0xffffffff
  // or straddles 0.
  const Bytes key(ChaCha20::kKeySize, 0x5a);
  const Bytes nonce(ChaCha20::kNonceSize, 0x27);
  for (const std::uint32_t counter : {0u, 0xfffffff8u, 0xfffffffbu}) {
    for (const std::size_t skip : {0UL, 1UL, 7UL, 16UL, 17UL}) {
      for (const std::size_t n : {127UL, 128UL, 129UL, 144UL, 389UL, 1000UL}) {
        ChaCha20 scalar(key, nonce, counter), tiled(key, nonce, counter);
        for (std::size_t i = 0; i < skip; ++i) {
          ASSERT_EQ(scalar.next_u32(), tiled.next_u32());
        }
        std::vector<std::uint32_t> expected(n), actual(n);
        for (auto& w : expected) w = scalar.next_u32();
        tiled.keystream_words(actual);
        EXPECT_EQ(actual, expected)
            << "counter " << counter << " skip " << skip << " n " << n;
        EXPECT_EQ(tiled.next_u32(), scalar.next_u32())
            << "counter " << counter << " skip " << skip << " n " << n;
      }
    }
  }
}

TEST(ChaCha20, BothTileBuildsMatchNextU32) {
  // Each build of the tile kernel, fed a stream's RFC 8439 state, must write
  // that stream's next eight blocks, for several keys and nonces and for
  // counters at, below and straddling the 32-bit wrap.
  using Tile = void (*)(const std::array<std::uint32_t, 16>&, std::uint32_t*);
  std::vector<std::pair<const char*, Tile>> builds = {
      {"portable", detail::expand_tile_portable}};
#if defined(__x86_64__)
  if (__builtin_cpu_supports("avx2")) {
    builds.emplace_back("avx2", detail::expand_tile_avx2);
  } else {
    std::printf("[ SKIPPED  ] the AVX2 tile build: this CPU has no AVX2\n");
  }
#endif
  const auto le32 = [](const Bytes& b, std::size_t at) {
    return static_cast<std::uint32_t>(b[at]) |
           (static_cast<std::uint32_t>(b[at + 1]) << 8) |
           (static_cast<std::uint32_t>(b[at + 2]) << 16) |
           (static_cast<std::uint32_t>(b[at + 3]) << 24);
  };
  for (const auto& [name, tile] : builds) {
    for (std::size_t k = 0; k < 3; ++k) {
      Bytes key(ChaCha20::kKeySize), nonce(ChaCha20::kNonceSize);
      for (std::size_t i = 0; i < key.size(); ++i) {
        key[i] = static_cast<std::uint8_t>(31 * k + 7 * i + 1);
      }
      for (std::size_t i = 0; i < nonce.size(); ++i) {
        nonce[i] = static_cast<std::uint8_t>(13 * k + 3 * i);
      }
      for (const std::uint32_t counter :
           {0u, 7u, 0xfffffff8u, 0xfffffffcu, 0xfffffffeu}) {
        std::array<std::uint32_t, 16> state = {0x61707865u, 0x3320646eu,
                                               0x79622d32u, 0x6b206574u};
        for (std::size_t w = 0; w < 8; ++w) state[4 + w] = le32(key, 4 * w);
        state[12] = counter;
        for (std::size_t w = 0; w < 3; ++w) state[13 + w] = le32(nonce, 4 * w);
        ChaCha20 scalar(key, nonce, counter);
        std::vector<std::uint32_t> expected(128), out(128);
        for (auto& w : expected) w = scalar.next_u32();
        tile(state, out.data());
        EXPECT_EQ(out, expected)
            << name << " key " << k << " counter " << counter;
      }
    }
  }
}

// ----------------------------------------------------------------- BigUInt --

TEST(BigUInt, HexRoundTrip) {
  const std::string hex = "deadbeef0123456789abcdef00000000ffffffff";
  EXPECT_EQ(BigUInt::from_hex(hex).to_hex(), hex);
}

TEST(BigUInt, BytesRoundTrip) {
  const Bytes b{0x01, 0x02, 0x03, 0x04, 0x05};
  EXPECT_EQ(BigUInt::from_bytes(b).to_bytes(), b);
}

TEST(BigUInt, ToBytesPadsToWidth) {
  const BigUInt v(0x1234);
  const Bytes b = v.to_bytes(4);
  EXPECT_EQ(to_hex(b), "00001234");
}

TEST(BigUInt, AdditionCarries) {
  const BigUInt a = BigUInt::from_hex("ffffffffffffffff");
  const BigUInt one(1);
  EXPECT_EQ((a + one).to_hex(), "10000000000000000");
}

TEST(BigUInt, SubtractionBorrows) {
  const BigUInt a = BigUInt::from_hex("10000000000000000");
  const BigUInt one(1);
  EXPECT_EQ((a - one).to_hex(), "ffffffffffffffff");
}

TEST(BigUInt, SubtractionUnderflowThrows) {
  EXPECT_THROW(BigUInt(1) - BigUInt(2), std::underflow_error);
}

TEST(BigUInt, MultiplicationKnownProduct) {
  const BigUInt a = BigUInt::from_hex("ffffffffffffffff");
  EXPECT_EQ((a * a).to_hex(), "fffffffffffffffe0000000000000001");
}

TEST(BigUInt, DivmodIdentityProperty) {
  // Property: for random a, b != 0: a == (a/b)*b + (a%b) and a%b < b.
  // Divisors span one limb (short division) up to six, dividends up to 12.
  util::Rng rng(99);
  for (int iter = 0; iter < 500; ++iter) {
    Bytes ab(1 + rng.uniform_int(96)), bb(1 + rng.uniform_int(48));
    for (auto& x : ab) x = static_cast<std::uint8_t>(rng.uniform_int(256));
    for (auto& x : bb) x = static_cast<std::uint8_t>(rng.uniform_int(256));
    const BigUInt a = BigUInt::from_bytes(ab);
    BigUInt b = BigUInt::from_bytes(bb);
    if (b.is_zero()) b = BigUInt(1);
    const auto [q, r] = a.divmod(b);
    EXPECT_EQ(q * b + r, a);
    EXPECT_LT(r, b);
  }
}

TEST(BigUInt, DivmodAddBackBranch) {
  // Algorithm D's quotient estimate from the top two limbs is one too large
  // here, so the multiply-subtract goes negative and v is added back.
  // Random inputs reach that branch with probability about 2^-63 per limb.
  const BigUInt a = BigUInt::from_hex(
      "7fffffffffffffff800000000000000000000000000000000000000000000000");
  const BigUInt b = BigUInt::from_hex(
      "800000000000000000000000000000000000000000000001");
  const auto [q, r] = a.divmod(b);
  EXPECT_EQ(q.to_hex(), "fffffffffffffffe");
  EXPECT_EQ(r.to_hex(), "7fffffffffffffffffffffffffffffff0000000000000002");
}

TEST(BigUInt, DivisionByZeroThrows) {
  EXPECT_THROW(BigUInt(5).divmod(BigUInt(0)), std::domain_error);
}

TEST(BigUInt, ShiftsRoundTrip) {
  const BigUInt a = BigUInt::from_hex("123456789abcdef0123456789");
  EXPECT_EQ(((a << 67) >> 67), a);
  EXPECT_EQ((a >> 1000).to_hex(), "0");
}

TEST(BigUInt, PowmodFermatLittleTheorem) {
  // a^(p-1) = 1 mod p for prime p and a not divisible by p.
  const BigUInt p(1000003);  // prime
  for (std::uint64_t a : {2ULL, 3ULL, 999999ULL}) {
    EXPECT_EQ(BigUInt(a).powmod(p - BigUInt(1), p), BigUInt(1));
  }
  // The primes the library reduces by: Shamir's 2^130 - 5, the default DH
  // group's 2^256 - 189, and the RFC 3526 1536-bit MODP prime.
  const BigUInt one(1);
  for (const BigUInt& q : {(one << 130) - BigUInt(5), DhParams::simulation256().p,
                           DhParams::rfc3526_1536().p}) {
    for (const BigUInt& a : {BigUInt(2), BigUInt(3), q - BigUInt(2)}) {
      EXPECT_EQ(a.powmod(q - one, q), one) << "p = " << q.to_hex();
    }
  }
}

TEST(BigUInt, PowmodMatchesSmallIntegers) {
  // Cross-check against native arithmetic for small values.
  util::Rng rng(100);
  for (int iter = 0; iter < 100; ++iter) {
    const std::uint64_t base = rng.uniform_int(1000);
    const std::uint64_t exp = rng.uniform_int(20);
    const std::uint64_t mod = 1 + rng.uniform_int(10000);
    std::uint64_t expected = 1 % mod;
    for (std::uint64_t i = 0; i < exp; ++i) expected = expected * base % mod;
    EXPECT_EQ(BigUInt(base).powmod(BigUInt(exp), BigUInt(mod)),
              BigUInt(expected));
  }
}

// The textbook square-and-multiply over mulmod: powmod's reference.
BigUInt square_and_multiply(const BigUInt& base, const BigUInt& exp,
                            const BigUInt& m) {
  BigUInt result = BigUInt(1) % m;
  const BigUInt b = base % m;
  for (std::size_t i = exp.bit_length(); i-- > 0;) {
    result = result.mulmod(result, m);
    if (exp.bit(i)) result = result.mulmod(b, m);
  }
  return result;
}

TEST(BigUInt, PowmodMatchesSquareAndMultiplyReference) {
  // Differential check against the textbook algorithm over mulmod, on odd
  // (Montgomery) and even moduli of 1-24 limbs, with bases up to twice the
  // modulus width so base >= m is common.
  const auto reference = square_and_multiply;
  util::Rng rng(101);
  const auto random_value = [&](std::size_t max_bytes) {
    Bytes bytes(1 + rng.uniform_int(max_bytes));
    for (auto& x : bytes) x = static_cast<std::uint8_t>(rng.uniform_int(256));
    return BigUInt::from_bytes(bytes);
  };
  for (int iter = 0; iter < 300; ++iter) {
    BigUInt m = random_value(8 * 24);
    if (m.is_zero()) m = BigUInt(1);
    // Force each parity half the time.
    if (iter % 2 == 0 && !m.bit(0)) m = m + BigUInt(1);
    if (iter % 2 == 1 && m.bit(0)) m = m + BigUInt(1);
    const BigUInt base = random_value(16 * 24);
    const BigUInt exp = random_value(40);
    EXPECT_EQ(base.powmod(exp, m), reference(base, exp, m))
        << "base=" << base.to_hex() << " exp=" << exp.to_hex()
        << " m=" << m.to_hex();
  }
  // Edge cases: m = 1, exp = 0, base = 0, base = m, base a multiple of m.
  const BigUInt p = DhParams::simulation256().p;
  const BigUInt even = p + BigUInt(1);
  for (const BigUInt& m : {BigUInt(1), BigUInt(2), BigUInt(3), p, even}) {
    for (const BigUInt& base :
         {BigUInt(0), BigUInt(1), BigUInt(7), m, m * BigUInt(5) + BigUInt(2)}) {
      for (const BigUInt& exp : {BigUInt(0), BigUInt(1), BigUInt(2), p}) {
        EXPECT_EQ(base.powmod(exp, m), reference(base, exp, m))
            << "base=" << base.to_hex() << " exp=" << exp.to_hex()
            << " m=" << m.to_hex();
      }
    }
  }
}

BigUInt random_below(util::Rng& rng, const BigUInt& bound) {
  Bytes bytes(32);
  for (auto& b : bytes) b = static_cast<std::uint8_t>(rng.uniform_int(256));
  return BigUInt::from_bytes(bytes) % bound;
}

std::array<std::uint64_t, 4> to_limbs(const BigUInt& v) {
  const Bytes bytes = v.to_bytes(32);
  std::array<std::uint64_t, 4> limbs{};
  for (std::size_t i = 0; i < 32; ++i) {
    limbs[(31 - i) / 8] |= static_cast<std::uint64_t>(bytes[i])
                           << (8 * ((31 - i) % 8));
  }
  return limbs;
}

BigUInt from_limbs(const std::array<std::uint64_t, 4>& limbs) {
  Bytes bytes(32);
  for (std::size_t i = 0; i < 32; ++i) {
    bytes[i] = static_cast<std::uint8_t>(limbs[(31 - i) / 8] >>
                                         (8 * ((31 - i) % 8)));
  }
  return BigUInt::from_bytes(bytes);
}

TEST(BigUInt, MontMulFourLimbMatchesGenericAndDefinition) {
  // Both instantiations against the definition of the CIOS product for
  // R = 2^256: T = (a*b + Q*m) / R with Q = -a*b*m^-1 mod R, then T - m if
  // T >= m (the final subtraction).  Moduli: the 256-bit group's p (where
  // the subtraction is common) and random odd 4-limb values whose top limb
  // runs from 1 bit to 64; operands random below m plus 0, 1 and m - 1.
  const BigUInt one(1);
  const BigUInt r = one << 256;
  util::Rng rng(4);
  std::vector<BigUInt> moduli = {DhParams::simulation256().p};
  for (int i = 0; i < 40; ++i) {
    BigUInt m = random_below(rng, r);
    m = (m >> (rng.uniform_int(63))) + (one << 192);  // top limb nonzero
    if (!m.bit(0)) m = m + one;
    moduli.push_back(m);
  }
  std::size_t subtractions = 0, products = 0;
  for (const BigUInt& m : moduli) {
    const auto m_limbs = to_limbs(m);
    // -m^-1 mod 2^64 and mod R by Newton iteration from m0 (its own
    // inverse mod 8).
    std::uint64_t inv64 = m_limbs[0];
    for (int i = 0; i < 5; ++i) inv64 *= 2 - m_limbs[0] * inv64;
    BigUInt inv(inv64);
    for (int i = 0; i < 2; ++i) {
      inv = (inv * ((r + BigUInt(2) - (m * inv) % r) % r)) % r;
    }
    ASSERT_EQ((m * inv) % r, one);
    const BigUInt neg_inv = r - inv;

    std::vector<std::pair<BigUInt, BigUInt>> operands = {
        {BigUInt(0), m - one}, {one, one}, {m - one, m - one}, {one, m - one}};
    for (int i = 0; i < 25; ++i) {
      operands.emplace_back(random_below(rng, m), random_below(rng, m));
    }
    for (const auto& [a, b] : operands) {
      const BigUInt ab = a * b;
      const BigUInt q = ((ab % r) * neg_inv) % r;
      const BigUInt t = (ab + q * m) >> 256;
      ASSERT_EQ((t << 256), ab + q * m);
      const bool subtract = t >= m;
      const BigUInt expected = subtract ? t - m : t;
      subtractions += subtract;
      ++products;

      const auto a_limbs = to_limbs(a), b_limbs = to_limbs(b);
      std::array<std::uint64_t, 4> fixed{}, generic{};
      std::uint64_t scratch[6];
      detail::mont_mul_4(a_limbs.data(), b_limbs.data(), m_limbs.data(),
                         0 - inv64, fixed.data());
      detail::mont_mul_generic(a_limbs.data(), b_limbs.data(), m_limbs.data(),
                               0 - inv64, 4, scratch, generic.data());
      EXPECT_EQ(from_limbs(fixed), expected)
          << "4-limb: a=" << a.to_hex() << " b=" << b.to_hex()
          << " m=" << m.to_hex();
      EXPECT_EQ(generic, fixed) << "generic: a=" << a.to_hex()
                                << " b=" << b.to_hex() << " m=" << m.to_hex();
      // Aliased output, as powmod squares in place.
      std::array<std::uint64_t, 4> in_place = a_limbs;
      detail::mont_mul_4(in_place.data(), b_limbs.data(), m_limbs.data(),
                         0 - inv64, in_place.data());
      EXPECT_EQ(in_place, fixed);
    }
  }
  // Both branches of the final subtraction ran.
  EXPECT_GT(subtractions, 0u);
  EXPECT_LT(subtractions, products);
}

TEST(BigUInt, GeneratorCombMatchesSquareAndMultiplyReference) {
  // powmod takes its comb of the 256-bit group's generator when called as
  // g.powmod(x, p) with x of at most 256 bits: exponents 0, 1, p - 2,
  // all-zero windows below one set window, every window 0xf, alternating
  // zero and 0xf windows, random full-width values and random short ones.
  // Exponents past 256 bits and a base congruent to g (reduced to g, so
  // the comb again) are checked too.
  const DhParams& group = DhParams::simulation256();
  const BigUInt& p = group.p;
  const BigUInt one(1);
  std::vector<BigUInt> exps = {
      BigUInt(0),      one,
      BigUInt(2),      BigUInt(15),
      BigUInt(16),     p - BigUInt(2),
      p - one,         p,
      one << 252,      (one << 255) + one,
      (one << 256) - one,
      BigUInt::from_hex(
          "f0f0f0f0f0f0f0f0f0f0f0f0f0f0f0f0f0f0f0f0f0f0f0f0f0f0f0f0f0f0f0f0"),
      BigUInt::from_hex("f00000000000000000000000000000000000000000000000000000"
                        "000000000f"),
      one << 256,      (one << 300) + BigUInt(5)};
  util::Rng rng(5);
  for (int i = 0; i < 40; ++i) {
    Bytes bytes(i < 30 ? 32 : 1 + rng.uniform_int(32));
    for (auto& b : bytes) b = static_cast<std::uint8_t>(rng.uniform_int(256));
    exps.push_back(BigUInt::from_bytes(bytes));
  }
  for (const BigUInt& x : exps) {
    const BigUInt expected = square_and_multiply(group.g, x, p);
    EXPECT_EQ(group.g.powmod(x, p), expected) << "x=" << x.to_hex();
    EXPECT_EQ((group.g + p).powmod(x, p), expected) << "g + p, x=" << x.to_hex();
  }
}

TEST(BigUInt, BitLength) {
  EXPECT_EQ(BigUInt(0).bit_length(), 0u);
  EXPECT_EQ(BigUInt(1).bit_length(), 1u);
  EXPECT_EQ(BigUInt(255).bit_length(), 8u);
  EXPECT_EQ(BigUInt::from_hex("10000000000000000").bit_length(), 65u);
}

// --------------------------------------------------------------------- DH --

TEST(Dh, SharedSecretAgreement) {
  const DhParams& params = DhParams::simulation256();
  const Bytes seed_a(32, 0xaa), seed_b(32, 0xbb);
  DhRandom ra(seed_a), rb(seed_b);
  const DhKeyPair alice = dh_generate(params, ra);
  const DhKeyPair bob = dh_generate(params, rb);
  const BigUInt s1 = dh_shared_element(params, alice.private_key, bob.public_key);
  const BigUInt s2 = dh_shared_element(params, bob.private_key, alice.public_key);
  EXPECT_EQ(s1, s2);
  EXPECT_FALSE(s1.is_zero());
}

TEST(Dh, DistinctPartiesDistinctSecrets) {
  const DhParams& params = DhParams::simulation256();
  const Bytes seed(32, 0x01);
  DhRandom random(seed);
  const DhKeyPair a = dh_generate(params, random);
  const DhKeyPair b = dh_generate(params, random);
  const DhKeyPair c = dh_generate(params, random);
  const BigUInt ab = dh_shared_element(params, a.private_key, b.public_key);
  const BigUInt ac = dh_shared_element(params, a.private_key, c.public_key);
  EXPECT_NE(ab, ac);
}

TEST(Dh, Rfc3526GroupAgreement) {
  const DhParams& params = DhParams::rfc3526_1536();
  const Bytes seed_a(32, 0x10), seed_b(32, 0x20);
  DhRandom ra(seed_a), rb(seed_b);
  const DhKeyPair alice = dh_generate(params, ra);
  const DhKeyPair bob = dh_generate(params, rb);
  EXPECT_EQ(dh_shared_element(params, alice.private_key, bob.public_key),
            dh_shared_element(params, bob.private_key, alice.public_key));
}

TEST(Dh, RejectsDegeneratePublicKeys) {
  const DhParams& params = DhParams::simulation256();
  const Bytes seed(32, 0x33);
  DhRandom random(seed);
  const DhKeyPair kp = dh_generate(params, random);
  EXPECT_THROW(dh_shared_element(params, kp.private_key, BigUInt(0)),
               std::invalid_argument);
  EXPECT_THROW(dh_shared_element(params, kp.private_key, BigUInt(1)),
               std::invalid_argument);
  EXPECT_THROW(dh_shared_element(params, kp.private_key, params.p),
               std::invalid_argument);
  // p - 1 has order 2: the shared element would be 1 or p - 1, a public
  // value, so the derived channel key would be guessable.
  EXPECT_THROW(
      dh_shared_element(params, kp.private_key, params.p - BigUInt(1)),
      std::invalid_argument);
}

TEST(Dh, DerivedKeysDependOnLabel) {
  const DhParams& params = DhParams::simulation256();
  const BigUInt shared(123456789);
  const Digest k1 = dh_derive_key(params, shared, "label-one");
  const Digest k2 = dh_derive_key(params, shared, "label-two");
  EXPECT_NE(to_hex(k1), to_hex(k2));
}

// ------------------------------------------------------------- SealedBox --

TEST(AuthEnc, SealOpenRoundTrip) {
  Digest key{};
  key.fill(0x5a);
  const Bytes plaintext = from_string("sixteen byte key");
  const SealedBox box = seal(key, 7, plaintext);
  const auto opened = open(key, 7, box);
  ASSERT_TRUE(opened.has_value());
  EXPECT_EQ(*opened, plaintext);
}

TEST(AuthEnc, WrongSequenceRejected) {
  Digest key{};
  key.fill(0x5a);
  const SealedBox box = seal(key, 7, from_string("seed"));
  EXPECT_FALSE(open(key, 8, box).has_value());
}

TEST(AuthEnc, WrongKeyRejected) {
  Digest key{}, other{};
  key.fill(0x01);
  other.fill(0x02);
  const SealedBox box = seal(key, 1, from_string("seed"));
  EXPECT_FALSE(open(other, 1, box).has_value());
}

TEST(AuthEnc, TamperedCiphertextRejected) {
  Digest key{};
  key.fill(0x5a);
  SealedBox box = seal(key, 1, from_string("some secret seed"));
  for (std::size_t i = 0; i < box.ciphertext.size(); i += 7) {
    SealedBox tampered = box;
    tampered.ciphertext[i] ^= 0x01;
    EXPECT_FALSE(open(key, 1, tampered).has_value()) << "byte " << i;
  }
}

TEST(AuthEnc, AssociatedDataIsAuthenticated) {
  Digest key{};
  key.fill(0x77);
  const Bytes ad = from_string("params-hash");
  const SealedBox box = seal(key, 1, from_string("seed"), ad);
  EXPECT_TRUE(open(key, 1, box, ad).has_value());
  EXPECT_FALSE(open(key, 1, box, from_string("other")).has_value());
}

TEST(AuthEnc, TruncatedCiphertextRejected) {
  Digest key{};
  key.fill(0x5a);
  SealedBox box = seal(key, 1, from_string("seed"));
  box.ciphertext.resize(10);
  EXPECT_FALSE(open(key, 1, box).has_value());
}

}  // namespace
}  // namespace papaya::crypto
