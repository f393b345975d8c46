// Unit tests for the crypto substrate: SHA-256 / HMAC / HKDF known-answer
// tests, ChaCha20 RFC 8439 vectors, big-integer arithmetic properties,
// Diffie-Hellman agreement, and authenticated-encryption tamper detection.

#include <gtest/gtest.h>

#include <cstdio>
#include <cstring>
#include <utility>

#include "crypto/auth_enc.hpp"
#include "crypto/bigint.hpp"
#include "crypto/chacha20.hpp"
#include "crypto/dh.hpp"
#include "crypto/sha256.hpp"
#include "util/rng.hpp"

namespace papaya::crypto {
namespace detail {
// ChaCha20's multi-stream tile kernel, portable and AVX2 builds
// (src/crypto/chacha20.cpp); keystream_words_multi takes the AVX2 one on a
// CPU that has it.
void expand_tile_portable(
    std::uint32_t (&state)[16][ChaCha20::kMultiStreamLanes],
    std::uint32_t* const* outs, std::size_t blocks);
#if defined(__x86_64__)
void expand_tile_avx2(std::uint32_t (&state)[16][ChaCha20::kMultiStreamLanes],
                      std::uint32_t* const* outs, std::size_t blocks);
#endif
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

TEST(ChaCha20, MultiStreamMatchesScalarStreams) {
  // The lockstep tile path (8 lanes + scalar remainder) must reproduce each
  // stream's scalar keystream exactly, for stream counts straddling the tile
  // width and lengths straddling block boundaries.
  const Bytes nonce(ChaCha20::kNonceSize, 0x00);
  for (const std::size_t streams : {1UL, 7UL, 8UL, 9UL, 17UL}) {
    for (const std::size_t n : {0UL, 1UL, 15UL, 16UL, 17UL, 100UL}) {
      std::vector<ChaCha20> multi, scalar;
      for (std::size_t s = 0; s < streams; ++s) {
        Bytes key(ChaCha20::kKeySize, static_cast<std::uint8_t>(s + 1));
        multi.emplace_back(key, nonce);
        scalar.emplace_back(key, nonce);
      }
      std::vector<std::vector<std::uint32_t>> out(streams,
                                                  std::vector<std::uint32_t>(n));
      std::vector<ChaCha20*> stream_ptrs(streams);
      std::vector<std::uint32_t*> out_ptrs(streams);
      for (std::size_t s = 0; s < streams; ++s) {
        stream_ptrs[s] = &multi[s];
        out_ptrs[s] = out[s].data();
      }
      ChaCha20::keystream_words_multi(stream_ptrs, out_ptrs, n);
      for (std::size_t s = 0; s < streams; ++s) {
        std::vector<std::uint32_t> expected(n);
        scalar[s].keystream_words(expected);
        EXPECT_EQ(out[s], expected) << "streams " << streams << " n " << n
                                    << " stream " << s;
      }
      // The multi path leaves every stream positioned for more keystream.
      for (std::size_t s = 0; s < streams; ++s) {
        EXPECT_EQ(multi[s].next_u32(), scalar[s].next_u32()) << "stream " << s;
      }
    }
  }
}

TEST(ChaCha20, BothTileBuildsMatchPerStreamKeystream) {
  // Each build of the tile kernel, fed the RFC 8439 state of 8 streams
  // (one per lane), must reproduce every stream's keystream_words and leave
  // each lane's block counter advanced by `blocks`, wrapping at 2^32.
  constexpr std::size_t kLanes = ChaCha20::kMultiStreamLanes;
  using Tile = void (*)(std::uint32_t(&)[16][kLanes], std::uint32_t* const*,
                        std::size_t);
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
    for (const std::size_t blocks : {0UL, 1UL, 3UL, 17UL}) {
      std::uint32_t state[16][kLanes];
      std::vector<Bytes> keys, nonces;
      std::vector<std::uint32_t> counters;
      std::vector<std::vector<std::uint32_t>> out(
          kLanes, std::vector<std::uint32_t>(16 * blocks));
      std::vector<std::uint32_t*> outs(kLanes);
      for (std::size_t l = 0; l < kLanes; ++l) {
        Bytes key(ChaCha20::kKeySize), nonce(ChaCha20::kNonceSize);
        for (std::size_t i = 0; i < key.size(); ++i) {
          key[i] = static_cast<std::uint8_t>(31 * l + 7 * i + 1);
        }
        for (std::size_t i = 0; i < nonce.size(); ++i) {
          nonce[i] = static_cast<std::uint8_t>(13 * l + 3 * i);
        }
        // Lane 5 starts two blocks below the counter's wrap.
        const std::uint32_t counter =
            l == 5 ? 0xfffffffeu : static_cast<std::uint32_t>(7 * l);
        const std::uint32_t constants[4] = {0x61707865u, 0x3320646eu,
                                            0x79622d32u, 0x6b206574u};
        for (std::size_t w = 0; w < 4; ++w) state[w][l] = constants[w];
        for (std::size_t w = 0; w < 8; ++w) state[4 + w][l] = le32(key, 4 * w);
        state[12][l] = counter;
        for (std::size_t w = 0; w < 3; ++w) {
          state[13 + w][l] = le32(nonce, 4 * w);
        }
        keys.push_back(key);
        nonces.push_back(nonce);
        counters.push_back(counter);
        outs[l] = out[l].data();
      }
      std::uint32_t before[16][kLanes];
      std::memcpy(before, state, sizeof(state));
      tile(state, outs.data(), blocks);
      for (std::size_t l = 0; l < kLanes; ++l) {
        ChaCha20 scalar(keys[l], nonces[l], counters[l]);
        std::vector<std::uint32_t> expected(16 * blocks);
        scalar.keystream_words(expected);
        EXPECT_EQ(out[l], expected)
            << name << " blocks " << blocks << " lane " << l;
        EXPECT_EQ(state[12][l],
                  static_cast<std::uint32_t>(counters[l] + blocks))
            << name << " lane " << l;
        for (std::size_t w = 0; w < 16; ++w) {
          if (w != 12) {
            EXPECT_EQ(state[w][l], before[w][l]) << name << " word " << w;
          }
        }
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

TEST(BigUInt, PowmodMatchesSquareAndMultiplyReference) {
  // Differential check against the textbook algorithm over mulmod, on odd
  // (Montgomery) and even moduli of 1-24 limbs, with bases up to twice the
  // modulus width so base >= m is common.
  const auto reference = [](const BigUInt& base, const BigUInt& exp,
                            const BigUInt& m) {
    BigUInt result = BigUInt(1) % m;
    const BigUInt b = base % m;
    for (std::size_t i = exp.bit_length(); i-- > 0;) {
      result = result.mulmod(result, m);
      if (exp.bit(i)) result = result.mulmod(b, m);
    }
    return result;
  };
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
