// Property-based test sweeps (TEST_P / INSTANTIATE_TEST_SUITE_P) over the
// protocol and numeric invariants the system depends on:
//   - BigUInt ring axioms under random inputs
//   - fixed-point homomorphism across scales and widths
//   - SecAgg end-to-end correctness across (vector length, K, threshold)
//   - OTP masking uniformity
//   - model-gradient checks across MLP shapes
//   - FedBuff weighting invariants
//   - serialization round-trips under random payloads
//   - chunked-upload reassembly under reordering, duplication, corruption
//     and cross-session interleaving (bit-identical or clean rejection)
//   - the update and chunk wire parsers under random, truncated, flipped
//     and miscounted bytes (return or throw std::out_of_range, and agree)

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <exception>
#include <stdexcept>
#include <tuple>

#include "crypto/bigint.hpp"
#include "fl/chunking.hpp"
#include "fl/model_update.hpp"
#include "fl/parallel_agg.hpp"
#include "ml/model.hpp"
#include "secagg/fixed_point.hpp"
#include "secagg/otp.hpp"
#include "secagg/secagg_batch.hpp"
#include "secagg/secagg_client.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"

namespace papaya {
namespace {

// ----------------------------------------------------- BigUInt ring axioms --

class BigUIntAxioms : public ::testing::TestWithParam<std::uint64_t> {};

crypto::BigUInt random_biguint(util::Rng& rng, std::size_t max_bytes) {
  util::Bytes bytes(1 + rng.uniform_int(max_bytes));
  for (auto& b : bytes) b = static_cast<std::uint8_t>(rng.uniform_int(256));
  return crypto::BigUInt::from_bytes(bytes);
}

TEST_P(BigUIntAxioms, AdditionCommutesAndAssociates) {
  util::Rng rng(GetParam());
  for (int i = 0; i < 50; ++i) {
    const auto a = random_biguint(rng, 20);
    const auto b = random_biguint(rng, 20);
    const auto c = random_biguint(rng, 20);
    EXPECT_EQ(a + b, b + a);
    EXPECT_EQ((a + b) + c, a + (b + c));
  }
}

TEST_P(BigUIntAxioms, MultiplicationDistributesOverAddition) {
  util::Rng rng(GetParam() ^ 1);
  for (int i = 0; i < 50; ++i) {
    const auto a = random_biguint(rng, 12);
    const auto b = random_biguint(rng, 12);
    const auto c = random_biguint(rng, 12);
    EXPECT_EQ(a * (b + c), a * b + a * c);
    EXPECT_EQ(a * b, b * a);
  }
}

TEST_P(BigUIntAxioms, SubtractionInvertsAddition) {
  util::Rng rng(GetParam() ^ 2);
  for (int i = 0; i < 50; ++i) {
    const auto a = random_biguint(rng, 16);
    const auto b = random_biguint(rng, 16);
    EXPECT_EQ((a + b) - b, a);
  }
}

TEST_P(BigUIntAxioms, PowmodMultiplicativeHomomorphism) {
  // (a*b)^e mod m == a^e * b^e mod m.
  util::Rng rng(GetParam() ^ 3);
  for (int i = 0; i < 10; ++i) {
    const auto a = random_biguint(rng, 8);
    const auto b = random_biguint(rng, 8);
    const auto e = crypto::BigUInt(1 + rng.uniform_int(50));
    auto m = random_biguint(rng, 8);
    if (m.is_zero()) m = crypto::BigUInt(97);
    EXPECT_EQ((a * b).powmod(e, m),
              a.powmod(e, m).mulmod(b.powmod(e, m), m));
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, BigUIntAxioms,
                         ::testing::Values(11, 22, 33, 44, 55));

// ----------------------------------------------- Fixed-point homomorphism --

class FixedPointSweep
    : public ::testing::TestWithParam<std::tuple<double, std::size_t>> {};

TEST_P(FixedPointSweep, SumOfEncodingsDecodesToSum) {
  const auto [magnitude, count] = GetParam();
  const secagg::FixedPointParams params =
      secagg::FixedPointParams::for_budget(magnitude, count);
  util::Rng rng(static_cast<std::uint64_t>(magnitude * 1000) + count);
  for (int trial = 0; trial < 20; ++trial) {
    std::uint32_t acc = 0;
    double expected = 0.0;
    for (std::size_t i = 0; i < count; ++i) {
      const double v = rng.uniform(-magnitude, magnitude);
      expected += v;
      acc += secagg::encode_value(v, params);
    }
    EXPECT_NEAR(secagg::decode_value(acc, params), expected,
                static_cast<double>(count) / params.scale + 1e-9)
        << "magnitude " << magnitude << " count " << count;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Budgets, FixedPointSweep,
    ::testing::Combine(::testing::Values(0.01, 1.0, 100.0),
                       ::testing::Values(2UL, 16UL, 256UL, 4096UL)));

// ------------------------------------------------------- OTP uniformity --

TEST(OtpProperty, MaskedValuesLookUniform) {
  // Chi-square-ish sanity: bytes of masked all-zero vectors across many
  // seeds should be roughly uniform.
  util::Rng rng(9);
  std::vector<std::uint64_t> bucket(16, 0);
  const std::size_t l = 64;
  for (int s = 0; s < 200; ++s) {
    secagg::Seed seed{};
    for (auto& b : seed) b = static_cast<std::uint8_t>(rng.uniform_int(256));
    const secagg::GroupVec masked = secagg::mask(secagg::GroupVec(l, 0), seed);
    for (const std::uint32_t w : masked) ++bucket[w & 0xf];
  }
  const double expected = 200.0 * l / 16.0;
  for (const std::uint64_t count : bucket) {
    EXPECT_NEAR(static_cast<double>(count), expected, expected * 0.15);
  }
}

// -------------------------------------------- SecAgg end-to-end sweep ----

struct SecAggCase {
  std::size_t length;
  std::size_t goal;
  std::size_t extra_messages;
};

class SecAggSweep : public ::testing::TestWithParam<SecAggCase> {};

TEST_P(SecAggSweep, SecureSumEqualsPlaintextSum) {
  const auto [length, goal, extra] = GetParam();
  const crypto::DhParams& dh = crypto::DhParams::simulation256();
  const secagg::SimulatedEnclavePlatform platform(5);
  const crypto::Digest binary = crypto::Sha256::hash(std::string("bin"));
  crypto::VerifiableLog log;
  log.append(binary);

  secagg::SecAggParams params{length, goal};
  const auto fp = secagg::FixedPointParams::for_budget(1.0, goal);
  secagg::TrustedSecureAggregator tsa(dh, params, goal + extra, platform,
                                      binary, 17);
  const secagg::QuoteExpectations expectations{params.hash(dh),
                                               log.snapshot()};
  secagg::BatchedSecureAggregationSession session(tsa, length, goal);

  util::Rng rng(31 + goal);
  std::vector<double> expected(length, 0.0);
  for (std::size_t c = 0; c < goal; ++c) {
    std::vector<float> update(length);
    for (std::size_t i = 0; i < length; ++i) {
      update[i] = static_cast<float>(rng.uniform(-1.0, 1.0));
      expected[i] += update[i];
    }
    secagg::SecAggClient client(dh, fp, c);
    const auto contribution = client.prepare_contribution(
        platform, expectations, tsa.initial_messages().at(c),
        log.prove_inclusion(0), update);
    ASSERT_TRUE(contribution.has_value());
    ASSERT_EQ(session.accept_batch({&*contribution, 1}).front(),
              secagg::TsaAccept::kAccepted);
  }
  const auto sum = session.finalize_decoded(fp);
  ASSERT_TRUE(sum.has_value());
  for (std::size_t i = 0; i < length; ++i) {
    EXPECT_NEAR((*sum)[i], expected[i],
                static_cast<double>(goal) / fp.scale + 1e-3);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, SecAggSweep,
    ::testing::Values(SecAggCase{1, 1, 0}, SecAggCase{3, 2, 1},
                      SecAggCase{17, 5, 3}, SecAggCase{64, 8, 0},
                      SecAggCase{256, 3, 2}, SecAggCase{33, 12, 4}));

// ------------------------------------------------ Model gradient sweep ----

struct ModelCase {
  std::size_t vocab;
  std::size_t embed;
  std::size_t hidden;
  std::size_t context;
};

class GradientSweep : public ::testing::TestWithParam<ModelCase> {};

TEST_P(GradientSweep, AnalyticGradientMatchesNumeric) {
  const ModelCase c = GetParam();
  ml::LmConfig cfg;
  cfg.vocab_size = c.vocab;
  cfg.embed_dim = c.embed;
  cfg.hidden_dim = c.hidden;
  cfg.context = c.context;
  util::Rng rng(c.vocab * 31 + c.hidden);
  auto model = ml::make_mlp_lm(cfg, rng);

  // Random batch within the vocabulary.
  std::vector<ml::Sequence> batch;
  for (int s = 0; s < 3; ++s) {
    ml::Sequence seq(4 + rng.uniform_int(5));
    for (auto& t : seq) t = static_cast<std::int32_t>(rng.uniform_int(c.vocab));
    batch.push_back(std::move(seq));
  }

  std::vector<float> grad(model->num_params());
  model->loss(batch, grad);
  const float eps = 1e-3f;
  for (int check = 0; check < 25; ++check) {
    const std::size_t i = rng.uniform_int(model->num_params());
    const float saved = model->params()[i];
    model->params()[i] = saved + eps;
    const double up = model->loss(batch, {});
    model->params()[i] = saved - eps;
    const double down = model->loss(batch, {});
    model->params()[i] = saved;
    const double numeric = (up - down) / (2.0 * eps);
    EXPECT_NEAR(grad[i], numeric, 2e-2 * std::max(1.0, std::fabs(numeric)));
  }
}

INSTANTIATE_TEST_SUITE_P(
    MlpShapes, GradientSweep,
    ::testing::Values(ModelCase{4, 2, 3, 1}, ModelCase{16, 8, 8, 3},
                      ModelCase{9, 3, 5, 4}));

// ------------------------------------------- FedBuff weighting invariants --

class StalenessSweep : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(StalenessSweep, WeightIsPositiveDecreasingAndNormalized) {
  const std::uint64_t s = GetParam();
  EXPECT_GT(fl::staleness_weight(s), 0.0);
  EXPECT_LE(fl::staleness_weight(s), 1.0);
  EXPECT_GE(fl::staleness_weight(s), fl::staleness_weight(s + 1));
  EXPECT_DOUBLE_EQ(fl::staleness_weight(s),
                   1.0 / std::sqrt(1.0 + static_cast<double>(s)));
}

INSTANTIATE_TEST_SUITE_P(Staleness, StalenessSweep,
                         ::testing::Values(0, 1, 2, 5, 10, 100, 10000));

// ------------------------------------------- Serialization round-trips ----

class SerializationSweep : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(SerializationSweep, ModelUpdateRoundTripsRandomPayloads) {
  util::Rng rng(GetParam());
  for (int i = 0; i < 20; ++i) {
    fl::ModelUpdate u;
    u.client_id = rng.next();
    u.initial_version = rng.next();
    u.num_examples = rng.uniform_int(1000);
    u.delta.resize(rng.uniform_int(200));
    for (auto& v : u.delta) v = static_cast<float>(rng.normal());
    const fl::ModelUpdate back = fl::ModelUpdate::deserialize(u.serialize());
    EXPECT_EQ(back.client_id, u.client_id);
    EXPECT_EQ(back.initial_version, u.initial_version);
    EXPECT_EQ(back.num_examples, u.num_examples);
    EXPECT_EQ(back.delta, u.delta);
  }
}

TEST_P(SerializationSweep, TruncatedUpdateThrowsInsteadOfCrashing) {
  util::Rng rng(GetParam() ^ 7);
  fl::ModelUpdate u;
  u.client_id = 1;
  u.delta.assign(64, 1.0f);
  const util::Bytes full = u.serialize();
  for (int i = 0; i < 20; ++i) {
    util::Bytes truncated(full.begin(),
                          full.begin() + static_cast<std::ptrdiff_t>(
                                             rng.uniform_int(full.size())));
    EXPECT_THROW(fl::ModelUpdate::deserialize(truncated), std::out_of_range);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SerializationSweep,
                         ::testing::Values(1, 2, 3));

// ------------------------------------------- Chunked-upload reassembly ----

class ChunkAssemblerFuzz : public ::testing::TestWithParam<std::uint64_t> {};

util::Bytes random_bytes(util::Rng& rng, std::size_t size) {
  util::Bytes bytes(size);
  for (auto& b : bytes) b = static_cast<std::uint8_t>(rng.uniform_int(256));
  return bytes;
}

/// Flip one random bit somewhere in a chunk's serialized form (framing or
/// payload) and deserialize it back — models line corruption anywhere in
/// the message, not just the payload.  A flip in the payload length prefix
/// can truncate the message, which deserialize() rejects by throwing; that
/// is already a clean rejection, so retry until the flip yields a chunk
/// that parses.
fl::UploadChunk corrupt_anywhere(const fl::UploadChunk& chunk,
                                 util::Rng& rng) {
  for (;;) {
    util::Bytes wire = chunk.serialize();
    const std::size_t byte = rng.uniform_int(wire.size());
    wire[byte] ^= static_cast<std::uint8_t>(1u << rng.uniform_int(8));
    try {
      return fl::UploadChunk::deserialize(wire);
    } catch (const std::out_of_range&) {
      // Truncating corruption: rejected at parse time; try another flip.
    }
  }
}

TEST_P(ChunkAssemblerFuzz, ReassemblesBitIdenticalOrRejectsCleanly) {
  util::Rng rng(GetParam());
  for (int trial = 0; trial < 40; ++trial) {
    const util::Bytes payload_a = random_bytes(rng, rng.uniform_int(3000));
    const util::Bytes payload_b = random_bytes(rng, 1 + rng.uniform_int(500));
    const std::size_t chunk_size = 1 + rng.uniform_int(256);
    auto chunks_a = fl::chunk_upload(100, payload_a, chunk_size);
    auto chunks_b = fl::chunk_upload(200, payload_b, chunk_size);

    // Build a hostile delivery schedule for session A: every chunk at
    // least once, plus duplicates, corrupted copies, and session-B chunks
    // interleaved throughout; then shuffle the lot.
    struct Delivery {
      fl::UploadChunk chunk;
      enum class Kind { kGood, kDuplicateOrGood, kCorrupt, kForeign } kind;
    };
    std::vector<Delivery> schedule;
    for (const auto& chunk : chunks_a) {
      schedule.push_back({chunk, Delivery::Kind::kGood});
      if (rng.bernoulli(0.4)) {
        schedule.push_back({chunk, Delivery::Kind::kDuplicateOrGood});
      }
      if (rng.bernoulli(0.5)) {
        const fl::UploadChunk bad = corrupt_anywhere(chunk, rng);
        // A bit-flip can toggle the session id to something foreign.
        schedule.push_back({bad, bad.session_id == 100
                                     ? Delivery::Kind::kCorrupt
                                     : Delivery::Kind::kForeign});
      }
    }
    for (const auto& chunk : chunks_b) {
      schedule.push_back({chunk, Delivery::Kind::kForeign});
    }
    for (std::size_t i = schedule.size(); i > 1; --i) {
      std::swap(schedule[i - 1], schedule[rng.uniform_int(i)]);
    }

    fl::ChunkAssembler assembler(100);
    fl::ChunkAssembler assembler_b(200);
    for (const auto& delivery : schedule) {
      const auto verdict = assembler.accept(delivery.chunk);
      switch (delivery.kind) {
        case Delivery::Kind::kGood:
        case Delivery::Kind::kDuplicateOrGood:
          // Good chunks are only ever accepted or flagged as duplicates —
          // never rejected.
          EXPECT_TRUE(verdict == fl::ChunkAssembler::Accept::kAccepted ||
                      verdict == fl::ChunkAssembler::Accept::kComplete ||
                      verdict == fl::ChunkAssembler::Accept::kDuplicate);
          break;
        case Delivery::Kind::kForeign:
          EXPECT_EQ(verdict, fl::ChunkAssembler::Accept::kInconsistent);
          break;
        case Delivery::Kind::kCorrupt:
          // Any single-bit flip that keeps the session id must be caught:
          // the framing-covering CRC leaves no silent slot for it.
          EXPECT_TRUE(verdict == fl::ChunkAssembler::Accept::kCorrupt ||
                      verdict == fl::ChunkAssembler::Accept::kInconsistent)
              << "corrupt chunk slipped through as " << static_cast<int>(verdict);
          break;
      }
      if (delivery.kind == Delivery::Kind::kForeign &&
          delivery.chunk.session_id == 200) {
        assembler_b.accept(delivery.chunk);
      }
    }

    // All good chunks were delivered: reassembly must be bit-identical.
    ASSERT_TRUE(assembler.complete());
    EXPECT_EQ(*assembler.assemble(), payload_a);
    ASSERT_TRUE(assembler_b.complete());
    EXPECT_EQ(*assembler_b.assemble(), payload_b);
  }
}

TEST_P(ChunkAssemblerFuzz, MissingChunksRejectCleanlyInsteadOfGuessing) {
  util::Rng rng(GetParam() ^ 0xc0ffee);
  for (int trial = 0; trial < 20; ++trial) {
    const util::Bytes payload = random_bytes(rng, 200 + rng.uniform_int(2000));
    auto chunks = fl::chunk_upload(5, payload, 64 + rng.uniform_int(128));
    if (chunks.size() < 2) continue;
    // Withhold one random chunk.
    const std::size_t withheld = rng.uniform_int(chunks.size());
    fl::ChunkAssembler assembler(5);
    for (std::size_t i = 0; i < chunks.size(); ++i) {
      if (i != withheld) assembler.accept(chunks[i]);
    }
    EXPECT_FALSE(assembler.complete());
    EXPECT_FALSE(assembler.assemble().has_value());
    // Late delivery completes it with the exact original bytes.
    EXPECT_EQ(assembler.accept(chunks[withheld]),
              fl::ChunkAssembler::Accept::kComplete);
    EXPECT_EQ(*assembler.assemble(), payload);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ChunkAssemblerFuzz,
                         ::testing::Values(101, 202, 303, 404, 505));

// ---------------------------------------------------- Wire parser fuzz ----
//
// Seeded hostile bytes at every parser an update or an upload frame meets on
// the server: UpdateHeader::read, ModelUpdate::deserialize, UpdateView::parse,
// UploadChunk::deserialize and ByteReader's length-prefixed reads.  Each call
// returns or throws std::out_of_range, and the update parsers agree on what
// they accept.  Runs in every sanitizer leg.

class WireParserFuzz : public ::testing::TestWithParam<std::uint64_t> {};

/// Runs `parse`, which must return or throw std::out_of_range; true if it
/// returned.  Any other exception fails the test: a std::length_error or
/// std::bad_alloc means a hostile length prefix reached an allocation.
template <class Parse>
bool parses(Parse&& parse) {
  try {
    parse();
    return true;
  } catch (const std::out_of_range&) {
    return false;
  } catch (const std::exception& e) {
    ADD_FAILURE() << "escaped the parser: " << e.what();
    return false;
  }
}

void put_u64(util::Bytes& bytes, std::size_t at, std::uint64_t v) {
  for (std::size_t i = 0; i < 8; ++i) {
    bytes[at + i] = static_cast<std::uint8_t>(v >> (8 * i));
  }
}

/// Every update parser on `bytes`.  ModelUpdate::deserialize succeeds exactly
/// when UpdateHeader::read does, with the same fields, and
/// UpdateView::parse(bytes, n) accepts exactly when the header reads with
/// delta_size == n, pointing at the same floats: Aggregator::client_report
/// admits an update by its header, and the fold drops what UpdateView
/// refuses, so the two must never disagree.
void check_update_parsers(const util::Bytes& bytes) {
  fl::UpdateHeader header;
  const bool read = parses([&] { header = fl::UpdateHeader::read(bytes); });
  fl::ModelUpdate update;
  const bool decoded =
      parses([&] { update = fl::ModelUpdate::deserialize(bytes); });
  EXPECT_EQ(decoded, read);
  if (read && decoded) {
    EXPECT_EQ(update.client_id, header.client_id);
    EXPECT_EQ(update.initial_version, header.initial_version);
    EXPECT_EQ(update.num_examples, header.num_examples);
    EXPECT_EQ(update.delta.size(), header.delta_size);
  }
  // The count the bytes declare, its neighbours, and two fixed sizes.
  std::uint64_t declared = 0;
  if (bytes.size() >= fl::UpdateHeader::kBytes) {
    for (std::size_t i = 0; i < 8; ++i) {
      declared |= static_cast<std::uint64_t>(bytes[24 + i]) << (8 * i);
    }
  }
  for (const std::uint64_t n : {declared, declared - 1, declared + 1,
                                std::uint64_t{0}, std::uint64_t{64}}) {
    const auto view = fl::UpdateView::parse(bytes, n);
    EXPECT_EQ(view.has_value(), read && header.delta_size == n)
        << "expect " << n << " of " << bytes.size() << " bytes";
    if (!view || !decoded || update.delta.size() != view->count) continue;
    for (std::size_t i = 0; i < view->count; ++i) {
      EXPECT_EQ(view->bits(i), std::bit_cast<std::uint32_t>(update.delta[i]));
    }
  }
}

/// Each length-prefixed ByteReader read on `bytes`, from a fresh reader.
void check_reader(const util::Bytes& bytes) {
  (void)parses([&] { (void)util::ByteReader(bytes).bytes(); });
  (void)parses([&] { (void)util::ByteReader(bytes).str(); });
  (void)parses([&] { (void)util::ByteReader(bytes).floats(); });
}

TEST_P(WireParserFuzz, RandomBytesReturnOrThrowOutOfRange) {
  util::Rng rng(GetParam());
  for (int trial = 0; trial < 400; ++trial) {
    util::Bytes bytes = random_bytes(rng, rng.uniform_int(257));
    // Half the time declare a count near what the bytes hold, so the
    // parsers accept some buffers as well as refuse them.
    if (bytes.size() >= fl::UpdateHeader::kBytes && rng.bernoulli(0.5)) {
      const std::size_t room = (bytes.size() - fl::UpdateHeader::kBytes) / 4;
      put_u64(bytes, 24, rng.uniform_int(room + 2));
    }
    check_update_parsers(bytes);
    (void)parses([&] { (void)fl::UploadChunk::deserialize(bytes); });
    check_reader(bytes);
  }
}

TEST_P(WireParserFuzz, TruncatedFlippedAndMiscountedUpdatesParseConsistently) {
  util::Rng rng(GetParam() ^ 0x5eed);
  std::vector<std::size_t> sizes{0, 1, 64};
  for (int i = 0; i < 5; ++i) sizes.push_back(rng.uniform_int(65));
  for (const std::size_t n : sizes) {
    fl::ModelUpdate u;
    u.client_id = rng.next();
    u.initial_version = rng.next();
    u.num_examples = rng.uniform_int(1000);
    u.delta.resize(n);
    for (auto& v : u.delta) {
      v = std::bit_cast<float>(static_cast<std::uint32_t>(rng.next()));
    }
    const util::Bytes wire = u.serialize();
    check_update_parsers(wire);
    const fl::ModelUpdate back = fl::ModelUpdate::deserialize(wire);
    ASSERT_EQ(back.delta.size(), n);
    for (std::size_t i = 0; i < n; ++i) {
      EXPECT_EQ(std::bit_cast<std::uint32_t>(back.delta[i]),
                std::bit_cast<std::uint32_t>(u.delta[i]));
    }

    for (std::size_t len = 0; len < wire.size(); ++len) {
      const util::Bytes cut(wire.begin(),
                            wire.begin() + static_cast<std::ptrdiff_t>(len));
      EXPECT_FALSE(parses([&] { (void)fl::UpdateHeader::read(cut); }))
          << "truncated to " << len;
      check_update_parsers(cut);
    }
    for (std::size_t bit = 0; bit < wire.size() * 8; ++bit) {
      util::Bytes flipped = wire;
      flipped[bit / 8] ^= static_cast<std::uint8_t>(1u << (bit % 8));
      check_update_parsers(flipped);
    }
    // A count the payload cannot hold, up to ones no allocation could.
    for (const std::uint64_t count :
         {std::uint64_t{0}, std::uint64_t{n} - 1, std::uint64_t{n} + 1,
          std::uint64_t{1} << 62, ~std::uint64_t{0}}) {
      util::Bytes miscounted = wire;
      put_u64(miscounted, 24, count);
      check_update_parsers(miscounted);
      // Too many floats for the bytes, or bytes left over after them.
      if (count != n) {
        EXPECT_FALSE(parses(
            [&] { (void)fl::ModelUpdate::deserialize(miscounted); }))
            << "count " << count << " over " << n << " floats";
      }
    }
  }
}

TEST_P(WireParserFuzz, TruncatedOrInflatedChunkFramesThrowOutOfRange) {
  util::Rng rng(GetParam() ^ 0xc4a2c);
  for (int trial = 0; trial < 20; ++trial) {
    const util::Bytes payload = random_bytes(rng, rng.uniform_int(300));
    const auto chunks =
        fl::chunk_upload(rng.next(), payload, 1 + rng.uniform_int(128));
    const fl::UploadChunk& chunk = chunks[rng.uniform_int(chunks.size())];
    const util::Bytes wire = chunk.serialize();
    const fl::UploadChunk back = fl::UploadChunk::deserialize(wire);
    EXPECT_EQ(back.session_id, chunk.session_id);
    EXPECT_EQ(back.index, chunk.index);
    EXPECT_EQ(back.total, chunk.total);
    EXPECT_EQ(back.payload, chunk.payload);
    EXPECT_EQ(back.crc, chunk.crc);
    // The frame ends with its CRC, so every proper prefix is short.
    for (std::size_t len = 0; len < wire.size(); ++len) {
      const util::Bytes cut(wire.begin(),
                            wire.begin() + static_cast<std::ptrdiff_t>(len));
      EXPECT_FALSE(parses([&] { (void)fl::UploadChunk::deserialize(cut); }))
          << "truncated to " << len;
    }
    // Nor may anything follow the CRC.
    for (std::size_t extra = 1; extra <= 7; ++extra) {
      util::Bytes padded = wire;
      padded.resize(wire.size() + extra, 0);
      EXPECT_FALSE(parses([&] { (void)fl::UploadChunk::deserialize(padded); }))
          << "padded by " << extra;
    }
    // The payload's length prefix, at byte 16, claiming more than follows.
    for (const std::uint64_t claim :
         {std::uint64_t{chunk.payload.size()} + 5, std::uint64_t{1} << 62,
          ~std::uint64_t{0}}) {
      util::Bytes inflated = wire;
      put_u64(inflated, 16, claim);
      EXPECT_FALSE(
          parses([&] { (void)fl::UploadChunk::deserialize(inflated); }))
          << "claims " << claim;
    }
  }
}

TEST_P(WireParserFuzz, ByteReaderLengthPrefixesAreBoundsChecked) {
  util::Rng rng(GetParam() ^ 0xb17e5);
  for (int trial = 0; trial < 40; ++trial) {
    const std::size_t len = rng.uniform_int(65);
    // A byte string and a float vector of `len` elements each.
    util::ByteWriter w;
    w.bytes(random_bytes(rng, len));
    util::Bytes strings = std::move(w).take();
    util::ByteWriter fw;
    fw.floats(std::vector<float>(len, 0.5f));
    util::Bytes floats = std::move(fw).take();
    util::ByteReader r(strings);
    EXPECT_EQ(r.bytes().size(), len);
    EXPECT_TRUE(r.done());
    EXPECT_EQ(util::ByteReader(strings).str().size(), len);
    EXPECT_EQ(util::ByteReader(floats).floats().size(), len);
    check_reader(strings);
    check_reader(floats);
    for (const std::uint64_t claim : {std::uint64_t{len} + 1,
                                      std::uint64_t{1} << 62,
                                      ~std::uint64_t{0}}) {
      put_u64(strings, 0, claim);
      put_u64(floats, 0, claim);
      EXPECT_FALSE(parses([&] { (void)util::ByteReader(strings).bytes(); }));
      EXPECT_FALSE(parses([&] { (void)util::ByteReader(strings).str(); }));
      EXPECT_FALSE(parses([&] { (void)util::ByteReader(floats).floats(); }));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, WireParserFuzz,
                         ::testing::Values(101, 202, 303));

}  // namespace
}  // namespace papaya
