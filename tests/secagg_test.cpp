// Tests for Asynchronous SecAgg (Sec. 5, App. B-D): group arithmetic,
// fixed-point conversion, one-time pads, the full client/TSA/server protocol
// including abort conditions, threshold enforcement, one-shot release, and
// the boundary-traffic asymptotics of Fig. 6.

#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <span>

#include "secagg/attestation.hpp"
#include "secagg/fixed_point.hpp"
#include "secagg/group.hpp"
#include "secagg/otp.hpp"
#include "secagg/secagg_batch.hpp"
#include "secagg/secagg_client.hpp"
#include "secagg/secagg_server.hpp"
#include "secagg/tsa.hpp"
#include "util/rng.hpp"

namespace papaya::secagg {
namespace {

using crypto::DhParams;
using crypto::VerifiableLog;

// ------------------------------------------------------------------ Group --

TEST(Group, AddWrapsAround) {
  const GroupVec a{0xffffffffu, 1u};
  const GroupVec b{1u, 2u};
  const GroupVec sum = add(a, b);
  EXPECT_EQ(sum[0], 0u);
  EXPECT_EQ(sum[1], 3u);
}

TEST(Group, SubIsInverseOfAdd) {
  util::Rng rng(1);
  GroupVec a(100), b(100);
  for (auto& x : a) x = static_cast<std::uint32_t>(rng.next());
  for (auto& x : b) x = static_cast<std::uint32_t>(rng.next());
  EXPECT_EQ(sub(add(a, b), b), a);
}

TEST(Group, SizeMismatchThrows) {
  GroupVec a{1, 2}, b{1};
  EXPECT_THROW(add(a, b), std::invalid_argument);
  EXPECT_THROW(add_in_place(a, b), std::invalid_argument);
}

// ------------------------------------------------------------ Fixed point --

TEST(FixedPoint, EncodeDecodeRoundTripWithinResolution) {
  FixedPointParams params;  // scale 2^16
  for (double v : {0.0, 1.0, -1.0, 0.5, -0.5, 1234.5678, -999.25}) {
    const double decoded = decode_value(encode_value(v, params), params);
    EXPECT_NEAR(decoded, v, 1.0 / params.scale);
  }
}

TEST(FixedPoint, NegativeValuesUseTwosComplement) {
  FixedPointParams params;
  params.scale = 1.0;
  EXPECT_EQ(encode_value(-1.0, params), 0xffffffffu);
  EXPECT_DOUBLE_EQ(decode_value(0xffffffffu, params), -1.0);
}

TEST(FixedPoint, AdditionHomomorphismProperty) {
  // sum of encodings decodes to sum of values (the property the whole
  // protocol rests on), for random bounded values.
  util::Rng rng(2);
  const FixedPointParams params = FixedPointParams::for_budget(1.0, 64);
  for (int iter = 0; iter < 50; ++iter) {
    GroupVec acc(1, 0);
    double expected = 0.0;
    for (int i = 0; i < 64; ++i) {
      const double v = rng.uniform(-1.0, 1.0);
      expected += v;
      acc[0] += encode_value(v, params);
    }
    EXPECT_NEAR(decode_value(acc[0], params), expected,
                64.0 / params.scale + 1e-9);
  }
}

TEST(FixedPoint, OutOfRangeEncodeThrows) {
  FixedPointParams params;  // scale 2^16: max ~ 32767
  EXPECT_THROW(encode_value(1e6, params), std::range_error);
  EXPECT_THROW(encode_value(-1e6, params), std::range_error);
}

TEST(FixedPoint, BudgetLeavesHeadroom) {
  const FixedPointParams p = FixedPointParams::for_budget(2.0, 1000);
  EXPECT_GE(p.max_aggregatable_magnitude(), 2.0 * 1000);
}

TEST(FixedPoint, VectorEncodeDecode) {
  FixedPointParams params;
  const std::vector<float> values{0.25f, -0.75f, 3.5f};
  const auto decoded = decode(encode(values, params), params);
  ASSERT_EQ(decoded.size(), values.size());
  for (std::size_t i = 0; i < values.size(); ++i) {
    EXPECT_NEAR(decoded[i], values[i], 1.0 / params.scale);
  }
}

// -------------------------------------------------------------------- OTP --

TEST(Otp, MaskUnmaskIdentity) {
  Seed seed{};
  seed.fill(0x42);
  util::Rng rng(3);
  GroupVec plaintext(257);
  for (auto& x : plaintext) x = static_cast<std::uint32_t>(rng.next());
  const GroupVec masked = mask(plaintext, seed);
  EXPECT_NE(masked, plaintext);
  const GroupVec m = expand_mask(seed, plaintext.size());
  EXPECT_EQ(unmask(masked, m), plaintext);
}

TEST(Otp, HomomorphicAggregation) {
  // Fig. 14: sum of ciphertexts minus sum of masks == sum of plaintexts.
  util::Rng rng(4);
  const std::size_t l = 64, n = 10;
  GroupVec ciphertext_sum(l, 0), mask_sum(l, 0), expected(l, 0);
  for (std::size_t i = 0; i < n; ++i) {
    Seed seed{};
    for (auto& b : seed) b = static_cast<std::uint8_t>(rng.next());
    GroupVec v(l);
    for (auto& x : v) x = static_cast<std::uint32_t>(rng.next());
    add_in_place(expected, v);
    add_in_place(ciphertext_sum, mask(v, seed));
    add_in_place(mask_sum, expand_mask(seed, l));
  }
  EXPECT_EQ(unmask(ciphertext_sum, mask_sum), expected);
}

TEST(Otp, MaskExpansionDeterministic) {
  Seed seed{};
  seed.fill(0x11);
  EXPECT_EQ(expand_mask(seed, 100), expand_mask(seed, 100));
}

TEST(Otp, ExpandMasksMatchesPerSeedExpansion) {
  // Property: the multi-stream batch path is bit-identical to per-seed
  // expansion, across seed counts straddling the 8-lane tile and lengths
  // straddling ChaCha20 block boundaries.
  util::Rng rng(6);
  for (const std::size_t count : {0UL, 1UL, 5UL, 8UL, 9UL, 17UL}) {
    for (const std::size_t length : {0UL, 1UL, 15UL, 16UL, 100UL, 1000UL}) {
      std::vector<Seed> seeds(count);
      for (auto& seed : seeds) {
        for (auto& b : seed) b = static_cast<std::uint8_t>(rng.next());
      }
      const auto batched = expand_masks(seeds, length);
      ASSERT_EQ(batched.size(), count);
      for (std::size_t s = 0; s < count; ++s) {
        EXPECT_EQ(batched[s], expand_mask(seeds[s], length))
            << "count " << count << " length " << length << " seed " << s;
      }
    }
  }
}

TEST(Otp, AccumulateMasksMatchesSequentialFold) {
  util::Rng rng(7);
  for (const std::size_t count : {1UL, 3UL, 8UL, 12UL}) {
    // 5000 words spans multiple accumulation chunks (2048-word scratch).
    const std::size_t length = 5000;
    std::vector<Seed> seeds(count);
    for (auto& seed : seeds) {
      for (auto& b : seed) b = static_cast<std::uint8_t>(rng.next());
    }
    GroupVec expected(length, 123u), actual(length, 123u);
    for (const Seed& seed : seeds) {
      add_in_place(expected, expand_mask(seed, length));
    }
    accumulate_masks(seeds, actual);
    EXPECT_EQ(actual, expected) << "count " << count;
  }
}

TEST(Group, AddRowsMatchesSequentialAdds) {
  util::Rng rng(8);
  const std::size_t length = 9000;  // spans multiple 4096-word fold blocks
  std::vector<GroupVec> rows(5, GroupVec(length));
  for (auto& row : rows) {
    for (auto& x : row) x = static_cast<std::uint32_t>(rng.next());
  }
  GroupVec expected(length, 7u), actual(length, 7u);
  std::vector<const std::uint32_t*> row_ptrs;
  for (const auto& row : rows) {
    add_in_place(expected, row);
    row_ptrs.push_back(row.data());
  }
  add_rows_in_place(actual, row_ptrs);
  EXPECT_EQ(actual, expected);
}

// ------------------------------------------------------------ Attestation --

TEST(Attestation, QuoteVerifies) {
  const SimulatedEnclavePlatform platform(7);
  const auto quote = platform.sign_quote(crypto::Sha256::hash(std::string("bin")),
                                         crypto::Sha256::hash(std::string("params")),
                                         crypto::Sha256::hash(std::string("dh")));
  EXPECT_TRUE(platform.verify_quote(quote));
}

TEST(Attestation, ForgedQuoteRejected) {
  const SimulatedEnclavePlatform platform(7);
  auto quote = platform.sign_quote(crypto::Sha256::hash(std::string("bin")),
                                   crypto::Sha256::hash(std::string("params")),
                                   crypto::Sha256::hash(std::string("dh")));
  quote.binary_measurement[0] ^= 1;
  EXPECT_FALSE(platform.verify_quote(quote));
}

TEST(Attestation, QuoteFromDifferentPlatformRejected) {
  const SimulatedEnclavePlatform real(7), fake(8);
  const auto quote = fake.sign_quote(crypto::Sha256::hash(std::string("bin")),
                                     crypto::Sha256::hash(std::string("params")),
                                     crypto::Sha256::hash(std::string("dh")));
  EXPECT_FALSE(real.verify_quote(quote));
}

// ------------------------------------------------- Full protocol fixture --

struct ProtocolWorld {
  const DhParams& dh = DhParams::simulation256();
  SimulatedEnclavePlatform platform{101};
  crypto::Digest binary = crypto::Sha256::hash(std::string("papaya-tsa-binary-v1"));
  VerifiableLog log;
  crypto::InclusionProof binary_proof;
  SecAggParams params;
  FixedPointParams fp;
  std::unique_ptr<TrustedSecureAggregator> tsa;
  QuoteExpectations expectations;

  ProtocolWorld(std::size_t length, std::size_t threshold, std::size_t n_msgs) {
    params.vector_length = length;
    params.threshold = threshold;
    fp = FixedPointParams::for_budget(1.0, 4096);
    log.append(binary);
    binary_proof = log.prove_inclusion(0);
    tsa = std::make_unique<TrustedSecureAggregator>(dh, params, n_msgs,
                                                    platform, binary, 2024);
    expectations.expected_params_hash = params.hash(dh);
    expectations.log_snapshot = log.snapshot();
  }

  std::optional<ClientContribution> client_contribution(
      std::uint64_t client_id, std::span<const float> update) {
    SecAggClient client(dh, fp, client_id);
    return client.prepare_contribution(
        platform, expectations, tsa->initial_messages().at(client_id),
        binary_proof, update);
  }
};

TEST(Protocol, EndToEndSumMatchesPlaintextSum) {
  const std::size_t length = 32, n = 5;
  ProtocolWorld world(length, n, 16);
  SecureAggregationSession session(*world.tsa, length, n);

  util::Rng rng(5);
  std::vector<float> expected(length, 0.0f);
  for (std::uint64_t c = 0; c < n; ++c) {
    std::vector<float> update(length);
    for (std::size_t i = 0; i < length; ++i) {
      update[i] = static_cast<float>(rng.uniform(-1.0, 1.0));
      expected[i] += update[i];
    }
    const auto contribution = world.client_contribution(c, update);
    ASSERT_TRUE(contribution.has_value());
    EXPECT_EQ(session.accept(*contribution), TsaAccept::kAccepted);
  }
  EXPECT_TRUE(session.goal_reached());
  const auto sum = session.finalize_decoded(world.fp);
  ASSERT_TRUE(sum.has_value());
  for (std::size_t i = 0; i < length; ++i) {
    EXPECT_NEAR((*sum)[i], expected[i], n / world.fp.scale + 1e-4);
  }
}

TEST(Protocol, MaskedUpdateDoesNotRevealPlaintext) {
  // Sanity privacy check: a masked update of all-zeros must look nothing
  // like the encoding of all-zeros.
  const std::size_t length = 128;
  ProtocolWorld world(length, 1, 4);
  const std::vector<float> zeros(length, 0.0f);
  const auto contribution = world.client_contribution(0, zeros);
  ASSERT_TRUE(contribution.has_value());
  const GroupVec plain_encoding = encode(zeros, world.fp);
  std::size_t equal = 0;
  for (std::size_t i = 0; i < length; ++i) {
    equal += contribution->masked_update[i] == plain_encoding[i];
  }
  EXPECT_LT(equal, 3u);
}

TEST(Protocol, ThresholdEnforcedBeforeRelease) {
  const std::size_t length = 8;
  ProtocolWorld world(length, 3, 8);
  SecureAggregationSession session(*world.tsa, length, 3);

  const std::vector<float> update(length, 0.1f);
  for (std::uint64_t c = 0; c < 2; ++c) {
    const auto contribution = world.client_contribution(c, update);
    ASSERT_TRUE(contribution.has_value());
    session.accept(*contribution);
  }
  // Below threshold: the TSA must refuse and stay live.
  EXPECT_FALSE(session.finalize().has_value());
  EXPECT_FALSE(world.tsa->released());

  const auto third = world.client_contribution(2, update);
  ASSERT_TRUE(third.has_value());
  session.accept(*third);
  EXPECT_TRUE(session.finalize().has_value());
}

TEST(Protocol, OneShotRelease) {
  const std::size_t length = 8;
  ProtocolWorld world(length, 1, 4);
  SecureAggregationSession session(*world.tsa, length, 1);
  const auto c = world.client_contribution(0, std::vector<float>(length, 0.5f));
  ASSERT_TRUE(c.has_value());
  session.accept(*c);
  EXPECT_TRUE(session.finalize().has_value());
  // Second unmask request must be ignored (Fig. 16 step 7), and further
  // contributions are rejected.
  EXPECT_FALSE(world.tsa->request_unmask().has_value());
  const auto late = world.client_contribution(1, std::vector<float>(length, 0.5f));
  ASSERT_TRUE(late.has_value());
  EXPECT_EQ(world.tsa->process_contribution(late->message_index,
                                            late->completing_message,
                                            late->sealed_seed,
                                            late->message_index),
            TsaAccept::kReleased);
}

TEST(Protocol, ReplayedIndexRejected) {
  const std::size_t length = 8;
  ProtocolWorld world(length, 4, 8);
  const auto c = world.client_contribution(0, std::vector<float>(length, 0.5f));
  ASSERT_TRUE(c.has_value());
  EXPECT_EQ(world.tsa->process_contribution(c->message_index,
                                            c->completing_message,
                                            c->sealed_seed, c->message_index),
            TsaAccept::kAccepted);
  EXPECT_EQ(world.tsa->process_contribution(c->message_index,
                                            c->completing_message,
                                            c->sealed_seed, c->message_index),
            TsaAccept::kIndexConsumed);
}

TEST(Protocol, TamperedSeedCiphertextRejected) {
  const std::size_t length = 8;
  ProtocolWorld world(length, 1, 4);
  auto c = world.client_contribution(0, std::vector<float>(length, 0.5f));
  ASSERT_TRUE(c.has_value());
  c->sealed_seed.ciphertext[15] ^= 0x01;
  EXPECT_EQ(world.tsa->process_contribution(c->message_index,
                                            c->completing_message,
                                            c->sealed_seed, c->message_index),
            TsaAccept::kDecryptionFailed);
  EXPECT_EQ(world.tsa->accepted_count(), 0u);
}

TEST(Protocol, SeedReplayUnderDifferentIndexRejected) {
  // The server cannot take client 0's sealed seed and feed it to a different
  // initial-message index: the shared key differs and decryption fails.
  const std::size_t length = 8;
  ProtocolWorld world(length, 2, 8);
  const auto c = world.client_contribution(0, std::vector<float>(length, 0.5f));
  ASSERT_TRUE(c.has_value());
  EXPECT_EQ(world.tsa->process_contribution(/*index=*/1, c->completing_message,
                                            c->sealed_seed, /*sequence=*/1),
            TsaAccept::kDecryptionFailed);
}

TEST(Protocol, BadPublicKeyRejectedWithoutConsumingIndex) {
  // Completing messages the TSA must refuse before any decryption: the
  // degenerate values 0 and 1, the order-2 element p - 1, the out-of-range
  // p, and an honest message with a zero byte prefixed (same integer, wrong
  // length).  None may consume the index or count as accepted.
  const std::size_t length = 8;
  ProtocolWorld world(length, 1, 4);
  const auto c = world.client_contribution(0, std::vector<float>(length, 0.5f));
  ASSERT_TRUE(c.has_value());
  const std::size_t width = world.dh.byte_width();
  util::Bytes zero_prefixed{0};
  zero_prefixed.insert(zero_prefixed.end(), c->completing_message.begin(),
                       c->completing_message.end());
  const std::vector<util::Bytes> bad = {
      crypto::BigUInt(0).to_bytes(width),
      crypto::BigUInt(1).to_bytes(width),
      (world.dh.p - crypto::BigUInt(1)).to_bytes(width),
      world.dh.p.to_bytes(width),
      zero_prefixed,
  };
  for (const util::Bytes& message : bad) {
    EXPECT_EQ(world.tsa->process_contribution(c->message_index, message,
                                              c->sealed_seed, c->message_index),
              TsaAccept::kBadPublicKey)
        << util::to_hex(message);
    EXPECT_EQ(world.tsa->accepted_count(), 0u);
  }
  // The honest completing message can still claim the index.
  EXPECT_EQ(world.tsa->process_contribution(c->message_index,
                                            c->completing_message,
                                            c->sealed_seed, c->message_index),
            TsaAccept::kAccepted);
  EXPECT_EQ(world.tsa->accepted_count(), 1u);
}

TEST(Protocol, UnknownIndexRejected) {
  const std::size_t length = 8;
  ProtocolWorld world(length, 1, 4);
  const auto c = world.client_contribution(0, std::vector<float>(length, 0.5f));
  ASSERT_TRUE(c.has_value());
  EXPECT_EQ(world.tsa->process_contribution(/*index=*/99, c->completing_message,
                                            c->sealed_seed, 99),
            TsaAccept::kIndexUnknown);
}

TEST(Protocol, ClientAbortsOnWrongParamsHash) {
  // Fig. 19 step 3b: the server claims different public parameters than the
  // quote attests -> the client must abort.
  const std::size_t length = 8;
  ProtocolWorld world(length, 1, 4);
  QuoteExpectations bad = world.expectations;
  bad.expected_params_hash[0] ^= 0x01;
  SecAggClient client(world.dh, world.fp, 0);
  const auto contribution = client.prepare_contribution(
      world.platform, bad, world.tsa->initial_messages().at(0),
      world.binary_proof, std::vector<float>(length, 0.5f));
  EXPECT_FALSE(contribution.has_value());
}

TEST(Protocol, ClientAbortsOnUnloggedBinary) {
  // Fig. 20: the attested binary is not in the verifiable log snapshot the
  // client pins -> abort.
  const std::size_t length = 8;
  ProtocolWorld world(length, 1, 4);
  // Build an expectations struct whose snapshot comes from a log that does
  // NOT contain the TSA binary.
  VerifiableLog other_log;
  other_log.append("some-other-binary");
  QuoteExpectations bad = world.expectations;
  bad.log_snapshot = other_log.snapshot();
  SecAggClient client(world.dh, world.fp, 0);
  const auto contribution = client.prepare_contribution(
      world.platform, bad, world.tsa->initial_messages().at(0),
      world.binary_proof, std::vector<float>(length, 0.5f));
  EXPECT_FALSE(contribution.has_value());
}

TEST(Protocol, ClientAbortsOnTamperedInitialMessage) {
  // A MITM server that swaps the DH public value breaks the quote binding.
  const std::size_t length = 8;
  ProtocolWorld world(length, 1, 4);
  TsaInitialMessage tampered = world.tsa->initial_messages().at(0);
  tampered.dh_public[0] ^= 0x01;
  SecAggClient client(world.dh, world.fp, 0);
  const auto contribution = client.prepare_contribution(
      world.platform, world.expectations, tampered, world.binary_proof,
      std::vector<float>(length, 0.5f));
  EXPECT_FALSE(contribution.has_value());
}

TEST(Protocol, DropoutsDoNotBlockOthers) {
  // Client independence: clients 0 and 2 complete, client 1 vanishes after
  // masking (its contribution never reaches the server).  Aggregation over
  // the two arrivals still works — no recovery round needed.
  const std::size_t length = 16;
  ProtocolWorld world(length, 2, 8);
  SecureAggregationSession session(*world.tsa, length, 2);

  std::vector<float> expected(length, 0.0f);
  for (std::uint64_t c : {0ULL, 2ULL}) {
    std::vector<float> update(length, 0.25f * static_cast<float>(c + 1));
    for (std::size_t i = 0; i < length; ++i) expected[i] += update[i];
    const auto contribution = world.client_contribution(c, update);
    ASSERT_TRUE(contribution.has_value());
    EXPECT_EQ(session.accept(*contribution), TsaAccept::kAccepted);
  }
  const auto sum = session.finalize_decoded(world.fp);
  ASSERT_TRUE(sum.has_value());
  for (std::size_t i = 0; i < length; ++i) {
    EXPECT_NEAR((*sum)[i], expected[i], 1e-3);
  }
}

// ------------------------------------- Batched vs sequential equivalence --

// A contribution list with mixed verdicts, in a deliberate order: a valid
// one, a tampered sealed seed (kDecryptionFailed), more valid ones with a
// duplicate index (kIndexConsumed) and an unknown index (kIndexUnknown)
// interleaved.  Prepared against `world`'s initial messages; any
// ProtocolWorld built with the same parameters has an identical TSA
// (deterministic enclave seed), so the same list replays against fresh
// worlds.
std::vector<ClientContribution> mixed_contributions(ProtocolWorld& world,
                                                    std::size_t length) {
  util::Rng rng(11);
  const auto valid = [&](std::uint64_t c) {
    std::vector<float> update(length);
    for (auto& v : update) v = static_cast<float>(rng.uniform(-1.0, 1.0));
    auto contribution = world.client_contribution(c, update);
    EXPECT_TRUE(contribution.has_value());
    return std::move(*contribution);
  };
  std::vector<ClientContribution> batch;
  batch.push_back(valid(0));
  auto tampered = valid(5);
  tampered.sealed_seed.ciphertext[10] ^= 1;
  batch.push_back(std::move(tampered));
  batch.push_back(valid(1));
  batch.push_back(batch[2]);  // duplicate index -> kIndexConsumed
  auto unknown = batch[0];
  unknown.message_index = 999;
  batch.push_back(std::move(unknown));
  batch.push_back(valid(2));
  batch.push_back(valid(3));
  batch.push_back(valid(4));
  return batch;
}

const std::vector<TsaAccept> kMixedVerdicts{
    TsaAccept::kAccepted,      TsaAccept::kDecryptionFailed,
    TsaAccept::kAccepted,      TsaAccept::kIndexConsumed,
    TsaAccept::kIndexUnknown,  TsaAccept::kAccepted,
    TsaAccept::kAccepted,      TsaAccept::kAccepted};

TEST(BatchedSession, BitIdenticalToSequentialUnderMixedVerdicts) {
  const std::size_t length = 700;  // not a ChaCha20 block multiple
  const std::size_t goal = 5;
  ProtocolWorld seq_world(length, goal, 8);
  const auto contributions = mixed_contributions(seq_world, length);

  SecureAggregationSession sequential(*seq_world.tsa, length, goal);
  std::vector<TsaAccept> seq_verdicts;
  for (const auto& c : contributions) {
    seq_verdicts.push_back(sequential.accept(c));
  }
  EXPECT_EQ(seq_verdicts, kMixedVerdicts);
  const auto seq_sum = sequential.finalize();
  ASSERT_TRUE(seq_sum.has_value());

  // Batch sizes 1, K, and K+1 (a final short batch / one oversized span).
  for (const std::size_t batch_size :
       {1UL, contributions.size(), contributions.size() + 1}) {
    ProtocolWorld world(length, goal, 8);
    BatchedSecureAggregationSession batched(*world.tsa, length, goal);
    std::vector<TsaAccept> verdicts;
    for (std::size_t base = 0; base < contributions.size();
         base += batch_size) {
      const std::size_t n = std::min(batch_size, contributions.size() - base);
      const auto part = batched.accept_batch(
          std::span<const ClientContribution>(&contributions[base], n));
      verdicts.insert(verdicts.end(), part.begin(), part.end());
    }
    EXPECT_EQ(verdicts, seq_verdicts) << "batch size " << batch_size;
    EXPECT_EQ(batched.accepted_count(), sequential.accepted_count());
    EXPECT_TRUE(batched.goal_reached());
    // The running masked sum and the released aggregate are bit-identical.
    EXPECT_EQ(batched.masked_sum(), sequential.masked_sum());
    const auto batched_sum = batched.finalize();
    ASSERT_TRUE(batched_sum.has_value());
    EXPECT_EQ(*batched_sum, *seq_sum) << "batch size " << batch_size;
  }
}

TEST(BatchedSession, EmptyBatchIsANoOp) {
  const std::size_t length = 16;
  ProtocolWorld world(length, 1, 4);
  BatchedSecureAggregationSession session(*world.tsa, length, 1);
  const GroupVec before = session.masked_sum();
  EXPECT_TRUE(session.accept_batch({}).empty());
  EXPECT_EQ(session.masked_sum(), before);
  EXPECT_EQ(session.accepted_count(), 0u);
  EXPECT_EQ(world.tsa->boundary().calls(), 0u);

  // The session still works after the no-op.
  const auto c = world.client_contribution(0, std::vector<float>(length, 0.5f));
  ASSERT_TRUE(c.has_value());
  const auto verdicts =
      session.accept_batch(std::span<const ClientContribution>(&*c, 1));
  ASSERT_EQ(verdicts.size(), 1u);
  EXPECT_EQ(verdicts[0], TsaAccept::kAccepted);
  EXPECT_TRUE(session.finalize().has_value());
}

TEST(BatchedSession, RejectedContributionDiscardsOnlyItself) {
  const std::size_t length = 32;
  ProtocolWorld world(length, 2, 8);
  BatchedSecureAggregationSession session(*world.tsa, length, 2);
  auto good0 = world.client_contribution(0, std::vector<float>(length, 0.5f));
  auto bad = world.client_contribution(1, std::vector<float>(length, 0.5f));
  auto good2 = world.client_contribution(2, std::vector<float>(length, -0.5f));
  ASSERT_TRUE(good0 && bad && good2);
  bad->sealed_seed.ciphertext[0] ^= 1;
  const std::vector<ClientContribution> batch{*good0, *bad, *good2};
  const auto verdicts = session.accept_batch(batch);
  EXPECT_EQ(verdicts,
            (std::vector<TsaAccept>{TsaAccept::kAccepted,
                                    TsaAccept::kDecryptionFailed,
                                    TsaAccept::kAccepted}));
  EXPECT_EQ(session.accepted_count(), 2u);
  // The two accepted updates (0.5 and -0.5 everywhere) cancel exactly.
  const auto sum = session.finalize_decoded(world.fp);
  ASSERT_TRUE(sum.has_value());
  for (const float v : *sum) EXPECT_NEAR(v, 0.0f, 1e-3f);
}

TEST(BatchedSession, OneCrossingPerBatch) {
  // The point of batching: K contributions cross the TSA boundary once,
  // with one status byte out per contribution.
  const std::size_t length = 16, k = 4;
  ProtocolWorld world(length, k, 8);
  BatchedSecureAggregationSession session(*world.tsa, length, k);
  std::vector<ClientContribution> batch;
  for (std::uint64_t c = 0; c < k; ++c) {
    auto contribution =
        world.client_contribution(c, std::vector<float>(length, 0.1f));
    ASSERT_TRUE(contribution.has_value());
    batch.push_back(std::move(*contribution));
  }
  session.accept_batch(batch);
  EXPECT_EQ(world.tsa->boundary().calls(), 1u);
  EXPECT_EQ(world.tsa->boundary().bytes_out(), k);
}

// ------------------------------------------------------ Boundary traffic --

TEST(Boundary, AsyncSecAggTrafficIsConstantPerClientInModelSize) {
  // O(K + m): per-contribution boundary traffic must not scale with the
  // model size (Fig. 6's core claim).
  for (const std::size_t length : {64UL, 1024UL}) {
    ProtocolWorld world(length, 1, 2);
    const auto c =
        world.client_contribution(0, std::vector<float>(length, 0.1f));
    ASSERT_TRUE(c.has_value());
    const std::uint64_t before = world.tsa->boundary().bytes_in();
    world.tsa->process_contribution(c->message_index, c->completing_message,
                                    c->sealed_seed, c->message_index);
    const std::uint64_t per_client = world.tsa->boundary().bytes_in() - before;
    EXPECT_LT(per_client, 256u) << "model length " << length;
  }
}

TEST(Boundary, NaiveTeeTrafficScalesWithModelSize) {
  const std::size_t length = 1024;
  NaiveTeeAggregator naive(length, 1);
  const GroupVec update(length, 7u);
  naive.submit_update(update);
  EXPECT_GE(naive.boundary().bytes_in(), length * sizeof(std::uint32_t));
  const auto released = naive.release();
  ASSERT_TRUE(released.has_value());
  EXPECT_EQ((*released)[0], 7u);
}

TEST(Boundary, NaiveBelowThresholdRefuses) {
  NaiveTeeAggregator naive(8, 2);
  naive.submit_update(GroupVec(8, 1u));
  EXPECT_FALSE(naive.release().has_value());
}

TEST(Boundary, NaiveRefusalMetersZeroBytes) {
  // Fig. 6 counts what actually crosses: a below-threshold refusal is a
  // status-only call, not a 1-byte transfer.
  NaiveTeeAggregator naive(8, 2);
  naive.submit_update(GroupVec(8, 1u));
  const std::uint64_t before = naive.boundary().bytes_out();
  EXPECT_FALSE(naive.release().has_value());
  EXPECT_EQ(naive.boundary().bytes_out(), before);
  EXPECT_EQ(naive.boundary().calls(), 2u);  // the call itself is still metered
}

TEST(Boundary, NaiveReleaseMeterIsIdempotent) {
  // The aggregate's bytes cross the boundary once; re-serving the released
  // sum must not re-charge them.
  const std::size_t length = 64;
  NaiveTeeAggregator naive(length, 1);
  naive.submit_update(GroupVec(length, 3u));
  const std::uint64_t before = naive.boundary().bytes_out();
  ASSERT_TRUE(naive.release().has_value());
  const std::uint64_t after_first = naive.boundary().bytes_out();
  EXPECT_EQ(after_first - before, length * sizeof(std::uint32_t));
  const auto again = naive.release();
  ASSERT_TRUE(again.has_value());
  EXPECT_EQ((*again)[0], 3u);
  EXPECT_EQ(naive.boundary().bytes_out(), after_first);
}

TEST(Boundary, CostModelCalibration) {
  // 100 clients x 20 MB across the boundary should cost ~650 ms (Fig. 6).
  BoundaryMeter meter;
  for (int i = 0; i < 100; ++i) meter.record_call(20 * 1000 * 1000, 1);
  const BoundaryCostModel model;
  const double ms = model.transfer_time_ms(meter);
  EXPECT_NEAR(ms, 650.0, 60.0);
}

}  // namespace
}  // namespace papaya::secagg
