// Tests for the SMPC-based Secure Aggregation baseline (Bonawitz et al.
// 2016): Shamir secret sharing over Z_{2^130-5}, the four-round protocol,
// dropout recovery, threshold enforcement, tampering detection, and the
// privacy rule that no peer's self-mask and mask-seed shares are both
// revealed.

#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <tuple>

#include "crypto/dh.hpp"
#include "secagg/fixed_point.hpp"
#include "smpc/protocol.hpp"
#include "smpc/shamir.hpp"
#include "util/rng.hpp"

namespace papaya::smpc {
namespace {

using crypto::BigUInt;

/// Deterministic byte source for Shamir coefficients.
RandomBytesFn test_random(std::uint64_t seed) {
  auto rng = std::make_shared<util::Rng>(seed);
  return [rng](std::size_t n) {
    util::Bytes b(n);
    for (auto& x : b) x = static_cast<std::uint8_t>(rng->next());
    return b;
  };
}

util::Bytes secret_bytes(std::initializer_list<std::uint8_t> v) {
  return util::Bytes(v);
}

// ----------------------------------------------------------------- Shamir --

TEST(Shamir, FieldPrimeIsPoly1305Prime) {
  // 2^130 - 5.
  const BigUInt two130 = BigUInt(1) << 130;
  EXPECT_EQ(shamir_field_prime() + BigUInt(5), two130);
}

TEST(Shamir, SplitThenReconstructRoundTrips) {
  const util::Bytes secret =
      secret_bytes({1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16});
  const auto shares = shamir_split(secret, 5, 3, test_random(1));
  ASSERT_EQ(shares.size(), 5u);
  EXPECT_EQ(shamir_reconstruct(shares, 3), secret);
}

TEST(Shamir, AnyThresholdSubsetReconstructs) {
  const util::Bytes secret =
      secret_bytes({0xde, 0xad, 0xbe, 0xef, 0, 0, 0, 0, 1, 2, 3, 4, 5, 6, 7, 8});
  const auto shares = shamir_split(secret, 6, 3, test_random(2));
  for (std::size_t a = 0; a < 6; ++a) {
    for (std::size_t b = a + 1; b < 6; ++b) {
      for (std::size_t c = b + 1; c < 6; ++c) {
        const std::vector<Share> subset{shares[a], shares[b], shares[c]};
        EXPECT_EQ(shamir_reconstruct(subset, 3), secret);
      }
    }
  }
}

TEST(Shamir, ThresholdOneIsReplication) {
  const util::Bytes secret = secret_bytes({42});
  const auto shares = shamir_split(secret, 4, 1, test_random(3));
  for (const Share& s : shares) {
    EXPECT_EQ(shamir_reconstruct(std::vector<Share>{s}, 1, 1), secret);
  }
}

TEST(Shamir, FullThresholdNeedsAllShares) {
  const util::Bytes secret = secret_bytes({7, 7, 7, 7});
  const auto shares = shamir_split(secret, 4, 4, test_random(4));
  EXPECT_EQ(shamir_reconstruct(shares, 4, 4), secret);
  const std::vector<Share> missing(shares.begin(), shares.begin() + 3);
  EXPECT_THROW(shamir_reconstruct(missing, 4, 4), std::invalid_argument);
}

TEST(Shamir, TooFewSharesThrow) {
  const auto shares = shamir_split(secret_bytes({1}), 5, 3, test_random(5));
  const std::vector<Share> two(shares.begin(), shares.begin() + 2);
  EXPECT_THROW(shamir_reconstruct(two, 3), std::invalid_argument);
}

TEST(Shamir, BelowThresholdSharesAreUniformlyUnrelatedToSecret) {
  // With t-1 shares, every candidate secret is equally consistent: check
  // that the same two shares reconstruct *different* secrets depending on
  // which third share completes them, i.e. two shares pin nothing down.
  const util::Bytes s1 = secret_bytes({1, 0, 0, 0, 0, 0, 0, 0});
  const util::Bytes s2 = secret_bytes({2, 0, 0, 0, 0, 0, 0, 0});
  const auto shares1 = shamir_split(s1, 5, 3, test_random(6));
  const auto shares2 = shamir_split(s2, 5, 3, test_random(7));
  // Mixing two shares from split 1 with one share from split 2 still
  // interpolates, but to a garbage point: either a ~130-bit value that no
  // longer fits the declared secret width (reconstruct throws) or, at
  // width 17 (the full field), a value different from the real secret.
  const std::vector<Share> mixed{shares1[0], shares1[1], shares2[2]};
  util::Bytes padded_s1(17, 0);
  std::copy(s1.begin(), s1.end(), padded_s1.end() - 8);
  EXPECT_NE(shamir_reconstruct(mixed, 3, 17), padded_s1);
}

TEST(Shamir, DuplicateXRejected) {
  const auto shares = shamir_split(secret_bytes({9}), 4, 2, test_random(8));
  const std::vector<Share> dup{shares[0], shares[0]};
  EXPECT_THROW(shamir_reconstruct(dup, 2), std::invalid_argument);
}

TEST(Shamir, ZeroXRejected) {
  std::vector<Share> bad{Share{0, BigUInt(5)}, Share{1, BigUInt(6)}};
  EXPECT_THROW(shamir_reconstruct(bad, 2), std::invalid_argument);
}

TEST(Shamir, ShareOutsideFieldRejected) {
  std::vector<Share> bad{Share{1, shamir_field_prime()},
                         Share{2, BigUInt(6)}};
  EXPECT_THROW(shamir_reconstruct(bad, 2), std::invalid_argument);
}

TEST(Shamir, InvalidThresholdRejected) {
  EXPECT_THROW(shamir_split(secret_bytes({1}), 3, 0, test_random(9)),
               std::invalid_argument);
  EXPECT_THROW(shamir_split(secret_bytes({1}), 3, 4, test_random(9)),
               std::invalid_argument);
}

TEST(Shamir, SecretWiderThanFieldRejected) {
  // 17 bytes = 136 bits > 130-bit field.
  const util::Bytes wide(17, 0xff);
  EXPECT_THROW(shamir_split(wide, 3, 2, test_random(10)),
               std::invalid_argument);
}

TEST(Shamir, ArbitraryXCoordinates) {
  const util::Bytes secret = secret_bytes({11, 22, 33});
  const std::vector<std::uint32_t> xs{7, 1000, 0xfffffffe};
  const auto shares = shamir_split_at(secret, xs, 2, test_random(11));
  const std::vector<Share> subset{shares[0], shares[2]};
  EXPECT_EQ(shamir_reconstruct(subset, 2, 3), secret);
}

TEST(Shamir, SplitAtRejectsDuplicateOrZeroX) {
  const std::vector<std::uint32_t> dup{1, 2, 1};
  const std::vector<std::uint32_t> zero{0, 1, 2};
  EXPECT_THROW(shamir_split_at(secret_bytes({1}), dup, 2, test_random(12)),
               std::invalid_argument);
  EXPECT_THROW(shamir_split_at(secret_bytes({1}), zero, 2, test_random(12)),
               std::invalid_argument);
}

TEST(Shamir, SharesAreAdditivelyHomomorphic) {
  // Shamir over a field is linear: reconstructing the element-wise sum of
  // two share sets yields the sum of the secrets (mod p).  This is the
  // property threshold protocols build on.
  const util::Bytes a = secret_bytes({0, 0, 0, 100});
  const util::Bytes b = secret_bytes({0, 0, 0, 55});
  const auto sa = shamir_split(a, 5, 3, test_random(21));
  const auto sb = shamir_split(b, 5, 3, test_random(22));
  const BigUInt& p = shamir_field_prime();
  std::vector<Share> sum;
  for (std::size_t i = 0; i < 5; ++i) {
    sum.push_back(Share{sa[i].x, (sa[i].y + sb[i].y) % p});
  }
  EXPECT_EQ(shamir_reconstruct(sum, 3, 4), secret_bytes({0, 0, 0, 155}));
}

/// Property sweep: split/reconstruct round-trips across (n, t) and works
/// from the *last* t shares as well as the first.
class ShamirSweep
    : public ::testing::TestWithParam<std::tuple<std::size_t, std::size_t>> {};

TEST_P(ShamirSweep, RoundTripsFromAnyEnd) {
  const auto [n, t] = GetParam();
  util::Rng rng(n * 131 + t);
  util::Bytes secret(16);
  for (auto& b : secret) b = static_cast<std::uint8_t>(rng.next());
  const auto shares = shamir_split(secret, n, t, test_random(n * 17 + t));
  const std::vector<Share> head(shares.begin(), shares.begin() + t);
  const std::vector<Share> tail(shares.end() - t, shares.end());
  EXPECT_EQ(shamir_reconstruct(head, t), secret);
  EXPECT_EQ(shamir_reconstruct(tail, t), secret);
}

INSTANTIATE_TEST_SUITE_P(
    NT, ShamirSweep,
    ::testing::Values(std::make_tuple(2, 2), std::make_tuple(3, 2),
                      std::make_tuple(5, 3), std::make_tuple(8, 5),
                      std::make_tuple(12, 7), std::make_tuple(20, 11),
                      std::make_tuple(20, 20)));

// --------------------------------------------------------------- Protocol --

SmpcConfig small_config(std::size_t len = 8, std::size_t threshold = 2) {
  SmpcConfig c;
  c.vector_length = len;
  c.threshold = threshold;
  return c;
}

std::vector<secagg::GroupVec> make_inputs(std::size_t n, std::size_t len,
                                          std::uint64_t seed = 99) {
  util::Rng rng(seed);
  std::vector<secagg::GroupVec> inputs(n);
  for (auto& v : inputs) {
    v.resize(len);
    for (auto& x : v) x = static_cast<std::uint32_t>(rng.next());
  }
  return inputs;
}

secagg::GroupVec plaintext_sum(const std::vector<secagg::GroupVec>& inputs,
                               const std::set<std::uint32_t>& included) {
  secagg::GroupVec sum(inputs.front().size(), 0);
  for (std::uint32_t id : included) {
    secagg::add_in_place(sum, inputs[id - 1]);
  }
  return sum;
}

std::set<std::uint32_t> all_ids(std::size_t n) {
  std::set<std::uint32_t> s;
  for (std::uint32_t i = 1; i <= n; ++i) s.insert(i);
  return s;
}

TEST(SmpcProtocol, NoDropoutsSumMatchesPlaintext) {
  const auto inputs = make_inputs(5, 8);
  const auto result = run_smpc_round(small_config(8, 3), inputs);
  EXPECT_EQ(result.included, all_ids(5));
  EXPECT_EQ(result.aggregate, plaintext_sum(inputs, result.included));
}

TEST(SmpcProtocol, TwoClientsMinimum) {
  const auto inputs = make_inputs(2, 4);
  const auto result = run_smpc_round(small_config(4, 2), inputs);
  EXPECT_EQ(result.aggregate, plaintext_sum(inputs, all_ids(2)));
}

TEST(SmpcProtocol, DropoutBeforeShareKeysExcludedCleanly) {
  const auto inputs = make_inputs(5, 8);
  DropoutSchedule d;
  d.before_share_keys = {3};
  const auto result = run_smpc_round(small_config(8, 3), inputs, d);
  EXPECT_EQ(result.included, (std::set<std::uint32_t>{1, 2, 4, 5}));
  EXPECT_EQ(result.aggregate, plaintext_sum(inputs, result.included));
}

TEST(SmpcProtocol, DropoutAfterShareKeysRecoveredViaSeedReconstruction) {
  // The hard case: client 2 contributed pairwise masks into nobody's input
  // but everyone else masked *with* client 2 (it completed ShareKeys), so
  // the server must reconstruct 2's key seed and strip those masks.
  const auto inputs = make_inputs(5, 8);
  DropoutSchedule d;
  d.before_masked_input = {2};
  const auto result = run_smpc_round(small_config(8, 3), inputs, d);
  EXPECT_EQ(result.included, (std::set<std::uint32_t>{1, 3, 4, 5}));
  EXPECT_EQ(result.aggregate, plaintext_sum(inputs, result.included));
}

TEST(SmpcProtocol, MultipleDropoutsAtBothStages) {
  const auto inputs = make_inputs(8, 16);
  DropoutSchedule d;
  d.before_share_keys = {1};
  d.before_masked_input = {4, 7};
  const auto result = run_smpc_round(small_config(16, 3), inputs, d);
  EXPECT_EQ(result.included, (std::set<std::uint32_t>{2, 3, 5, 6, 8}));
  EXPECT_EQ(result.aggregate, plaintext_sum(inputs, result.included));
}

TEST(SmpcProtocol, DropoutDuringUnmaskingToleratedAboveThreshold) {
  const auto inputs = make_inputs(5, 8);
  DropoutSchedule d;
  d.before_unmasking = {5, 4};  // 3 responders remain, threshold 3
  const auto result = run_smpc_round(small_config(8, 3), inputs, d);
  // All five masked inputs are included; only the unmask responses thinned.
  EXPECT_EQ(result.included, all_ids(5));
  EXPECT_EQ(result.aggregate, plaintext_sum(inputs, result.included));
}

TEST(SmpcProtocol, BelowThresholdSurvivorsRefuseRelease) {
  const auto inputs = make_inputs(4, 4);
  DropoutSchedule d;
  d.before_masked_input = {2, 3, 4};  // one survivor, threshold 3
  EXPECT_THROW(run_smpc_round(small_config(4, 3), inputs, d),
               std::runtime_error);
}

TEST(SmpcProtocol, BelowThresholdUnmaskResponsesRefuseRelease) {
  const auto inputs = make_inputs(4, 4);
  DropoutSchedule d;
  d.before_unmasking = {2, 3, 4};  // one responder, threshold 3
  EXPECT_THROW(run_smpc_round(small_config(4, 3), inputs, d),
               std::runtime_error);
}

TEST(SmpcProtocol, MaskedInputLooksUniformNotLikeInput) {
  // The server's view of a single client's upload must be masked: compare
  // the masked vector against the plaintext input.
  const SmpcConfig config = small_config(64, 2);
  const auto inputs = make_inputs(2, 64);

  SmpcServer server(config);
  util::Bytes seed1{1, 0, 0, 0, 0, 0, 0, 0};
  util::Bytes seed2{2, 0, 0, 0, 0, 0, 0, 0};
  SmpcClient c1(config, 1, seed1);
  SmpcClient c2(config, 2, seed2);
  server.register_advertisement(c1.advertise_keys());
  server.register_advertisement(c2.advertise_keys());
  const auto cohort = server.cohort_broadcast();
  server.submit_shares(c1.share_keys(cohort));
  server.submit_shares(c2.share_keys(cohort));
  c1.receive_shares(server.inbox_for(1));
  const secagg::GroupVec masked = c1.masked_input(inputs[0]);
  std::size_t identical = 0;
  for (std::size_t i = 0; i < masked.size(); ++i) {
    identical += masked[i] == inputs[0][i];
  }
  // 64 words each hiding behind a ChaCha20 pad: expect essentially none
  // unchanged (probability of one collision is 2^-32 per word).
  EXPECT_LE(identical, 1u);
}

TEST(SmpcProtocol, ClientAbortsOnTamperedShare) {
  const SmpcConfig config = small_config(4, 2);
  util::Bytes seed1{1, 1, 1, 1};
  util::Bytes seed2{2, 2, 2, 2};
  SmpcClient c1(config, 1, seed1);
  SmpcClient c2(config, 2, seed2);
  SmpcServer server(config);
  server.register_advertisement(c1.advertise_keys());
  server.register_advertisement(c2.advertise_keys());
  const auto cohort = server.cohort_broadcast();
  server.submit_shares(c1.share_keys(cohort));
  server.submit_shares(c2.share_keys(cohort));
  auto inbox = server.inbox_for(2);
  ASSERT_FALSE(inbox.empty());
  inbox[0].box.ciphertext[16] ^= 0x01;  // flip a bit inside the body
  EXPECT_THROW(c2.receive_shares(inbox), std::runtime_error);
}

TEST(SmpcProtocol, ClientRejectsMisroutedShare) {
  const SmpcConfig config = small_config(4, 2);
  util::Bytes seed1{1, 1, 1, 1};
  util::Bytes seed2{2, 2, 2, 2};
  util::Bytes seed3{3, 3, 3, 3};
  SmpcClient c1(config, 1, seed1);
  SmpcClient c2(config, 2, seed2);
  SmpcClient c3(config, 3, seed3);
  SmpcServer server(config);
  for (auto* c : {&c1, &c2, &c3}) {
    server.register_advertisement(c->advertise_keys());
  }
  const auto cohort = server.cohort_broadcast();
  server.submit_shares(c1.share_keys(cohort));
  server.submit_shares(c2.share_keys(cohort));
  server.submit_shares(c3.share_keys(cohort));
  // Deliver client 3's inbox to client 2: `to` mismatch must be caught.
  auto inbox3 = server.inbox_for(3);
  EXPECT_THROW(c2.receive_shares(inbox3), std::runtime_error);
}

TEST(SmpcProtocol, UnmaskRefusesOverlappingSurvivorAndDropoutSets) {
  const SmpcConfig config = small_config(4, 2);
  util::Bytes seed{9, 9};
  SmpcClient c(config, 1, seed);
  EXPECT_THROW(c.unmask({1, 2}, {2}), std::invalid_argument);
}

TEST(SmpcProtocol, ServerRejectsSeedShareForSurvivor) {
  // A malicious server asking for a survivor's mask-seed share (to strip
  // that survivor's pairwise masks and expose its input) must be refused;
  // here we check the server-side guard that models the honest server
  // refusing to accept such a response.
  const SmpcConfig config = small_config(4, 2);
  const auto inputs = make_inputs(3, 4);
  SmpcServer server(config);
  std::vector<SmpcClient> clients;
  for (std::uint32_t id = 1; id <= 3; ++id) {
    util::Bytes seed{static_cast<std::uint8_t>(id), 0, 0, 0, 0, 0, 0, 0};
    clients.emplace_back(config, id, seed);
  }
  for (auto& c : clients) server.register_advertisement(c.advertise_keys());
  const auto cohort = server.cohort_broadcast();
  for (auto& c : clients) server.submit_shares(c.share_keys(cohort));
  for (auto& c : clients) c.receive_shares(server.inbox_for(c.id()));
  for (std::size_t i = 0; i < 3; ++i) {
    server.submit_masked_input(clients[i].id(),
                               clients[i].masked_input(inputs[i]));
  }
  // Forge a response that reveals a seed share for survivor 2.
  UnmaskResponse forged = clients[0].unmask({1, 2, 3}, {});
  forged.mask_seed_shares.push_back(
      RevealedShare{2, Share{1, crypto::BigUInt(1)}});
  EXPECT_THROW(server.submit_unmask_response(forged), std::invalid_argument);
}

TEST(SmpcProtocol, ServerRejectsResponderThatIsNotSurvivor) {
  const SmpcConfig config = small_config(4, 2);
  SmpcServer server(config);
  UnmaskResponse r;
  r.from = 42;
  EXPECT_THROW(server.submit_unmask_response(r), std::invalid_argument);
}

TEST(SmpcProtocol, ServerRejectsMaskedInputWithoutShareKeys) {
  const SmpcConfig config = small_config(4, 2);
  SmpcServer server(config);
  util::Bytes seed{5};
  SmpcClient c(config, 5, seed);
  server.register_advertisement(c.advertise_keys());
  EXPECT_THROW(server.submit_masked_input(5, secagg::GroupVec(4, 0)),
               std::invalid_argument);
}

TEST(SmpcProtocol, ServerRejectsWrongVectorLength) {
  const SmpcConfig config = small_config(4, 2);
  const auto inputs = make_inputs(2, 4);
  SmpcServer server(config);
  util::Bytes seed1{1};
  util::Bytes seed2{2};
  SmpcClient c1(config, 1, seed1), c2(config, 2, seed2);
  server.register_advertisement(c1.advertise_keys());
  server.register_advertisement(c2.advertise_keys());
  const auto cohort = server.cohort_broadcast();
  server.submit_shares(c1.share_keys(cohort));
  EXPECT_THROW(server.submit_masked_input(1, secagg::GroupVec(3, 0)),
               std::invalid_argument);
}

TEST(SmpcProtocol, ServerRejectsDuplicateAdvertisement) {
  SmpcServer server(small_config());
  util::Bytes seed{1};
  SmpcClient c(small_config(), 1, seed);
  server.register_advertisement(c.advertise_keys());
  EXPECT_THROW(server.register_advertisement(c.advertise_keys()),
               std::invalid_argument);
}

TEST(SmpcProtocol, DeterministicGivenSeed) {
  const auto inputs = make_inputs(4, 8);
  const auto r1 = run_smpc_round(small_config(8, 2), inputs, {}, 7);
  const auto r2 = run_smpc_round(small_config(8, 2), inputs, {}, 7);
  EXPECT_EQ(r1.aggregate, r2.aggregate);
  EXPECT_EQ(r1.traffic.client_to_server_bytes,
            r2.traffic.client_to_server_bytes);
}

TEST(SmpcProtocol, ShareTrafficGrowsQuadratically) {
  // The O(n^2) share ciphertexts are the scalability wall Sec. 5 points at.
  const auto t8 = run_smpc_round(small_config(4, 2), make_inputs(8, 4)).traffic;
  const auto t16 =
      run_smpc_round(small_config(4, 2), make_inputs(16, 4)).traffic;
  const auto t32 =
      run_smpc_round(small_config(4, 2), make_inputs(32, 4)).traffic;
  // Subtract the masked-input contribution (linear in n) by comparing
  // growth: doubling n should much more than double total bytes.
  const double g1 = static_cast<double>(t16.client_to_server_bytes) /
                    static_cast<double>(t8.client_to_server_bytes);
  const double g2 = static_cast<double>(t32.client_to_server_bytes) /
                    static_cast<double>(t16.client_to_server_bytes);
  EXPECT_GT(g1, 2.5);
  EXPECT_GT(g2, 3.0);  // approaches 4x as the quadratic term dominates
}

/// Property sweep over (n, threshold, dropout pattern): the aggregate always
/// equals the plaintext sum of exactly the survivors.
class SmpcSweep : public ::testing::TestWithParam<
                      std::tuple<std::size_t, std::size_t, int>> {};

TEST_P(SmpcSweep, AggregateMatchesSurvivorPlaintextSum) {
  const auto [n, threshold, pattern] = GetParam();
  const std::size_t len = 12;
  const auto inputs = make_inputs(n, len, 1234 + n);
  DropoutSchedule d;
  switch (pattern) {
    case 0:
      break;  // no dropouts
    case 1:
      d.before_share_keys = {static_cast<std::uint32_t>(n)};
      break;
    case 2:
      d.before_masked_input = {1};
      break;
    case 3:
      d.before_share_keys = {2};
      d.before_masked_input = {static_cast<std::uint32_t>(n - 1)};
      break;
    default:
      d.before_unmasking = {1};
      break;
  }
  const std::size_t expected_survivors =
      n - d.before_share_keys.size() - d.before_masked_input.size();
  if (expected_survivors < threshold) {
    // The protocol must refuse to release an aggregate of fewer than t
    // inputs (Fig. 15 step 4).
    EXPECT_THROW(run_smpc_round(SmpcConfig{len, threshold, nullptr}, inputs,
                                d, 5 * n + pattern),
                 std::runtime_error);
    return;
  }
  const auto result = run_smpc_round(
      SmpcConfig{len, threshold, nullptr}, inputs, d, 5 * n + pattern);
  EXPECT_EQ(result.aggregate, plaintext_sum(inputs, result.included));
  EXPECT_GE(result.included.size(), threshold);
}

INSTANTIATE_TEST_SUITE_P(
    Grid, SmpcSweep,
    ::testing::Combine(::testing::Values<std::size_t>(4, 6, 10),
                       ::testing::Values<std::size_t>(2, 3),
                       ::testing::Values(0, 1, 2, 3, 4)));

// ----------------------------------------------- FL-shaped integration ------

TEST(SmpcIntegration, FixedPointModelUpdatesAggregateLikePlaintext) {
  // The FL use of the protocol: clients hold float model deltas, fixed-point
  // encode them, aggregate securely, and the server decodes the sum and
  // averages — the result must match the plaintext mean to within encoding
  // resolution.
  constexpr std::size_t kClients = 6;
  constexpr std::size_t kLen = 24;
  const auto fp = secagg::FixedPointParams::for_budget(1.0, kClients);

  util::Rng rng(404);
  std::vector<std::vector<float>> deltas(kClients);
  std::vector<secagg::GroupVec> inputs(kClients);
  std::vector<double> mean(kLen, 0.0);
  for (std::size_t c = 0; c < kClients; ++c) {
    deltas[c].resize(kLen);
    for (std::size_t i = 0; i < kLen; ++i) {
      deltas[c][i] = static_cast<float>(rng.uniform(-1.0, 1.0));
      mean[i] += deltas[c][i] / kClients;
    }
    inputs[c] = secagg::encode(deltas[c], fp);
  }

  SmpcConfig config;
  config.vector_length = kLen;
  config.threshold = 4;
  const auto result = run_smpc_round(config, inputs, {}, 11);
  ASSERT_EQ(result.included.size(), kClients);

  const std::vector<float> decoded_sum = secagg::decode(result.aggregate, fp);
  for (std::size_t i = 0; i < kLen; ++i) {
    EXPECT_NEAR(decoded_sum[i] / kClients, mean[i],
                static_cast<double>(kClients) / fp.scale);
  }
}

TEST(SmpcIntegration, DropoutsAverageOverSurvivorsOnly) {
  constexpr std::size_t kClients = 5;
  constexpr std::size_t kLen = 8;
  const auto fp = secagg::FixedPointParams::for_budget(1.0, kClients);

  std::vector<secagg::GroupVec> inputs(kClients);
  std::vector<std::vector<float>> deltas(kClients);
  for (std::size_t c = 0; c < kClients; ++c) {
    deltas[c].assign(kLen, 0.1f * static_cast<float>(c + 1));
    inputs[c] = secagg::encode(deltas[c], fp);
  }

  SmpcConfig config;
  config.vector_length = kLen;
  config.threshold = 3;
  DropoutSchedule d;
  d.before_masked_input = {2};  // client 2's 0.2 delta never arrives
  const auto result = run_smpc_round(config, inputs, d, 12);
  ASSERT_EQ(result.included, (std::set<std::uint32_t>{1, 3, 4, 5}));

  const std::vector<float> sum = secagg::decode(result.aggregate, fp);
  const double expected = 0.1 + 0.3 + 0.4 + 0.5;  // survivors only
  // Tolerance: 4 roundings at 1/scale plus float32 representation error.
  for (float v : sum) EXPECT_NEAR(v, expected, 4.0 / fp.scale + 1e-6);
}

}  // namespace
}  // namespace papaya::smpc
