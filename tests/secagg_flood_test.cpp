// SecAgg reject-path flood suite (`ctest -L fsm`): 10k malformed
// contributions interleaved with valid ones, asserting the
// SecureBufferManager::Accounting invariants the FSM harness also leans on —
// no accepted-set drift (a malformed contribution is never credited), no
// buffered-slot leak (pending contribution and weight slots stay paired),
// and exact conservation: every submit() is accepted, rejected, wrong-epoch,
// or pending, nothing else.
//
// Malformed contributions are tampered *clones* of honestly prepared
// reports: flipping one sealed-seed ciphertext byte breaks the TSA's
// authenticated decryption (kDecryptionFailed), a clone submitted after its
// original bounces off the consumed index (kIndexConsumed), and a clone
// whose masked update is a word short or long is refused at submit, before
// it is buffered (kMalformed) — so the flood costs one cheap copy per
// malformed submission instead of a fresh DH handshake, which is what makes
// a 10k-contribution flood affordable.

#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <cstdint>
#include <thread>
#include <vector>

#include "fl/secure_buffer.hpp"

namespace papaya::fl {
namespace {

constexpr std::size_t kModelSize = 8;
constexpr std::size_t kGoal = 6;

SecureReport tampered_clone(const SecureReport& report, std::size_t flip) {
  SecureReport clone = report;
  auto& ciphertext = clone.contribution.sealed_seed.ciphertext;
  ciphertext[flip % ciphertext.size()] ^= 1;
  return clone;
}

SecureReport wrong_length_clone(const SecureReport& report, std::size_t j) {
  SecureReport clone = report;
  clone.contribution.masked_update.resize(j % 2 == 0 ? kModelSize - 1
                                                     : kModelSize + 1);
  return clone;
}

TEST(SecAggFlood, TenThousandMalformedSubmissionsCannotDriftAccounting) {
  constexpr std::size_t kMalformedTarget = 10000;
  SecureBufferManager manager(kModelSize, kGoal, /*seed=*/0xf100d,
                              /*batch_size=*/4);
  const std::vector<float> delta(kModelSize, 0.5f);

  std::uint64_t valid = 0;
  std::uint64_t malformed = 0;
  std::uint64_t replayed = 0;
  std::uint64_t wrong_length = 0;
  std::uint64_t returned = 0;  // rejections a submit() returned itself
  std::uint64_t claimed = 0;   // rejections take_rejected() reported later
  std::uint64_t epochs = 0;
  const auto submit = [&](const SecureReport& report) {
    const SecureSubmitOutcome outcome = manager.submit(report, 1.0);
    returned += outcome == SecureSubmitOutcome::kTsaRejected ||
                outcome == SecureSubmitOutcome::kMalformed;
    return outcome;
  };

  while (malformed + replayed < kMalformedTarget) {
    ++epochs;
    // Honest side of the interleaving: one goal's worth of real clients.
    std::vector<SecureReport> honest;
    for (std::size_t i = 0; i < kGoal; ++i) {
      const auto config = manager.next_upload_config();
      ASSERT_TRUE(config.has_value());
      auto report = SecureBufferManager::prepare_report(
          manager.platform(), *config, /*client_id=*/epochs * 100 + i,
          /*initial_version=*/0, /*num_examples=*/1, /*weight=*/1.0, delta,
          /*client_seed=*/epochs * 0x1000 + i);
      ASSERT_TRUE(report.has_value());
      honest.push_back(std::move(*report));
    }

    // Interleave: a burst of tampered clones before each honest submit
    // (kDecryptionFailed), the honest submit, a burst of wrong-length clones
    // (kMalformed), a burst of tampered clones plus one pristine replay
    // (kIndexConsumed).  ~1k malformed per epoch keeps the epoch count (and
    // with it the DH handshake cost, the expensive part under TSan) low
    // while still crossing plenty of epoch boundaries.
    const std::size_t burst = (kMalformedTarget / 10) / (2 * kGoal);
    constexpr std::size_t kWrongLengthBurst = 5;
    for (const auto& report : honest) {
      for (std::size_t j = 0; j < burst; ++j) {
        submit(tampered_clone(report, j));
        ++malformed;
      }
      ASSERT_NE(submit(report), SecureSubmitOutcome::kWrongEpoch);
      ++valid;
      for (std::size_t j = 0; j < kWrongLengthBurst; ++j) {
        ASSERT_EQ(submit(wrong_length_clone(report, j)),
                  SecureSubmitOutcome::kMalformed);
        ++wrong_length;
      }
      for (std::size_t j = 0; j < burst; ++j) {
        submit(tampered_clone(report, j));
        ++malformed;
      }
      submit(report);  // replay of an already-used index
      ++replayed;
    }

    const auto mean = manager.finalize_mean();
    ASSERT_TRUE(mean.has_value()) << "epoch " << epochs
                                  << " failed to reach its goal";
    // No accepted-set drift, measured end to end: the released mean is the
    // honest clients' mean, untouched by thousands of rejected neighbours.
    for (const float v : *mean) {
      EXPECT_NEAR(v, 0.5f, 1e-2f);
    }
    claimed += manager.take_rejected();
  }

  const std::uint64_t rejected = malformed + replayed + wrong_length;
  const auto acct = manager.accounting();
  EXPECT_EQ(acct.submitted, valid + rejected);
  EXPECT_EQ(acct.accepted, valid);
  EXPECT_EQ(acct.rejected, rejected);
  EXPECT_EQ(acct.wrong_epoch, 0u);
  EXPECT_EQ(acct.pending, 0u);  // no buffered-slot leak across 10k rejects
  EXPECT_EQ(acct.pending_weight_slots, 0u);
  EXPECT_EQ(acct.epochs_released, epochs);
  EXPECT_EQ(acct.submitted,
            acct.accepted + acct.rejected + acct.wrong_epoch + acct.pending);
  // Every rejection was reported exactly once: by the submit() that decided
  // it, or later by take_rejected().
  EXPECT_EQ(returned + claimed + manager.take_rejected(), rejected);
  EXPECT_GE(malformed + replayed, kMalformedTarget);
}

TEST(SecAggFlood, ConcurrentFloodPreservesConservation) {
  // Four attacker threads flood tampered and wrong-length clones while an
  // honest thread submits real contributions and finalizes whenever the
  // goal is reached.
  // Interleavings vary run to run; the conservation identities may not.
  SecureBufferManager manager(kModelSize, kGoal, /*seed=*/0xf200d,
                              /*batch_size=*/3);
  const std::vector<float> delta(kModelSize, 0.25f);

  // One honestly prepared report per attacker to clone from (epoch 1).
  std::vector<SecureReport> seeds;
  for (std::size_t i = 0; i < 4; ++i) {
    const auto config = manager.next_upload_config();
    ASSERT_TRUE(config.has_value());
    auto report = SecureBufferManager::prepare_report(
        manager.platform(), *config, /*client_id=*/900 + i,
        /*initial_version=*/0, /*num_examples=*/1, /*weight=*/1.0, delta,
        /*client_seed=*/0x9000 + i);
    ASSERT_TRUE(report.has_value());
    seeds.push_back(std::move(*report));
  }

  constexpr std::size_t kPerAttacker = 500;
  std::atomic<std::uint64_t> submitted{0};
  std::atomic<std::uint64_t> honest_submitted{0};
  std::vector<std::thread> attackers;
  attackers.reserve(seeds.size());
  for (std::size_t a = 0; a < seeds.size(); ++a) {
    attackers.emplace_back([&, a] {
      for (std::size_t j = 0; j < kPerAttacker; ++j) {
        manager.submit(j % 4 == 3 ? wrong_length_clone(seeds[a], j)
                                  : tampered_clone(seeds[a], j),
                       1.0);
        submitted.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }
  std::thread honest([&] {
    for (std::size_t i = 0; i < 40; ++i) {
      const auto config = manager.next_upload_config();
      if (config) {
        auto report = SecureBufferManager::prepare_report(
            manager.platform(), *config, /*client_id=*/i,
            /*initial_version=*/0, /*num_examples=*/1, /*weight=*/1.0, delta,
            /*client_seed=*/0xa000 + i);
        if (report) {
          manager.submit(*report, 1.0);
          submitted.fetch_add(1, std::memory_order_relaxed);
          honest_submitted.fetch_add(1, std::memory_order_relaxed);
        }
      }
      if (manager.goal_reached()) manager.finalize_mean();
    }
  });
  for (auto& t : attackers) t.join();
  honest.join();

  const auto acct = manager.accounting();
  EXPECT_EQ(acct.submitted, submitted.load());
  EXPECT_EQ(acct.submitted,
            acct.accepted + acct.rejected + acct.wrong_epoch + acct.pending);
  EXPECT_EQ(acct.pending, acct.pending_weight_slots);
  // Tampered clones can never be credited, so the accepted set is bounded
  // by the honest submissions (some of which may themselves have bounced at
  // an epoch boundary).
  EXPECT_LE(acct.accepted, honest_submitted.load());
}

}  // namespace
}  // namespace papaya::fl
