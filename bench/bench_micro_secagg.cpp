// Microbenchmarks for the SecAgg building blocks: mask expansion, fixed-point
// encode, DH handshake, sealed-seed processing, Merkle proofs — plus the
// batch-size sweep over the server accept path
// (BatchedSecureAggregationSession at batch 1, 8 and 32).

#include <benchmark/benchmark.h>

#include <algorithm>
#include <memory>

#include "crypto/dh.hpp"
#include "crypto/merkle.hpp"
#include "crypto/sha256.hpp"
#include "secagg/attestation.hpp"
#include "secagg/fixed_point.hpp"
#include "secagg/otp.hpp"
#include "secagg/secagg_batch.hpp"
#include "secagg/secagg_client.hpp"
#include "secagg/tsa.hpp"
#include "util/rng.hpp"

namespace {

using namespace papaya;

void BM_MaskExpansion(benchmark::State& state) {
  secagg::Seed seed{};
  seed.fill(0x42);
  const auto n = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(secagg::expand_mask(seed, n));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n * 4));
}
BENCHMARK(BM_MaskExpansion)->Arg(1024)->Arg(2968)->Arg(65536)->Arg(1 << 20);

void BM_Mask(benchmark::State& state) {
  // The client's masking step, seed expansion plus the add; 2,968 elements
  // is the model size of the secagg_c104 and fig9_c104 workloads.
  secagg::Seed seed{};
  seed.fill(0x24);
  const auto n = static_cast<std::size_t>(state.range(0));
  const secagg::GroupVec plaintext(n, 7u);
  for (auto _ : state) {
    benchmark::DoNotOptimize(secagg::mask(plaintext, seed));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n * 4));
}
BENCHMARK(BM_Mask)->Arg(2968)->Arg(65536);

void BM_MaskExpansionMulti(benchmark::State& state) {
  // Batched expansion (expand_masks) of `range(0)` seeds at the
  // BM_MaskExpansion/65536 working size.
  const auto n_seeds = static_cast<std::size_t>(state.range(0));
  constexpr std::size_t kLength = 65536;
  std::vector<secagg::Seed> seeds(n_seeds);
  for (std::size_t i = 0; i < n_seeds; ++i) {
    seeds[i].fill(static_cast<std::uint8_t>(i + 1));
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(secagg::expand_masks(seeds, kLength));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n_seeds * kLength * 4));
}
BENCHMARK(BM_MaskExpansionMulti)->Arg(8)->Arg(32);

void BM_FixedPointEncode(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  std::vector<float> values(n, 0.123f);
  const secagg::FixedPointParams fp;
  for (auto _ : state) {
    benchmark::DoNotOptimize(secagg::encode(values, fp));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n));
}
BENCHMARK(BM_FixedPointEncode)->Arg(1024)->Arg(65536);

void BM_DhHandshake256(benchmark::State& state) {
  const crypto::DhParams& params = crypto::DhParams::simulation256();
  const util::Bytes seed(32, 0x11);
  crypto::DhRandom random(seed);
  const crypto::DhKeyPair server = dh_generate(params, random);
  for (auto _ : state) {
    const crypto::DhKeyPair client = dh_generate(params, random);
    benchmark::DoNotOptimize(
        dh_shared_element(params, client.private_key, server.public_key));
  }
}
BENCHMARK(BM_DhHandshake256);

void BM_DhHandshake1536(benchmark::State& state) {
  const crypto::DhParams& params = crypto::DhParams::rfc3526_1536();
  const util::Bytes seed(32, 0x11);
  crypto::DhRandom random(seed);
  const crypto::DhKeyPair server = dh_generate(params, random);
  for (auto _ : state) {
    const crypto::DhKeyPair client = dh_generate(params, random);
    benchmark::DoNotOptimize(
        dh_shared_element(params, client.private_key, server.public_key));
  }
}
BENCHMARK(BM_DhHandshake1536);

void BM_Sha256(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const util::Bytes data(n, 0xab);
  for (auto _ : state) {
    benchmark::DoNotOptimize(crypto::Sha256::hash(data));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n));
}
BENCHMARK(BM_Sha256)->Arg(64)->Arg(4096)->Arg(1 << 20);

void BM_MerkleInclusionProof(benchmark::State& state) {
  crypto::VerifiableLog log;
  const auto n = static_cast<std::uint64_t>(state.range(0));
  for (std::uint64_t i = 0; i < n; ++i) {
    log.append("binary-" + std::to_string(i));
  }
  std::uint64_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(log.prove_inclusion(i++ % n));
  }
}
BENCHMARK(BM_MerkleInclusionProof)->Arg(64)->Arg(1024);

void BM_MerkleVerifyInclusion(benchmark::State& state) {
  crypto::VerifiableLog log;
  const auto n = static_cast<std::uint64_t>(state.range(0));
  for (std::uint64_t i = 0; i < n; ++i) {
    log.append("binary-" + std::to_string(i));
  }
  const auto proof = log.prove_inclusion(n / 2);
  const auto snap = log.snapshot();
  const std::string rec = "binary-" + std::to_string(n / 2);
  const auto leaf = crypto::VerifiableLog::leaf_hash(
      std::span<const std::uint8_t>(
          reinterpret_cast<const std::uint8_t*>(rec.data()), rec.size()));
  for (auto _ : state) {
    benchmark::DoNotOptimize(crypto::verify_inclusion(leaf, proof, snap));
  }
}
BENCHMARK(BM_MerkleVerifyInclusion)->Arg(1024);

// ----------------------------------------------- Server accept batch sweep --
//
// BatchedSecureAggregationSession::accept_batch over the same contribution
// set at several batch sizes, at the paper's model scale (2^20 group
// elements = a 4 MB masked update).  Batch 1 hands each contribution over
// on its own.  Per-contribution DH key recovery is inherent to the protocol
// at every batch size; a larger batch amortizes the rest of the control
// path (one TSA crossing per batch) and makes the server fold one
// cache-blocked reduction.  Mask expansion costs the same per seed at any
// batch size.  ns/update = real_time / items_per_second.

constexpr std::size_t kAcceptLength = 1 << 20;
constexpr std::size_t kAcceptContributions = 32;

struct AcceptWorld {
  const crypto::DhParams& dh = crypto::DhParams::simulation256();
  secagg::SimulatedEnclavePlatform platform{1};
  crypto::Digest binary = crypto::Sha256::hash(std::string("bench-tsa"));
  crypto::VerifiableLog log;
  secagg::SecAggParams params;
  secagg::FixedPointParams fp;
  std::uint64_t tsa_seed = 7;
  std::vector<secagg::ClientContribution> contributions;

  AcceptWorld() {
    params.vector_length = kAcceptLength;
    params.threshold = kAcceptContributions;
    fp = secagg::FixedPointParams::for_budget(1.0, kAcceptContributions);
    log.append(binary);
    const auto tsa = make_tsa();
    const secagg::QuoteExpectations expectations{params.hash(dh),
                                                 log.snapshot()};
    const auto proof = log.prove_inclusion(0);
    const std::vector<float> update(kAcceptLength, 0.01f);
    for (std::size_t c = 0; c < kAcceptContributions; ++c) {
      secagg::SecAggClient client(dh, fp, c);
      auto contribution = client.prepare_contribution(
          platform, expectations, tsa->initial_messages().at(c), proof,
          update);
      contributions.push_back(std::move(*contribution));
    }
  }

  /// A fresh TSA with the same enclave seed has identical DH keys, so the
  /// prepared contributions replay against every benchmark iteration.
  std::unique_ptr<secagg::TrustedSecureAggregator> make_tsa() const {
    return std::make_unique<secagg::TrustedSecureAggregator>(
        dh, params, kAcceptContributions, platform, binary, tsa_seed);
  }
};

const AcceptWorld& accept_world() {
  static const AcceptWorld* world = new AcceptWorld;
  return *world;
}

void BM_SecAggAcceptBatched(benchmark::State& state) {
  const AcceptWorld& world = accept_world();
  const auto batch_size = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    state.PauseTiming();
    const auto tsa = world.make_tsa();
    secagg::BatchedSecureAggregationSession session(*tsa, kAcceptLength,
                                                    kAcceptContributions);
    state.ResumeTiming();
    for (std::size_t base = 0; base < world.contributions.size();
         base += batch_size) {
      const std::size_t n =
          std::min(batch_size, world.contributions.size() - base);
      benchmark::DoNotOptimize(session.accept_batch(
          {world.contributions.data() + base, n}));
    }
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(kAcceptContributions));
}
BENCHMARK(BM_SecAggAcceptBatched)
    ->Arg(1)
    ->Arg(8)
    ->Arg(32)
    ->Unit(benchmark::kMillisecond);

}  // namespace
