#include "secagg/otp.hpp"

#include <algorithm>

#include "crypto/chacha20.hpp"

namespace papaya::secagg {

GroupVec expand_mask(const Seed& seed, std::size_t length) {
  crypto::MaskPrng prng(seed);
  return prng.words(length);
}

namespace {

std::vector<crypto::MaskPrng> make_prngs(std::span<const Seed> seeds) {
  std::vector<crypto::MaskPrng> prngs;
  prngs.reserve(seeds.size());
  for (const Seed& seed : seeds) prngs.emplace_back(seed);
  return prngs;
}

std::vector<crypto::MaskPrng*> prng_ptrs(std::vector<crypto::MaskPrng>& prngs) {
  std::vector<crypto::MaskPrng*> ptrs(prngs.size());
  for (std::size_t i = 0; i < prngs.size(); ++i) ptrs[i] = &prngs[i];
  return ptrs;
}

}  // namespace

std::vector<GroupVec> expand_masks(std::span<const Seed> seeds,
                                   std::size_t length) {
  std::vector<GroupVec> out(seeds.size(), GroupVec(length));
  auto prngs = make_prngs(seeds);
  const auto ptrs = prng_ptrs(prngs);
  std::vector<std::uint32_t*> outs(out.size());
  for (std::size_t i = 0; i < out.size(); ++i) outs[i] = out[i].data();
  crypto::MaskPrng::fill_words_multi(ptrs, outs, length);
  return out;
}

void accumulate_masks(std::span<const Seed> seeds, GroupVec& sum) {
  if (seeds.empty()) return;
  auto prngs = make_prngs(seeds);
  const auto ptrs = prng_ptrs(prngs);

  // Scratch tile: one chunk of keystream per seed, sized so the whole tile
  // plus the matching `sum` block fits comfortably in cache.  Chunks are a
  // multiple of ChaCha20's eight-block (128-word) keystream tile, so every
  // chunk but the final partial one expands in whole tiles.
  constexpr std::size_t kChunkWords = 2048;  // 8 KB per stream
  std::vector<std::uint32_t> scratch(seeds.size() * kChunkWords);
  std::vector<std::uint32_t*> outs(seeds.size());
  for (std::size_t i = 0; i < seeds.size(); ++i) {
    outs[i] = scratch.data() + i * kChunkWords;
  }

  for (std::size_t base = 0; base < sum.size(); base += kChunkWords) {
    const std::size_t len = std::min(kChunkWords, sum.size() - base);
    crypto::MaskPrng::fill_words_multi(ptrs, outs, len);
    for (std::size_t s = 0; s < seeds.size(); ++s) {
      const std::uint32_t* row = outs[s];
      for (std::size_t i = 0; i < len; ++i) sum[base + i] += row[i];
    }
  }
}

GroupVec mask(std::span<const std::uint32_t> plaintext, const Seed& seed) {
  crypto::MaskPrng prng(seed);
  GroupVec out = prng.words(plaintext.size());
  for (std::size_t i = 0; i < out.size(); ++i) out[i] += plaintext[i];
  return out;
}

GroupVec unmask(std::span<const std::uint32_t> aggregate,
                std::span<const std::uint32_t> mask_sum) {
  return sub(aggregate, mask_sum);
}

}  // namespace papaya::secagg
