#pragma once
// Additive one-time pad over Z_{2^32} (App. A.2, Fig. 14).
//
// Enc_k(v) = v + PRNG(k) element-wise; ciphertexts add homomorphically; an
// aggregated ciphertext is decrypted by subtracting the sum of the pads.
// The pad is expanded from a small seed (16 bytes in the paper) with a
// cryptographically secure PRNG (ChaCha20 here), which is what lets the TSA
// reconstruct an as-large-as-the-model mask from a constant-size message.

#include <array>
#include <cstdint>
#include <span>

#include "secagg/group.hpp"

namespace papaya::secagg {

/// The 16-byte seed shared between a client and the TSA.
using Seed = std::array<std::uint8_t, 16>;

/// Deterministically expand a seed into an l-element mask vector.
GroupVec expand_mask(const Seed& seed, std::size_t length);

/// Batched expansion: out[i] == expand_mask(seeds[i], length) for every i.
std::vector<GroupVec> expand_masks(std::span<const Seed> seeds,
                                   std::size_t length);

/// Fold the sum of every seed's mask into `sum` (mod 2^32) without
/// materializing the individual masks: keystream tiles are expanded into a
/// small scratch block and folded while the corresponding `sum` block is
/// still cache-resident.  Equivalent to add_in_place(sum, expand_mask(s, l))
/// over all seeds.
void accumulate_masks(std::span<const Seed> seeds, GroupVec& sum);

/// Mask a plaintext group vector: out = v + m (mod 2^32).
GroupVec mask(std::span<const std::uint32_t> plaintext, const Seed& seed);

/// Remove an aggregated mask: out = c - mask_sum (mod 2^32).
GroupVec unmask(std::span<const std::uint32_t> aggregate,
                std::span<const std::uint32_t> mask_sum);

}  // namespace papaya::secagg
