#pragma once
// Aggregation-shard placement (Sec. 6.3): jump consistent hash.
//
// Client update *streams* (keyed by client id) are placed on aggregation
// shards by jump consistent hash (Lamping & Veach 2014, arXiv:1406.2294)
// of the stream key's util::splitmix64_hash.  It needs no table: each of N
// shards gets 1/N of the keys in expectation, and growing from N to N+1
// shards moves only the keys that land on the new shard, ~1/(N+1) of them,
// so warm per-shard state (intermediates, queues) survives resharding
// mostly intact.
//
// Every layer that must agree on stream placement calls this one function:
// ShardedAggregator routes enqueues with it, and VirtualSessionManager
// stamps each session with the shard its upload stream will hit.

#include <cstddef>
#include <cstdint>

#include "util/rng.hpp"

namespace papaya::fl {

/// The shard, of `num_shards` (0 counts as 1), that owns `stream_key`.
/// Deterministic across processes and runs: the hash is seedless.
inline std::size_t shard_for(std::uint64_t stream_key,
                             std::size_t num_shards) {
  // As shards are added one at a time, a key only ever moves onto the
  // newest one.  The key's hash seeds a linear congruential walk that jumps
  // straight from one such move to the next; the last move onto a shard
  // below `num_shards` names the owner.
  std::uint64_t key = util::splitmix64_hash(stream_key);
  const auto n = static_cast<std::int64_t>(num_shards);
  std::int64_t shard = 0;
  for (std::int64_t next = 0; next < n;) {
    shard = next;
    key = key * 2862933555777941757ULL + 1;
    next = static_cast<std::int64_t>(
        static_cast<double>(shard + 1) *
        (static_cast<double>(std::int64_t{1} << 31) /
         static_cast<double>((key >> 33) + 1)));
  }
  return static_cast<std::size_t>(shard);
}

}  // namespace papaya::fl
