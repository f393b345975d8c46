#pragma once
// Names kept only so the traced benchmark binary still links: nothing else
// uses them.  benchmark/trace_wraps.cpp includes this header, switches over
// AggStrategy's four enumerators and wraps decide_strategy by its mangled
// name.  Aggregation has one fold (fl/parallel_agg.hpp), so there
// is no strategy to pick: decide_strategy returns `current`, nothing calls
// it, and the traced fl.fold.pick.* counts read 0.  Delete this header and
// agg_strategy.cpp together with the wrap.

#include <cstddef>
#include <cstdint>

namespace papaya::fl {

struct AggStatsSnapshot;

enum class AggStrategy : std::uint8_t {
  kAuto = 0,
  kLocked = 1,
  kMorsel = 2,
  kStriped = 3,
};

struct AggTuning {};

AggStrategy decide_strategy(const AggStatsSnapshot& window,
                            AggStrategy current, const AggTuning& tuning,
                            std::size_t num_workers);

}  // namespace papaya::fl
