#include "fl/agg_strategy.hpp"

namespace papaya::fl {

AggStrategy decide_strategy(const AggStatsSnapshot& /*window*/,
                            AggStrategy current, const AggTuning& /*tuning*/,
                            std::size_t /*num_workers*/) {
  return current;
}

}  // namespace papaya::fl
