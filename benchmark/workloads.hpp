#pragma once
// The benchmark's workloads.  Each is built from --seed alone and runs in
// passes: setup() constructs the system under test, run() drives one pass
// through it, reset() releases it.  Two passes of one workload from one seed
// do identical work, so their outcomes must agree field for field.

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "trace.hpp"

namespace papaya::benchmark {

/// A named number, printed as a metric line.
struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  std::string better;
};

/// The unit of work ops_per_s counts.
enum class Op { kUpdate, kEvent };

struct Outcome {
  std::uint64_t updates = 0;         ///< client updates the server received
  std::uint64_t failed_updates = 0;  ///< ... that it failed to take
  std::uint64_t events = 0;          ///< simulator events (0 without one)
  std::uint64_t steps = 0;           ///< server model steps
  std::uint64_t model_hash = 0;      ///< FNV-1a over the final model's bytes
  std::vector<std::string> failures;  ///< output checks that did not hold
  std::vector<Metric> info;  ///< workload-specific, printed but not gated
  std::vector<double> ack_ms;  ///< per-upload server ack latency, if timed
};

class Workload {
 public:
  virtual ~Workload() = default;

  /// Construct the system under test (the setup_s interval).
  virtual void setup() = 0;
  /// Drive one pass through what setup() built.
  virtual Outcome run() = 0;
  /// Release what setup() built.
  virtual void reset() = 0;
  virtual Op op() const = 0;
  /// Spans entered exactly once per client update; the traced run checks
  /// their call counts against Outcome::updates.
  virtual std::vector<trace::Span> per_update_spans() const = 0;
};

/// Names of the workloads, in the order BENCHMARK.json lists them.
const std::vector<std::string>& workload_names();

/// nullptr for an unknown name.  `smoke` selects the ~1/20-size variant.
std::unique_ptr<Workload> make_workload(std::string_view name,
                                        std::uint64_t seed, bool smoke);

}  // namespace papaya::benchmark
