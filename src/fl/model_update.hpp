#pragma once
// Client model updates and their weighting (Sec. 3.1, App. E.2).
//
// A model update is the difference between the locally trained model and the
// model the client downloaded.  Updates are weighted by the square root of
// the number of training examples (linear weighting would let one data-heavy
// client dominate a small buffer) and down-weighted by staleness:
// w = 1 / sqrt(1 + s), where s = version_at_upload - version_at_download.
// The server computes the weight from the header when a report arrives
// (Aggregator::client_report, and Aggregator::secure_update_weight on the
// SecAgg path) and refuses an update whose weight is not a positive finite
// number.

#include <cstdint>
#include <span>
#include <vector>

#include "util/bytes.hpp"

namespace papaya::fl {

struct ModelUpdate {
  std::uint64_t client_id = 0;
  /// Server model version the client started training from.
  std::uint64_t initial_version = 0;
  /// Number of local training examples (weighting, Sec. 3.1).
  std::size_t num_examples = 0;
  /// trained_params - initial_params.
  std::vector<float> delta;

  /// Wire format used between client and Aggregator (clients upload the
  /// serialized update in chunks; the Aggregator's queue holds these bytes
  /// until a worker deserializes them, Sec. 6.3).
  util::Bytes serialize() const;
  static ModelUpdate deserialize(const util::Bytes& bytes);
};

/// The fixed-size head of ModelUpdate's wire format: the three scalar fields
/// and the delta's length prefix, 32 bytes in all.
struct UpdateHeader {
  static constexpr std::size_t kBytes = 4 * sizeof(std::uint64_t);

  std::uint64_t client_id = 0;
  std::uint64_t initial_version = 0;
  std::size_t num_examples = 0;
  std::uint64_t delta_size = 0;

  /// Reads a serialized update's header without decoding its delta.  Throws
  /// std::out_of_range when the bytes end before the header or before the
  /// `delta_size` floats it declares, or go on past them: the check
  /// ModelUpdate::deserialize applies, so a header that reads cleanly heads
  /// a decodable update.
  static UpdateHeader read(std::span<const std::uint8_t> bytes);
};

/// Staleness down-weighting families.  The paper (App. E.2) uses the
/// inverse-sqrt scheme of Nguyen et al. 2021; the others are the standard
/// alternatives from Xie et al. 2019, implemented for the weighting
/// ablation (bench_ablation_weighting).
enum class StalenessScheme {
  kInverseSqrt,  ///< 1 / sqrt(1 + s) — the paper's production choice
  kConstant,     ///< 1 (no down-weighting)
  kInversePoly,  ///< (1 + s)^-a for a configurable exponent a
  kHinge,        ///< 1 for s <= b, then 1 / (1 + a (s - b))
};

const char* to_string(StalenessScheme scheme);

/// Knobs for the parametric schemes; ignored by kInverseSqrt/kConstant.
struct StalenessParams {
  double exponent = 0.5;          ///< a in kInversePoly
  std::uint64_t hinge_cutoff = 10;///< b in kHinge
  double hinge_slope = 0.2;       ///< a in kHinge
};

/// Weight of an update with staleness `s` under the given scheme.  Always in
/// (0, 1]; equals 1 at s = 0 for every scheme.
double staleness_weight(StalenessScheme scheme, std::uint64_t staleness,
                        const StalenessParams& params = {});

/// Staleness down-weighting from Nguyen et al. 2021 (App. E.2):
/// 1 / sqrt(1 + s), the paper's default scheme.
double staleness_weight(std::uint64_t staleness);

}  // namespace papaya::fl
