#include "fl/model_update.hpp"

#include <cmath>
#include <stdexcept>

namespace papaya::fl {

util::Bytes ModelUpdate::serialize() const {
  util::ByteWriter w;
  w.u64(client_id);
  w.u64(initial_version);
  w.u64(num_examples);
  w.floats(delta);
  return std::move(w).take();
}

ModelUpdate ModelUpdate::deserialize(const util::Bytes& bytes) {
  const UpdateHeader header = UpdateHeader::read(bytes);
  // The delta decodes from its length prefix, the header's last field.
  const auto delta = std::span<const std::uint8_t>(bytes).subspan(
      UpdateHeader::kBytes - sizeof(std::uint64_t));
  ModelUpdate out;
  out.client_id = header.client_id;
  out.initial_version = header.initial_version;
  out.num_examples = header.num_examples;
  out.delta = util::ByteReader(delta).floats();
  return out;
}

UpdateHeader UpdateHeader::read(std::span<const std::uint8_t> bytes) {
  util::ByteReader r(bytes);
  UpdateHeader header;
  header.client_id = r.u64();
  header.initial_version = r.u64();
  header.num_examples = r.u64();
  header.delta_size = r.u64();
  // Division form, as in ByteReader::floats: a hostile count cannot overflow.
  if (header.delta_size > r.remaining() / 4) {
    throw std::out_of_range("ModelUpdate: truncated delta");
  }
  // The update ends with its last float, so one byte string is one update.
  if (r.remaining() != header.delta_size * 4) {
    throw std::out_of_range("ModelUpdate: trailing bytes");
  }
  return header;
}

const char* to_string(StalenessScheme scheme) {
  switch (scheme) {
    case StalenessScheme::kInverseSqrt:
      return "inverse-sqrt";
    case StalenessScheme::kConstant:
      return "constant";
    case StalenessScheme::kInversePoly:
      return "inverse-poly";
    case StalenessScheme::kHinge:
      return "hinge";
  }
  return "?";
}

double staleness_weight(StalenessScheme scheme, std::uint64_t staleness,
                        const StalenessParams& params) {
  const double s = static_cast<double>(staleness);
  switch (scheme) {
    case StalenessScheme::kInverseSqrt:
      return 1.0 / std::sqrt(1.0 + s);
    case StalenessScheme::kConstant:
      return 1.0;
    case StalenessScheme::kInversePoly:
      return std::pow(1.0 + s, -params.exponent);
    case StalenessScheme::kHinge:
      if (staleness <= params.hinge_cutoff) return 1.0;
      return 1.0 / (1.0 + params.hinge_slope *
                              (s - static_cast<double>(params.hinge_cutoff)));
  }
  return 1.0;
}

double staleness_weight(std::uint64_t staleness) {
  return staleness_weight(StalenessScheme::kInverseSqrt, staleness);
}

}  // namespace papaya::fl
