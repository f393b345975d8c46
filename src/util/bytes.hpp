#pragma once
// Byte-buffer serialization used by the FL wire protocol and SecAgg.
//
// Little-endian, length-prefixed, append-only writer + bounds-checked reader.
// Deliberately tiny: the protocol only needs integers, doubles, raw byte
// strings, and float vectors (serialized model updates).

#include <bit>
#include <cstdint>
#include <cstring>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

// The wire-format layer (and everything above it) requires C++20: std::span
// is used pervasively in public signatures.  Failing here gives a one-line
// diagnostic instead of the std::span template spew a C++17 build produces.
// MSVC keeps __cplusplus at 199711L unless /Zc:__cplusplus is passed, so its
// real language level is read from _MSVC_LANG.
#if defined(_MSVC_LANG)
static_assert(_MSVC_LANG >= 202002L,
              "papaya requires C++20 (std::span); build with /std:c++20");
#else
static_assert(__cplusplus >= 202002L,
              "papaya requires C++20 (std::span); "
              "configure with -DCMAKE_CXX_STANDARD=20 or -std=c++20");
#endif

namespace papaya::util {

using Bytes = std::vector<std::uint8_t>;

/// Append-only little-endian writer.
class ByteWriter {
 public:
  void u8(std::uint8_t v) { buf_.push_back(v); }

  void u32(std::uint32_t v) {
    for (int i = 0; i < 4; ++i) buf_.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
  }

  void u64(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) buf_.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
  }

  void f64(double v) {
    std::uint64_t bits;
    std::memcpy(&bits, &v, sizeof(bits));
    u64(bits);
  }

  void f32(float v) {
    std::uint32_t bits;
    std::memcpy(&bits, &v, sizeof(bits));
    u32(bits);
  }

  /// Length-prefixed byte string.
  void bytes(std::span<const std::uint8_t> b) {
    u64(b.size());
    buf_.insert(buf_.end(), b.begin(), b.end());
  }

  /// Raw bytes, no length prefix (caller knows the framing).
  void raw(std::span<const std::uint8_t> b) {
    buf_.insert(buf_.end(), b.begin(), b.end());
  }

  void str(const std::string& s) {
    bytes({reinterpret_cast<const std::uint8_t*>(s.data()), s.size()});
  }

  /// Length-prefixed float vector.
  void floats(std::span<const float> v) {
    u64(v.size());
    for (float x : v) f32(x);
  }

  /// Pre-size for a message of known length, so no write reallocates.
  void reserve(std::size_t n) { buf_.reserve(n); }

  const Bytes& data() const& { return buf_; }
  Bytes take() && { return std::move(buf_); }
  std::size_t size() const { return buf_.size(); }

 private:
  Bytes buf_;
};

/// Bounds-checked little-endian reader.  Throws std::out_of_range on
/// truncated input (malformed messages must not crash the server).
class ByteReader {
 public:
  explicit ByteReader(std::span<const std::uint8_t> data) : data_(data) {}

  std::uint8_t u8() { return take(1)[0]; }

  std::uint32_t u32() {
    const auto b = take(4);
    std::uint32_t v = 0;
    for (int i = 0; i < 4; ++i) v |= static_cast<std::uint32_t>(b[i]) << (8 * i);
    return v;
  }

  std::uint64_t u64() {
    const auto b = take(8);
    std::uint64_t v = 0;
    for (int i = 0; i < 8; ++i) v |= static_cast<std::uint64_t>(b[i]) << (8 * i);
    return v;
  }

  double f64() {
    const std::uint64_t bits = u64();
    double v;
    std::memcpy(&v, &bits, sizeof(v));
    return v;
  }

  float f32() {
    const std::uint32_t bits = u32();
    float v;
    std::memcpy(&v, &bits, sizeof(v));
    return v;
  }

  Bytes bytes() {
    const std::uint64_t n = u64();
    const auto b = take(n);
    return Bytes(b.begin(), b.end());
  }

  std::string str() {
    const Bytes b = bytes();
    return std::string(b.begin(), b.end());
  }

  std::vector<float> floats() {
    const std::uint64_t n = u64();
    // Bounds-check the whole payload up front (division form, so a hostile
    // count cannot overflow — or allocate gigabytes before the first
    // element's read would have thrown).
    if (n > remaining() / 4) {
      throw std::out_of_range("ByteReader: truncated message");
    }
    std::vector<float> v(n);
    if constexpr (std::endian::native == std::endian::little) {
      // The wire format is LE IEEE-754, so on LE hosts the payload is
      // already the in-memory representation: one memcpy instead of
      // assembling every f32 from four byte loads (this is the hottest
      // loop in server-side aggregation).
      if (n > 0) {
        std::memcpy(v.data(), data_.data() + pos_, n * 4);
        pos_ += n * 4;
      }
    } else {
      for (auto& x : v) x = f32();
    }
    return v;
  }

  std::size_t remaining() const { return data_.size() - pos_; }
  bool done() const { return remaining() == 0; }

 private:
  std::span<const std::uint8_t> take(std::uint64_t n) {
    if (n > remaining()) {
      throw std::out_of_range("ByteReader: truncated message");
    }
    const auto out = data_.subspan(pos_, n);
    pos_ += n;
    return out;
  }

  std::span<const std::uint8_t> data_;
  std::size_t pos_ = 0;
};

/// Constant-time byte-equality (for MAC comparison).
bool constant_time_equal(std::span<const std::uint8_t> a,
                         std::span<const std::uint8_t> b);

/// Hex encoding, for logs and attestation digests.
std::string to_hex(std::span<const std::uint8_t> b);

}  // namespace papaya::util
