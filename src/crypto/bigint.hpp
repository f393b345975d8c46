#pragma once
// Arbitrary-precision unsigned integers with modular arithmetic.
//
// Backs the finite-field Diffie–Hellman key exchange (App. A.1).  Scope is
// deliberately narrow: add, sub, compare, multiply, shift, divide/mod, and
// modular exponentiation — exactly what modexp-based DH needs.  Little-endian
// limb order (limbs_[0] is least significant).

#include <cstdint>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "util/bytes.hpp"

namespace papaya::crypto {

class BigUInt {
 public:
  BigUInt() = default;
  explicit BigUInt(std::uint64_t v);

  /// Parse big-endian hex (as printed in RFC group definitions).
  static BigUInt from_hex(const std::string& hex);
  /// Parse big-endian bytes.
  static BigUInt from_bytes(std::span<const std::uint8_t> bytes);

  /// Serialize to big-endian bytes, zero-padded/truncated to `width` bytes
  /// (0 = minimal width).
  util::Bytes to_bytes(std::size_t width = 0) const;
  std::string to_hex() const;

  bool is_zero() const;
  std::size_t bit_length() const;
  bool bit(std::size_t i) const;

  // Comparison.
  int compare(const BigUInt& other) const;
  bool operator==(const BigUInt& other) const { return compare(other) == 0; }
  bool operator!=(const BigUInt& other) const { return compare(other) != 0; }
  bool operator<(const BigUInt& other) const { return compare(other) < 0; }
  bool operator<=(const BigUInt& other) const { return compare(other) <= 0; }
  bool operator>(const BigUInt& other) const { return compare(other) > 0; }
  bool operator>=(const BigUInt& other) const { return compare(other) >= 0; }

  BigUInt operator+(const BigUInt& other) const;
  /// Subtraction; throws std::underflow_error if other > *this.
  BigUInt operator-(const BigUInt& other) const;
  BigUInt operator*(const BigUInt& other) const;
  BigUInt operator<<(std::size_t bits) const;
  BigUInt operator>>(std::size_t bits) const;

  /// {quotient, remainder} by Knuth's Algorithm D over 64-bit limbs (short
  /// division for a one-limb divisor).
  std::pair<BigUInt, BigUInt> divmod(const BigUInt& divisor) const;
  BigUInt operator%(const BigUInt& m) const { return divmod(m).second; }
  BigUInt operator/(const BigUInt& m) const { return divmod(m).first; }

  /// (this * other) mod m.
  BigUInt mulmod(const BigUInt& other, const BigUInt& m) const;
  /// this^exp mod m.  An odd modulus (every DH group, the Shamir prime)
  /// takes 4-bit fixed-window exponentiation over Montgomery multiplication;
  /// an even one takes square-and-multiply over mulmod.  The generator of
  /// DhParams::simulation256() raised mod its p to an exponent of at most
  /// 256 bits (key generation) takes a precomputed comb instead, built on
  /// the first such call.  Variable time: fine for simulation, not intended
  /// for production cryptography.
  BigUInt powmod(const BigUInt& exp, const BigUInt& m) const;

  /// Uniform value in [0, bound) from a caller-supplied byte source
  /// (rejection sampling).  `random_bytes(n)` must return n fresh bytes.
  template <typename ByteSource>
  static BigUInt random_below(const BigUInt& bound, ByteSource&& random_bytes) {
    const std::size_t nbytes = (bound.bit_length() + 7) / 8;
    for (;;) {
      BigUInt candidate = from_bytes(random_bytes(nbytes));
      if (candidate < bound) return candidate;
    }
  }

 private:
  void trim();

  std::vector<std::uint64_t> limbs_;  // little-endian; empty == 0
};

}  // namespace papaya::crypto
