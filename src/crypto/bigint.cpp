#include "crypto/bigint.hpp"

#include <algorithm>
#include <stdexcept>

namespace papaya::crypto {

namespace {

using u128 = unsigned __int128;

int hex_val(char c) {
  if (c >= '0' && c <= '9') return c - '0';
  if (c >= 'a' && c <= 'f') return c - 'a' + 10;
  if (c >= 'A' && c <= 'F') return c - 'A' + 10;
  throw std::invalid_argument("BigUInt::from_hex: invalid hex digit");
}

// out[0..n] = in[0..n) << s for 0 <= s < 64.  The s == 0 case is split out
// so no limb is ever shifted by 64.
void shift_left_limbs(const std::uint64_t* in, std::size_t n, unsigned s,
                      std::uint64_t* out) {
  if (s == 0) {
    std::copy_n(in, n, out);
    out[n] = 0;
    return;
  }
  out[n] = in[n - 1] >> (64 - s);
  for (std::size_t i = n - 1; i > 0; --i) {
    out[i] = (in[i] << s) | (in[i - 1] >> (64 - s));
  }
  out[0] = in[0] << s;
}

// -m^-1 mod 2^64 for odd m0, by Newton iteration: m0 is its own inverse mod
// 8, and each step doubles the number of correct low bits (3 -> 96).
std::uint64_t neg_inverse(std::uint64_t m0) {
  std::uint64_t x = m0;
  for (int i = 0; i < 5; ++i) x *= 2 - m0 * x;
  return 0 - x;
}

// Montgomery multiplication, CIOS form (Koc, Acar & Kaliski 1996):
// out = a * b * R^-1 mod m with R = 2^(64n), for n-limb a, b < m and odd m.
// `t` is n + 2 limbs of scratch.  `out` may alias `a` or `b`: both are read
// only before it is written.
void mont_mul(const std::uint64_t* a, const std::uint64_t* b,
              const std::uint64_t* m, std::uint64_t m_inv, std::size_t n,
              std::uint64_t* t, std::uint64_t* out) {
  std::fill_n(t, n + 2, 0);
  for (std::size_t i = 0; i < n; ++i) {
    std::uint64_t carry = 0;
    for (std::size_t j = 0; j < n; ++j) {
      const u128 s = static_cast<u128>(a[j]) * b[i] + t[j] + carry;
      t[j] = static_cast<std::uint64_t>(s);
      carry = static_cast<std::uint64_t>(s >> 64);
    }
    u128 s = static_cast<u128>(t[n]) + carry;
    t[n] = static_cast<std::uint64_t>(s);
    t[n + 1] = static_cast<std::uint64_t>(s >> 64);

    // Add q*m, with q chosen so the low limb cancels, and drop that limb.
    const std::uint64_t q = t[0] * m_inv;
    s = static_cast<u128>(q) * m[0] + t[0];
    carry = static_cast<std::uint64_t>(s >> 64);
    for (std::size_t j = 1; j < n; ++j) {
      s = static_cast<u128>(q) * m[j] + t[j] + carry;
      t[j - 1] = static_cast<std::uint64_t>(s);
      carry = static_cast<std::uint64_t>(s >> 64);
    }
    s = static_cast<u128>(t[n]) + carry;
    t[n - 1] = static_cast<std::uint64_t>(s);
    t[n] = t[n + 1] + static_cast<std::uint64_t>(s >> 64);
  }

  // t < 2m: at most one subtraction brings it below m.
  bool at_least_m = t[n] != 0;
  if (!at_least_m) {
    at_least_m = true;
    for (std::size_t j = n; j-- > 0;) {
      if (t[j] != m[j]) {
        at_least_m = t[j] > m[j];
        break;
      }
    }
  }
  if (!at_least_m) {
    std::copy_n(t, n, out);
    return;
  }
  std::uint64_t borrow = 0;
  for (std::size_t j = 0; j < n; ++j) {
    const u128 d = static_cast<u128>(t[j]) - m[j] - borrow;
    out[j] = static_cast<std::uint64_t>(d);
    borrow = static_cast<std::uint64_t>(d >> 64) & 1;
  }
}

}  // namespace

BigUInt::BigUInt(std::uint64_t v) {
  if (v != 0) limbs_.push_back(v);
}

void BigUInt::trim() {
  while (!limbs_.empty() && limbs_.back() == 0) limbs_.pop_back();
}

BigUInt BigUInt::from_hex(const std::string& hex) {
  BigUInt out;
  for (char c : hex) {
    if (c == ' ' || c == '\n' || c == '\t') continue;
    out = (out << 4) + BigUInt(static_cast<std::uint64_t>(hex_val(c)));
  }
  return out;
}

BigUInt BigUInt::from_bytes(std::span<const std::uint8_t> bytes) {
  BigUInt out;
  const std::size_t nlimbs = (bytes.size() + 7) / 8;
  out.limbs_.assign(nlimbs, 0);
  // bytes are big-endian; limb 0 is least significant.
  for (std::size_t i = 0; i < bytes.size(); ++i) {
    const std::size_t byte_from_lsb = bytes.size() - 1 - i;
    out.limbs_[byte_from_lsb / 8] |= static_cast<std::uint64_t>(bytes[i])
                                     << (8 * (byte_from_lsb % 8));
  }
  out.trim();
  return out;
}

util::Bytes BigUInt::to_bytes(std::size_t width) const {
  const std::size_t min_width = (bit_length() + 7) / 8;
  const std::size_t w = width == 0 ? std::max<std::size_t>(min_width, 1) : width;
  util::Bytes out(w, 0);
  for (std::size_t i = 0; i < w; ++i) {
    const std::size_t byte_from_lsb = i;
    const std::size_t limb = byte_from_lsb / 8;
    if (limb >= limbs_.size()) break;
    out[w - 1 - i] =
        static_cast<std::uint8_t>(limbs_[limb] >> (8 * (byte_from_lsb % 8)));
  }
  return out;
}

std::string BigUInt::to_hex() const {
  if (is_zero()) return "0";
  static const char* digits = "0123456789abcdef";
  std::string out;
  for (auto it = limbs_.rbegin(); it != limbs_.rend(); ++it) {
    for (int shift = 60; shift >= 0; shift -= 4) {
      out.push_back(digits[(*it >> shift) & 0xf]);
    }
  }
  const auto first = out.find_first_not_of('0');
  return out.substr(first);
}

bool BigUInt::is_zero() const { return limbs_.empty(); }

std::size_t BigUInt::bit_length() const {
  if (limbs_.empty()) return 0;
  const std::uint64_t top = limbs_.back();
  return (limbs_.size() - 1) * 64 +
         (64 - static_cast<std::size_t>(__builtin_clzll(top)));
}

bool BigUInt::bit(std::size_t i) const {
  const std::size_t limb = i / 64;
  if (limb >= limbs_.size()) return false;
  return (limbs_[limb] >> (i % 64)) & 1;
}

int BigUInt::compare(const BigUInt& other) const {
  if (limbs_.size() != other.limbs_.size()) {
    return limbs_.size() < other.limbs_.size() ? -1 : 1;
  }
  for (std::size_t i = limbs_.size(); i-- > 0;) {
    if (limbs_[i] != other.limbs_[i]) return limbs_[i] < other.limbs_[i] ? -1 : 1;
  }
  return 0;
}

BigUInt BigUInt::operator+(const BigUInt& other) const {
  BigUInt out;
  const std::size_t n = std::max(limbs_.size(), other.limbs_.size());
  out.limbs_.assign(n + 1, 0);
  unsigned __int128 carry = 0;
  for (std::size_t i = 0; i < n; ++i) {
    unsigned __int128 s = carry;
    if (i < limbs_.size()) s += limbs_[i];
    if (i < other.limbs_.size()) s += other.limbs_[i];
    out.limbs_[i] = static_cast<std::uint64_t>(s);
    carry = s >> 64;
  }
  out.limbs_[n] = static_cast<std::uint64_t>(carry);
  out.trim();
  return out;
}

BigUInt BigUInt::operator-(const BigUInt& other) const {
  if (*this < other) {
    throw std::underflow_error("BigUInt: subtraction underflow");
  }
  BigUInt out;
  out.limbs_.assign(limbs_.size(), 0);
  std::uint64_t borrow = 0;
  for (std::size_t i = 0; i < limbs_.size(); ++i) {
    const std::uint64_t rhs = i < other.limbs_.size() ? other.limbs_[i] : 0;
    const std::uint64_t lhs = limbs_[i];
    const std::uint64_t d1 = lhs - rhs;
    const std::uint64_t b1 = lhs < rhs;
    const std::uint64_t d2 = d1 - borrow;
    const std::uint64_t b2 = d1 < borrow;
    out.limbs_[i] = d2;
    borrow = b1 | b2;
  }
  out.trim();
  return out;
}

BigUInt BigUInt::operator*(const BigUInt& other) const {
  if (is_zero() || other.is_zero()) return BigUInt();
  BigUInt out;
  out.limbs_.assign(limbs_.size() + other.limbs_.size(), 0);
  for (std::size_t i = 0; i < limbs_.size(); ++i) {
    unsigned __int128 carry = 0;
    for (std::size_t j = 0; j < other.limbs_.size(); ++j) {
      unsigned __int128 cur =
          static_cast<unsigned __int128>(limbs_[i]) * other.limbs_[j] +
          out.limbs_[i + j] + carry;
      out.limbs_[i + j] = static_cast<std::uint64_t>(cur);
      carry = cur >> 64;
    }
    out.limbs_[i + other.limbs_.size()] += static_cast<std::uint64_t>(carry);
  }
  out.trim();
  return out;
}

BigUInt BigUInt::operator<<(std::size_t bits) const {
  if (is_zero() || bits == 0) {
    BigUInt out = *this;
    return out;
  }
  const std::size_t limb_shift = bits / 64;
  const std::size_t bit_shift = bits % 64;
  BigUInt out;
  out.limbs_.assign(limbs_.size() + limb_shift + 1, 0);
  for (std::size_t i = 0; i < limbs_.size(); ++i) {
    out.limbs_[i + limb_shift] |= limbs_[i] << bit_shift;
    if (bit_shift != 0) {
      out.limbs_[i + limb_shift + 1] |= limbs_[i] >> (64 - bit_shift);
    }
  }
  out.trim();
  return out;
}

BigUInt BigUInt::operator>>(std::size_t bits) const {
  const std::size_t limb_shift = bits / 64;
  const std::size_t bit_shift = bits % 64;
  if (limb_shift >= limbs_.size()) return BigUInt();
  BigUInt out;
  out.limbs_.assign(limbs_.size() - limb_shift, 0);
  for (std::size_t i = 0; i < out.limbs_.size(); ++i) {
    out.limbs_[i] = limbs_[i + limb_shift] >> bit_shift;
    if (bit_shift != 0 && i + limb_shift + 1 < limbs_.size()) {
      out.limbs_[i] |= limbs_[i + limb_shift + 1] << (64 - bit_shift);
    }
  }
  out.trim();
  return out;
}

std::pair<BigUInt, BigUInt> BigUInt::divmod(const BigUInt& divisor) const {
  if (divisor.is_zero()) {
    throw std::domain_error("BigUInt: division by zero");
  }
  if (*this < divisor) return {BigUInt(), *this};

  const std::size_t n = divisor.limbs_.size();
  const std::size_t m = limbs_.size() - n;
  BigUInt quotient;
  quotient.limbs_.assign(m + 1, 0);

  if (n == 1) {
    // Short division by a single limb.
    const std::uint64_t d = divisor.limbs_[0];
    std::uint64_t r = 0;
    for (std::size_t i = limbs_.size(); i-- > 0;) {
      const u128 cur = (static_cast<u128>(r) << 64) | limbs_[i];
      quotient.limbs_[i] = static_cast<std::uint64_t>(cur / d);
      r = static_cast<std::uint64_t>(cur % d);
    }
    quotient.trim();
    return {quotient, BigUInt(r)};
  }

  // Knuth, TAOCP Vol. 2, 4.3.1, Algorithm D over 64-bit limbs.  Variable
  // time, which is fine for simulation; not intended for production
  // cryptography.
  // D1: normalise so the divisor's top limb has its high bit set.
  const unsigned s =
      static_cast<unsigned>(__builtin_clzll(divisor.limbs_.back()));
  std::vector<std::uint64_t> v(n + 1);
  std::vector<std::uint64_t> u(limbs_.size() + 1);
  shift_left_limbs(divisor.limbs_.data(), n, s, v.data());
  shift_left_limbs(limbs_.data(), limbs_.size(), s, u.data());
  const std::uint64_t v_top = v[n - 1];
  const std::uint64_t v_next = v[n - 2];

  for (std::size_t j = m + 1; j-- > 0;) {
    // D3: estimate q from the top two limbs; the loop makes it exact or one
    // too large.
    const u128 top = (static_cast<u128>(u[j + n]) << 64) | u[j + n - 1];
    u128 q_hat = top / v_top;
    u128 r_hat = top % v_top;
    while (q_hat >> 64 != 0 ||
           q_hat * v_next > ((r_hat << 64) | u[j + n - 2])) {
      --q_hat;
      r_hat += v_top;
      if (r_hat >> 64 != 0) break;
    }

    // D4: u[j..j+n] -= q_hat * v.
    std::uint64_t mul_carry = 0;
    std::uint64_t borrow = 0;
    for (std::size_t i = 0; i < n; ++i) {
      const u128 p = q_hat * v[i] + mul_carry;
      mul_carry = static_cast<std::uint64_t>(p >> 64);
      const u128 d = static_cast<u128>(u[i + j]) -
                     static_cast<std::uint64_t>(p) - borrow;
      u[i + j] = static_cast<std::uint64_t>(d);
      borrow = static_cast<std::uint64_t>(d >> 64) & 1;
    }
    const u128 d = static_cast<u128>(u[j + n]) - mul_carry - borrow;
    u[j + n] = static_cast<std::uint64_t>(d);

    // D5/D6: if that went negative, q_hat was one too large; add v back.
    if ((d >> 64) != 0) {
      --q_hat;
      std::uint64_t carry = 0;
      for (std::size_t i = 0; i < n; ++i) {
        const u128 sum = static_cast<u128>(u[i + j]) + v[i] + carry;
        u[i + j] = static_cast<std::uint64_t>(sum);
        carry = static_cast<std::uint64_t>(sum >> 64);
      }
      u[j + n] += carry;  // the carry out cancels the borrow
    }
    quotient.limbs_[j] = static_cast<std::uint64_t>(q_hat);
  }

  // D8: the remainder is u[0..n) shifted back down.
  BigUInt remainder;
  remainder.limbs_.assign(n, 0);
  for (std::size_t i = 0; i < n; ++i) {
    remainder.limbs_[i] =
        s == 0 ? u[i] : (u[i] >> s) | (u[i + 1] << (64 - s));
  }
  quotient.trim();
  remainder.trim();
  return {quotient, remainder};
}

BigUInt BigUInt::mulmod(const BigUInt& other, const BigUInt& m) const {
  return ((*this) * other) % m;
}

BigUInt BigUInt::powmod(const BigUInt& exp, const BigUInt& m) const {
  if (m.is_zero()) throw std::domain_error("BigUInt: powmod modulus zero");
  if (exp.is_zero()) return BigUInt(1) % m;
  const BigUInt base = *this % m;

  if (!m.bit(0)) {
    // Montgomery needs an odd modulus; even ones (tests only) take
    // square-and-multiply over mulmod.
    BigUInt result(1);
    for (std::size_t i = exp.bit_length(); i-- > 0;) {
      result = result.mulmod(result, m);
      if (exp.bit(i)) result = result.mulmod(base, m);
    }
    return result;
  }

  // 4-bit fixed-window exponentiation over Montgomery multiplication.
  const std::size_t n = m.limbs_.size();
  const std::uint64_t m_inv = neg_inverse(m.limbs_[0]);
  const std::uint64_t* mod = m.limbs_.data();
  // One allocation of n-limb buffers: table[k] = base^k * R mod m for
  // k = 1..15 (table[0] holds a plain 1 for the conversion out), the
  // accumulator, and mont_mul's n + 2 limbs of scratch.
  std::vector<std::uint64_t> scratch(16 * n + n + (n + 2), 0);
  std::uint64_t* table = scratch.data();
  std::uint64_t* acc = table + 16 * n;
  std::uint64_t* t = acc + n;
  const auto entry = [&](std::size_t k) { return table + k * n; };
  entry(0)[0] = 1;

  // Into Montgomery form: base * R = mont_mul(base, R^2 mod m).
  BigUInt r_squared;
  r_squared.limbs_.assign(2 * n + 1, 0);
  r_squared.limbs_.back() = 1;
  r_squared = r_squared % m;
  std::copy(r_squared.limbs_.begin(), r_squared.limbs_.end(), acc);
  std::copy(base.limbs_.begin(), base.limbs_.end(), entry(1));
  mont_mul(entry(1), acc, mod, m_inv, n, t, entry(1));
  for (std::size_t k = 2; k < 16; ++k) {
    mont_mul(entry(k - 1), entry(1), mod, m_inv, n, t, entry(k));
  }

  // Windows never straddle a limb because 4 divides 64.
  const auto window = [&](std::size_t w) {
    const std::size_t bit = 4 * w;
    return static_cast<std::size_t>((exp.limbs_[bit / 64] >> (bit % 64)) & 0xf);
  };
  std::size_t w = (exp.bit_length() - 1) / 4;
  std::copy_n(entry(window(w)), n, acc);
  while (w-- > 0) {
    for (int i = 0; i < 4; ++i) {
      mont_mul(acc, acc, mod, m_inv, n, t, acc);
    }
    if (const std::size_t k = window(w); k != 0) {
      mont_mul(acc, entry(k), mod, m_inv, n, t, acc);
    }
  }

  // Out of Montgomery form: multiply by 1.
  mont_mul(acc, entry(0), mod, m_inv, n, t, acc);
  BigUInt out;
  out.limbs_.assign(acc, acc + n);
  out.trim();
  return out;
}

}  // namespace papaya::crypto
