#pragma once
// Arbitrary-precision unsigned integers, from scratch.
//
// This is the arithmetic substrate for the RSA signatures that protect
// TACTIC tags.  Limbs are 64-bit, little-endian, always normalized (no
// leading zero limbs; zero is the empty limb vector); products and
// carries go through unsigned __int128.  Division is Knuth's Algorithm D;
// modular exponentiation uses Montgomery multiplication for odd moduli of
// up to 2048 bits (every RSA modulus the simulator builds) and falls back
// to divide-and-reduce otherwise.

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "util/bytes.hpp"
#include "util/rng.hpp"

namespace tactic::crypto {

class BigUInt {
 public:
  BigUInt() = default;
  BigUInt(std::uint64_t value);  // NOLINT(google-explicit-constructor)

  /// Big-endian byte-string conversions (the natural wire format for RSA).
  static BigUInt from_bytes_be(util::BytesView bytes);
  /// Serializes big-endian, left-padded with zeros to at least `min_size`.
  util::Bytes to_bytes_be(std::size_t min_size = 0) const;

  /// Hex conversions (test vectors, debugging).
  static BigUInt from_hex(std::string_view hex);
  std::string to_hex() const;

  bool is_zero() const { return limbs_.empty(); }
  bool is_odd() const { return !limbs_.empty() && (limbs_[0] & 1); }
  /// Number of significant bits; 0 for zero.
  std::size_t bit_length() const;
  /// Value of bit `i` (LSB = bit 0); false beyond bit_length().
  bool bit(std::size_t i) const;
  /// Value as uint64; throws std::overflow_error if it does not fit.
  std::uint64_t to_u64() const;
  /// Remainder modulo a single-limb divisor, without allocating; throws
  /// std::domain_error if `d` is zero.
  std::uint64_t mod_u64(std::uint64_t d) const;

  /// Three-way comparison: -1, 0, +1.
  int compare(const BigUInt& other) const;
  friend bool operator==(const BigUInt& a, const BigUInt& b) {
    return a.compare(b) == 0;
  }
  friend bool operator!=(const BigUInt& a, const BigUInt& b) {
    return a.compare(b) != 0;
  }
  friend bool operator<(const BigUInt& a, const BigUInt& b) {
    return a.compare(b) < 0;
  }
  friend bool operator<=(const BigUInt& a, const BigUInt& b) {
    return a.compare(b) <= 0;
  }
  friend bool operator>(const BigUInt& a, const BigUInt& b) {
    return a.compare(b) > 0;
  }
  friend bool operator>=(const BigUInt& a, const BigUInt& b) {
    return a.compare(b) >= 0;
  }

  BigUInt& operator+=(const BigUInt& rhs);
  /// Subtraction requires *this >= rhs; throws std::underflow_error.
  BigUInt& operator-=(const BigUInt& rhs);
  friend BigUInt operator+(BigUInt a, const BigUInt& b) { return a += b; }
  friend BigUInt operator-(BigUInt a, const BigUInt& b) { return a -= b; }
  friend BigUInt operator*(const BigUInt& a, const BigUInt& b);

  /// Quotient and remainder; throws std::domain_error on division by zero.
  static std::pair<BigUInt, BigUInt> divmod(const BigUInt& num,
                                            const BigUInt& den);
  friend BigUInt operator/(const BigUInt& a, const BigUInt& b) {
    return divmod(a, b).first;
  }
  friend BigUInt operator%(const BigUInt& a, const BigUInt& b) {
    return divmod(a, b).second;
  }

  BigUInt operator<<(std::size_t bits) const;
  BigUInt operator>>(std::size_t bits) const;

  /// base^exp mod mod; throws std::domain_error if mod is zero.  Odd
  /// moduli up to Montgomery::kMaxBits run in Montgomery form, all others
  /// by square-and-multiply with division.
  static BigUInt modexp(const BigUInt& base, const BigUInt& exp,
                        const BigUInt& mod);

  static BigUInt gcd(BigUInt a, BigUInt b);

  /// Modular inverse of `a` mod `m` (m >= 2), or nullopt when
  /// gcd(a, m) != 1.
  static std::optional<BigUInt> mod_inverse(const BigUInt& a,
                                            const BigUInt& m);

  /// Uniformly random integer with exactly `bits` bits (top bit set).
  static BigUInt random_bits(util::Rng& rng, std::size_t bits);
  /// Uniformly random integer in [0, bound); bound must be nonzero.
  static BigUInt random_below(util::Rng& rng, const BigUInt& bound);

 private:
  friend class Montgomery;
  using Limb = std::uint64_t;

  void normalize();
  /// `bits` random bits from one rng() per 32 bits, least-significant
  /// word first, keeping each draw's low 32 bits.
  static BigUInt random_words(util::Rng& rng, std::size_t bits);

  std::vector<Limb> limbs_;
};

/// Montgomery-form modular arithmetic for a fixed odd modulus.  Exposed so
/// each RSA key and each Miller-Rabin candidate builds its context once.
///
/// Products run in kernels of a fixed limb count, one per width: 4, 8, 16
/// and 32 limbs (256- to 2048-bit moduli).  A narrower modulus pads with
/// zero limbs up to the next width, so R = 2^(64 width).  Above 2048 bits
/// there is no kernel: the constructor throws, BigUInt::modexp reduces by
/// division instead, and RSA keys stop at 2048 bits.
class Montgomery {
 public:
  static constexpr std::size_t kMaxBits = 2048;

  /// Modulus must be odd, > 1 and at most kMaxBits bits; throws
  /// std::invalid_argument otherwise.
  explicit Montgomery(BigUInt modulus);

  const BigUInt& modulus() const { return modulus_; }

  /// base^exp mod modulus, left to right over Montgomery products: bit by
  /// bit for exponents of up to 64 bits, with a fixed 4-bit window above.
  /// Every squaring step runs the squaring kernel.  Allocates once, for
  /// the result.
  BigUInt exp(const BigUInt& base, const BigUInt& exp) const;

  /// Montgomery multiplications and squarings by every context in the
  /// process so far: exact work counters for tests and profiling.  They
  /// feed no fingerprint (the simulator is single-threaded).
  static std::uint64_t multiplies();
  static std::uint64_t squarings();

 private:
  using Limb = BigUInt::Limb;

  template <std::size_t W>
  BigUInt exp_fixed(const BigUInt& base, const BigUInt& exp) const;

  BigUInt modulus_;
  std::size_t width_ = 0;  // kernel limbs: 4, 8, 16 or 32
  Limb n0_inv_ = 0;        // -n^{-1} mod 2^64
  // The modulus, then R^2 mod n, each padded to width_ limbs.
  std::vector<Limb> padded_;
};

}  // namespace tactic::crypto
