#include "crypto/bignum.hpp"

#include <algorithm>
#include <bit>
#include <cassert>
#include <stdexcept>

namespace tactic::crypto {

namespace {

using Limb = std::uint64_t;
using Wide = unsigned __int128;

/// a * b + c + carry; returns the low limb and leaves the high one in
/// `carry`.  Cannot overflow: (2^64 - 1)^2 + 2 (2^64 - 1) = 2^128 - 1.
/// The adds run on 64-bit halves, which compile to add/adc pairs; a
/// 128-bit sum of zero-extended limbs makes GCC spill them to the stack.
Limb mul_add(Limb a, Limb b, Limb c, Limb& carry) {
  const Wide t = Wide{a} * b;
  Limb low = static_cast<Limb>(t);
  Limb high = static_cast<Limb>(t >> 64);
  low += c;
  high += low < c;
  low += carry;
  high += low < carry;
  carry = high;
  return low;
}

/// a - b - borrow; returns the low limb and sets `borrow` to 0 or 1.
Limb sub_borrow(Limb a, Limb b, Limb& borrow) {
  const Wide diff = Wide{a} - b - borrow;
  borrow = static_cast<Limb>(diff >> 127);
  return static_cast<Limb>(diff);
}

}  // namespace

BigUInt::BigUInt(std::uint64_t value) {
  if (value != 0) limbs_.push_back(value);
}

void BigUInt::normalize() {
  while (!limbs_.empty() && limbs_.back() == 0) limbs_.pop_back();
}

BigUInt BigUInt::from_bytes_be(util::BytesView bytes) {
  BigUInt out;
  out.limbs_.assign((bytes.size() + 7) / 8, 0);
  for (std::size_t i = 0; i < bytes.size(); ++i) {
    out.limbs_[i / 8] |= Limb{bytes[bytes.size() - 1 - i]} << (8 * (i % 8));
  }
  out.normalize();
  return out;
}

util::Bytes BigUInt::to_bytes_be(std::size_t min_size) const {
  util::Bytes out;
  const std::size_t significant = (bit_length() + 7) / 8;
  const std::size_t size = std::max(significant, min_size);
  out.assign(size, 0);
  for (std::size_t i = 0; i < significant; ++i) {
    out[size - 1 - i] =
        static_cast<std::uint8_t>(limbs_[i / 8] >> (8 * (i % 8)));
  }
  return out;
}

BigUInt BigUInt::from_hex(std::string_view hex) {
  if (hex.size() % 2 != 0) {
    return from_bytes_be(util::from_hex("0" + std::string(hex)));
  }
  return from_bytes_be(util::from_hex(hex));
}

std::string BigUInt::to_hex() const {
  if (is_zero()) return "0";
  std::string s = util::to_hex(to_bytes_be());
  const std::size_t nonzero = s.find_first_not_of('0');
  return s.substr(nonzero);
}

std::size_t BigUInt::bit_length() const {
  if (limbs_.empty()) return 0;
  return 64 * (limbs_.size() - 1) + std::bit_width(limbs_.back());
}

bool BigUInt::bit(std::size_t i) const {
  const std::size_t limb = i / 64;
  if (limb >= limbs_.size()) return false;
  return (limbs_[limb] >> (i % 64)) & 1;
}

std::uint64_t BigUInt::to_u64() const {
  if (limbs_.size() > 1) throw std::overflow_error("BigUInt: > 64 bits");
  return limbs_.empty() ? 0 : limbs_[0];
}

std::uint64_t BigUInt::mod_u64(std::uint64_t d) const {
  if (d == 0) throw std::domain_error("BigUInt: division by zero");
  Wide rem = 0;
  for (std::size_t i = limbs_.size(); i-- > 0;) {
    rem = ((rem << 64) | limbs_[i]) % d;
  }
  return static_cast<std::uint64_t>(rem);
}

int BigUInt::compare(const BigUInt& other) const {
  if (limbs_.size() != other.limbs_.size()) {
    return limbs_.size() < other.limbs_.size() ? -1 : 1;
  }
  for (std::size_t i = limbs_.size(); i-- > 0;) {
    if (limbs_[i] != other.limbs_[i]) {
      return limbs_[i] < other.limbs_[i] ? -1 : 1;
    }
  }
  return 0;
}

BigUInt& BigUInt::operator+=(const BigUInt& rhs) {
  if (limbs_.size() < rhs.limbs_.size()) limbs_.resize(rhs.limbs_.size(), 0);
  Limb carry = 0;
  for (std::size_t i = 0; i < limbs_.size(); ++i) {
    Wide sum = Wide{limbs_[i]} + carry;
    if (i < rhs.limbs_.size()) sum += rhs.limbs_[i];
    limbs_[i] = static_cast<Limb>(sum);
    carry = static_cast<Limb>(sum >> 64);
  }
  if (carry) limbs_.push_back(carry);
  return *this;
}

BigUInt& BigUInt::operator-=(const BigUInt& rhs) {
  if (compare(rhs) < 0) {
    throw std::underflow_error("BigUInt: subtraction would go negative");
  }
  Limb borrow = 0;
  for (std::size_t i = 0; i < limbs_.size(); ++i) {
    const Limb r = i < rhs.limbs_.size() ? rhs.limbs_[i] : 0;
    limbs_[i] = sub_borrow(limbs_[i], r, borrow);
  }
  assert(borrow == 0);
  normalize();
  return *this;
}

BigUInt operator*(const BigUInt& a, const BigUInt& b) {
  BigUInt out;
  if (a.is_zero() || b.is_zero()) return out;
  out.limbs_.assign(a.limbs_.size() + b.limbs_.size(), 0);
  for (std::size_t i = 0; i < a.limbs_.size(); ++i) {
    Limb carry = 0;
    for (std::size_t j = 0; j < b.limbs_.size(); ++j) {
      out.limbs_[i + j] =
          mul_add(a.limbs_[i], b.limbs_[j], out.limbs_[i + j], carry);
    }
    out.limbs_[i + b.limbs_.size()] = carry;
  }
  out.normalize();
  return out;
}

BigUInt BigUInt::operator<<(std::size_t bits) const {
  if (is_zero() || bits == 0) return *this;
  const std::size_t limb_shift = bits / 64;
  const std::size_t bit_shift = bits % 64;
  BigUInt out;
  out.limbs_.assign(limbs_.size() + limb_shift + 1, 0);
  for (std::size_t i = 0; i < limbs_.size(); ++i) {
    const Wide v = Wide{limbs_[i]} << bit_shift;
    out.limbs_[i + limb_shift] |= static_cast<Limb>(v);
    out.limbs_[i + limb_shift + 1] |= static_cast<Limb>(v >> 64);
  }
  out.normalize();
  return out;
}

BigUInt BigUInt::operator>>(std::size_t bits) const {
  const std::size_t limb_shift = bits / 64;
  if (limb_shift >= limbs_.size()) return BigUInt{};
  const std::size_t bit_shift = bits % 64;
  BigUInt out;
  out.limbs_.assign(limbs_.size() - limb_shift, 0);
  for (std::size_t i = 0; i < out.limbs_.size(); ++i) {
    Wide v = limbs_[i + limb_shift];
    if (i + limb_shift + 1 < limbs_.size()) {
      v |= Wide{limbs_[i + limb_shift + 1]} << 64;
    }
    out.limbs_[i] = static_cast<Limb>(v >> bit_shift);
  }
  out.normalize();
  return out;
}

std::pair<BigUInt, BigUInt> BigUInt::divmod(const BigUInt& num,
                                            const BigUInt& den) {
  if (den.is_zero()) throw std::domain_error("BigUInt: division by zero");
  if (num.compare(den) < 0) return {BigUInt{}, num};

  // Single-limb divisor: simple schoolbook short division.
  if (den.limbs_.size() == 1) {
    const Limb d = den.limbs_[0];
    BigUInt q;
    q.limbs_.assign(num.limbs_.size(), 0);
    Wide rem = 0;
    for (std::size_t i = num.limbs_.size(); i-- > 0;) {
      const Wide cur = (rem << 64) | num.limbs_[i];
      q.limbs_[i] = static_cast<Limb>(cur / d);
      rem = cur % d;
    }
    q.normalize();
    return {q, BigUInt{static_cast<Limb>(rem)}};
  }

  // Knuth, TAOCP Vol. 2, Algorithm D.
  const std::size_t n = den.limbs_.size();
  const std::size_t m = num.limbs_.size() - n;

  // D1: normalize so the divisor's top limb has its high bit set.
  const std::size_t shift =
      static_cast<std::size_t>(std::countl_zero(den.limbs_.back()));
  std::vector<Limb> u = (num << shift).limbs_;
  u.resize(num.limbs_.size() + 1, 0);  // extra high limb for D4 borrow space
  const BigUInt v_norm = den << shift;
  const std::vector<Limb>& v = v_norm.limbs_;
  assert(v.size() == n);

  BigUInt q;
  q.limbs_.assign(m + 1, 0);

  for (std::size_t j = m + 1; j-- > 0;) {
    // D3: estimate q_hat.  The q_hat >= 2^64 test comes first, so
    // q_hat * v[n - 2] is only formed once it fits in 128 bits.
    const Wide numerator = (Wide{u[j + n]} << 64) | u[j + n - 1];
    Wide q_hat = numerator / v[n - 1];
    Wide r_hat = numerator % v[n - 1];
    while ((q_hat >> 64) != 0 ||
           q_hat * v[n - 2] > ((r_hat << 64) | u[j + n - 2])) {
      --q_hat;
      r_hat += v[n - 1];
      if ((r_hat >> 64) != 0) break;
    }

    // D4: multiply and subtract u[j..j+n] -= q_hat * v.
    Limb qj = static_cast<Limb>(q_hat);
    Limb carry = 0;
    Limb borrow = 0;
    for (std::size_t i = 0; i < n; ++i) {
      const Limb product = mul_add(qj, v[i], 0, carry);
      u[i + j] = sub_borrow(u[i + j], product, borrow);
    }
    const Wide top = Wide{u[j + n]} - carry - borrow;
    u[j + n] = static_cast<Limb>(top);
    if ((top >> 127) != 0) {
      // D6: q_hat was one too large; add the divisor back.  The carry out
      // of the top limb cancels the borrow that made it negative.
      --qj;
      Limb add_carry = 0;
      for (std::size_t i = 0; i < n; ++i) {
        const Wide sum = Wide{u[i + j]} + v[i] + add_carry;
        u[i + j] = static_cast<Limb>(sum);
        add_carry = static_cast<Limb>(sum >> 64);
      }
      u[j + n] += add_carry;
    }
    q.limbs_[j] = qj;
  }

  q.normalize();
  BigUInt r;
  r.limbs_.assign(u.begin(), u.begin() + static_cast<std::ptrdiff_t>(n));
  r.normalize();
  r = r >> shift;
  return {q, r};
}

BigUInt BigUInt::modexp(const BigUInt& base, const BigUInt& exp,
                        const BigUInt& mod) {
  if (mod.is_zero()) throw std::domain_error("BigUInt: zero modulus");
  if (mod == BigUInt{1}) return BigUInt{};
  if (mod.is_odd() && mod.bit_length() <= Montgomery::kMaxBits) {
    return Montgomery(mod).exp(base, exp);
  }

  // Plain square-and-multiply with divide-based reduction.
  BigUInt result{1};
  BigUInt b = base % mod;
  for (std::size_t i = exp.bit_length(); i-- > 0;) {
    result = (result * result) % mod;
    if (exp.bit(i)) result = (result * b) % mod;
  }
  return result;
}

BigUInt BigUInt::gcd(BigUInt a, BigUInt b) {
  while (!b.is_zero()) {
    BigUInt r = a % b;
    a = std::move(b);
    b = std::move(r);
  }
  return a;
}

std::optional<BigUInt> BigUInt::mod_inverse(const BigUInt& a,
                                            const BigUInt& m) {
  if (m < BigUInt{2}) {
    throw std::invalid_argument("mod_inverse: modulus must be >= 2");
  }
  // Extended Euclid, tracking only the coefficient of `a`.  Values of t may
  // go "negative"; they are kept reduced mod m by adding m before
  // subtracting.
  BigUInt r0 = m, r1 = a % m;
  BigUInt t0{}, t1{1};
  while (!r1.is_zero()) {
    const auto [q, r2] = divmod(r0, r1);
    r0 = r1;
    r1 = r2;
    // t2 = t0 - q*t1 (mod m)
    BigUInt qt = (q * t1) % m;
    BigUInt t2 = t0;
    if (t2 < qt) t2 += m;
    t2 -= qt;
    t0 = t1;
    t1 = std::move(t2);
  }
  if (r0 != BigUInt{1}) return std::nullopt;
  return t0 % m;
}

BigUInt BigUInt::random_words(util::Rng& rng, std::size_t bits) {
  BigUInt out;
  const std::size_t words = (bits + 31) / 32;
  out.limbs_.assign((words + 1) / 2, 0);
  for (std::size_t w = 0; w < words; ++w) {
    out.limbs_[w / 2] |= (rng() & 0xFFFFFFFFu) << (32 * (w % 2));
  }
  if (bits % 64 != 0) out.limbs_.back() &= (Limb{1} << (bits % 64)) - 1;
  out.normalize();
  return out;
}

BigUInt BigUInt::random_bits(util::Rng& rng, std::size_t bits) {
  if (bits == 0) return BigUInt{};
  BigUInt out = random_words(rng, bits);
  out.limbs_.resize((bits + 63) / 64, 0);
  out.limbs_.back() |= Limb{1} << ((bits - 1) % 64);  // exact bit length
  return out;
}

BigUInt BigUInt::random_below(util::Rng& rng, const BigUInt& bound) {
  if (bound.is_zero()) {
    throw std::invalid_argument("random_below: zero bound");
  }
  // Rejection sampling from [0, 2^bits).
  for (;;) {
    BigUInt candidate = random_words(rng, bound.bit_length());
    if (candidate < bound) return candidate;
  }
}

// ---------------------------------------------------------------------------
// Montgomery arithmetic
// ---------------------------------------------------------------------------

namespace {

std::uint64_t g_multiplies = 0;
std::uint64_t g_squarings = 0;

/// out = t - n if the W-limb t plus `carry` * 2^(64 W) is at least n, else
/// t: the final step that brings a Montgomery result from [0, 2n) into
/// [0, n).  out may alias t.
template <std::size_t W>
void subtract_if_not_below(Limb* out, const Limb* t, Limb carry,
                           const Limb* n) {
  Limb diff[W];
  Limb borrow = 0;
#pragma GCC unroll 32
  for (std::size_t i = 0; i < W; ++i) diff[i] = sub_borrow(t[i], n[i], borrow);
  const bool not_below = carry != 0 || borrow == 0;
#pragma GCC unroll 32
  for (std::size_t i = 0; i < W; ++i) out[i] = not_below ? diff[i] : t[i];
}

// The kernels unroll their inner loops fully (W is at most 32), so every
// index into a row is a constant and the row's limbs stay in registers.
// The squaring unrolls its rows too, fully up to 8 limbs, so which limbs
// of a row take a product is known at compile time there.

/// out = a * b * R^-1 mod n over W limbs, CIOS (coarsely integrated
/// operand scanning) with each row's product and reduction in one pass:
/// limb j of the row adds a[i] * b[j] on one carry chain and m * n[j] on
/// the other.  a and b are below n; out may alias either.
template <std::size_t W>
void mont_mul(Limb* out, const Limb* a, const Limb* b, const Limb* n,
              Limb n0_inv) {
  ++g_multiplies;
  Limb t[W + 1] = {};  // below 2n throughout, so t[W] is 0 or 1
  for (std::size_t i = 0; i < W; ++i) {
    Limb product_carry = 0;
    Limb reduce_carry = 0;
    const Limb low = mul_add(a[i], b[0], t[0], product_carry);
    // m = low * n0_inv mod 2^64 makes low + m * n[0] zero mod 2^64, so the
    // row shifts down a limb as it goes.
    const Limb m = low * n0_inv;
    mul_add(m, n[0], low, reduce_carry);
#pragma GCC unroll 32
    for (std::size_t j = 1; j < W; ++j) {
      const Limb sum = mul_add(a[i], b[j], t[j], product_carry);
      t[j - 1] = mul_add(m, n[j], sum, reduce_carry);
    }
    const Wide top = Wide{t[W]} + product_carry + reduce_carry;
    t[W - 1] = static_cast<Limb>(top);
    t[W] = static_cast<Limb>(top >> 64);
  }
  subtract_if_not_below<W>(out, t, t[W], n);
}

/// out = a * a * R^-1 mod n over W limbs, in rows like mont_mul's.  Row i
/// multiplies a[i] by a[i] + 2 (a >> 64 (i + 1)) 2^64 from limb i up: the
/// diagonal square a[i]^2, then each cross product a[i] a[j], j > i, once,
/// against the doubled operand.  The row's reduction runs beside it on the
/// other carry chain.  a is below n; out may alias it.
template <std::size_t W>
void mont_sqr(Limb* out, const Limb* a, const Limb* n, Limb n0_inv) {
  ++g_squarings;
  // Limb j of 2a, for the rows' limbs j >= 2; limb W is a's top bit.
  Limb twice[W + 1];
#pragma GCC unroll 32
  for (std::size_t j = 2; j < W; ++j) twice[j] = (a[j] << 1) | (a[j - 1] >> 63);
  twice[W] = a[W - 1] >> 63;
  Limb t[W + 1] = {};  // below 4R throughout, so t[W] is at most 3
#pragma GCC unroll 8
  for (std::size_t i = 0; i < W; ++i) {
    Limb product_carry = 0;
    Limb reduce_carry = 0;
    const Limb low = i == 0 ? mul_add(a[0], a[0], t[0], product_carry) : t[0];
    const Limb m = low * n0_inv;
    mul_add(m, n[0], low, reduce_carry);  // low limb is zero by construction
#pragma GCC unroll 32
    for (std::size_t j = 1; j < W; ++j) {
      // Nothing left of the diagonal.  Row i does not double a[i], so limb
      // i + 1 takes 2 a[i + 1] without the bit that 2 a[i] would carry in.
      Limb sum = t[j];
      if (j == i) {
        sum = mul_add(a[i], a[i], t[j], product_carry);
      } else if (j == i + 1) {
        sum = mul_add(a[i], a[j] << 1, t[j], product_carry);
      } else if (j > i + 1) {
        sum = mul_add(a[i], twice[j], t[j], product_carry);
      }
      t[j - 1] = mul_add(m, n[j], sum, reduce_carry);
    }
    const Limb high = i + 1 < W ? twice[W] : 0;
    const Limb sum = mul_add(a[i], high, t[W], product_carry);
    const Wide top = Wide{sum} + reduce_carry;
    t[W - 1] = static_cast<Limb>(top);
    t[W] = product_carry + static_cast<Limb>(top >> 64);
  }
  subtract_if_not_below<W>(out, t, t[W], n);
}

}  // namespace

std::uint64_t Montgomery::multiplies() { return g_multiplies; }
std::uint64_t Montgomery::squarings() { return g_squarings; }

Montgomery::Montgomery(BigUInt modulus) : modulus_(std::move(modulus)) {
  if (!modulus_.is_odd() || modulus_ <= BigUInt{1}) {
    throw std::invalid_argument("Montgomery: modulus must be odd and > 1");
  }
  if (modulus_.bit_length() > kMaxBits) {
    throw std::invalid_argument("Montgomery: modulus above 2048 bits");
  }
  width_ = std::max<std::size_t>(4, std::bit_ceil(modulus_.limbs_.size()));
  // n0_inv = -n^{-1} mod 2^64 by Newton iteration on the low limb: an odd
  // n0 is its own inverse mod 8, and each step doubles the correct bits.
  const Limb n0 = modulus_.limbs_[0];
  Limb inv = n0;
  for (int i = 0; i < 5; ++i) inv *= 2 - n0 * inv;  // 3 -> 96 bits
  n0_inv_ = 0 - inv;

  const BigUInt r2 = (BigUInt{1} << (2 * 64 * width_)) % modulus_;
  padded_.assign(2 * width_, 0);
  std::copy(modulus_.limbs_.begin(), modulus_.limbs_.end(), padded_.begin());
  std::copy(r2.limbs_.begin(), r2.limbs_.end(),
            padded_.begin() + static_cast<std::ptrdiff_t>(width_));
}

BigUInt Montgomery::exp(const BigUInt& base, const BigUInt& exponent) const {
  switch (width_) {
    case 4:
      return exp_fixed<4>(base, exponent);
    case 8:
      return exp_fixed<8>(base, exponent);
    case 16:
      return exp_fixed<16>(base, exponent);
    default:
      return exp_fixed<32>(base, exponent);
  }
}

template <std::size_t W>
BigUInt Montgomery::exp_fixed(const BigUInt& base,
                              const BigUInt& exponent) const {
  const std::size_t bits = exponent.bit_length();
  if (bits == 0) return BigUInt{1};
  const Limb* const n = padded_.data();
  const Limb* const r2 = n + W;
  // A window table pays for itself only on long exponents; e = 65537 runs
  // bit by bit.
  const std::size_t window = bits > 64 ? 4 : 1;
  const std::size_t powers = (std::size_t{1} << window) - 1;

  // base^1 .. base^powers in Montgomery form, then the accumulator.
  Limb table[15 * W];
  const auto power = [&](std::size_t k) { return table + (k - 1) * W; };
  Limb acc[W] = {};
  if (base < modulus_) {
    std::copy(base.limbs_.begin(), base.limbs_.end(), acc);
  } else {
    const BigUInt reduced = base % modulus_;
    std::copy(reduced.limbs_.begin(), reduced.limbs_.end(), acc);
  }
  mont_mul<W>(power(1), acc, r2, n, n0_inv_);
  for (std::size_t k = 2; k <= powers; ++k) {
    mont_mul<W>(power(k), power(k - 1), power(1), n, n0_inv_);
  }

  const auto digit = [&](std::size_t pos) {
    std::size_t d = 0;
    for (std::size_t b = window; b-- > 0;) d = (d << 1) | exponent.bit(pos + b);
    return d;
  };
  std::size_t pos = (bits - 1) / window * window;
  std::copy_n(power(digit(pos)), W, acc);  // the top digit is nonzero
  while (pos > 0) {
    pos -= window;
    for (std::size_t s = 0; s < window; ++s) mont_sqr<W>(acc, acc, n, n0_inv_);
    if (const std::size_t d = digit(pos)) {
      mont_mul<W>(acc, acc, power(d), n, n0_inv_);
    }
  }

  // Leave Montgomery form: acc * 1 * R^-1.
  Limb one[W] = {1};
  mont_mul<W>(acc, acc, one, n, n0_inv_);
  BigUInt out;
  out.limbs_.assign(acc, acc + W);
  out.normalize();
  return out;
}

}  // namespace tactic::crypto
