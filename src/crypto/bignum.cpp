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
Limb mul_add(Limb a, Limb b, Limb c, Limb& carry) {
  const Wide t = Wide{a} * b + c + carry;
  carry = static_cast<Limb>(t >> 64);
  return static_cast<Limb>(t);
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
  if (mod.is_odd()) return Montgomery(mod).exp(base, exp);

  // Even modulus: plain square-and-multiply with divide-based reduction.
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

Montgomery::Montgomery(BigUInt modulus) : modulus_(std::move(modulus)) {
  if (!modulus_.is_odd() || modulus_ <= BigUInt{1}) {
    throw std::invalid_argument("Montgomery: modulus must be odd and > 1");
  }
  // n0_inv = -n^{-1} mod 2^64 by Newton iteration on the low limb: an odd
  // n0 is its own inverse mod 8, and each step doubles the correct bits.
  const Limb n0 = modulus_.limbs_[0];
  Limb inv = n0;
  for (int i = 0; i < 5; ++i) inv *= 2 - n0 * inv;  // 3 -> 96 bits
  n0_inv_ = 0 - inv;

  r2_ = ((BigUInt{1} << (2 * 64 * len())) % modulus_).limbs_;
  r2_.resize(len(), 0);
}

void Montgomery::mont_mul(Limb* out, const Limb* a, const Limb* b,
                          Limb* scratch) const {
  // CIOS (coarsely integrated operand scanning) Montgomery multiplication.
  const std::size_t len = this->len();
  const Limb* n = modulus_.limbs_.data();
  Limb* t = scratch;
  std::fill_n(t, len + 2, Limb{0});
  for (std::size_t i = 0; i < len; ++i) {
    // t += a[i] * b
    const Limb ai = a[i];
    Limb carry = 0;
    for (std::size_t j = 0; j < len; ++j) t[j] = mul_add(ai, b[j], t[j], carry);
    Wide sum = Wide{t[len]} + carry;
    t[len] = static_cast<Limb>(sum);
    t[len + 1] = static_cast<Limb>(sum >> 64);

    // m = t[0] * n0_inv mod 2^64;  t += m * n;  t >>= 64.
    const Limb m = t[0] * n0_inv_;
    carry = 0;
    mul_add(m, n[0], t[0], carry);  // low limb is zero by construction
    for (std::size_t j = 1; j < len; ++j) {
      t[j - 1] = mul_add(m, n[j], t[j], carry);
    }
    sum = Wide{t[len]} + carry;
    t[len - 1] = static_cast<Limb>(sum);
    t[len] = t[len + 1] + static_cast<Limb>(sum >> 64);
  }
  // Conditional final subtraction: t in [0, 2n).
  bool ge = t[len] != 0;
  if (!ge) {
    ge = true;
    for (std::size_t i = len; i-- > 0;) {
      if (t[i] != n[i]) {
        ge = t[i] > n[i];
        break;
      }
    }
  }
  if (ge) {
    Limb borrow = 0;
    for (std::size_t i = 0; i < len; ++i) t[i] = sub_borrow(t[i], n[i], borrow);
  }
  std::copy_n(t, len, out);
}

BigUInt Montgomery::exp(const BigUInt& base, const BigUInt& exponent) const {
  const std::size_t bits = exponent.bit_length();
  if (bits == 0) return BigUInt{1};
  const std::size_t len = this->len();
  // A window table pays for itself only on long exponents; e = 65537 runs
  // bit by bit.
  const std::size_t window = bits > 64 ? 4 : 1;
  const std::size_t powers = (std::size_t{1} << window) - 1;

  // The one allocation: accumulator, scratch, then base^1 .. base^powers in
  // Montgomery form.  The accumulator comes first, so these limbs become
  // the result's.
  std::vector<Limb> work((2 + powers) * len + 2, 0);
  Limb* const acc = work.data();
  Limb* const scratch = acc + len;
  Limb* const table = scratch + len + 2;
  const auto power = [&](std::size_t k) { return table + (k - 1) * len; };

  if (base < modulus_) {
    std::copy(base.limbs_.begin(), base.limbs_.end(), acc);
  } else {
    const BigUInt reduced = base % modulus_;
    std::copy(reduced.limbs_.begin(), reduced.limbs_.end(), acc);
  }
  mont_mul(power(1), acc, r2_.data(), scratch);
  for (std::size_t k = 2; k <= powers; ++k) {
    mont_mul(power(k), power(k - 1), power(1), scratch);
  }

  const auto digit = [&](std::size_t pos) {
    std::size_t d = 0;
    for (std::size_t b = window; b-- > 0;) d = (d << 1) | exponent.bit(pos + b);
    return d;
  };
  std::size_t pos = (bits - 1) / window * window;
  std::copy_n(power(digit(pos)), len, acc);  // the top digit is nonzero
  while (pos > 0) {
    pos -= window;
    for (std::size_t s = 0; s < window; ++s) mont_mul(acc, acc, acc, scratch);
    if (const std::size_t d = digit(pos)) mont_mul(acc, acc, power(d), scratch);
  }

  // Leave Montgomery form: acc * 1 * R^-1.  The table is spent, so its
  // first slot holds the 1.
  std::fill_n(table, len, Limb{0});
  table[0] = 1;
  mont_mul(acc, acc, table, scratch);
  work.resize(len);
  BigUInt out;
  out.limbs_ = std::move(work);
  out.normalize();
  return out;
}

}  // namespace tactic::crypto
