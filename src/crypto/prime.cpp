#include "crypto/prime.hpp"

#include <cstdint>
#include <optional>
#include <stdexcept>
#include <vector>

namespace tactic::crypto {

namespace {

/// The primes below 8192 in runs whose product fits in 64 bits, so trial
/// division takes one multi-limb remainder per run and tests each prime of
/// the run on that one-word remainder: n mod p = (n mod product) mod p.
struct PrimeRun {
  std::uint64_t product;
  std::vector<std::uint32_t> primes;
};

const std::vector<PrimeRun>& small_prime_runs() {
  static const std::vector<PrimeRun> runs = [] {
    constexpr std::uint32_t kLimit = 8192;
    std::vector<bool> sieve(kLimit, true);
    std::vector<PrimeRun> out;
    for (std::uint32_t i = 2; i < kLimit; ++i) {
      if (!sieve[i]) continue;
      for (std::uint32_t j = 2 * i; j < kLimit; j += i) sieve[j] = false;
      if (out.empty() || out.back().product > UINT64_MAX / i) {
        out.push_back({1, {}});
      }
      out.back().product *= i;
      out.back().primes.push_back(i);
    }
    return out;
  }();
  return runs;
}

/// Trial division of n >= 2 by the small primes, in increasing order: the
/// verdict when it settles primality (n is one of them, or has one as a
/// factor), nullopt when n has no factor below the sieve limit and is
/// above it.
std::optional<bool> trial_division(const BigUInt& n) {
  for (const PrimeRun& run : small_prime_runs()) {
    const std::uint64_t rem = n.mod_u64(run.product);
    for (const std::uint32_t p : run.primes) {
      if (rem % p == 0) return n == BigUInt{p};
    }
  }
  return std::nullopt;
}

/// Miller–Rabin on an odd n above the sieve limit, over one Montgomery
/// context.  Below 2^32 the bases 2, 7 and 61 decide exactly (for every
/// n < 4,759,123,141) and nothing is drawn; above it, `rounds` bases are
/// drawn uniformly from [2, n-2].
bool miller_rabin(const BigUInt& n, util::Rng& rng, std::size_t rounds) {
  // Write n - 1 = d * 2^r with d odd.
  const BigUInt n_minus_1 = n - BigUInt{1};
  BigUInt d = n_minus_1;
  std::size_t r = 0;
  while (!d.is_odd()) {
    d = d >> 1;
    ++r;
  }
  const Montgomery mont(n);
  const auto is_witness = [&](const BigUInt& a) {
    BigUInt x = mont.exp(a, d);
    if (x == BigUInt{1} || x == n_minus_1) return false;
    for (std::size_t i = 1; i < r; ++i) {
      x = (x * x) % n;
      if (x == n_minus_1) return false;
    }
    return true;  // composite witnessed
  };

  if (n.bit_length() <= 32) {
    for (const std::uint64_t a : {2u, 7u, 61u}) {
      if (is_witness(BigUInt{a})) return false;
    }
    return true;
  }
  for (std::size_t i = 0; i < rounds; ++i) {
    const BigUInt a =
        BigUInt{2} + BigUInt::random_below(rng, n - BigUInt{3});
    if (is_witness(a)) return false;
  }
  return true;
}

}  // namespace

bool is_probable_prime(const BigUInt& n, util::Rng& rng, std::size_t rounds) {
  if (n < BigUInt{2}) return false;
  if (const auto verdict = trial_division(n)) return *verdict;
  return miller_rabin(n, rng, rounds);
}

BigUInt random_prime(util::Rng& rng, std::size_t bits,
                     std::size_t mr_rounds) {
  if (bits < 16) {
    throw std::invalid_argument("random_prime: need at least 16 bits");
  }
  for (;;) {
    // random_bits sets the top bit; also force the second-highest bit (so
    // a product of two such primes has exactly 2*bits bits) and the low
    // bit (odd).
    BigUInt candidate = BigUInt::random_bits(rng, bits);
    if (!candidate.bit(bits - 2)) candidate += BigUInt{1} << (bits - 2);
    if (!candidate.is_odd()) candidate += BigUInt{1};

    // The candidate exceeds the sieve limit, so trial division can only
    // reject it.
    if (trial_division(candidate)) continue;
    if (miller_rabin(candidate, rng, mr_rounds)) return candidate;
  }
}

}  // namespace tactic::crypto
