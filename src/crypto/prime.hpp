#pragma once
// Probabilistic primality testing and random prime generation for RSA
// key generation.

#include <cstddef>

#include "crypto/bignum.hpp"
#include "util/rng.hpp"

namespace tactic::crypto {

/// Miller–Rabin probabilistic primality test with `rounds` random bases,
/// after trial division by the primes below 8192.  Deterministically
/// correct for n < 2^32 regardless of `rounds`: there the fixed bases 2, 7
/// and 61 decide, and nothing is drawn from `rng`.
bool is_probable_prime(const BigUInt& n, util::Rng& rng,
                       std::size_t rounds = 24);

/// Uniformly random probable prime with exactly `bits` bits and the top
/// two bits set (so a product of two such primes has exactly 2*bits bits).
/// `bits` must be >= 16.
BigUInt random_prime(util::Rng& rng, std::size_t bits,
                     std::size_t mr_rounds = 24);

}  // namespace tactic::crypto
