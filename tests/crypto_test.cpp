// Known-answer and property tests for the from-scratch crypto substrate.
//
// SHA-256 / HMAC / AES are pinned to published vectors (FIPS 180-4,
// RFC 4231, FIPS 197, SP 800-38A); bignum and RSA are checked by algebraic
// properties and round-trips, and RSA keygen and signing are also pinned
// to known answers captured from the 32-bit-limb implementation.

#include <gtest/gtest.h>

#include <cstring>
#include <stdexcept>
#include <utility>
#include <vector>

#include "crypto/aes.hpp"
#include "crypto/bignum.hpp"
#include "crypto/hmac.hpp"
#include "crypto/pki.hpp"
#include "crypto/prime.hpp"
#include "crypto/rsa.hpp"
#include "crypto/sha256.hpp"

namespace tactic::crypto {
namespace {

using util::Bytes;
using util::from_hex;
using util::to_bytes;
using util::to_hex;

/// prime[n] for every n below `limit`, by the sieve of Eratosthenes.
std::vector<bool> sieve(std::uint32_t limit) {
  std::vector<bool> prime(limit, true);
  prime[0] = prime[1] = false;
  for (std::uint32_t i = 2; i * i < limit; ++i) {
    if (!prime[i]) continue;
    for (std::uint32_t j = i * i; j < limit; j += i) prime[j] = false;
  }
  return prime;
}

// ---------------------------------------------------------------------------
// SHA-256 (FIPS 180-4 / NIST examples)
// ---------------------------------------------------------------------------

TEST(Sha256, EmptyString) {
  EXPECT_EQ(to_hex(Sha256::digest(std::string_view(""))),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855");
}

TEST(Sha256, Abc) {
  EXPECT_EQ(to_hex(Sha256::digest(std::string_view("abc"))),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
}

TEST(Sha256, TwoBlockMessage) {
  EXPECT_EQ(to_hex(Sha256::digest(std::string_view(
                "abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"))),
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1");
}

TEST(Sha256, MillionAs) {
  Sha256 ctx;
  const std::string chunk(1000, 'a');
  for (int i = 0; i < 1000; ++i) ctx.update(chunk);
  EXPECT_EQ(to_hex(ctx.finish()),
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0");
}

// The work counter counts compressed blocks, padding included: a message
// of n bytes takes ceil((n + 9) / 64) blocks.
TEST(Sha256, BlocksCompressedCountsPaddedBlocks) {
  const auto blocks = [](std::size_t n) {
    const std::uint64_t before = Sha256::blocks_compressed();
    Sha256::digest(util::Bytes(n, 0x61));
    return Sha256::blocks_compressed() - before;
  };
  EXPECT_EQ(blocks(0), 1u);
  EXPECT_EQ(blocks(55), 1u);
  EXPECT_EQ(blocks(56), 2u);
  EXPECT_EQ(blocks(64), 2u);
  EXPECT_EQ(blocks(119), 2u);
  EXPECT_EQ(blocks(120), 3u);
}

TEST(Sha256, StreamingEqualsOneShot) {
  const std::string msg = "The quick brown fox jumps over the lazy dog";
  Sha256 ctx;
  for (char c : msg) ctx.update(std::string_view(&c, 1));
  EXPECT_EQ(ctx.finish(), Sha256::digest(msg));
}

TEST(Sha256, BoundaryLengths) {
  // Exercise padding around the 55/56/63/64-byte boundaries.
  for (std::size_t len : {55u, 56u, 57u, 63u, 64u, 65u, 119u, 120u, 128u}) {
    const std::string msg(len, 'x');
    Sha256 a;
    a.update(msg);
    Sha256 b;
    b.update(msg.substr(0, len / 2));
    b.update(msg.substr(len / 2));
    EXPECT_EQ(a.finish(), b.finish()) << "len=" << len;
  }
}

TEST(Sha256, ReuseAfterFinishThrows) {
  Sha256 ctx;
  ctx.update(std::string_view("x"));
  ctx.finish();
  EXPECT_THROW(ctx.update(std::string_view("y")), std::logic_error);
  EXPECT_THROW(ctx.finish(), std::logic_error);
  ctx.reset();
  EXPECT_EQ(ctx.finish(), Sha256::digest(std::string_view("")));
}

TEST(Sha256, Prefix64MatchesDigest) {
  const Bytes digest = Sha256::digest(std::string_view("node7"));
  EXPECT_EQ(sha256_prefix64("node7"), util::read_u64(digest, 0));
}

// ---------------------------------------------------------------------------
// HMAC-SHA-256 (RFC 4231)
// ---------------------------------------------------------------------------

TEST(Hmac, Rfc4231Case1) {
  const Bytes key(20, 0x0b);
  EXPECT_EQ(to_hex(hmac_sha256(key, std::string_view("Hi There"))),
            "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7");
}

TEST(Hmac, Rfc4231Case2) {
  EXPECT_EQ(to_hex(hmac_sha256(to_bytes("Jefe"),
                               std::string_view(
                                   "what do ya want for nothing?"))),
            "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843");
}

TEST(Hmac, LongKeyIsHashedFirst) {
  const Bytes long_key(200, 0x42);
  const Bytes direct = hmac_sha256(long_key, std::string_view("msg"));
  const Bytes hashed_key = Sha256::digest(long_key);
  EXPECT_EQ(direct, hmac_sha256(hashed_key, std::string_view("msg")));
}

TEST(Hmac, VerifyDetectsTamper) {
  const Bytes key = to_bytes("k");
  Bytes mac = hmac_sha256(key, std::string_view("payload"));
  EXPECT_TRUE(hmac_sha256_verify(key, to_bytes("payload"), mac));
  mac[0] ^= 1;
  EXPECT_FALSE(hmac_sha256_verify(key, to_bytes("payload"), mac));
}

// ---------------------------------------------------------------------------
// AES-128 (FIPS 197 appendix C, SP 800-38A)
// ---------------------------------------------------------------------------

TEST(Aes128, Fips197Vector) {
  const Bytes key = from_hex("000102030405060708090a0b0c0d0e0f");
  Bytes block = from_hex("00112233445566778899aabbccddeeff");
  Aes128 aes(key);
  aes.encrypt_block(block.data());
  EXPECT_EQ(to_hex(block), "69c4e0d86a7b0430d8cdb78070b4c55a");
  aes.decrypt_block(block.data());
  EXPECT_EQ(to_hex(block), "00112233445566778899aabbccddeeff");
}

TEST(Aes128, Sp80038aEcbVector) {
  const Bytes key = from_hex("2b7e151628aed2a6abf7158809cf4f3c");
  Bytes block = from_hex("6bc1bee22e409f96e93d7e117393172a");
  Aes128 aes(key);
  aes.encrypt_block(block.data());
  EXPECT_EQ(to_hex(block), "3ad77bb40d7a3660a89ecaf32466ef97");
}

TEST(Aes128, WrongKeySizeThrows) {
  EXPECT_THROW(Aes128(Bytes(15, 0)), std::invalid_argument);
  EXPECT_THROW(Aes128(Bytes(17, 0)), std::invalid_argument);
}

TEST(AesCtr, RoundTripAllSizes) {
  const Bytes key = from_hex("000102030405060708090a0b0c0d0e0f");
  for (std::size_t size : {0u, 1u, 15u, 16u, 17u, 100u, 1024u}) {
    Bytes plaintext(size);
    for (std::size_t i = 0; i < size; ++i) {
      plaintext[i] = static_cast<std::uint8_t>(i * 7 + 1);
    }
    const Bytes ciphertext = aes128_ctr(key, 0x1234, plaintext);
    EXPECT_EQ(ciphertext.size(), size);
    if (size > 0) {
      EXPECT_NE(ciphertext, plaintext);
    }
    EXPECT_EQ(aes128_ctr(key, 0x1234, ciphertext), plaintext);
  }
}

TEST(AesCtr, DifferentNoncesDiffer) {
  const Bytes key(16, 0x11);
  const Bytes msg(64, 0x22);
  EXPECT_NE(aes128_ctr(key, 1, msg), aes128_ctr(key, 2, msg));
}

// ---------------------------------------------------------------------------
// BigUInt
// ---------------------------------------------------------------------------

TEST(BigUInt, ConstructionAndHex) {
  EXPECT_EQ(BigUInt{0}.to_hex(), "0");
  EXPECT_EQ(BigUInt{255}.to_hex(), "ff");
  EXPECT_EQ(BigUInt{0x123456789ABCDEFULL}.to_hex(), "123456789abcdef");
  EXPECT_EQ(BigUInt::from_hex("deadbeefcafebabe").to_u64(),
            0xDEADBEEFCAFEBABEULL);
  EXPECT_EQ(BigUInt::from_hex("abc").to_u64(), 0xABCu);  // odd-length hex
}

TEST(BigUInt, BytesRoundTrip) {
  const Bytes bytes = from_hex("0102030405060708090a0b0c0d0e0f10");
  const BigUInt v = BigUInt::from_bytes_be(bytes);
  EXPECT_EQ(v.to_bytes_be(), bytes);
  EXPECT_EQ(v.to_bytes_be(20).size(), 20u);  // left-padded
  EXPECT_EQ(BigUInt::from_bytes_be(v.to_bytes_be(20)), v);
}

TEST(BigUInt, BitLengthAndBits) {
  EXPECT_EQ(BigUInt{0}.bit_length(), 0u);
  EXPECT_EQ(BigUInt{1}.bit_length(), 1u);
  EXPECT_EQ(BigUInt{255}.bit_length(), 8u);
  EXPECT_EQ(BigUInt{256}.bit_length(), 9u);
  const BigUInt v = BigUInt::from_hex("8000000000000001");
  EXPECT_EQ(v.bit_length(), 64u);
  EXPECT_TRUE(v.bit(0));
  EXPECT_FALSE(v.bit(1));
  EXPECT_TRUE(v.bit(63));
  EXPECT_FALSE(v.bit(64));
}

TEST(BigUInt, Comparisons) {
  const BigUInt a = BigUInt::from_hex("ffffffffffffffff");
  const BigUInt b = BigUInt::from_hex("10000000000000000");
  EXPECT_LT(a, b);
  EXPECT_GT(b, a);
  EXPECT_EQ(a, a);
  EXPECT_LE(a, a);
  EXPECT_NE(a, b);
}

TEST(BigUInt, AddSubCarryChains) {
  const BigUInt a = BigUInt::from_hex("ffffffffffffffffffffffff");
  const BigUInt one{1};
  const BigUInt sum = a + one;
  EXPECT_EQ(sum.to_hex(), "1000000000000000000000000");
  EXPECT_EQ(sum - one, a);
  EXPECT_EQ(a - a, BigUInt{0});
}

TEST(BigUInt, SubtractionUnderflowThrows) {
  EXPECT_THROW(BigUInt{1} - BigUInt{2}, std::underflow_error);
}

TEST(BigUInt, MultiplicationKnown) {
  EXPECT_EQ((BigUInt::from_hex("ffffffff") * BigUInt::from_hex("ffffffff"))
                .to_hex(),
            "fffffffe00000001");
  EXPECT_EQ(BigUInt{0} * BigUInt{123}, BigUInt{0});
}

TEST(BigUInt, Shifts) {
  const BigUInt v = BigUInt::from_hex("1234567890abcdef");
  EXPECT_EQ((v << 4).to_hex(), "1234567890abcdef0");
  EXPECT_EQ((v >> 4).to_hex(), "1234567890abcde");
  EXPECT_EQ((v << 64) >> 64, v);
  EXPECT_EQ(v >> 100, BigUInt{0});
  EXPECT_EQ((BigUInt{1} << 128).bit_length(), 129u);
}

TEST(BigUInt, DivmodProperty) {
  util::Rng rng(99);
  for (int i = 0; i < 200; ++i) {
    const BigUInt a = BigUInt::random_bits(rng, 64 + rng.uniform(192));
    const BigUInt b = BigUInt::random_bits(rng, 16 + rng.uniform(128));
    const auto [q, r] = BigUInt::divmod(a, b);
    EXPECT_EQ(q * b + r, a);
    EXPECT_LT(r, b);
    // The allocation-free single-limb remainder agrees with divmod.
    for (const std::uint64_t d :
         {std::uint64_t{1}, std::uint64_t{3}, std::uint64_t{8191},
          std::uint64_t{0xFFFFFFFFu}, ~std::uint64_t{0}, rng() | 1, rng()}) {
      if (d == 0) continue;
      EXPECT_EQ(a.mod_u64(d), (a % BigUInt{d}).to_u64()) << d;
    }
  }
  EXPECT_EQ(BigUInt{}.mod_u64(7), 0u);
  EXPECT_THROW(BigUInt{5}.mod_u64(0), std::domain_error);
}

TEST(BigUInt, DivmodEdgeCases) {
  EXPECT_THROW(BigUInt::divmod(BigUInt{1}, BigUInt{0}), std::domain_error);
  const auto [q1, r1] = BigUInt::divmod(BigUInt{5}, BigUInt{7});
  EXPECT_EQ(q1, BigUInt{0});
  EXPECT_EQ(r1, BigUInt{5});
  const auto [q2, r2] = BigUInt::divmod(BigUInt{7}, BigUInt{7});
  EXPECT_EQ(q2, BigUInt{1});
  EXPECT_EQ(r2, BigUInt{0});
}

TEST(BigUInt, KnuthD6AddBackCase) {
  // Divisor/dividend pairs engineered to hit the rare "add back" branch
  // (step D6): top limbs equal, forcing q_hat overestimation.  The first,
  // 2^127 / (2^95 + 1), reaches D6 with 32-bit limbs; the second,
  // 2^255 / (2^191 + 1), reaches it with 64-bit limbs.  Both quotients
  // are one limb of ones: (2^k - 1) * (2^(b-k) + 1) < 2^b.
  struct Case {
    std::size_t num_bits, den_bits, quotient_bits;
  };
  for (const Case c : {Case{127, 95, 32}, Case{255, 191, 64}}) {
    const BigUInt num = BigUInt{1} << c.num_bits;
    const BigUInt den = (BigUInt{1} << c.den_bits) + BigUInt{1};
    const auto [q, r] = BigUInt::divmod(num, den);
    EXPECT_EQ(q, (BigUInt{1} << c.quotient_bits) - BigUInt{1}) << c.num_bits;
    EXPECT_EQ(q * den + r, num) << c.num_bits;
    EXPECT_LT(r, den) << c.num_bits;
  }
}

TEST(BigUInt, ModexpSmallAgainstNaive) {
  for (std::uint64_t base : {2ull, 5ull, 7ull}) {
    for (std::uint64_t mod : {19ull, 97ull, 65537ull, 1000000007ull}) {
      std::uint64_t expected = 1;
      for (int i = 0; i < 117; ++i) expected = expected * base % mod;
      EXPECT_EQ(BigUInt::modexp(base, BigUInt{117}, BigUInt{mod}).to_u64(),
                expected)
          << base << "^117 mod " << mod;
    }
  }
}

TEST(BigUInt, ModexpEvenModulus) {
  // Even modulus exercises the non-Montgomery path.
  std::uint64_t expected = 1;
  for (int i = 0; i < 50; ++i) expected = expected * 3 % 1000000ull;
  EXPECT_EQ(BigUInt::modexp(BigUInt{3}, BigUInt{50}, BigUInt{1000000})
                .to_u64(),
            expected);
}

TEST(BigUInt, ModexpFermat) {
  // Fermat's little theorem: a^(p-1) = 1 mod p for prime p, a not
  // divisible by p — with a large Montgomery modulus.
  util::Rng rng(55);
  const BigUInt p = random_prime(rng, 256);
  for (int i = 0; i < 5; ++i) {
    const BigUInt a = BigUInt{2} + BigUInt::random_below(rng, p - BigUInt{3});
    EXPECT_EQ(BigUInt::modexp(a, p - BigUInt{1}, p), BigUInt{1});
  }
}

TEST(BigUInt, ModexpMatchesNaiveBigOperands) {
  // Cross-check Montgomery against multiply-divide reduction.
  const auto naive_modexp = [](const BigUInt& base, const BigUInt& exp,
                               const BigUInt& mod) {
    // Naive square-and-multiply with divide-based reduction.
    BigUInt naive{1};
    const BigUInt b = base % mod;
    for (std::size_t bit = exp.bit_length(); bit-- > 0;) {
      naive = (naive * naive) % mod;
      if (exp.bit(bit)) naive = (naive * b) % mod;
    }
    return naive;
  };
  util::Rng rng(77);
  for (int i = 0; i < 20; ++i) {
    BigUInt mod = BigUInt::random_bits(rng, 128);
    if (!mod.is_odd()) mod += BigUInt{1};
    const BigUInt base = BigUInt::random_bits(rng, 120);
    const BigUInt exp = BigUInt::random_bits(rng, 24);
    EXPECT_EQ(BigUInt::modexp(base, exp, mod), naive_modexp(base, exp, mod));
  }
  // Limb, kernel and window edges: moduli on both sides of 64-bit limb
  // boundaries and of each Montgomery kernel width (4, 8, 16 and 32
  // limbs), exponents from empty to the modulus's own length, and the
  // extreme bases (zero, n - 1, and one that needs reducing first).
  std::vector<BigUInt> moduli;
  for (const std::size_t mod_bits :
       {33u, 63u, 64u, 65u, 127u, 129u, 191u, 255u, 256u, 257u, 511u, 512u,
        521u, 1023u, 1024u, 2047u, 2048u}) {
    BigUInt mod = BigUInt::random_bits(rng, mod_bits);
    if (!mod.is_odd()) mod += BigUInt{1};
    ASSERT_EQ(mod.bit_length(), mod_bits);
    moduli.push_back(mod);
  }
  // A modulus whose top limb is all ones: a product before its final
  // subtraction often exceeds R, so the carry limb and the subtraction run.
  BigUInt ones_on_top = (((BigUInt{1} << 64) - BigUInt{1}) << 192) +
                        BigUInt::random_bits(rng, 191);
  if (!ones_on_top.is_odd()) ones_on_top += BigUInt{1};
  moduli.push_back(ones_on_top);
  for (const BigUInt& mod : moduli) {
    const std::size_t mod_bits = mod.bit_length();
    const BigUInt bases[] = {BigUInt{}, mod - BigUInt{1},
                             mod + BigUInt::random_bits(rng, mod_bits + 7)};
    for (const std::size_t exp_bits : {std::size_t{0}, std::size_t{1},
                                       std::size_t{4}, std::size_t{5},
                                       mod_bits}) {
      const BigUInt exp = BigUInt::random_bits(rng, exp_bits);
      for (const BigUInt& base : bases) {
        EXPECT_EQ(BigUInt::modexp(base, exp, mod),
                  naive_modexp(base, exp, mod))
            << "mod " << mod_bits << " bits, exp " << exp_bits
            << " bits, base " << base.to_hex();
      }
    }
  }
}

// One exponentiation's exact work.  A 4-bit window: 15 table products
// (the first converts the base), per digit below the top one 4 squarings
// and a product when the digit is nonzero, and a product to leave
// Montgomery form.  Bit by bit (e = 65537): one product to convert, a
// squaring per bit below the top one, a product per set bit below it, and
// one to leave.
TEST(Montgomery, CountsProductsAndSquarings) {
  util::Rng rng(78);
  BigUInt mod = BigUInt::random_bits(rng, 512);
  if (!mod.is_odd()) mod += BigUInt{1};
  const Montgomery mont(mod);
  const BigUInt base = BigUInt::random_bits(rng, 500);
  const auto count = [&](const BigUInt& exp) {
    const std::uint64_t muls = Montgomery::multiplies();
    const std::uint64_t sqrs = Montgomery::squarings();
    const BigUInt result = mont.exp(base, exp);
    const std::pair work{Montgomery::multiplies() - muls,
                         Montgomery::squarings() - sqrs};
    EXPECT_EQ(result, BigUInt::modexp(base, exp, mod));
    return work;
  };
  // 20 hex digits: the top one, 17 zeros, then a and b.
  EXPECT_EQ(count(BigUInt::from_hex("500000000000000000ab")),
            (std::pair<std::uint64_t, std::uint64_t>{15 + 2 + 1, 4 * 19}));
  EXPECT_EQ(count(BigUInt{65537}),
            (std::pair<std::uint64_t, std::uint64_t>{1 + 1 + 1, 16}));
}

// No kernel is wider than 32 limbs: a context for a longer modulus is
// refused, modexp reduces by division instead, and RSA keys stop at 2048
// bits before drawing anything.
TEST(Montgomery, RefusesModuliAbove2048Bits) {
  util::Rng rng(79);
  BigUInt widest = BigUInt::random_bits(rng, Montgomery::kMaxBits);
  if (!widest.is_odd()) widest += BigUInt{1};
  EXPECT_NO_THROW(Montgomery{widest});
  const BigUInt wider = widest * BigUInt{3};  // odd, 2049 or 2050 bits
  EXPECT_THROW(Montgomery{wider}, std::invalid_argument);
  const BigUInt base = BigUInt::random_bits(rng, 2000);
  EXPECT_EQ(BigUInt::modexp(base, BigUInt{3}, wider),
            (base * base % wider) * base % wider);

  util::Rng keygen_rng(80);
  util::Rng untouched(80);
  EXPECT_THROW(generate_rsa_keypair(keygen_rng, Montgomery::kMaxBits + 2),
               std::invalid_argument);
  EXPECT_EQ(keygen_rng(), untouched());
}

TEST(BigUInt, GcdAndInverse) {
  EXPECT_EQ(BigUInt::gcd(BigUInt{48}, BigUInt{18}), BigUInt{6});
  EXPECT_EQ(BigUInt::gcd(BigUInt{17}, BigUInt{0}), BigUInt{17});
  const auto inv = BigUInt::mod_inverse(BigUInt{3}, BigUInt{40});
  ASSERT_TRUE(inv.has_value());
  EXPECT_EQ((*inv * BigUInt{3}) % BigUInt{40}, BigUInt{1});
  EXPECT_FALSE(BigUInt::mod_inverse(BigUInt{6}, BigUInt{40}).has_value());
}

TEST(BigUInt, ModInverseProperty) {
  util::Rng rng(88);
  const BigUInt m = random_prime(rng, 128);
  for (int i = 0; i < 20; ++i) {
    const BigUInt a = BigUInt{1} + BigUInt::random_below(rng, m - BigUInt{1});
    const auto inv = BigUInt::mod_inverse(a, m);
    ASSERT_TRUE(inv.has_value());
    EXPECT_EQ((*inv * a) % m, BigUInt{1});
  }
}

TEST(BigUInt, RandomBitsExactLength) {
  util::Rng rng(12);
  for (std::size_t bits : {1u, 8u, 31u, 32u, 33u, 64u, 100u, 512u}) {
    EXPECT_EQ(BigUInt::random_bits(rng, bits).bit_length(), bits);
  }
}

TEST(BigUInt, RandomBelowRespectsBound) {
  util::Rng rng(13);
  const BigUInt bound = BigUInt::from_hex("1000");
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(BigUInt::random_below(rng, bound), bound);
  }
}

// ---------------------------------------------------------------------------
// primality
// ---------------------------------------------------------------------------

TEST(Prime, KnownSmallPrimes) {
  util::Rng rng(1);
  for (std::uint64_t p : {2ull, 3ull, 5ull, 7919ull, 65537ull}) {
    EXPECT_TRUE(is_probable_prime(BigUInt{p}, rng)) << p;
  }
}

TEST(Prime, KnownComposites) {
  util::Rng rng(2);
  for (std::uint64_t c : {1ull, 4ull, 561ull /*Carmichael*/, 65536ull,
                          7917ull, 1000000016000000063ull /*p*q*/}) {
    EXPECT_FALSE(is_probable_prime(BigUInt{c}, rng)) << c;
  }
}

TEST(Prime, LargeKnownPrime) {
  util::Rng rng(3);
  // 2^89 - 1 is a Mersenne prime.
  const BigUInt m89 = (BigUInt{1} << 89) - BigUInt{1};
  EXPECT_TRUE(is_probable_prime(m89, rng));
  // 2^67 - 1 is famously composite (193707721 * 761838257287).
  const BigUInt m67 = (BigUInt{1} << 67) - BigUInt{1};
  EXPECT_FALSE(is_probable_prime(m67, rng));
}

TEST(Prime, DeterministicBelowTwoTo32) {
  // Both factors of 8209 * 8219 are primes above the trial-division limit
  // (8192), so only Miller-Rabin can reject it; below 2^32 it uses fixed
  // bases, so zero random rounds still decide, and nothing is drawn.
  util::Rng rng(5);
  util::Rng untouched(5);
  EXPECT_FALSE(is_probable_prime(BigUInt{8209ull * 8219ull}, rng, 0));
  // The largest prime below 2^32.
  EXPECT_TRUE(is_probable_prime(BigUInt{4294967291ull}, rng, 0));
  EXPECT_EQ(rng(), untouched());
}

// Trial division's verdicts for every n below 2^17 against a sieve.  That
// covers every prime below the trial-division limit (8192) as n, and
// factors on both sides of each boundary between the runs of primes
// whose product fits in a word.  Below 2^32 the test is exact and draws
// nothing.
TEST(Prime, AgreesWithSieveBelowTwoTo17) {
  const std::vector<bool> prime = sieve(1u << 17);
  util::Rng rng(6);
  util::Rng untouched(6);
  for (std::uint32_t n = 0; n < prime.size(); ++n) {
    ASSERT_EQ(is_probable_prime(BigUInt{n}, rng), prime[n]) << n;
  }
  EXPECT_EQ(rng(), untouched());
}

// n = p q for every prime p below 8192 (so the first and last prime of
// every run) and a prime q above it: trial division alone must reject n.
// Had it missed p, Miller-Rabin would still say composite, but it would
// draw from the RNG.
TEST(Prime, TrialDivisionRejectsEverySmallFactor) {
  const std::vector<bool> small_prime = sieve(8192);
  util::Rng rng(7);
  for (const std::size_t bits : {256u, 512u}) {
    const BigUInt q = random_prime(rng, bits - 13);
    for (std::uint32_t p = 2; p < small_prime.size(); ++p) {
      if (!small_prime[p]) continue;
      util::Rng before = rng;
      EXPECT_FALSE(is_probable_prime(q * BigUInt{p}, rng)) << p;
      ASSERT_EQ(rng(), before()) << bits << " bits, p = " << p;
    }
  }
}

TEST(Prime, RandomPrimeHasRequestedShape) {
  util::Rng rng(4);
  for (std::size_t bits : {64u, 128u, 256u}) {
    const BigUInt p = random_prime(rng, bits);
    EXPECT_EQ(p.bit_length(), bits);
    EXPECT_TRUE(p.is_odd());
    EXPECT_TRUE(p.bit(bits - 2));  // second-highest bit forced
    EXPECT_TRUE(is_probable_prime(p, rng));
  }
}

// ---------------------------------------------------------------------------
// RSA
// ---------------------------------------------------------------------------

class RsaKeySizes : public ::testing::TestWithParam<std::size_t> {};

TEST_P(RsaKeySizes, SignVerifyRoundTrip) {
  util::Rng rng(GetParam());
  const RsaKeyPair pair = generate_rsa_keypair(rng, GetParam());
  EXPECT_EQ(pair.public_key.n().bit_length(), GetParam());
  const Bytes msg = to_bytes("tag fields to protect");
  const Bytes sig = pair.private_key.sign_pkcs1_sha256(msg);
  EXPECT_EQ(sig.size(), pair.public_key.modulus_size());
  EXPECT_TRUE(pair.public_key.verify_pkcs1_sha256(msg, sig));
}

INSTANTIATE_TEST_SUITE_P(Sizes, RsaKeySizes, ::testing::Values(512, 768, 1024));

TEST(Rsa, VerifyRejectsTamperedMessage) {
  util::Rng rng(123);
  const RsaKeyPair pair = generate_rsa_keypair(rng, 512);
  const Bytes sig = pair.private_key.sign_pkcs1_sha256(to_bytes("hello"));
  EXPECT_FALSE(pair.public_key.verify_pkcs1_sha256(to_bytes("hellp"), sig));
}

TEST(Rsa, VerifyRejectsTamperedSignature) {
  util::Rng rng(124);
  const RsaKeyPair pair = generate_rsa_keypair(rng, 512);
  Bytes sig = pair.private_key.sign_pkcs1_sha256(to_bytes("hello"));
  for (std::size_t i = 0; i < sig.size(); i += 13) {
    Bytes bad = sig;
    bad[i] ^= 0x40;
    EXPECT_FALSE(pair.public_key.verify_pkcs1_sha256(to_bytes("hello"), bad));
  }
}

TEST(Rsa, VerifyRejectsWrongKey) {
  util::Rng rng(125);
  const RsaKeyPair a = generate_rsa_keypair(rng, 512);
  const RsaKeyPair b = generate_rsa_keypair(rng, 512);
  const Bytes sig = a.private_key.sign_pkcs1_sha256(to_bytes("msg"));
  EXPECT_FALSE(b.public_key.verify_pkcs1_sha256(to_bytes("msg"), sig));
}

TEST(Rsa, VerifyRejectsWrongLengthSignature) {
  util::Rng rng(126);
  const RsaKeyPair pair = generate_rsa_keypair(rng, 512);
  Bytes sig = pair.private_key.sign_pkcs1_sha256(to_bytes("msg"));
  sig.push_back(0);
  EXPECT_FALSE(pair.public_key.verify_pkcs1_sha256(to_bytes("msg"), sig));
}

TEST(Rsa, DeterministicKeygenForSeed) {
  util::Rng a(7), b(7);
  const RsaKeyPair ka = generate_rsa_keypair(a, 512);
  const RsaKeyPair kb = generate_rsa_keypair(b, 512);
  EXPECT_EQ(ka.public_key.n(), kb.public_key.n());
}

TEST(Rsa, KnownAnswersForSeeds) {
  // Keys, signatures and the generator's position after keygen, pinned at
  // two seeds and two sizes.  Any change to the arithmetic, to the number
  // of draws, or to how draws fill limbs moves at least one of them.
  struct Vector {
    std::uint64_t seed;
    std::size_t bits;
    const char* key_sha256;  // SHA-256 of public_key.encode()
    const char* sig_sha256;  // SHA-256 of the signature over the message
    std::uint64_t next_draw;  // rng() right after keygen
  };
  const Vector vectors[] = {
      {1, 512,
       "bad1e30b277121b3a3c094fe149426eb2238f3eabace3193da411a39a259c987",
       "d2accafebe8880612c0ffbc6763507551d684a94bf6f3ea99176eb1710bee5da",
       0x2b865752098ca519ull},
      {1, 1024,
       "7815f090e8979f0080f06010a36a04bce91e9df09fbc9a115499e0bd91708ab4",
       "a1ea9166900b03207b34f6a39f2375c90ff1863da03d432a358f0b8f521792b5",
       0x88a356c80c93d473ull},
      {42, 512,
       "fb000ac5780df7794d8f908e3468ab8c0ae307e6bfc8817afa101fecf999ae48",
       "fe4e69d1c9bc6b14953f22c3da17348304fde5d93cdeb2be8e15bf6959d593d7",
       0xb3dd089b72625948ull},
      {42, 1024,
       "375128dc36549e901abc1847d5f79ba4d97047ec1c9fbe89b6f51a8ed8420df0",
       "23829368f2c024a92388e01994a38d9da094525e71d03c6dbd1f3fdda07e2a59",
       0xb38228f2a5cf5319ull},
  };
  const Bytes msg = to_bytes("tag fields to protect");
  for (const Vector& v : vectors) {
    util::Rng rng(v.seed);
    const RsaKeyPair pair = generate_rsa_keypair(rng, v.bits);
    EXPECT_EQ(rng(), v.next_draw) << v.seed << "/" << v.bits;
    EXPECT_EQ(to_hex(Sha256::digest(pair.public_key.encode())), v.key_sha256)
        << v.seed << "/" << v.bits;
    EXPECT_EQ(to_hex(Sha256::digest(pair.private_key.sign_pkcs1_sha256(msg))),
              v.sig_sha256)
        << v.seed << "/" << v.bits;
  }
}

TEST(Rsa, EncryptDecryptRoundTrip) {
  util::Rng rng(127);
  const RsaKeyPair pair = generate_rsa_keypair(rng, 512);
  const Bytes secret = to_bytes("aes-content-key!");
  const Bytes ct = pair.public_key.encrypt_pkcs1(rng, secret);
  EXPECT_EQ(ct.size(), pair.public_key.modulus_size());
  EXPECT_EQ(pair.private_key.decrypt_pkcs1(ct), secret);
}

TEST(Rsa, EncryptIsRandomized) {
  util::Rng rng(128);
  const RsaKeyPair pair = generate_rsa_keypair(rng, 512);
  const Bytes secret = to_bytes("k");
  EXPECT_NE(pair.public_key.encrypt_pkcs1(rng, secret),
            pair.public_key.encrypt_pkcs1(rng, secret));
}

TEST(Rsa, DecryptRejectsGarbage) {
  util::Rng rng(129);
  const RsaKeyPair pair = generate_rsa_keypair(rng, 512);
  Bytes garbage(pair.public_key.modulus_size(), 0x01);
  EXPECT_TRUE(pair.private_key.decrypt_pkcs1(garbage).empty());
  EXPECT_TRUE(pair.private_key.decrypt_pkcs1(Bytes(3, 0)).empty());
}

TEST(Rsa, MessageTooLongThrows) {
  util::Rng rng(130);
  const RsaKeyPair pair = generate_rsa_keypair(rng, 512);
  const Bytes big(pair.public_key.modulus_size() - 10, 0xAA);
  EXPECT_THROW(pair.public_key.encrypt_pkcs1(rng, big),
               std::invalid_argument);
}

TEST(Rsa, FingerprintIdentifiesKey) {
  util::Rng rng(131);
  const RsaKeyPair a = generate_rsa_keypair(rng, 512);
  const RsaKeyPair b = generate_rsa_keypair(rng, 512);
  EXPECT_EQ(a.public_key.fingerprint().size(), 32u);
  EXPECT_NE(a.public_key.fingerprint(), b.public_key.fingerprint());
}

// ---------------------------------------------------------------------------
// PKI
// ---------------------------------------------------------------------------

TEST(Pki, RegisterAndFind) {
  util::Rng rng(140);
  const RsaKeyPair pair = generate_rsa_keypair(rng, 512);
  Pki pki;
  EXPECT_EQ(pki.find("/provider0/KEY/1"), nullptr);
  pki.add_key("/provider0/KEY/1", pair.public_key);
  ASSERT_NE(pki.find("/provider0/KEY/1"), nullptr);
  EXPECT_EQ(pki.find("/provider0/KEY/1")->n(), pair.public_key.n());
  EXPECT_TRUE(pki.contains("/provider0/KEY/1"));
  EXPECT_EQ(pki.size(), 1u);
  pki.clear();
  EXPECT_EQ(pki.size(), 0u);
}

TEST(Pki, ReplaceKey) {
  util::Rng rng(141);
  const RsaKeyPair a = generate_rsa_keypair(rng, 512);
  const RsaKeyPair b = generate_rsa_keypair(rng, 512);
  Pki pki;
  pki.add_key("/p/KEY/1", a.public_key);
  pki.add_key("/p/KEY/1", b.public_key);
  EXPECT_EQ(pki.size(), 1u);
  EXPECT_EQ(pki.find("/p/KEY/1")->n(), b.public_key.n());
}

}  // namespace
}  // namespace tactic::crypto
