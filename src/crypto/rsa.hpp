#pragma once
// RSA with PKCS#1 v1.5 signatures (RSASSA) and encryption (RSAES),
// implemented from scratch on top of crypto::BigUInt.
//
// TACTIC uses RSA in two places (paper Sections 3.B and 6):
//  - providers sign tags; routers verify them ("a few signature
//    verifications" is the only asymmetric crypto routers perform);
//  - providers encrypt the content-decryption key under the client's
//    public key at registration time.

#include <cstdint>
#include <memory>
#include <string>

#include "crypto/bignum.hpp"
#include "util/bytes.hpp"
#include "util/rng.hpp"

namespace tactic::crypto {

/// RSA public key (n, e).
class RsaPublicKey {
 public:
  RsaPublicKey() = default;
  /// Builds the key's Montgomery context for n, so n must be odd, > 1
  /// (every RSA modulus) and at most 2048 bits; throws
  /// std::invalid_argument otherwise.
  RsaPublicKey(BigUInt n, BigUInt e);

  const BigUInt& n() const { return n_; }
  const BigUInt& e() const { return e_; }
  /// Modulus size in bytes (the size of signatures and ciphertexts).
  std::size_t modulus_size() const { return modulus_size_; }
  bool valid() const { return !n_.is_zero(); }

  /// RSASSA-PKCS1-v1_5 verification with SHA-256.  Never throws on bad
  /// signatures; returns false.
  bool verify_pkcs1_sha256(util::BytesView message,
                           util::BytesView signature) const;

  /// RSAES-PKCS1-v1_5 encryption; message must be <= modulus_size() - 11
  /// bytes (throws std::invalid_argument otherwise).
  util::Bytes encrypt_pkcs1(util::Rng& rng, util::BytesView message) const;

  /// Canonical encoding (for hashing/fingerprints): len-prefixed n and e.
  util::Bytes encode() const;
  /// SHA-256 fingerprint of encode().
  util::Bytes fingerprint() const;

 private:
  BigUInt n_;
  BigUInt e_;
  std::size_t modulus_size_ = 0;
  std::shared_ptr<const Montgomery> mont_n_;  // shared: keys are copied around
};

/// RSA private key with CRT acceleration.
class RsaPrivateKey {
 public:
  RsaPrivateKey() = default;
  RsaPrivateKey(BigUInt n, BigUInt e, BigUInt d, BigUInt p, BigUInt q);

  const RsaPublicKey& public_key() const { return public_; }
  bool valid() const { return public_.valid(); }

  /// RSASSA-PKCS1-v1_5 signature with SHA-256.
  util::Bytes sign_pkcs1_sha256(util::BytesView message) const;

  /// RSAES-PKCS1-v1_5 decryption; returns empty on malformed padding.
  util::Bytes decrypt_pkcs1(util::BytesView ciphertext) const;

 private:
  BigUInt rsa_private_op(const BigUInt& input) const;

  RsaPublicKey public_;
  BigUInt d_;
  BigUInt p_, q_;
  BigUInt dp_, dq_, qinv_;
  std::shared_ptr<const Montgomery> mont_p_, mont_q_;  // shared, as mont_n_
};

/// Key pair generation.  `bits` is the modulus size, 512 to 2048 (the
/// widest Montgomery kernel; std::invalid_argument otherwise); e = 65537.
/// Deterministic for a given RNG state — the simulator derives all keys
/// from the scenario seed.
struct RsaKeyPair {
  RsaPrivateKey private_key;
  RsaPublicKey public_key;
};
RsaKeyPair generate_rsa_keypair(util::Rng& rng, std::size_t bits = 1024);

}  // namespace tactic::crypto
