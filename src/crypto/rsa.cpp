#include "crypto/rsa.hpp"

#include <stdexcept>

#include "crypto/prime.hpp"
#include "crypto/sha256.hpp"

namespace tactic::crypto {

namespace {

/// DER DigestInfo prefix for SHA-256 (RFC 8017, section 9.2 note 1).
const util::Bytes& sha256_digest_info_prefix() {
  static const util::Bytes prefix = util::from_hex(
      "3031300d060960864801650304020105000420");
  return prefix;
}

/// EMSA-PKCS1-v1_5 encoding of a SHA-256 digest into `em_len` bytes.
util::Bytes emsa_pkcs1_encode(util::BytesView message, std::size_t em_len) {
  const util::Bytes digest = Sha256::digest(message);
  const util::Bytes& prefix = sha256_digest_info_prefix();
  const std::size_t t_len = prefix.size() + digest.size();
  if (em_len < t_len + 11) {
    throw std::invalid_argument("RSA: modulus too small for SHA-256 PKCS#1");
  }
  util::Bytes em;
  em.reserve(em_len);
  em.push_back(0x00);
  em.push_back(0x01);
  em.insert(em.end(), em_len - t_len - 3, 0xFF);
  em.push_back(0x00);
  em.insert(em.end(), prefix.begin(), prefix.end());
  em.insert(em.end(), digest.begin(), digest.end());
  return em;
}

}  // namespace

RsaPublicKey::RsaPublicKey(BigUInt n, BigUInt e)
    : n_(std::move(n)), e_(std::move(e)) {
  modulus_size_ = (n_.bit_length() + 7) / 8;
  mont_n_ = std::make_shared<const Montgomery>(n_);
}

bool RsaPublicKey::verify_pkcs1_sha256(util::BytesView message,
                                       util::BytesView signature) const {
  if (!valid() || signature.size() != modulus_size_) return false;
  const BigUInt s = BigUInt::from_bytes_be(signature);
  if (s >= n_) return false;
  const BigUInt m = mont_n_->exp(s, e_);
  const util::Bytes em = m.to_bytes_be(modulus_size_);
  const util::Bytes expected = emsa_pkcs1_encode(message, modulus_size_);
  return util::constant_time_equal(em, expected);
}

util::Bytes RsaPublicKey::encrypt_pkcs1(util::Rng& rng,
                                        util::BytesView message) const {
  if (!valid()) throw std::logic_error("RSA: encrypt with empty key");
  if (message.size() + 11 > modulus_size_) {
    throw std::invalid_argument("RSA: message too long for PKCS#1 v1.5");
  }
  util::Bytes em;
  em.reserve(modulus_size_);
  em.push_back(0x00);
  em.push_back(0x02);
  const std::size_t pad_len = modulus_size_ - message.size() - 3;
  for (std::size_t i = 0; i < pad_len; ++i) {
    // Nonzero random padding bytes.
    em.push_back(static_cast<std::uint8_t>(1 + rng.uniform(255)));
  }
  em.push_back(0x00);
  em.insert(em.end(), message.begin(), message.end());
  const BigUInt m = BigUInt::from_bytes_be(em);
  const BigUInt c = mont_n_->exp(m, e_);
  return c.to_bytes_be(modulus_size_);
}

util::Bytes RsaPublicKey::encode() const {
  util::Bytes out;
  util::append_lv(out, n_.to_bytes_be());
  util::append_lv(out, e_.to_bytes_be());
  return out;
}

util::Bytes RsaPublicKey::fingerprint() const {
  return Sha256::digest(encode());
}

RsaPrivateKey::RsaPrivateKey(BigUInt n, BigUInt e, BigUInt d, BigUInt p,
                             BigUInt q)
    : public_(std::move(n), std::move(e)),
      d_(std::move(d)),
      p_(std::move(p)),
      q_(std::move(q)) {
  dp_ = d_ % (p_ - BigUInt{1});
  dq_ = d_ % (q_ - BigUInt{1});
  const auto qinv = BigUInt::mod_inverse(q_, p_);
  if (!qinv) throw std::invalid_argument("RSA: p, q not coprime");
  qinv_ = *qinv;
  mont_p_ = std::make_shared<const Montgomery>(p_);
  mont_q_ = std::make_shared<const Montgomery>(q_);
}

BigUInt RsaPrivateKey::rsa_private_op(const BigUInt& input) const {
  // CRT: m1 = c^dp mod p, m2 = c^dq mod q,
  //      h = qinv * (m1 - m2) mod p, m = m2 + h*q.
  const BigUInt m1 = mont_p_->exp(input, dp_);
  const BigUInt m2 = mont_q_->exp(input, dq_);
  BigUInt diff = m1;
  if (diff < m2 % p_) diff += p_;
  diff -= m2 % p_;
  const BigUInt h = (qinv_ * diff) % p_;
  return m2 + h * q_;
}

util::Bytes RsaPrivateKey::sign_pkcs1_sha256(util::BytesView message) const {
  if (!valid()) throw std::logic_error("RSA: sign with empty key");
  const std::size_t k = public_.modulus_size();
  const util::Bytes em = emsa_pkcs1_encode(message, k);
  const BigUInt m = BigUInt::from_bytes_be(em);
  const BigUInt s = rsa_private_op(m);
  return s.to_bytes_be(k);
}

util::Bytes RsaPrivateKey::decrypt_pkcs1(util::BytesView ciphertext) const {
  if (!valid()) throw std::logic_error("RSA: decrypt with empty key");
  const std::size_t k = public_.modulus_size();
  if (ciphertext.size() != k) return {};
  const BigUInt c = BigUInt::from_bytes_be(ciphertext);
  if (c >= public_.n()) return {};
  const BigUInt m = rsa_private_op(c);
  const util::Bytes em = m.to_bytes_be(k);
  if (em.size() < 11 || em[0] != 0x00 || em[1] != 0x02) return {};
  // Find the 0x00 separator after at least 8 padding bytes.
  std::size_t sep = 2;
  while (sep < em.size() && em[sep] != 0x00) ++sep;
  if (sep < 10 || sep == em.size()) return {};
  return util::Bytes(em.begin() + static_cast<std::ptrdiff_t>(sep) + 1,
                     em.end());
}

RsaKeyPair generate_rsa_keypair(util::Rng& rng, std::size_t bits) {
  if (bits < 512 || bits > Montgomery::kMaxBits) {
    throw std::invalid_argument("RSA: modulus must be 512 to 2048 bits");
  }
  const BigUInt e{65537};
  for (;;) {
    const BigUInt p = random_prime(rng, bits / 2);
    const BigUInt q = random_prime(rng, bits - bits / 2);
    if (p == q) continue;
    const BigUInt n = p * q;
    if (n.bit_length() != bits) continue;
    const BigUInt phi = (p - BigUInt{1}) * (q - BigUInt{1});
    const auto d = BigUInt::mod_inverse(e, phi);
    if (!d) continue;  // e shares a factor with phi; retry
    RsaKeyPair pair;
    pair.private_key = RsaPrivateKey(n, e, *d, p, q);
    pair.public_key = pair.private_key.public_key();
    return pair;
  }
}

}  // namespace tactic::crypto
