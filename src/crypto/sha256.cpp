#include "crypto/sha256.hpp"

#include <cmath>
#include <cstring>
#include <stdexcept>

namespace tactic::crypto {

namespace {

constexpr std::uint32_t rotr(std::uint32_t x, int n) {
  return (x >> n) | (x << (32 - n));
}

bool is_prime_small(int n) {
  if (n < 2) return false;
  for (int d = 2; d * d <= n; ++d) {
    if (n % d == 0) return false;
  }
  return true;
}

/// First 32 bits of the fractional part of n^(1/root).
std::uint32_t frac_root_bits(int n, int root) {
  const long double x =
      root == 2 ? std::sqrt(static_cast<long double>(n))
                : std::cbrt(static_cast<long double>(n));
  const long double frac = x - std::floor(x);
  return static_cast<std::uint32_t>(frac * 4294967296.0L);
}

struct Constants {
  std::array<std::uint32_t, 8> h0;
  std::array<std::uint32_t, 64> k;
  Constants() {
    int prime = 2;
    for (std::size_t i = 0; i < 64; ++i) {
      while (!is_prime_small(prime)) ++prime;
      if (i < 8) h0[i] = frac_root_bits(prime, 2);
      k[i] = frac_root_bits(prime, 3);
      ++prime;
    }
  }
};

const Constants& constants() {
  static const Constants c;
  return c;
}

std::uint64_t g_blocks_compressed = 0;

}  // namespace

std::uint64_t Sha256::blocks_compressed() { return g_blocks_compressed; }

Sha256::Sha256() { reset(); }

void Sha256::reset() {
  state_ = constants().h0;
  buffered_ = 0;
  total_bytes_ = 0;
  finished_ = false;
}

void Sha256::update(util::BytesView data) {
  if (finished_) {
    throw std::logic_error("Sha256: update after finish; call reset()");
  }
  total_bytes_ += data.size();
  std::size_t offset = 0;
  if (buffered_ > 0) {
    const std::size_t take =
        std::min(kBlockSize - buffered_, data.size());
    std::memcpy(buffer_.data() + buffered_, data.data(), take);
    buffered_ += take;
    offset = take;
    if (buffered_ == kBlockSize) {
      process_block(buffer_.data());
      buffered_ = 0;
    }
  }
  while (offset + kBlockSize <= data.size()) {
    process_block(data.data() + offset);
    offset += kBlockSize;
  }
  if (offset < data.size()) {
    std::memcpy(buffer_.data(), data.data() + offset, data.size() - offset);
    buffered_ = data.size() - offset;
  }
}

void Sha256::update(std::string_view s) {
  update(util::BytesView(reinterpret_cast<const std::uint8_t*>(s.data()),
                         s.size()));
}

util::Bytes Sha256::finish() {
  if (finished_) {
    throw std::logic_error("Sha256: finish called twice; call reset()");
  }
  const std::uint64_t bit_length = total_bytes_ * 8;
  // Padding: 0x80, zeros, 64-bit big-endian length.
  std::uint8_t pad[kBlockSize * 2] = {0x80};
  const std::size_t pad_len =
      (buffered_ < 56) ? 56 - buffered_ : 120 - buffered_;
  update(util::BytesView(pad, pad_len));
  std::uint8_t len_bytes[8];
  for (int i = 0; i < 8; ++i) {
    len_bytes[i] = static_cast<std::uint8_t>(bit_length >> (56 - 8 * i));
  }
  update(util::BytesView(len_bytes, 8));
  finished_ = true;

  util::Bytes out(kDigestSize);
  for (std::size_t i = 0; i < 8; ++i) {
    out[4 * i] = static_cast<std::uint8_t>(state_[i] >> 24);
    out[4 * i + 1] = static_cast<std::uint8_t>(state_[i] >> 16);
    out[4 * i + 2] = static_cast<std::uint8_t>(state_[i] >> 8);
    out[4 * i + 3] = static_cast<std::uint8_t>(state_[i]);
  }
  return out;
}

void Sha256::process_block(const std::uint8_t* block) {
  ++g_blocks_compressed;
  const auto& k = constants().k;
  std::uint32_t w[64];
  for (int t = 0; t < 16; ++t) {
    w[t] = (static_cast<std::uint32_t>(block[4 * t]) << 24) |
           (static_cast<std::uint32_t>(block[4 * t + 1]) << 16) |
           (static_cast<std::uint32_t>(block[4 * t + 2]) << 8) |
           static_cast<std::uint32_t>(block[4 * t + 3]);
  }
  for (int t = 16; t < 64; ++t) {
    const std::uint32_t s0 =
        rotr(w[t - 15], 7) ^ rotr(w[t - 15], 18) ^ (w[t - 15] >> 3);
    const std::uint32_t s1 =
        rotr(w[t - 2], 17) ^ rotr(w[t - 2], 19) ^ (w[t - 2] >> 10);
    w[t] = w[t - 16] + s0 + w[t - 7] + s1;
  }

  std::uint32_t a = state_[0], b = state_[1], c = state_[2], d = state_[3];
  std::uint32_t e = state_[4], f = state_[5], g = state_[6], h = state_[7];
  for (int t = 0; t < 64; ++t) {
    const std::uint32_t big_s1 = rotr(e, 6) ^ rotr(e, 11) ^ rotr(e, 25);
    const std::uint32_t ch = (e & f) ^ (~e & g);
    const std::uint32_t t1 = h + big_s1 + ch + k[t] + w[t];
    const std::uint32_t big_s0 = rotr(a, 2) ^ rotr(a, 13) ^ rotr(a, 22);
    const std::uint32_t maj = (a & b) ^ (a & c) ^ (b & c);
    const std::uint32_t t2 = big_s0 + maj;
    h = g;
    g = f;
    f = e;
    e = d + t1;
    d = c;
    c = b;
    b = a;
    a = t1 + t2;
  }
  state_[0] += a;
  state_[1] += b;
  state_[2] += c;
  state_[3] += d;
  state_[4] += e;
  state_[5] += f;
  state_[6] += g;
  state_[7] += h;
}

util::Bytes Sha256::digest(util::BytesView data) {
  Sha256 ctx;
  ctx.update(data);
  return ctx.finish();
}

util::Bytes Sha256::digest(std::string_view s) {
  Sha256 ctx;
  ctx.update(s);
  return ctx.finish();
}

std::uint64_t sha256_prefix64(util::BytesView data) {
  const util::Bytes d = Sha256::digest(data);
  return util::read_u64(d, 0);
}

std::uint64_t sha256_prefix64(std::string_view s) {
  const util::Bytes d = Sha256::digest(s);
  return util::read_u64(d, 0);
}

}  // namespace tactic::crypto
