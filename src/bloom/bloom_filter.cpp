#include "bloom/bloom_filter.hpp"

#include <cmath>
#include <stdexcept>

#include "crypto/sha256.hpp"

namespace tactic::bloom {

namespace {

std::size_t validated_bit_count(const BloomParams& params) {
  if (params.capacity == 0 || params.hashes == 0 || params.max_fpp <= 0.0 ||
      params.max_fpp >= 1.0 || params.design_fpp <= 0.0 ||
      params.design_fpp >= 1.0) {
    throw std::invalid_argument("BloomFilter: invalid parameters");
  }
  return bits_for_capacity(params.capacity, params.hashes,
                           params.design_fpp);
}

}  // namespace

BaseHashes base_hashes(util::BytesView element) {
  const util::Bytes digest = crypto::Sha256::digest(element);
  std::uint64_t h1 = util::read_u64(digest, 0);
  std::uint64_t h2 = util::read_u64(digest, 8);
  h2 |= 1;  // ensure h2 is odd so the probe sequence covers the table
  return {h1, h2};
}

double theoretical_fpp(std::size_t bits, std::size_t hashes,
                       std::size_t items) {
  if (bits == 0) return 1.0;
  const double k = static_cast<double>(hashes);
  const double exponent =
      -k * static_cast<double>(items) / static_cast<double>(bits);
  return std::pow(1.0 - std::exp(exponent), k);
}

std::size_t bits_for_capacity(std::size_t capacity, std::size_t hashes,
                              double target_fpp) {
  // Solve (1 - e^{-k n / m})^k = p for m:
  // m = -k n / ln(1 - p^{1/k}).
  const double k = static_cast<double>(hashes);
  const double n = static_cast<double>(capacity);
  const double denom = std::log(1.0 - std::pow(target_fpp, 1.0 / k));
  const double m = -k * n / denom;
  // Round up to a whole number of 64-bit words.
  const auto bits = static_cast<std::size_t>(std::ceil(m));
  return (bits + 63) / 64 * 64;
}

BloomFilter::BloomFilter(BloomParams params)
    : params_(params), bit_count_(validated_bit_count(params_)) {}

void BloomFilter::insert(BaseHashes hashes) {
  if (bits_.empty()) bits_.assign(bit_count_ / 64, 0);
  const auto [h1, h2] = hashes;
  const std::size_t m = bit_count();
  for (std::size_t i = 0; i < params_.hashes; ++i) {
    const std::size_t bit = (h1 + i * h2) % m;
    bits_[bit / 64] |= 1ULL << (bit % 64);
  }
  ++items_;
}

bool BloomFilter::contains(BaseHashes hashes) const {
  if (bits_.empty()) return false;  // nothing inserted since construction
  const auto [h1, h2] = hashes;
  const std::size_t m = bit_count();
  for (std::size_t i = 0; i < params_.hashes; ++i) {
    const std::size_t bit = (h1 + i * h2) % m;
    if (!(bits_[bit / 64] & (1ULL << (bit % 64)))) return false;
  }
  return true;
}

double BloomFilter::current_fpp() const {
  return theoretical_fpp(bit_count(), params_.hashes, items_);
}

bool BloomFilter::saturated() const {
  return current_fpp() > params_.max_fpp;
}

void BloomFilter::reset() {
  bits_.assign(bits_.size(), 0);
  items_ = 0;
  ++resets_;
}

void BloomFilter::wipe() {
  bits_.assign(bits_.size(), 0);
  items_ = 0;
}

}  // namespace tactic::bloom
