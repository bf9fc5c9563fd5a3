#pragma once
// Bloom filters, as used by every TACTIC router to cache validated tags.
//
// The paper (Sections 4.B, 8.A) equips each router with a Bloom filter of a
// configurable capacity, k = 5 hash functions, and a maximum false-positive
// probability (FPP); when the filter saturates (its analytic FPP reaches
// the maximum), the router resets it.  TACTIC additionally *uses* the
// current FPP as the cooperation flag `F` it stamps on forwarded Interests.
//
// Hashing uses the standard double-hashing scheme of Kirsch & Mitzenmacher:
// g_i(x) = h1(x) + i * h2(x), with h1/h2 derived from one SHA-256 of the
// element (cryptographic hashing keeps an adversary from engineering
// collisions against router filters).  A caller that probes the same
// element repeatedly may hash it once with base_hashes() and insert or
// probe with the resulting BaseHashes; the bits are the same either way.

#include <cstddef>
#include <cstdint>
#include <vector>

#include "util/bytes.hpp"

namespace tactic::bloom {

/// Analytic false-positive probability of a Bloom filter with `bits` bits,
/// `hashes` hash functions, and `items` inserted elements:
/// (1 - e^{-k n / m})^k.
double theoretical_fpp(std::size_t bits, std::size_t hashes,
                       std::size_t items);

/// Number of bits needed so `capacity` items stay under `target_fpp`
/// with `hashes` hash functions.
std::size_t bits_for_capacity(std::size_t capacity, std::size_t hashes,
                              double target_fpp);

/// The two base hashes (h1, h2) of double hashing.
struct BaseHashes {
  std::uint64_t h1 = 0;
  std::uint64_t h2 = 0;  // odd, so the probe sequence covers the table
};

/// Derives (h1, h2) from one SHA-256 of the element.
BaseHashes base_hashes(util::BytesView element);

/// Parameters of a router Bloom filter.
struct BloomParams {
  /// Designed element capacity ("BF set to index 500/1000/1500 tags").
  std::size_t capacity = 500;
  /// Number of hash functions (paper: 5).
  std::size_t hashes = 5;
  /// Saturation threshold: the filter reports `saturated()` once its
  /// analytic FPP exceeds this value (paper: "maximum FPP" = 1e-4).
  /// Independent of the bit sizing, so the paper's Fig. 8 sweep (fixed
  /// size, varying threshold) is expressible.
  double max_fpp = 1e-4;
  /// FPP target used to size the bit array for `capacity` elements.
  double design_fpp = 1e-4;
};

/// Standard Bloom filter over opaque byte-string elements.  The bit
/// array is allocated by the first insert(): a filter that never vouches
/// for a tag costs no bits.
class BloomFilter {
 public:
  explicit BloomFilter(BloomParams params = {});

  const BloomParams& params() const { return params_; }
  std::size_t bit_count() const { return bit_count_; }
  /// Elements inserted since the last reset (double-insertions of the same
  /// element are counted; the analytic FPP is then an upper bound).
  std::size_t item_count() const { return items_; }

  /// Inserts an element, given its base hashes or its bytes.
  void insert(BaseHashes hashes);
  void insert(util::BytesView element) { insert(base_hashes(element)); }

  /// Membership query: false means definitely absent; true means present
  /// or a false positive.
  bool contains(BaseHashes hashes) const;
  bool contains(util::BytesView element) const {
    return contains(base_hashes(element));
  }

  /// Analytic FPP given the current item count.  This is the value TACTIC
  /// edge routers stamp into the flag F.
  double current_fpp() const;

  /// True once current_fpp() > params.max_fpp.
  bool saturated() const;

  /// Clears all bits and the item count, incrementing `reset_count()`.
  /// An allocated bit array stays allocated (as for wipe()).
  void reset();

  /// Clears all bits and the item count WITHOUT counting a reset.  Used
  /// when a router crashes: the state is lost, not maintained, so Table V
  /// reset accounting must not credit it as a saturation reset.
  void wipe();

  /// Number of resets since construction (paper Table V counts these).
  std::uint64_t reset_count() const { return resets_; }

 private:
  BloomParams params_;
  std::size_t bit_count_;
  std::vector<std::uint64_t> bits_;  // empty until the first insert()
  std::size_t items_ = 0;
  std::uint64_t resets_ = 0;
};

}  // namespace tactic::bloom
