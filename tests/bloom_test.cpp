// Tests for the Bloom-filter substrate: the no-false-negative guarantee,
// analytic FPP accuracy and saturation-triggered reset.

#include <gtest/gtest.h>

#include <string>

#include "bloom/bloom_filter.hpp"
#include "util/rng.hpp"

namespace tactic::bloom {
namespace {

util::Bytes element(int i) {
  const std::string s = "element-" + std::to_string(i);
  return util::to_bytes(s);
}

TEST(BloomMath, TheoreticalFppKnownPoints) {
  // Empty filter never false-positives; fully loaded approaches 1.
  EXPECT_DOUBLE_EQ(theoretical_fpp(1000, 5, 0), 0.0);
  EXPECT_GT(theoretical_fpp(1000, 5, 10000), 0.99);
  // Monotone in items.
  EXPECT_LT(theoretical_fpp(10000, 5, 100), theoretical_fpp(10000, 5, 200));
}

TEST(BloomMath, BitsForCapacityAchievesTarget) {
  for (double target : {1e-2, 1e-4}) {
    for (std::size_t capacity : {100u, 500u, 5000u}) {
      const std::size_t bits = bits_for_capacity(capacity, 5, target);
      EXPECT_LE(theoretical_fpp(bits, 5, capacity), target * 1.05)
          << capacity << " @ " << target;
    }
  }
}

TEST(BloomMath, BitsGrowWithCapacityAndShrinkWithFpp) {
  EXPECT_LT(bits_for_capacity(500, 5, 1e-4),
            bits_for_capacity(5000, 5, 1e-4));
  EXPECT_GT(bits_for_capacity(500, 5, 1e-4),
            bits_for_capacity(500, 5, 1e-2));
}

TEST(BloomFilter, NoFalseNegatives) {
  BloomFilter bf({500, 5, 1e-4});
  for (int i = 0; i < 500; ++i) bf.insert(element(i));
  for (int i = 0; i < 500; ++i) {
    EXPECT_TRUE(bf.contains(element(i))) << i;
  }
}

TEST(BloomFilter, EmptyContainsNothing) {
  BloomFilter bf({500, 5, 1e-4});
  for (int i = 0; i < 100; ++i) EXPECT_FALSE(bf.contains(element(i)));
}

TEST(BloomFilter, MeasuredFppNearAnalytic) {
  BloomFilter bf({500, 5, 1e-2});
  for (int i = 0; i < 500; ++i) bf.insert(element(i));
  int false_positives = 0;
  const int probes = 20000;
  for (int i = 0; i < probes; ++i) {
    false_positives += bf.contains(element(100000 + i));
  }
  const double measured =
      static_cast<double>(false_positives) / static_cast<double>(probes);
  EXPECT_NEAR(measured, bf.current_fpp(), 5e-3);
}

TEST(BloomFilter, SaturationAndReset) {
  BloomFilter bf({100, 5, 1e-4});
  EXPECT_FALSE(bf.saturated());
  std::size_t inserted = 0;
  while (!bf.saturated()) {
    bf.insert(element(static_cast<int>(inserted++)));
    ASSERT_LT(inserted, 10000u);
  }
  // Saturation should trip in the vicinity of the design capacity.
  EXPECT_GT(inserted, 80u);
  EXPECT_LT(inserted, 130u);
  EXPECT_EQ(bf.reset_count(), 0u);
  bf.reset();
  EXPECT_EQ(bf.reset_count(), 1u);
  EXPECT_EQ(bf.item_count(), 0u);
  EXPECT_FALSE(bf.saturated());
  EXPECT_FALSE(bf.contains(element(0)));
}

TEST(BloomFilter, CurrentFppGrowsWithInserts) {
  BloomFilter bf({500, 5, 1e-4});
  double last = bf.current_fpp();
  EXPECT_EQ(last, 0.0);
  for (int i = 0; i < 400; ++i) {
    bf.insert(element(i));
    const double now = bf.current_fpp();
    EXPECT_GE(now, last);
    last = now;
  }
  EXPECT_GT(last, 0.0);
}

TEST(BloomFilter, InvalidParamsThrow) {
  EXPECT_THROW(BloomFilter({0, 5, 1e-4}), std::invalid_argument);
  EXPECT_THROW(BloomFilter({500, 0, 1e-4}), std::invalid_argument);
  EXPECT_THROW(BloomFilter({500, 5, 0.0}), std::invalid_argument);
  EXPECT_THROW(BloomFilter({500, 5, 1.5}), std::invalid_argument);
}

/// Property sweep across parameter combinations: inserted elements are
/// always found, and the analytic FPP at design capacity stays within the
/// design target.
struct BloomSweepParam {
  std::size_t capacity;
  std::size_t hashes;
  double fpp;
};

class BloomSweep : public ::testing::TestWithParam<BloomSweepParam> {};

TEST_P(BloomSweep, NoFalseNegativesAtCapacity) {
  const auto p = GetParam();
  BloomFilter bf({p.capacity, p.hashes, p.fpp});
  for (std::size_t i = 0; i < p.capacity; ++i) {
    bf.insert(element(static_cast<int>(i)));
  }
  for (std::size_t i = 0; i < p.capacity; ++i) {
    EXPECT_TRUE(bf.contains(element(static_cast<int>(i))));
  }
  EXPECT_LE(bf.current_fpp(), p.fpp * 1.05);
}

INSTANTIATE_TEST_SUITE_P(
    Params, BloomSweep,
    ::testing::Values(BloomSweepParam{100, 3, 1e-2},
                      BloomSweepParam{500, 5, 1e-4},
                      BloomSweepParam{1000, 5, 1e-4},
                      BloomSweepParam{1500, 5, 1e-4},
                      BloomSweepParam{5000, 7, 1e-3}));

TEST(BloomFilter, DesignFppDecoupledFromSaturationThreshold) {
  // Fig. 8's sweep: the bit array is sized by design_fpp, while max_fpp
  // only moves the reset threshold.  Same design -> same bits; a looser
  // threshold then takes ~3x more inserts to trip (for 1e-4 -> 1e-2).
  BloomFilter strict({100, 5, /*max_fpp=*/1e-4, /*design_fpp=*/1e-4});
  BloomFilter loose({100, 5, /*max_fpp=*/1e-2, /*design_fpp=*/1e-4});
  EXPECT_EQ(strict.bit_count(), loose.bit_count());

  auto inserts_to_saturate = [](BloomFilter& bf) {
    std::size_t n = 0;
    while (!bf.saturated()) {
      bf.insert(element(static_cast<int>(n++)));
      EXPECT_LT(n, 100000u);
    }
    return n;
  };
  const std::size_t strict_n = inserts_to_saturate(strict);
  const std::size_t loose_n = inserts_to_saturate(loose);
  EXPECT_GT(loose_n, 2 * strict_n);
  EXPECT_LT(loose_n, 5 * strict_n);
}

TEST(BloomFilter, LargerDesignFppMeansFewerBits) {
  BloomFilter tight({500, 5, 1e-4, 1e-4});
  BloomFilter roomy({500, 5, 1e-2, 1e-2});
  EXPECT_GT(tight.bit_count(), roomy.bit_count());
}

}  // namespace
}  // namespace tactic::bloom
