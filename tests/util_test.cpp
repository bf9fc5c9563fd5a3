// Unit and property tests for src/util.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <unordered_map>
#include <vector>

#include "util/bytes.hpp"
#include "util/csv.hpp"
#include "util/distributions.hpp"
#include "util/flags.hpp"
#include "util/hash_index.hpp"
#include "util/log.hpp"
#include "util/rng.hpp"
#include "util/slab.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"
#include "util/timeseries.hpp"

namespace tactic::util {
namespace {

// ---------------------------------------------------------------------------
// HashIndex
// ---------------------------------------------------------------------------

/// Drives a HashIndex and an std::unordered_map reference through the
/// same random insert/find/erase steps.  Keys live in a caller-side
/// store (`key_of[value]`), as the PIT, CS and FIB keep them in slabs;
/// `hash_of` chooses how keys spread over home cells.
template <typename HashFn>
void run_hash_index_differential(HashFn hash_of, std::uint64_t seed) {
  Rng rng(seed);
  HashIndex index;
  std::unordered_map<std::uint32_t, std::uint32_t> reference;  // key -> value
  std::vector<std::uint32_t> key_of;  // value -> key
  const auto find = [&](std::uint32_t key) {
    return index.find(hash_of(key),
                      [&](std::uint32_t v) { return key_of.at(v) == key; });
  };
  const auto check_all = [&] {
    ASSERT_EQ(index.size(), reference.size());
    for (const auto& [key, value] : reference) ASSERT_EQ(find(key), value);
  };
  // Key spaces cycle small -> large so small tables (which wrap most
  // often) see erasures too, and every ramp grows a clustered table.
  const std::uint32_t spaces[] = {12, 40, 300, 2500};
  std::size_t steps = 0;
  for (int round = 0; round < 4; ++round) {
    for (const std::uint32_t space : spaces) {
      for (int i = 0; i < 7000; ++i, ++steps) {
        const auto key = static_cast<std::uint32_t>(rng.uniform(space));
        const auto it = reference.find(key);
        const std::uint64_t op = rng.uniform(10);
        if (op < 5) {  // insert when absent, else probe
          if (it == reference.end()) {
            ASSERT_EQ(find(key), HashIndex::kNpos);
            const auto value = static_cast<std::uint32_t>(key_of.size());
            key_of.push_back(key);
            index.insert(hash_of(key), value);
            reference.emplace(key, value);
          } else {
            ASSERT_EQ(find(key), it->second);
          }
        } else if (op < 8) {  // erase
          const bool erased = index.erase(
              hash_of(key), [&](std::uint32_t v) { return key_of.at(v) == key; });
          ASSERT_EQ(erased, it != reference.end());
          if (it != reference.end()) reference.erase(it);
          ASSERT_EQ(find(key), HashIndex::kNpos);
        } else {  // find
          ASSERT_EQ(find(key),
                    it == reference.end() ? HashIndex::kNpos : it->second);
        }
        ASSERT_EQ(index.size(), reference.size());
        if (i % 500 == 0) check_all();
      }
      check_all();
    }
    // clear() drops every key and leaves a working, empty table.
    index.clear();
    reference.clear();
    EXPECT_TRUE(index.empty());
    for (std::uint32_t key = 0; key < 64; ++key) {
      ASSERT_EQ(find(key), HashIndex::kNpos);
    }
  }
  EXPECT_GE(steps, 100000u);
}

TEST(HashIndex, MatchesUnorderedMapWithSpreadHashes) {
  run_hash_index_differential(
      [](std::uint32_t key) { return key * 0x9E3779B97F4A7C15ull; }, 11);
}

TEST(HashIndex, MatchesUnorderedMapWhenKeysShareFewHomes) {
  // Seven distinct hashes for every key: each home heads a long cluster,
  // clusters merge and wrap past the last cell, and every erase shifts
  // entries of other keys (sometimes across the wrap).
  run_hash_index_differential(
      [](std::uint32_t key) { return std::uint64_t{key % 7}; }, 12);
}

TEST(HashIndex, MatchesUnorderedMapWhenEveryKeyCollides) {
  run_hash_index_differential([](std::uint32_t) { return 42ull; }, 13);
}

TEST(HashIndex, EmptyTableFindsAndErasesNothing) {
  HashIndex index;
  EXPECT_TRUE(index.empty());
  EXPECT_EQ(index.find(1, [](std::uint32_t) { return true; }),
            HashIndex::kNpos);
  EXPECT_FALSE(index.erase(1, [](std::uint32_t) { return true; }));
  index.clear();
  EXPECT_EQ(index.size(), 0u);
}

// ---------------------------------------------------------------------------
// Slab
// ---------------------------------------------------------------------------

TEST(Slab, AddressesStayStableAcrossChunkGrowth) {
  Slab<std::uint64_t> slab;
  std::vector<const std::uint64_t*> addresses;
  for (std::uint32_t i = 0; i < 5000; ++i) {
    const std::uint32_t idx = slab.acquire();
    ASSERT_EQ(idx, i);  // fresh slots are numbered in order
    slab[idx] = 1000 + i;
    addresses.push_back(&slab[idx]);
  }
  // Every chunk boundary (16, 48, 112, ...) was crossed; no slot moved
  // and no two indices share a slot.
  for (std::uint32_t i = 0; i < 5000; ++i) {
    ASSERT_EQ(&slab[i], addresses[i]) << "slot " << i;
    ASSERT_EQ(slab[i], 1000 + i) << "slot " << i;
  }
}

TEST(Slab, ReleasedSlotsComeBackLifoWithTheirCapacity) {
  Slab<std::vector<int>> slab;
  const std::uint32_t a = slab.acquire();
  const std::uint32_t b = slab.acquire();
  const std::uint32_t c = slab.acquire();
  slab[a].assign(100, 1);
  slab[b].assign(200, 2);
  slab[b].clear();  // a table resets a slot's contents, keeping capacity
  slab.release(a);
  slab.release(b);
  const std::uint32_t first = slab.acquire();
  EXPECT_EQ(first, b);  // last released, first reused
  EXPECT_TRUE(slab[first].empty());
  EXPECT_GE(slab[first].capacity(), 200u);
  const std::uint32_t second = slab.acquire();
  EXPECT_EQ(second, a);
  EXPECT_EQ(slab[second].size(), 100u);  // release leaves contents alone
  EXPECT_EQ(slab.acquire(), c + 1);      // then fresh slots again
}

TEST(Slab, CountsSlotsAndFreeSlots) {
  Slab<int> slab;
  EXPECT_EQ(slab.size(), 0u);
  EXPECT_EQ(slab.free_count(), 0u);
  for (int i = 0; i < 20; ++i) slab[slab.acquire()] = i;
  EXPECT_EQ(slab.size(), 20u);
  slab.release(3);
  slab.release(17);
  EXPECT_EQ(slab.size(), 20u);  // released slots still exist
  EXPECT_EQ(slab.free_count(), 2u);
  std::vector<int> visited;
  slab.for_each_free([&](int& slot) { visited.push_back(slot); });
  EXPECT_EQ(visited, (std::vector<int>{3, 17}));
  slab.acquire();
  EXPECT_EQ(slab.free_count(), 1u);
  EXPECT_EQ(slab.size(), 20u);
}

// ---------------------------------------------------------------------------
// bytes
// ---------------------------------------------------------------------------

TEST(Bytes, AppendIntegersAreBigEndian) {
  Bytes out;
  append_u16(out, 0x0102);
  append_u32(out, 0x03040506);
  append_u64(out, 0x0708090A0B0C0D0EULL);
  EXPECT_EQ(to_hex(out), "0102030405060708090a0b0c0d0e");
}

TEST(Bytes, ReadIntegersRoundTrip) {
  Bytes out;
  append_u16(out, 0xBEEF);
  append_u32(out, 0xDEADBEEF);
  append_u64(out, 0x0123456789ABCDEFULL);
  EXPECT_EQ(read_u16(out, 0), 0xBEEF);
  EXPECT_EQ(read_u32(out, 2), 0xDEADBEEFu);
  EXPECT_EQ(read_u64(out, 6), 0x0123456789ABCDEFULL);
}

TEST(Bytes, ReadPastEndThrows) {
  Bytes buf(3, 0);
  EXPECT_THROW(read_u32(buf, 0), std::out_of_range);
  EXPECT_THROW(read_u16(buf, 2), std::out_of_range);
}

TEST(Bytes, HexRoundTrip) {
  const Bytes data = {0x00, 0x7F, 0x80, 0xFF, 0x12};
  EXPECT_EQ(from_hex(to_hex(data)), data);
}

TEST(Bytes, FromHexAcceptsUppercase) {
  EXPECT_EQ(from_hex("DEADbeef"), from_hex("deadbeef"));
}

TEST(Bytes, FromHexRejectsBadInput) {
  EXPECT_THROW(from_hex("abc"), std::invalid_argument);   // odd length
  EXPECT_THROW(from_hex("zz"), std::invalid_argument);    // non-hex
}

TEST(Bytes, LengthPrefixedFieldsAreUnambiguous) {
  Bytes a, b;
  append_lv(a, std::string_view("ab"));
  append_lv(a, std::string_view("c"));
  append_lv(b, std::string_view("a"));
  append_lv(b, std::string_view("bc"));
  EXPECT_NE(a, b);  // "ab"+"c" must not collide with "a"+"bc"
}

TEST(Bytes, ConstantTimeEqual) {
  EXPECT_TRUE(constant_time_equal(from_hex("aabb"), from_hex("aabb")));
  EXPECT_FALSE(constant_time_equal(from_hex("aabb"), from_hex("aabc")));
  EXPECT_FALSE(constant_time_equal(from_hex("aabb"), from_hex("aabbcc")));
  EXPECT_TRUE(constant_time_equal({}, {}));
}

// ---------------------------------------------------------------------------
// rng
// ---------------------------------------------------------------------------

TEST(Rng, DeterministicForSeed) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a(), b());
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) same += (a() == b());
  EXPECT_LT(same, 2);
}

TEST(Rng, UniformRespectsBound) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    EXPECT_LT(rng.uniform(17), 17u);
  }
}

TEST(Rng, UniformCoversRange) {
  Rng rng(11);
  std::vector<int> histogram(8, 0);
  for (int i = 0; i < 8000; ++i) ++histogram[rng.uniform(8)];
  for (int count : histogram) {
    EXPECT_GT(count, 800);  // each bucket near 1000
    EXPECT_LT(count, 1200);
  }
}

TEST(Rng, UniformIntInclusiveBounds) {
  Rng rng(5);
  bool saw_lo = false, saw_hi = false;
  for (int i = 0; i < 1000; ++i) {
    const std::int64_t v = rng.uniform_int(-3, 3);
    EXPECT_GE(v, -3);
    EXPECT_LE(v, 3);
    saw_lo |= (v == -3);
    saw_hi |= (v == 3);
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(Rng, UniformDoubleInUnitInterval) {
  Rng rng(9);
  double sum = 0;
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.uniform_double();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
    sum += u;
  }
  EXPECT_NEAR(sum / 10000.0, 0.5, 0.02);
}

TEST(Rng, BernoulliMatchesProbability) {
  Rng rng(13);
  int hits = 0;
  for (int i = 0; i < 20000; ++i) hits += rng.bernoulli(0.3);
  EXPECT_NEAR(hits / 20000.0, 0.3, 0.02);
  EXPECT_FALSE(rng.bernoulli(0.0));
  EXPECT_TRUE(rng.bernoulli(1.0));
}

TEST(Rng, ForkedStreamsAreIndependent) {
  Rng root(42);
  Rng a = root.fork();
  Rng b = root.fork();
  int same = 0;
  for (int i = 0; i < 64; ++i) same += (a() == b());
  EXPECT_LT(same, 2);
}

// ---------------------------------------------------------------------------
// distributions
// ---------------------------------------------------------------------------

TEST(NormalDist, MeanAndStddev) {
  Rng rng(21);
  NormalDist dist(5.0, 2.0);
  RunningStats stats;
  for (int i = 0; i < 50000; ++i) stats.add(dist.sample(rng));
  EXPECT_NEAR(stats.mean(), 5.0, 0.05);
  EXPECT_NEAR(stats.stddev(), 2.0, 0.05);
}

TEST(NormalDist, ZeroStddevIsDeterministic) {
  Rng rng(3);
  NormalDist dist(1.25, 0.0);
  for (int i = 0; i < 10; ++i) EXPECT_EQ(dist.sample(rng), 1.25);
}

TEST(NormalDist, SampleAtLeastClamps) {
  Rng rng(4);
  NormalDist dist(0.0, 10.0);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_GE(dist.sample_at_least(rng, 0.0), 0.0);
  }
}

TEST(NormalDist, NegativeStddevThrows) {
  EXPECT_THROW(NormalDist(0.0, -1.0), std::invalid_argument);
}

TEST(ZipfDist, PmfSumsToOne) {
  ZipfDist dist(100, 0.7);
  double sum = 0;
  for (std::size_t k = 0; k < 100; ++k) sum += dist.pmf(k);
  EXPECT_NEAR(sum, 1.0, 1e-9);
}

TEST(ZipfDist, PmfIsMonotoneDecreasing) {
  ZipfDist dist(50, 0.7);
  for (std::size_t k = 1; k < 50; ++k) {
    EXPECT_LE(dist.pmf(k), dist.pmf(k - 1) + 1e-15);
  }
}

TEST(ZipfDist, AlphaZeroIsUniform) {
  ZipfDist dist(10, 0.0);
  for (std::size_t k = 0; k < 10; ++k) EXPECT_NEAR(dist.pmf(k), 0.1, 1e-9);
}

TEST(ZipfDist, SamplingMatchesPmf) {
  Rng rng(31);
  ZipfDist dist(20, 0.7);
  std::vector<int> counts(20, 0);
  const int n = 100000;
  for (int i = 0; i < n; ++i) ++counts[dist.sample(rng)];
  for (std::size_t k = 0; k < 20; ++k) {
    EXPECT_NEAR(counts[k] / static_cast<double>(n), dist.pmf(k), 0.01);
  }
}

TEST(ZipfDist, InvalidParamsThrow) {
  EXPECT_THROW(ZipfDist(0, 0.7), std::invalid_argument);
  EXPECT_THROW(ZipfDist(10, -0.1), std::invalid_argument);
}

/// Property sweep: higher alpha concentrates more mass on rank 0.
class ZipfAlphaSweep : public ::testing::TestWithParam<double> {};

TEST_P(ZipfAlphaSweep, HeadMassGrowsWithAlpha) {
  const double alpha = GetParam();
  ZipfDist low(100, alpha);
  ZipfDist high(100, alpha + 0.5);
  EXPECT_LT(low.pmf(0), high.pmf(0));
}

INSTANTIATE_TEST_SUITE_P(Alphas, ZipfAlphaSweep,
                         ::testing::Values(0.0, 0.3, 0.7, 1.0, 1.5));

// ---------------------------------------------------------------------------
// stats
// ---------------------------------------------------------------------------

TEST(RunningStats, BasicMoments) {
  RunningStats stats;
  for (double v : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) stats.add(v);
  EXPECT_EQ(stats.count(), 8u);
  EXPECT_DOUBLE_EQ(stats.mean(), 5.0);
  EXPECT_DOUBLE_EQ(stats.min(), 2.0);
  EXPECT_DOUBLE_EQ(stats.max(), 9.0);
  EXPECT_NEAR(stats.variance(), 32.0 / 7.0, 1e-12);
}

TEST(RunningStats, EmptyIsZero) {
  RunningStats stats;
  EXPECT_EQ(stats.mean(), 0.0);
  EXPECT_EQ(stats.variance(), 0.0);
  EXPECT_TRUE(stats.empty());
}

TEST(RunningStats, MergeEqualsCombined) {
  Rng rng(17);
  RunningStats a, b, all;
  for (int i = 0; i < 1000; ++i) {
    const double v = rng.uniform_double();
    if (i % 3 == 0) a.add(v); else b.add(v);
    all.add(v);
  }
  a.merge(b);
  EXPECT_EQ(a.count(), all.count());
  EXPECT_NEAR(a.mean(), all.mean(), 1e-12);
  EXPECT_NEAR(a.variance(), all.variance(), 1e-9);
  EXPECT_DOUBLE_EQ(a.min(), all.min());
  EXPECT_DOUBLE_EQ(a.max(), all.max());
}

TEST(SampleSet, Percentiles) {
  SampleSet set;
  for (int i = 1; i <= 100; ++i) set.add(i);
  EXPECT_DOUBLE_EQ(set.percentile(0), 1.0);
  EXPECT_DOUBLE_EQ(set.percentile(100), 100.0);
  EXPECT_NEAR(set.median(), 50.5, 1e-9);
  EXPECT_NEAR(set.percentile(90), 90.1, 1e-9);
}

TEST(SampleSet, PercentileOnEmptyIsZero) {
  SampleSet set;
  EXPECT_EQ(set.percentile(50), 0.0);
}

TEST(Histogram, BucketsAndClamping) {
  Histogram h(0.0, 10.0, 10);
  h.add(0.5);    // bucket 0
  h.add(9.99);   // bucket 9
  h.add(-5.0);   // clamped to 0
  h.add(42.0);   // clamped to 9
  EXPECT_EQ(h.bucket(0), 2u);
  EXPECT_EQ(h.bucket(9), 2u);
  EXPECT_EQ(h.total(), 4u);
  EXPECT_DOUBLE_EQ(h.bucket_lo(3), 3.0);
}

TEST(Histogram, InvalidParamsThrow) {
  EXPECT_THROW(Histogram(0, 10, 0), std::invalid_argument);
  EXPECT_THROW(Histogram(10, 0, 5), std::invalid_argument);
}

// ---------------------------------------------------------------------------
// timeseries
// ---------------------------------------------------------------------------

TEST(TimeSeries, PerSecondBucketing) {
  TimeSeries series(1.0);
  series.add(0.1, 10.0);
  series.add(0.9, 20.0);
  series.add(2.5, 30.0);
  EXPECT_EQ(series.bucket_count(), 3u);
  EXPECT_EQ(series.count(0), 2u);
  EXPECT_DOUBLE_EQ(series.mean(0), 15.0);
  EXPECT_EQ(series.count(1), 0u);
  EXPECT_DOUBLE_EQ(series.mean(2), 30.0);
  EXPECT_EQ(series.total_count(), 3u);
}

TEST(TimeSeries, EventRates) {
  TimeSeries series(1.0);
  for (int i = 0; i < 5; ++i) series.add_event(0.2 * i);
  EXPECT_EQ(series.count(0), 5u);
  EXPECT_DOUBLE_EQ(series.sum(0), 5.0);
}

TEST(TimeSeries, OverallMean) {
  TimeSeries series(1.0);
  series.add(0.0, 1.0);
  series.add(1.0, 3.0);
  EXPECT_DOUBLE_EQ(series.overall_mean(), 2.0);
}

TEST(TimeSeries, RejectsNegativeTime) {
  TimeSeries series(1.0);
  EXPECT_THROW(series.add(-0.1, 1.0), std::invalid_argument);
}

TEST(TimeSeries, CustomBucketWidth) {
  TimeSeries series(10.0);
  series.add(25.0, 1.0);
  EXPECT_EQ(series.bucket_count(), 3u);
  EXPECT_EQ(series.count(2), 1u);
}

// ---------------------------------------------------------------------------
// flags
// ---------------------------------------------------------------------------

TEST(Flags, ParsesAllForms) {
  const char* argv[] = {"prog", "--alpha=0.7", "--runs", "5",
                        "--full", "--no-precheck", "positional"};
  Flags flags(7, argv);
  EXPECT_DOUBLE_EQ(flags.get_double("alpha", 0.0), 0.7);
  EXPECT_EQ(flags.get_int("runs", 0), 5);
  EXPECT_TRUE(flags.get_bool("full", false));
  EXPECT_FALSE(flags.get_bool("precheck", true));
  ASSERT_EQ(flags.positional().size(), 1u);
  EXPECT_EQ(flags.positional()[0], "positional");
}

TEST(Flags, DefaultsWhenAbsent) {
  const char* argv[] = {"prog"};
  Flags flags(1, argv);
  EXPECT_EQ(flags.get_string("name", "dflt"), "dflt");
  EXPECT_EQ(flags.get_int("n", 42), 42);
  EXPECT_FALSE(flags.has("n"));
}

TEST(Flags, IntList) {
  const char* argv[] = {"prog", "--topologies=1,2,4"};
  Flags flags(2, argv);
  const auto list = flags.get_int_list("topologies", {});
  ASSERT_EQ(list.size(), 3u);
  EXPECT_EQ(list[0], 1);
  EXPECT_EQ(list[2], 4);
}

TEST(Flags, DoubleList) {
  const char* argv[] = {"prog", "--fpp=1e-4,1e-2"};
  Flags flags(2, argv);
  const auto list = flags.get_double_list("fpp", {});
  ASSERT_EQ(list.size(), 2u);
  EXPECT_DOUBLE_EQ(list[0], 1e-4);
  EXPECT_DOUBLE_EQ(list[1], 1e-2);
}

TEST(Flags, MalformedValuesThrow) {
  const char* argv[] = {"prog", "--n=abc"};
  Flags flags(2, argv);
  EXPECT_THROW(flags.get_int("n", 0), std::invalid_argument);
  EXPECT_THROW(flags.get_bool("n", false), std::invalid_argument);
}

// ---------------------------------------------------------------------------
// csv / table
// ---------------------------------------------------------------------------

TEST(Csv, EscapesSpecials) {
  const std::string path = ::testing::TempDir() + "/tactic_csv_test.csv";
  {
    CsvWriter csv(path);
    csv.row({"a", "b,c", "d\"e"});
    csv.row({CsvWriter::num(1.5), CsvWriter::num(std::uint64_t{7})});
  }
  std::ifstream in(path);
  std::string line1, line2;
  std::getline(in, line1);
  std::getline(in, line2);
  EXPECT_EQ(line1, "a,\"b,c\",\"d\"\"e\"");
  EXPECT_EQ(line2, "1.5,7");
  std::remove(path.c_str());
}

TEST(Table, AlignsAndPads) {
  Table table({"name", "value"});
  table.add_row({"x", "1"});
  table.add_row({"longer", "23"});
  std::ostringstream os;
  table.print(os);
  const std::string out = os.str();
  EXPECT_NE(out.find("| name   | value |"), std::string::npos);
  EXPECT_NE(out.find("| longer | 23    |"), std::string::npos);
  EXPECT_EQ(table.row_count(), 2u);
}

TEST(Table, Formatters) {
  EXPECT_EQ(Table::fmt_percent(94.081), "94.08%");
  EXPECT_EQ(Table::fmt_ratio(0.99994), "0.9999");
  EXPECT_EQ(Table::fmt(std::uint64_t{123}), "123");
}

TEST(Table, EmptyHeaderThrows) {
  EXPECT_THROW(Table({}), std::invalid_argument);
}

TEST(Table, ShortRowsArePadded) {
  Table table({"a", "b", "c"});
  table.add_row({"only-one"});
  std::ostringstream os;
  table.print(os);
  EXPECT_NE(os.str().find("only-one"), std::string::npos);
}

// ---------------------------------------------------------------------------
// log
// ---------------------------------------------------------------------------

struct LogLevelGuard {
  LogLevel saved = log_level();
  ~LogLevelGuard() { set_log_level(saved); }
};

TEST(Log, LevelFiltering) {
  LogLevelGuard guard;
  set_log_level(LogLevel::kWarn);
  EXPECT_EQ(log_level(), LogLevel::kWarn);
  // Below-threshold and kOff messages are dropped without touching the
  // stream; these calls simply must not crash or emit (visually checked
  // via stderr capture in CI; here we exercise the paths).
  log_line(LogLevel::kDebug, "dropped");
  log_line(LogLevel::kOff, "never emitted");
  set_log_level(LogLevel::kOff);
  log_line(LogLevel::kError, "also dropped at kOff");
  SUCCEED();
}

TEST(Log, MacroRespectsLevel) {
  LogLevelGuard guard;
  set_log_level(LogLevel::kError);
  int evaluations = 0;
  auto expensive = [&] {
    ++evaluations;
    return "payload";
  };
  TACTIC_LOG_DEBUG << expensive();  // must not evaluate below threshold
  EXPECT_EQ(evaluations, 0);
  TACTIC_LOG_ERROR << "";  // at threshold: evaluated (emits to stderr)
}

}  // namespace
}  // namespace tactic::util
