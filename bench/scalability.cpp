// Name-table scalability: the cost of million-entry forwarding tables.
//
// Three sweeps back the numbers in EXPERIMENTS.md ("Scalability: name
// tables"):
//
//   1. FIB longest-prefix match, prefix-hash index (`ndn::Fib`, the
//      default) vs the retained linear reference (`Impl::kLinear`), at
//      10^2 / 10^4 / 10^6 prefixes.  The index folds the query's prefix
//      hashes in one pass and probes only the prefix lengths that hold
//      entries; the linear reference builds and hashes a copy of every
//      prefix of the query name against an unordered_map.  The acceptance
//      bar for the index is a >=10x lookup speedup at 10^6 prefixes.
//   2. PIT churn at 10^5 concurrent entries: get_or_create / find / erase
//      plus the lazy min-expiry poll, exercising the slab arena and the
//      interned-name index.
//   3. End-to-end delivery with `prepopulate_fib_prefixes` junk routes
//      installed on every router (prefix hash vs linear), showing the
//      mechanism's cost where it matters: wall clock per simulated second.
//
// Defaults finish in about a minute; --full raises the end-to-end sweep to
// 10^5 prefixes per router and longer runs.  The usual knobs
// (--duration/--runs/--seed/--csv) apply to the end-to-end part.

#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <string>
#include <vector>

#include "harness.hpp"
#include "ndn/fib.hpp"
#include "ndn/name.hpp"
#include "ndn/pit.hpp"
#include "testing/alloc_probe.hpp"
#include "util/rng.hpp"

namespace {

using namespace tactic;

double seconds_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

// Distinct two-component prefixes /sg<hi>/sm<lo> built from a small
// component vocabulary (hi, lo < 1024), so a 10^6-entry table interns only
// ~2k strings — the table scales in entries, not in vocabulary, matching
// how real catalogs reuse namespace components.
ndn::Name prefix_for(std::size_t i) {
  return ndn::Name()
      .append("sg" + std::to_string(i >> 10))
      .append("sm" + std::to_string(i & 1023));
}

/// Query names four components deeper than any stored prefix
/// (object / version / "seg" / segment — the usual shape of a versioned,
/// segmented content name), so LPM has to walk past the match point and
/// back off.  The linear reference pays one prefix copy and hash probe per
/// component here; the prefix-hash index probes only length 2.
std::vector<ndn::Name> make_queries(std::size_t table_size,
                                    std::size_t count, util::Rng& rng) {
  std::vector<ndn::Name> queries;
  queries.reserve(count);
  for (std::size_t q = 0; q < count; ++q) {
    queries.push_back(prefix_for(rng.uniform(table_size))
                          .append("obj")
                          .append_number(rng.uniform(64))
                          .append("seg")
                          .append_number(rng.uniform(8)));
  }
  return queries;
}

struct FibRow {
  std::size_t prefixes = 0;
  double build_ms = 0;
  double lookup_ns = 0;
};

FibRow bench_fib(ndn::Fib::Impl impl, std::size_t prefixes,
                 const std::vector<ndn::Name>& queries,
                 std::size_t lookups) {
  ndn::Fib fib;
  fib.set_impl(impl);
  FibRow row;
  row.prefixes = prefixes;

  auto start = std::chrono::steady_clock::now();
  for (std::size_t i = 0; i < prefixes; ++i) {
    fib.add_route(prefix_for(i), static_cast<ndn::FaceId>(i & 7),
                  static_cast<std::uint32_t>(i & 15));
  }
  row.build_ms = seconds_since(start) * 1e3;

  std::size_t hits = 0;
  start = std::chrono::steady_clock::now();
  for (std::size_t done = 0; done < lookups;) {
    for (const ndn::Name& query : queries) {
      if (fib.lookup(query) != nullptr) ++hits;
      if (++done >= lookups) break;
    }
  }
  row.lookup_ns = seconds_since(start) * 1e9 / static_cast<double>(lookups);
  if (hits != lookups) {
    std::fprintf(stderr, "BUG: %zu/%zu lookups missed\n", lookups - hits,
                 lookups);
  }
  return row;
}

void bench_pit(util::Table& table, bench::MaybeCsv& csv,
               std::size_t entries, util::Rng& rng) {
  ndn::Pit pit;
  std::vector<ndn::Name> names;
  names.reserve(entries);
  for (std::size_t i = 0; i < entries; ++i) {
    names.push_back(prefix_for(i).append("obj").append_number(i & 63));
  }

  auto start = std::chrono::steady_clock::now();
  for (std::size_t i = 0; i < entries; ++i) {
    ndn::PitEntry& entry = pit.get_or_create(names[i]);
    pit.set_expiry(entry, static_cast<event::Time>(1 + (i & 1023)));
  }
  const double insert_ns =
      seconds_since(start) * 1e9 / static_cast<double>(entries);

  const std::size_t finds = entries;
  start = std::chrono::steady_clock::now();
  std::size_t hits = 0;
  for (std::size_t i = 0; i < finds; ++i) {
    if (pit.find(names[rng.uniform(entries)]) != nullptr) ++hits;
  }
  const double find_ns =
      seconds_since(start) * 1e9 / static_cast<double>(finds);

  // Steady-state churn: erase + re-create (slot reuse, no allocation).
  const std::size_t churns = entries;
  start = std::chrono::steady_clock::now();
  for (std::size_t i = 0; i < churns; ++i) {
    const ndn::Name& name = names[rng.uniform(entries)];
    pit.erase(name);
    ndn::PitEntry& entry = pit.get_or_create(name);
    pit.set_expiry(entry, static_cast<event::Time>(1 + (i & 1023)));
  }
  const double churn_ns =
      seconds_since(start) * 1e9 / static_cast<double>(churns);

  const std::size_t polls = 1000;
  start = std::chrono::steady_clock::now();
  for (std::size_t i = 0; i < polls; ++i) (void)pit.min_expiry();
  const double poll_ns =
      seconds_since(start) * 1e9 / static_cast<double>(polls);

  table.add_row({util::Table::fmt(static_cast<double>(entries), 8),
                 util::Table::fmt(insert_ns, 6), util::Table::fmt(find_ns, 6),
                 util::Table::fmt(churn_ns, 6), util::Table::fmt(poll_ns, 6)});
  csv.row({"pit", std::to_string(entries), util::CsvWriter::num(insert_ns),
           util::CsvWriter::num(find_ns), util::CsvWriter::num(churn_ns),
           util::CsvWriter::num(poll_ns)});
  (void)hits;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace tactic;
  const bench::HarnessOptions options =
      bench::HarnessOptions::parse(argc, argv, {2}, 10.0);
  bench::print_header("Scalability: million-entry name tables", options);
  bench::MaybeCsv csv(options.csv_path);
  csv.row({"section", "size", "a", "b", "c", "d"});

  // --- 1. FIB lookup: prefix hash vs linear reference ----------------------
  std::printf("FIB longest-prefix match, prefix hash vs linear reference\n");
  util::Table fib_table({"Prefixes", "Build hash ms", "Build linear ms",
                         "Lookup hash ns", "Lookup linear ns", "Speedup"});
  util::Rng rng(options.seed);
  const std::size_t lookups = 1u << 18;
  for (const std::size_t prefixes :
       {std::size_t{100}, std::size_t{10'000}, std::size_t{1'000'000}}) {
    std::vector<ndn::Name> queries =
        make_queries(prefixes, std::min<std::size_t>(lookups, 1u << 14), rng);
    const FibRow hash =
        bench_fib(ndn::Fib::Impl::kPrefixHash, prefixes, queries, lookups);
    const FibRow linear =
        bench_fib(ndn::Fib::Impl::kLinear, prefixes, queries, lookups);
    const double speedup = linear.lookup_ns / hash.lookup_ns;
    fib_table.add_row({util::Table::fmt(static_cast<double>(prefixes), 8),
                       util::Table::fmt(hash.build_ms, 6),
                       util::Table::fmt(linear.build_ms, 6),
                       util::Table::fmt(hash.lookup_ns, 6),
                       util::Table::fmt(linear.lookup_ns, 6),
                       util::Table::fmt(speedup, 4) + "x"});
    csv.row({"fib", std::to_string(prefixes),
             util::CsvWriter::num(hash.lookup_ns),
             util::CsvWriter::num(linear.lookup_ns),
             util::CsvWriter::num(hash.build_ms),
             util::CsvWriter::num(linear.build_ms)});
  }
  fib_table.print(std::cout);

  // --- 2. PIT churn at scale ----------------------------------------------
  std::printf("\nPIT slab arena (interned-name index, lazy expiry heap)\n");
  util::Table pit_table({"Entries", "get_or_create ns", "find ns",
                         "erase+reinsert ns", "min_expiry poll ns"});
  for (const std::size_t entries : {std::size_t{1'000}, std::size_t{100'000}}) {
    bench_pit(pit_table, csv, entries, rng);
  }
  pit_table.print(std::cout);

  // --- 3. End-to-end: junk routes on every router --------------------------
  std::printf(
      "\nEnd-to-end delivery with prepopulated FIBs (Topo. %lld, "
      "prefix hash vs linear)\n",
      static_cast<long long>(options.topologies.front()));
  util::Table e2e_table({"FIB prefixes/router", "Impl", "Delivery %",
                         "FIB lookups", "Probes/lookup", "Wall s per sim s",
                         "Allocs/chunk"});
  std::vector<std::size_t> scales{0, 100, 10'000};
  scales.push_back(options.full ? 100'000 : 30'000);
  for (const std::size_t prefixes : scales) {
    for (const ndn::Fib::Impl impl :
         {ndn::Fib::Impl::kPrefixHash, ndn::Fib::Impl::kLinear}) {
      const auto start = std::chrono::steady_clock::now();
      sim::MetricsAccumulator acc;
      double ratio = 0;
      std::uint64_t fib_lookups = 0, fib_nodes = 0;
      std::uint64_t chunks = 0;
      const std::uint64_t allocs_before = testing::alloc_count();
      for (std::int64_t run = 0; run < options.runs; ++run) {
        sim::ScenarioConfig config = bench::paper_scenario(
            static_cast<int>(options.topologies.front()), options,
            static_cast<std::uint64_t>(run));
        config.fib_impl = impl;
        config.prepopulate_fib_prefixes = prefixes;
        sim::Scenario scenario(config);
        const sim::Metrics& metrics = scenario.run();
        ratio += metrics.clients.delivery_ratio();
        fib_lookups +=
            metrics.edge_ops.fib_lookups + metrics.core_ops.fib_lookups;
        fib_nodes += metrics.edge_ops.fib_nodes_visited +
                     metrics.core_ops.fib_nodes_visited;
        chunks += metrics.clients.received + metrics.attackers.received;
        acc.add(metrics);
      }
      // Heap allocations per delivered chunk across the whole sweep
      // (includes setup; the packet path itself is pooled — see
      // bench/packet_path for the isolated steady-state number).
      const double allocs_per_chunk =
          static_cast<double>(testing::alloc_count() - allocs_before) /
          static_cast<double>(std::max<std::uint64_t>(chunks, 1));
      const double wall = seconds_since(start);
      const double sim_seconds =
          options.duration_s * static_cast<double>(options.runs);
      const bool hashed = impl == ndn::Fib::Impl::kPrefixHash;
      e2e_table.add_row(
          {util::Table::fmt(static_cast<double>(prefixes), 8),
           hashed ? "prefix-hash" : "linear",
           util::Table::fmt(100.0 * ratio / static_cast<double>(options.runs),
                            4),
           util::Table::fmt(static_cast<double>(fib_lookups), 8),
           hashed ? util::Table::fmt(static_cast<double>(fib_nodes) /
                                         static_cast<double>(
                                             std::max<std::uint64_t>(
                                                 fib_lookups, 1)),
                                     4)
                  : std::string("-"),
           util::Table::fmt(wall / sim_seconds, 4),
           util::Table::fmt(allocs_per_chunk, 5)});
      csv.row({"e2e", std::to_string(prefixes),
               hashed ? "prefix-hash" : "linear",
               util::CsvWriter::num(ratio /
                                    static_cast<double>(options.runs)),
               util::CsvWriter::num(wall / sim_seconds),
               util::CsvWriter::num(static_cast<double>(fib_lookups)),
               util::CsvWriter::num(allocs_per_chunk)});
    }
  }
  e2e_table.print(std::cout);
  std::printf(
      "\n(delivery and all fingerprint-visible metrics are identical "
      "between the two impls by construction — ci/sweep.sh scale asserts "
      "the byte-equality; this table shows what the equivalence costs)\n");
  return 0;
}
