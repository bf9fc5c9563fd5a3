// fingerprint_corpus — emits the metrics fingerprint digest of every
// scenario in the fixed-seed fuzz corpus, one `<mode> <seed> <digest>`
// line per run.
//
// The corpus is the refactoring safety net: ci/parity.sh diffs this
// output against tests/golden/fingerprints.txt, so any change to router
// policy code that alters behaviour — an extra RNG draw, a reordered
// charge, a dropped counter — shows up as a digest mismatch on a seed
// that reproduces with `fuzz_scenarios --seed N --repro [--faults ...]`.
//
// Modes mirror the fuzz harness's axes: `plain` (no chaos), `faults`
// (random fault plans), and `faults+overload` (fault plans plus the
// overload-resilience layer).  Defaults match the checked-in golden
// list; keep them in sync with ci/parity.sh and tests/pipeline_test.cpp.

#include <cstdio>
#include <exception>
#include <set>
#include <string>

#include "ndn/packet_pool.hpp"
#include "sim/scenario.hpp"
#include "testing/fingerprint.hpp"
#include "testing/generator.hpp"
#include "util/flags.hpp"

namespace {

using namespace tactic;

constexpr const char* kUsage =
    "usage: fingerprint_corpus [options]\n"
    "  --seeds N      seeds per mode (default 16)\n"
    "  --base S       first seed (default 9000)\n"
    "  --duration D   base simulated seconds per run (default 6)\n"
    "  --mode NAME    one of plain|faults|faults+overload|all (default all)\n"
    "  --verdicts     emit per-run verdict-multiset digests instead of\n"
    "                 metrics digests (order-insensitive per-user verdict\n"
    "                 counts; pinned by tests/golden/verdicts.txt)\n"
    "  --no-pool      disable packet-pool slab recycling (fresh heap\n"
    "                 allocation per packet); digests must not change\n";

struct Mode {
  const char* name;
  bool faults;
  bool overload;
};

constexpr Mode kModes[] = {
    {"plain", false, false},
    {"faults", true, false},
    {"faults+overload", true, true},
};

}  // namespace

int main(int argc, char** argv) {
  try {
    util::Flags flags(argc, argv);
    // Flags parses `--no-pool` as pool=false.
    const std::set<std::string> known = {"seeds", "base",     "duration",
                                         "mode",  "verdicts", "pool",
                                         "help"};
    for (const auto& name : flags.names()) {
      if (known.count(name) == 0) {
        std::fprintf(stderr, "unknown flag --%s\n%s", name.c_str(), kUsage);
        return 2;
      }
    }
    if (flags.get_bool("help", false)) {
      std::fputs(kUsage, stdout);
      return 0;
    }
    const std::int64_t seeds = flags.get_int("seeds", 16);
    const std::uint64_t base =
        static_cast<std::uint64_t>(flags.get_int("base", 9000));
    const double duration_s = flags.get_double("duration", 6.0);
    const std::string only = flags.get_string("mode", "all");
    const bool verdicts = flags.get_bool("verdicts", false);
    if (!flags.get_bool("pool", true)) {
      ndn::PacketPool::set_pooling_enabled(false);
    }
    if (seeds < 0 || !(duration_s > 0.0)) {
      std::fputs(kUsage, stderr);
      return 2;
    }

    for (const Mode& mode : kModes) {
      if (only != "all" && only != mode.name) continue;
      testing::GeneratorOptions generator;
      generator.duration = event::from_seconds(duration_s);
      generator.with_faults = mode.faults;
      generator.with_overload = mode.overload;
      for (std::int64_t i = 0; i < seeds; ++i) {
        const std::uint64_t seed = base + static_cast<std::uint64_t>(i);
        sim::Scenario scenario(testing::random_config(seed, generator));
        scenario.run();
        const std::string digest =
            verdicts ? testing::verdict_digest(scenario)
                     : testing::fingerprint_digest(scenario.harvest());
        std::printf("%s %llu %s\n", mode.name,
                    static_cast<unsigned long long>(seed), digest.c_str());
        std::fflush(stdout);
      }
    }
    return 0;
  } catch (const std::exception& error) {
    std::fprintf(stderr, "fingerprint_corpus: %s\n%s", error.what(), kUsage);
    return 2;
  }
}
