#pragma once
// Shared scaffolding for the experiment harnesses in bench/.
//
// Every harness reproduces one table or figure of the paper.  Defaults
// are scaled down (shorter duration, one seed, smaller Bloom capacities)
// so the full suite completes in minutes; pass --full for the paper-scale
// configuration (2000 s, 5 seeds, Table III scale), or tune individual
// knobs:
//   --duration <seconds>     simulated seconds per run
//   --runs <n>               seeds averaged per configuration
//   --topologies 1,2,3,4     Table III presets to include
//   --seed <base>            base seed
//   --csv <path>             also write a CSV with the full-resolution data
//
// Every paper harness whose claim has a checkable shape (Tables II, IV
// and V, Figs. 5-8, the four ablations) exits 1 when the measured
// numbers miss it; see ShapeCheck.

#include <cstdio>
#include <fstream>
#include <iostream>
#include <memory>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "sim/scenario.hpp"
#include "util/csv.hpp"
#include "util/flags.hpp"
#include "util/table.hpp"

namespace tactic::bench {

struct HarnessOptions {
  std::vector<std::int64_t> topologies{1, 2, 3, 4};
  double duration_s = 60.0;
  std::int64_t runs = 1;
  std::uint64_t seed = 1;
  bool full = false;
  std::string csv_path;

  static HarnessOptions parse(int argc, char** argv,
                              std::vector<std::int64_t> default_topologies,
                              double default_duration_s,
                              std::int64_t default_runs = 1) {
    util::Flags flags(argc, argv);
    HarnessOptions options;
    options.full = flags.get_bool("full", false);
    options.topologies =
        flags.get_int_list("topologies", options.full
                                             ? std::vector<std::int64_t>{1, 2,
                                                                         3, 4}
                                             : default_topologies);
    options.duration_s = flags.get_double(
        "duration", options.full ? 2000.0 : default_duration_s);
    options.runs =
        flags.get_int("runs", options.full ? 5 : default_runs);
    options.seed = static_cast<std::uint64_t>(flags.get_int("seed", 1));
    options.csv_path = flags.get_string("csv", "");
    return options;
  }
};

/// The paper's standard scenario for one Table III topology.
inline sim::ScenarioConfig paper_scenario(int topology_index,
                                          const HarnessOptions& options,
                                          std::uint64_t run_index = 0) {
  sim::ScenarioConfig config;
  config.topology = topology::paper_topology(topology_index);
  config.duration = event::from_seconds(options.duration_s);
  config.seed = options.seed + run_index * 1000 +
                static_cast<std::uint64_t>(topology_index);
  // 1024-bit provider keys at --full fidelity; 512-bit otherwise (same
  // semantics, faster setup).
  config.provider.key_bits = options.full ? 1024 : 512;
  return config;
}

/// Runs one configuration across `runs` seeds, accumulating.
template <typename ConfigureFn>
sim::MetricsAccumulator run_seeds(const HarnessOptions& options,
                                  int topology_index,
                                  ConfigureFn&& configure) {
  sim::MetricsAccumulator acc;
  for (std::int64_t run = 0; run < options.runs; ++run) {
    sim::ScenarioConfig config = paper_scenario(
        topology_index, options, static_cast<std::uint64_t>(run));
    configure(config);
    sim::Scenario scenario(config);
    acc.add(scenario.run());
  }
  return acc;
}

inline void print_header(const std::string& title,
                         const HarnessOptions& options) {
  std::printf("=== %s ===\n", title.c_str());
  std::printf(
      "config: duration=%.0fs runs=%lld%s (use --full for paper scale; "
      "--duration/--runs/--topologies to tune)\n\n",
      options.duration_s, static_cast<long long>(options.runs),
      options.full ? " [FULL]" : "");
}

/// Machine-readable result sink: one top-level object with a "bench"
/// name, a flat "meta" object and a "rows" array of flat objects,
/// written to BENCH_<name>.json (or --json PATH).  Values are
/// pre-rendered by the caller via num()/str()/boolean() so the emitter
/// stays a dumb concatenator; keys must be plain identifiers.
class BenchJson {
 public:
  using Fields = std::vector<std::pair<std::string, std::string>>;

  explicit BenchJson(std::string bench_name, std::string path = "")
      : bench_name_(std::move(bench_name)),
        path_(path.empty() ? "BENCH_" + bench_name_ + ".json"
                           : std::move(path)) {}

  void meta(Fields fields) { meta_ = std::move(fields); }
  void row(Fields fields) { rows_.push_back(std::move(fields)); }

  /// Writes the accumulated document; throws std::runtime_error when the
  /// file cannot be opened.
  void write() const {
    std::ofstream out(path_);
    if (!out) {
      throw std::runtime_error("BenchJson: cannot open " + path_);
    }
    out << "{\n  \"bench\": " << str(bench_name_) << ",\n  \"meta\": ";
    put_object(out, meta_, "  ");
    out << ",\n  \"rows\": [";
    for (std::size_t i = 0; i < rows_.size(); ++i) {
      out << (i == 0 ? "\n    " : ",\n    ");
      put_object(out, rows_[i], "    ");
    }
    out << (rows_.empty() ? "]" : "\n  ]") << "\n}\n";
    std::printf("wrote %s\n", path_.c_str());
  }

  static std::string num(double v) { return util::CsvWriter::num(v); }
  static std::string num(std::uint64_t v) { return util::CsvWriter::num(v); }
  static std::string boolean(bool v) { return v ? "true" : "false"; }
  static std::string str(const std::string& s) {
    std::string out = "\"";
    for (const char c : s) {
      if (c == '"' || c == '\\') {
        out += '\\';
        out += c;
      } else if (c == '\n') {
        out += "\\n";
      } else {
        out += c;
      }
    }
    out += '"';
    return out;
  }

 private:
  static void put_object(std::ofstream& out, const Fields& fields,
                         const char* indent) {
    out << "{";
    for (std::size_t i = 0; i < fields.size(); ++i) {
      out << (i == 0 ? "" : ",") << "\n" << indent << "  "
          << str(fields[i].first) << ": " << fields[i].second;
    }
    if (!fields.empty()) out << "\n" << indent;
    out << "}";
  }

  std::string bench_name_;
  std::string path_;
  Fields meta_;
  std::vector<Fields> rows_;
};

/// Optional CSV sink (no-op when the user gave no --csv).
class MaybeCsv {
 public:
  explicit MaybeCsv(const std::string& path) {
    if (!path.empty()) writer_ = std::make_unique<util::CsvWriter>(path);
  }
  void row(const std::vector<std::string>& fields) {
    if (writer_) writer_->row(fields);
  }
  explicit operator bool() const { return writer_ != nullptr; }

 private:
  std::unique_ptr<util::CsvWriter> writer_;
};

/// The paper-shape gate of a harness.  A failed check() names its claim on
/// stderr, so stdout (which the figure goldens pin) is untouched, and
/// exit_code() becomes 1.
class ShapeCheck {
 public:
  void check(bool holds, const std::string& claim) {
    if (holds) return;
    std::fprintf(stderr, "paper shape violated: %s\n", claim.c_str());
    failed_ = true;
  }
  int exit_code() const { return failed_ ? 1 : 0; }

 private:
  bool failed_ = false;
};

/// Whether `values`, in sweep order, never rise and end strictly below
/// where they start.
inline bool falls_overall(const std::vector<double>& values) {
  for (std::size_t i = 1; i < values.size(); ++i) {
    if (values[i] > values[i - 1]) return false;
  }
  return values.size() >= 2 && values.back() < values.front();
}

/// Whether each of `values`, in sweep order, is strictly above (`rising`)
/// or strictly below the one before it.
inline bool strictly_monotone(const std::vector<double>& values,
                              bool rising) {
  for (std::size_t i = 1; i < values.size(); ++i) {
    if (rising ? values[i] <= values[i - 1] : values[i] >= values[i - 1]) {
      return false;
    }
  }
  return true;
}

}  // namespace tactic::bench
