#pragma once
// Measurement plumbing shared by the two benchmark runners: the sliced
// event loop, process memory readings, in-memory spans, the one function
// that extracts the simulator's counters, and the flat JSON line each
// runner prints.  Everything here uses public simulator calls only.

#include <chrono>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "sim/scenario.hpp"

namespace tactic::perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// Median of a non-empty sample.
double median(std::vector<double> values);

/// Current resident set (MB), from /proc/self/statm; 0 when unreadable.
double rss_mb_now();
/// The process's resident high-water mark (MB), from /proc/self/status;
/// 0 when unreadable.
double peak_rss_mb();

/// In-memory spans, written out as JSON lines when the run ends.  A span
/// opened while another is open becomes its child.
class SpanRecorder {
 public:
  explicit SpanRecorder(std::string run_id);

  std::size_t begin(std::string name);
  void end(std::size_t span);

  /// One JSON object per span: name, start/end (ns since the recorder was
  /// created), parent index (-1 for roots), run id, and self time (the
  /// duration minus the time covered by its children).
  void write(const std::string& path) const;

 private:
  struct Span {
    std::string name;
    std::int64_t start_ns = 0;
    std::int64_t end_ns = 0;
    std::int64_t parent = -1;
  };
  std::int64_t now_ns() const;

  std::string run_id_;
  Clock::time_point epoch_;
  std::vector<Span> spans_;
  std::vector<std::size_t> open_;
};

/// What the sliced event loop observed.
struct LoopStats {
  double loop_s = 0.0;  // wall time inside run_until(), all slices
  std::size_t pending_peak = 0;  // max pending_count() at slice boundaries
  /// RSS growth over the second half of the run: least-squares slope of
  /// the slice-boundary samples, in MB per simulated minute.
  double rss_growth_mb_per_sim_min = 0.0;
};

/// Runs the scenario to its configured duration in kSlice steps through
/// scenario.scheduler().run_until().  With `spans`, each slice is recorded
/// as an "event.run_until" span.
LoopStats run_sliced(sim::Scenario& scenario, SpanRecorder* spans = nullptr);

using Counters = std::vector<std::pair<std::string, double>>;

/// Every simulator counter the benchmark reports, read from a finished
/// scenario and its harvest, keyed by metric name.  The single place that
/// knows the simulator's counter layout.
Counters collect_counters(sim::Scenario& scenario,
                          const sim::Metrics& metrics);

/// Looks up a counter by name; throws std::out_of_range when absent.
double counter(const Counters& counters, const std::string& name);

/// A flat JSON object printed as one line on stdout.
class JsonLine {
 public:
  void add(const std::string& key, double value);
  void add(const std::string& key, const std::string& value);
  void add(const Counters& counters);
  void print() const;

 private:
  std::string body_;
};

}  // namespace tactic::perfbench
