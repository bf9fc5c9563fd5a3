#pragma once
// Packet tracing: a CSV sink for the Forwarder's trace hook — the
// observability companion to ndnSIM's packet traces.  One row per packet
// event: time, node, direction, packet type, name, wire size, and the
// TACTIC flags (tag presence, F, NACK marks).
//
//   sim::PacketTrace trace("run.csv");
//   trace.attach(scenario.network());          // every node
//   // or trace.attach(scenario.network().node(id));  // one node
//   scenario.run();
//
// The filter (optional) limits rows to packets whose name matches a
// prefix — tracing a full Topo-4 run unfiltered produces millions of
// rows.

#include <optional>
#include <string>

#include "ndn/forwarder.hpp"
#include "topology/network.hpp"
#include "util/csv.hpp"

namespace tactic::sim {

class PacketTrace {
 public:
  /// Opens `path` and writes the header row.
  explicit PacketTrace(const std::string& path);

  /// Restricts tracing to names under `prefix`.
  void set_name_filter(ndn::Name prefix) { filter_ = std::move(prefix); }

  /// Attaches the trace to one node / every node of a network, beside any
  /// tracer already installed there (an armed invariant checker keeps
  /// observing).  The trace object must outlive the simulation run.
  void attach(ndn::Forwarder& node);
  void attach(topology::Network& network);

  std::uint64_t rows_written() const { return rows_; }

 private:
  void record(const ndn::Forwarder& node, const ndn::PacketVariant& packet,
              ndn::FaceId face, bool is_rx);

  util::CsvWriter csv_;
  std::optional<ndn::Name> filter_;
  std::uint64_t rows_ = 0;
};

}  // namespace tactic::sim
