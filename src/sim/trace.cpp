#include "sim/trace.hpp"

namespace tactic::sim {

PacketTrace::PacketTrace(const std::string& path) : csv_(path) {
  csv_.row({"time_s", "node", "kind", "dir", "face", "packet", "name",
            "wire_bytes", "has_tag", "flag_f", "nack"});
}

void PacketTrace::attach(ndn::Forwarder& node) {
  node.add_tracer([this](const ndn::Forwarder& fwd,
                         const ndn::PacketVariant& packet, ndn::FaceId face,
                         bool is_rx) { record(fwd, packet, face, is_rx); });
}

void PacketTrace::attach(topology::Network& network) {
  for (net::NodeId id = 0; id < network.node_count(); ++id) {
    attach(network.node(id));
  }
}

void PacketTrace::record(const ndn::Forwarder& node,
                         const ndn::PacketVariant& packet, ndn::FaceId face,
                         bool is_rx) {
  const char* type = "?";
  const ndn::Name* name = nullptr;
  bool has_tag = false;
  double flag_f = 0.0;
  const char* nack = "";
  std::visit(
      [&](const auto& p) {
        using T = std::decay_t<decltype(p)>;
        name = &p->name;
        if constexpr (std::is_same_v<T, ndn::InterestPtr>) {
          type = "interest";
          has_tag = p->tag != nullptr;
          flag_f = p->flag_f;
        } else if constexpr (std::is_same_v<T, ndn::DataPtr>) {
          type = p->is_registration_response ? "reg-response" : "data";
          has_tag = p->tag != nullptr;
          flag_f = p->flag_f;
          if (p->nack_attached) nack = ndn::to_string(p->nack_reason);
        } else {
          type = "nack";
          nack = ndn::to_string(p->reason);
        }
      },
      packet);

  if (filter_ && !filter_->is_prefix_of(*name)) return;

  csv_.row({util::CsvWriter::num(
                event::to_seconds(node.scheduler().now())),
            node.info().label, net::to_string(node.info().kind),
            is_rx ? "rx" : "tx", std::to_string(face), type,
            name->to_uri(),
            util::CsvWriter::num(
                static_cast<std::uint64_t>(ndn::wire_size(packet))),
            has_tag ? "1" : "0", util::CsvWriter::num(flag_f),
            std::string(nack)});
  ++rows_;
}

}  // namespace tactic::sim
