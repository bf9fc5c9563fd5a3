#pragma once
// Wire codec for TACTIC-extended NDN packets.
//
// Encodes Interests, Data, and NACKs — including TACTIC's tag, flag-F,
// access-path, and attached-NACK extensions — as NDN-style TLV so that
// packets can cross a real transport (or be captured/replayed/fuzzed).
// One caveat for simulator fidelity: content payloads and application
// payloads are carried as *declared sizes* (the simulator models bytes,
// it does not materialize them), so a decoded packet reports the same
// wire_size() as the one encoded.
//
// The codec lives in the tactic module (not ndn) because the tag is a
// TACTIC type; the base NDN layer stays independent of the
// access-control scheme.

#include <optional>

#include "ndn/forwarder.hpp"
#include "ndn/packet.hpp"
#include "tactic/tag.hpp"

namespace tactic::wire {

/// Assigned TLV types (outer packet types follow NDN conventions).
enum : std::uint64_t {
  kTlvInterest = 0x05,
  kTlvData = 0x06,
  kTlvNack = 0x64,

  kTlvName = 0x07,
  kTlvNameComponent = 0x08,
  kTlvNonce = 0x0A,
  kTlvLifetime = 0x0C,

  kTlvContentSize = 0x15,
  kTlvAccessLevel = 0x16,
  kTlvProviderKeyLocator = 0x17,
  kTlvSignatureSize = 0x18,
  kTlvPayloadSize = 0x19,

  kTlvTag = 0x80,
  kTlvFlagF = 0x81,
  kTlvAccessPath = 0x82,
  kTlvNackReason = 0x83,
  kTlvRegistrationResponse = 0x84,
  kTlvFromCache = 0x85,
};

/// Name <-> TLV.
util::Bytes encode_name(const ndn::Name& name);
ndn::Name decode_name(util::BytesView value);  // throws ndn::TlvError

/// Packet encoders.  Deterministic: encode(decode(x)) == x.
util::Bytes encode(const ndn::Interest& interest);
util::Bytes encode(const ndn::Data& data);
util::Bytes encode(const ndn::Nack& nack);
util::Bytes encode(const ndn::PacketVariant& packet);

/// Scratch-buffer encoders: `out` is cleared and refilled, keeping its
/// capacity, so a caller that encodes into the same buffer repeatedly
/// (the corruption probe, the invariant checker) stops allocating once
/// the buffer has grown to the working-set packet size.
void encode_into(util::Bytes& out, const ndn::Interest& interest);
void encode_into(util::Bytes& out, const ndn::Data& data);
void encode_into(util::Bytes& out, const ndn::Nack& nack);
void encode_into(util::Bytes& out, const ndn::PacketVariant& packet);

/// Packet decoders; nullopt on malformed input (never throws).  Malformed
/// includes a field value its packet field cannot hold: a lifetime above
/// the event::Time range, an access level above 32 bits, a NACK reason
/// above kRouterOverloaded, or a flag F that is NaN or outside [0, 1].
std::optional<ndn::Interest> decode_interest(util::BytesView wire);
std::optional<ndn::Data> decode_data(util::BytesView wire);
std::optional<ndn::Nack> decode_nack(util::BytesView wire);
/// Dispatches on the outer TLV type.
std::optional<ndn::PacketVariant> decode(util::BytesView wire);

}  // namespace tactic::wire
