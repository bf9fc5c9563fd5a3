#include "tactic/wire.hpp"

#include <bit>
#include <cstring>
#include <limits>

#include "ndn/tlv.hpp"

namespace tactic::wire {

namespace {

using ndn::append_tlv;
using ndn::append_tlv_uint;
using ndn::TlvReader;

/// double <-> u64 bit pattern (flag F is a probability; exact round-trip
/// matters because content routers re-validate with probability F).
std::uint64_t pack_double(double v) { return std::bit_cast<std::uint64_t>(v); }
double unpack_double(std::uint64_t bits) { return std::bit_cast<double>(bits); }

/// The readers below treat a value its packet field cannot hold as
/// malformed, like broken framing: they throw TlvError, which the decoders
/// turn into nullopt.

/// Reads an unsigned integer that must fit `T`.
template <typename T>
T read_uint(const TlvReader::Element& element) {
  const std::uint64_t value = TlvReader::to_uint(element);
  if (value > static_cast<std::uint64_t>(std::numeric_limits<T>::max())) {
    throw ndn::TlvError("integer field out of range");
  }
  return static_cast<T>(value);
}

/// Reads a NACK reason: one of the enumerators, up to kRouterOverloaded.
ndn::NackReason read_nack_reason(const TlvReader::Element& element) {
  const std::uint64_t value = TlvReader::to_uint(element);
  if (value >= ndn::kNackReasonCount) {
    throw ndn::TlvError("unknown NACK reason");
  }
  return static_cast<ndn::NackReason>(value);
}

/// Reads flag F, a probability: NaN or a value outside [0, 1] is malformed.
double read_flag_f(const TlvReader::Element& element) {
  const double f = unpack_double(TlvReader::to_uint(element));
  if (!(f >= 0.0 && f <= 1.0)) throw ndn::TlvError("flag F outside [0, 1]");
  return f;
}

void append_tag(util::Bytes& out, const core::TagPtr& tag) {
  if (tag) append_tlv(out, kTlvTag, tag->serialize());
}

core::TagPtr read_tag(TlvReader& reader, bool& ok) {
  const auto element = reader.read_optional(kTlvTag);
  if (!element) return nullptr;
  core::TagPtr tag = core::Tag::deserialize(element->value);
  if (!tag) ok = false;
  return tag;
}

/// Reads the leading Name TLV inside a packet body.
ndn::Name read_name(TlvReader& reader) {
  const auto name = reader.expect_element(kTlvName);
  TlvReader components(name.value);
  std::vector<std::string> parts;
  while (!components.at_end()) {
    const auto component = components.expect_element(kTlvNameComponent);
    parts.emplace_back(component.value.begin(), component.value.end());
  }
  return ndn::Name::from_components(std::move(parts));
}

/// Reusable intermediate buffers for the encode_into() family.  The
/// nesting is fixed (packet body > name body), so two levels suffice;
/// both keep their capacity across calls.
util::Bytes& body_scratch() {
  static thread_local util::Bytes scratch;
  return scratch;
}

util::Bytes& name_scratch() {
  static thread_local util::Bytes scratch;
  return scratch;
}

/// Appends the Name TLV to `out` (capacity-reusing path of encode_name).
void append_name(util::Bytes& out, const ndn::Name& name) {
  util::Bytes& inner = name_scratch();
  inner.clear();
  for (std::size_t i = 0; i < name.size(); ++i) {
    append_tlv(inner, kTlvNameComponent, util::to_bytes(name.at(i)));
  }
  append_tlv(out, kTlvName, inner);
}

}  // namespace

util::Bytes encode_name(const ndn::Name& name) {
  util::Bytes out;
  append_name(out, name);
  return out;
}

ndn::Name decode_name(util::BytesView value) {
  TlvReader reader(value);
  const auto name_element = reader.expect_element(kTlvName);
  TlvReader components(name_element.value);
  std::vector<std::string> parts;
  while (!components.at_end()) {
    const auto component = components.expect_element(kTlvNameComponent);
    parts.emplace_back(component.value.begin(), component.value.end());
  }
  return ndn::Name::from_components(std::move(parts));
}

void encode_into(util::Bytes& out, const ndn::Interest& interest) {
  out.clear();
  util::Bytes& inner = body_scratch();
  inner.clear();
  append_name(inner, interest.name);
  append_tlv_uint(inner, kTlvNonce, interest.nonce);
  append_tlv_uint(inner, kTlvLifetime,
                  static_cast<std::uint64_t>(interest.lifetime));
  append_tag(inner, interest.tag);
  if (interest.flag_f != 0.0) {
    append_tlv_uint(inner, kTlvFlagF, pack_double(interest.flag_f));
  }
  if (interest.access_path != 0) {
    append_tlv_uint(inner, kTlvAccessPath, interest.access_path);
  }
  if (interest.payload_size != 0) {
    append_tlv_uint(inner, kTlvPayloadSize, interest.payload_size);
  }
  append_tlv(out, kTlvInterest, inner);
}

util::Bytes encode(const ndn::Interest& interest) {
  util::Bytes out;
  encode_into(out, interest);
  return out;
}

std::optional<ndn::Interest> decode_interest(util::BytesView wire) {
  try {
    TlvReader outer(wire);
    const auto packet = outer.expect_element(kTlvInterest);
    if (!outer.at_end()) return std::nullopt;
    TlvReader reader(packet.value);

    ndn::Interest interest;
    interest.name = read_name(reader);
    interest.nonce = TlvReader::to_uint(reader.expect_element(kTlvNonce));
    interest.lifetime =
        read_uint<event::Time>(reader.expect_element(kTlvLifetime));
    bool ok = true;
    interest.tag = read_tag(reader, ok);
    if (!ok) return std::nullopt;
    interest.tag_wire_size = interest.tag ? interest.tag->wire_size() : 0;
    if (const auto f = reader.read_optional(kTlvFlagF)) {
      interest.flag_f = read_flag_f(*f);
    }
    if (const auto ap = reader.read_optional(kTlvAccessPath)) {
      interest.access_path = TlvReader::to_uint(*ap);
    }
    if (const auto payload = reader.read_optional(kTlvPayloadSize)) {
      interest.payload_size = read_uint<std::size_t>(*payload);
    }
    if (!reader.at_end()) return std::nullopt;  // unknown trailing TLVs
    return interest;
  } catch (const ndn::TlvError&) {
    return std::nullopt;
  }
}

void encode_into(util::Bytes& out, const ndn::Data& data) {
  out.clear();
  util::Bytes& inner = body_scratch();
  inner.clear();
  append_name(inner, data.name);
  append_tlv_uint(inner, kTlvContentSize, data.content_size);
  append_tlv_uint(inner, kTlvAccessLevel, data.access_level);
  append_tlv(inner, kTlvProviderKeyLocator,
             util::to_bytes(data.provider_key_locator));
  append_tlv_uint(inner, kTlvSignatureSize, data.signature_size);
  if (data.is_registration_response) {
    append_tlv_uint(inner, kTlvRegistrationResponse, 1);
  }
  append_tag(inner, data.tag);
  if (data.nack_attached) {
    append_tlv_uint(inner, kTlvNackReason,
                    static_cast<std::uint64_t>(data.nack_reason));
  }
  if (data.flag_f != 0.0) {
    append_tlv_uint(inner, kTlvFlagF, pack_double(data.flag_f));
  }
  if (data.from_cache) append_tlv_uint(inner, kTlvFromCache, 1);
  append_tlv(out, kTlvData, inner);
}

util::Bytes encode(const ndn::Data& data) {
  util::Bytes out;
  encode_into(out, data);
  return out;
}

std::optional<ndn::Data> decode_data(util::BytesView wire) {
  try {
    TlvReader outer(wire);
    const auto packet = outer.expect_element(kTlvData);
    if (!outer.at_end()) return std::nullopt;
    TlvReader reader(packet.value);

    ndn::Data data;
    data.name = read_name(reader);
    data.content_size =
        read_uint<std::size_t>(reader.expect_element(kTlvContentSize));
    data.access_level =
        read_uint<std::uint32_t>(reader.expect_element(kTlvAccessLevel));
    {
      const auto locator = reader.expect_element(kTlvProviderKeyLocator);
      data.provider_key_locator.assign(locator.value.begin(),
                                       locator.value.end());
    }
    data.signature_size =
        read_uint<std::size_t>(reader.expect_element(kTlvSignatureSize));
    if (const auto reg = reader.read_optional(kTlvRegistrationResponse)) {
      data.is_registration_response = TlvReader::to_uint(*reg) != 0;
    }
    bool ok = true;
    data.tag = read_tag(reader, ok);
    if (!ok) return std::nullopt;
    data.tag_wire_size = data.tag ? data.tag->wire_size() : 0;
    if (const auto nack = reader.read_optional(kTlvNackReason)) {
      data.nack_attached = true;
      data.nack_reason = read_nack_reason(*nack);
    }
    if (const auto f = reader.read_optional(kTlvFlagF)) {
      data.flag_f = read_flag_f(*f);
    }
    if (const auto cached = reader.read_optional(kTlvFromCache)) {
      data.from_cache = TlvReader::to_uint(*cached) != 0;
    }
    if (!reader.at_end()) return std::nullopt;
    return data;
  } catch (const ndn::TlvError&) {
    return std::nullopt;
  }
}

void encode_into(util::Bytes& out, const ndn::Nack& nack) {
  out.clear();
  util::Bytes& inner = body_scratch();
  inner.clear();
  append_name(inner, nack.name);
  append_tlv_uint(inner, kTlvNackReason,
                  static_cast<std::uint64_t>(nack.reason));
  append_tlv(out, kTlvNack, inner);
}

util::Bytes encode(const ndn::Nack& nack) {
  util::Bytes out;
  encode_into(out, nack);
  return out;
}

std::optional<ndn::Nack> decode_nack(util::BytesView wire) {
  try {
    TlvReader outer(wire);
    const auto packet = outer.expect_element(kTlvNack);
    if (!outer.at_end()) return std::nullopt;
    TlvReader reader(packet.value);
    ndn::Nack nack;
    nack.name = read_name(reader);
    nack.reason = read_nack_reason(reader.expect_element(kTlvNackReason));
    if (!reader.at_end()) return std::nullopt;
    return nack;
  } catch (const ndn::TlvError&) {
    return std::nullopt;
  }
}

util::Bytes encode(const ndn::PacketVariant& packet) {
  return std::visit([](const auto& p) { return encode(*p); }, packet);
}

void encode_into(util::Bytes& out, const ndn::PacketVariant& packet) {
  std::visit([&out](const auto& p) { encode_into(out, *p); }, packet);
}

std::optional<ndn::PacketVariant> decode(util::BytesView wire) {
  try {
    TlvReader reader(wire);
    switch (reader.peek_type()) {
      case kTlvInterest: {
        auto interest = decode_interest(wire);
        if (!interest) return std::nullopt;
        return ndn::make_packet(std::move(*interest));
      }
      case kTlvData: {
        auto data = decode_data(wire);
        if (!data) return std::nullopt;
        return ndn::make_packet(std::move(*data));
      }
      case kTlvNack: {
        auto nack = decode_nack(wire);
        if (!nack) return std::nullopt;
        return ndn::make_packet(std::move(*nack));
      }
      default:
        return std::nullopt;
    }
  } catch (const ndn::TlvError&) {
    return std::nullopt;
  }
}

}  // namespace tactic::wire
