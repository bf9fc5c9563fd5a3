// Tests for the TLV layer and the TACTIC packet wire codec: round-trips,
// canonical encodings, malformed-input rejection, and randomized
// encode/decode property sweeps.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <limits>

#include "crypto/rsa.hpp"
#include "ndn/tlv.hpp"
#include "tactic/tag.hpp"
#include "tactic/tactic_policy.hpp"
#include "tactic/wire.hpp"
#include "util/rng.hpp"

namespace tactic::wire {
namespace {

using util::Bytes;

// ---------------------------------------------------------------------------
// TLV primitives
// ---------------------------------------------------------------------------

TEST(Tlv, NumberEncodingWidths) {
  Bytes out;
  ndn::append_tlv_number(out, 42);
  EXPECT_EQ(out.size(), 1u);
  out.clear();
  ndn::append_tlv_number(out, 252);
  EXPECT_EQ(out.size(), 1u);
  out.clear();
  ndn::append_tlv_number(out, 253);
  EXPECT_EQ(out.size(), 3u);  // 253 marker + u16
  out.clear();
  ndn::append_tlv_number(out, 0xFFFF);
  EXPECT_EQ(out.size(), 3u);
  out.clear();
  ndn::append_tlv_number(out, 0x10000);
  EXPECT_EQ(out.size(), 5u);  // 254 marker + u32
  out.clear();
  ndn::append_tlv_number(out, 0x100000000ULL);
  EXPECT_EQ(out.size(), 9u);  // 255 marker + u64
}

TEST(Tlv, NumberRoundTrip) {
  for (std::uint64_t v :
       {0ull, 1ull, 252ull, 253ull, 65535ull, 65536ull, 4294967295ull,
        4294967296ull, ~0ull}) {
    Bytes out;
    ndn::append_tlv_number(out, v);
    ndn::TlvReader reader(out);
    EXPECT_EQ(reader.read_number(), v);
    EXPECT_TRUE(reader.at_end());
  }
}

TEST(Tlv, ElementRoundTrip) {
  Bytes out;
  ndn::append_tlv(out, 0x42, util::to_bytes("payload"));
  ndn::TlvReader reader(out);
  const auto element = reader.expect_element(0x42);
  EXPECT_EQ(std::string(element.value.begin(), element.value.end()),
            "payload");
  EXPECT_TRUE(reader.at_end());
}

TEST(Tlv, UintElementUsesShortestWidth) {
  for (const auto& [value, expected_len] :
       std::vector<std::pair<std::uint64_t, std::size_t>>{
           {0x00, 1}, {0xFF, 1}, {0x100, 2}, {0xFFFF, 2}, {0x10000, 4},
           {0xFFFFFFFF, 4}, {0x100000000ULL, 8}}) {
    Bytes out;
    ndn::append_tlv_uint(out, 0x10, value);
    ndn::TlvReader reader(out);
    const auto element = reader.expect_element(0x10);
    EXPECT_EQ(element.value.size(), expected_len) << value;
    EXPECT_EQ(ndn::TlvReader::to_uint(element), value);
  }
}

TEST(Tlv, TruncationThrows) {
  Bytes out;
  ndn::append_tlv(out, 0x42, Bytes(100, 0xAA));
  out.pop_back();
  ndn::TlvReader reader(out);
  EXPECT_THROW(reader.read_element(), ndn::TlvError);
}

TEST(Tlv, WrongTypeThrows) {
  Bytes out;
  ndn::append_tlv(out, 0x42, {});
  ndn::TlvReader reader(out);
  EXPECT_THROW(reader.expect_element(0x43), ndn::TlvError);
}

TEST(Tlv, ReadOptionalLeavesReaderOnMismatch) {
  Bytes out;
  ndn::append_tlv(out, 0x42, {});
  ndn::TlvReader reader(out);
  EXPECT_FALSE(reader.read_optional(0x43).has_value());
  EXPECT_TRUE(reader.read_optional(0x42).has_value());
  EXPECT_TRUE(reader.at_end());
}

// ---------------------------------------------------------------------------
// Tag serialization round-trip
// ---------------------------------------------------------------------------

core::TagPtr make_tag(std::uint64_t seed = 1) {
  util::Rng rng(seed);
  const crypto::RsaKeyPair keys = crypto::generate_rsa_keypair(rng, 512);
  core::Tag::Fields fields;
  fields.provider_key_locator = "/provider0/KEY/1";
  fields.client_key_locator = "/client3/KEY/1";
  fields.access_level = 7;
  fields.access_path = 0x1122334455667788ULL;
  fields.expiry = 12 * event::kSecond + 345;
  return core::issue_tag(fields, keys.private_key);
}

TEST(TagWire, SerializeDeserializeRoundTrip) {
  const core::TagPtr tag = make_tag();
  const core::TagPtr back = core::Tag::deserialize(tag->serialize());
  ASSERT_NE(back, nullptr);
  EXPECT_TRUE(back->same_tag(*tag));
  EXPECT_EQ(back->provider_key_locator(), tag->provider_key_locator());
  EXPECT_EQ(back->client_key_locator(), tag->client_key_locator());
  EXPECT_EQ(back->access_level(), tag->access_level());
  EXPECT_EQ(back->access_path(), tag->access_path());
  EXPECT_EQ(back->expiry(), tag->expiry());
  EXPECT_EQ(back->signature(), tag->signature());
}

TEST(TagWire, DeserializeRejectsMalformed) {
  const core::TagPtr tag = make_tag();
  Bytes wire = tag->serialize();
  // Truncations at every prefix length must fail cleanly.
  for (std::size_t cut = 0; cut < wire.size(); cut += 7) {
    EXPECT_EQ(core::Tag::deserialize(
                  util::BytesView(wire.data(), cut)),
              nullptr)
        << "cut=" << cut;
  }
  // Trailing garbage.
  wire.push_back(0x00);
  EXPECT_EQ(core::Tag::deserialize(wire), nullptr);
}

// ---------------------------------------------------------------------------
// Packet codec
// ---------------------------------------------------------------------------

TEST(PacketWire, InterestRoundTripPlain) {
  ndn::Interest interest;
  interest.name = ndn::Name("/provider0/obj1/c2");
  interest.nonce = 0xDEADBEEFCAFEULL;
  interest.lifetime = 750 * event::kMillisecond;
  const auto back = decode_interest(encode(interest));
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back->name, interest.name);
  EXPECT_EQ(back->nonce, interest.nonce);
  EXPECT_EQ(back->lifetime, interest.lifetime);
  EXPECT_EQ(back->tag, nullptr);
  EXPECT_EQ(back->flag_f, 0.0);
}

TEST(PacketWire, InterestRoundTripWithTacticExtensions) {
  ndn::Interest interest;
  interest.name = ndn::Name("/provider0/obj1/c2");
  interest.nonce = 7;
  interest.tag = make_tag();
  interest.tag_wire_size = interest.tag->wire_size();
  interest.flag_f = 3.0517578125e-05;  // an exact double
  interest.access_path = 0xAABBCCDDEEFF0011ULL;
  interest.payload_size = 64;
  const auto back = decode_interest(encode(interest));
  ASSERT_TRUE(back.has_value());
  ASSERT_NE(back->tag, nullptr);
  EXPECT_TRUE(back->tag->same_tag(*interest.tag));
  EXPECT_EQ(back->tag_wire_size, interest.tag_wire_size);
  EXPECT_EQ(back->flag_f, interest.flag_f);  // bit-exact
  EXPECT_EQ(back->access_path, interest.access_path);
  EXPECT_EQ(back->payload_size, interest.payload_size);
}

TEST(PacketWire, DataRoundTripFull) {
  ndn::Data data;
  data.name = ndn::Name("/provider0/obj9/c49");
  data.content_size = 4096;
  data.access_level = 3;
  data.provider_key_locator = "/provider0/KEY/1";
  data.signature_size = 128;
  data.tag = make_tag();
  data.tag_wire_size = data.tag->wire_size();
  data.nack_attached = true;
  data.nack_reason = ndn::NackReason::kInvalidSignature;
  data.flag_f = 0.25;
  data.from_cache = true;
  const auto back = decode_data(encode(data));
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back->name, data.name);
  EXPECT_EQ(back->content_size, data.content_size);
  EXPECT_EQ(back->access_level, data.access_level);
  EXPECT_EQ(back->provider_key_locator, data.provider_key_locator);
  EXPECT_EQ(back->signature_size, data.signature_size);
  EXPECT_TRUE(back->tag->same_tag(*data.tag));
  EXPECT_TRUE(back->nack_attached);
  EXPECT_EQ(back->nack_reason, data.nack_reason);
  EXPECT_EQ(back->flag_f, data.flag_f);
  EXPECT_TRUE(back->from_cache);
}

TEST(PacketWire, RegistrationResponseRoundTrip) {
  ndn::Data data;
  data.name = ndn::Name("/provider0/register/client1/99");
  data.is_registration_response = true;
  data.tag = make_tag();
  data.tag_wire_size = data.tag->wire_size();
  const auto back = decode_data(encode(data));
  ASSERT_TRUE(back.has_value());
  EXPECT_TRUE(back->is_registration_response);
  EXPECT_TRUE(back->tag->same_tag(*data.tag));
}

TEST(PacketWire, NackRoundTrip) {
  ndn::Nack nack{ndn::Name("/p/x"), ndn::NackReason::kAccessPathMismatch};
  const auto back = decode_nack(encode(nack));
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back->name, nack.name);
  EXPECT_EQ(back->reason, nack.reason);
}

TEST(PacketWire, VariantDispatch) {
  ndn::Interest interest;
  interest.name = ndn::Name("/a");
  ndn::Data data;
  data.name = ndn::Name("/b");
  ndn::Nack nack{ndn::Name("/c"), ndn::NackReason::kNoRoute};
  EXPECT_TRUE(std::holds_alternative<ndn::InterestPtr>(
      *decode(encode(ndn::make_packet(ndn::Interest(interest))))));
  EXPECT_TRUE(std::holds_alternative<ndn::DataPtr>(
      *decode(encode(ndn::make_packet(ndn::Data(data))))));
  EXPECT_TRUE(std::holds_alternative<ndn::NackPtr>(
      *decode(encode(ndn::make_packet(ndn::Nack(nack))))));
}

TEST(PacketWire, DeterministicEncoding) {
  ndn::Interest interest;
  interest.name = ndn::Name("/provider0/obj1/c2");
  interest.nonce = 7;
  interest.tag = make_tag();
  EXPECT_EQ(encode(interest), encode(interest));
  // And encode(decode(x)) == x.
  const Bytes wire = encode(interest);
  EXPECT_EQ(encode(*decode_interest(wire)), wire);
}

TEST(PacketWire, MalformedInputsRejectedNotThrown) {
  EXPECT_FALSE(decode(Bytes{}).has_value());
  EXPECT_FALSE(decode(Bytes{0x99, 0x00}).has_value());  // unknown type
  ndn::Data data;
  data.name = ndn::Name("/b");
  Bytes wire = encode(data);
  // Truncate at every length.
  for (std::size_t cut = 0; cut < wire.size(); ++cut) {
    EXPECT_FALSE(
        decode_data(util::BytesView(wire.data(), cut)).has_value());
  }
  // Trailing garbage after a valid packet.
  wire.push_back(0x00);
  EXPECT_FALSE(decode_data(wire).has_value());
  // Interest bytes fed to the data decoder.
  ndn::Interest interest;
  interest.name = ndn::Name("/a");
  EXPECT_FALSE(decode_data(encode(interest)).has_value());
}

TEST(PacketWire, CorruptedTagRejected) {
  ndn::Interest interest;
  interest.name = ndn::Name("/p/a");
  interest.nonce = 1;
  interest.tag = make_tag();
  Bytes wire = encode(interest);
  // Flip a byte inside the tag's signature area (near the end of the
  // packet, before the trailing optional TLVs which are absent here).
  wire[wire.size() - 10] ^= 0xFF;
  const auto back = decode_interest(wire);
  // Either the packet decodes with a different (still structurally valid)
  // tag, or it is rejected; it must never equal the original tag.
  if (back.has_value() && back->tag != nullptr) {
    EXPECT_FALSE(back->tag->same_tag(*interest.tag));
  }
}

// A well-framed field whose value its packet field cannot hold is
// malformed too: the decoders return nullopt instead of a wrapped or
// out-of-enum value the forwarder or an app would then index or schedule
// with.

TEST(PacketWire, NackReasonAboveRouterOverloadedRejected) {
  const auto reason = [](std::uint64_t value) {
    return static_cast<ndn::NackReason>(value);
  };
  const std::uint64_t last =
      static_cast<std::uint64_t>(ndn::NackReason::kRouterOverloaded);
  ndn::Nack nack{ndn::Name("/p/x"), reason(last)};
  EXPECT_TRUE(decode_nack(encode(nack)).has_value());
  for (const std::uint64_t bad : {last + 1, std::uint64_t{200}}) {
    nack.reason = reason(bad);
    EXPECT_FALSE(decode_nack(encode(nack)).has_value()) << bad;
    EXPECT_FALSE(decode(encode(nack)).has_value()) << bad;
  }
  // The same rule for a NACK attached to Data.
  ndn::Data data;
  data.name = ndn::Name("/p/x");
  data.nack_attached = true;
  data.nack_reason = reason(last);
  EXPECT_TRUE(decode_data(encode(data)).has_value());
  data.nack_reason = reason(200);
  EXPECT_FALSE(decode_data(encode(data)).has_value());
}

TEST(PacketWire, LifetimeBeyondTimeRangeRejected) {
  ndn::Interest interest;
  interest.name = ndn::Name("/p/a");
  interest.lifetime = std::numeric_limits<event::Time>::max();
  const auto longest = decode_interest(encode(interest));
  ASSERT_TRUE(longest.has_value());
  EXPECT_EQ(longest->lifetime, interest.lifetime);
  // The encoder writes the lifetime as u64, so this one goes out as
  // 2^63 + 5, one the old decoder wrapped to a negative lifetime.
  interest.lifetime = std::numeric_limits<event::Time>::min() + 5;
  EXPECT_FALSE(decode_interest(encode(interest)).has_value());
  EXPECT_FALSE(decode(encode(interest)).has_value());
}

TEST(PacketWire, AccessLevelBeyondThirtyTwoBitsRejected) {
  // ndn::Data holds a u32 level, so the wire is built by hand.
  const auto data_wire = [](std::uint64_t access_level) {
    Bytes inner = encode_name(ndn::Name("/p/a"));
    ndn::append_tlv_uint(inner, kTlvContentSize, 10);
    ndn::append_tlv_uint(inner, kTlvAccessLevel, access_level);
    ndn::append_tlv(inner, kTlvProviderKeyLocator,
                    util::to_bytes("/p/KEY/1"));
    ndn::append_tlv_uint(inner, kTlvSignatureSize, 128);
    Bytes out;
    ndn::append_tlv(out, kTlvData, inner);
    return out;
  };
  const std::uint64_t top = std::numeric_limits<std::uint32_t>::max();
  const auto highest = decode_data(data_wire(top));
  ASSERT_TRUE(highest.has_value());
  EXPECT_EQ(highest->access_level, top);
  EXPECT_FALSE(decode_data(data_wire(top + 1)).has_value());
}

TEST(PacketWire, FlagFOutsideUnitIntervalRejected) {
  ndn::Interest interest;
  interest.name = ndn::Name("/p/a");
  ndn::Data data;
  data.name = ndn::Name("/p/a");
  for (const double f : {0.0, 0.5, 1.0}) {
    interest.flag_f = f;
    data.flag_f = f;
    EXPECT_TRUE(decode_interest(encode(interest)).has_value()) << f;
    EXPECT_TRUE(decode_data(encode(data)).has_value()) << f;
  }
  for (const double f : {std::nan(""), -0.25, 1.5,
                         std::numeric_limits<double>::infinity()}) {
    interest.flag_f = f;
    data.flag_f = f;
    EXPECT_FALSE(decode_interest(encode(interest)).has_value()) << f;
    EXPECT_FALSE(decode_data(encode(data)).has_value()) << f;
  }
}

/// Randomized property sweep: random structurally-valid packets must
/// round-trip bit-exactly.
class PacketFuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(PacketFuzz, RandomInterestsRoundTrip) {
  util::Rng rng(GetParam());
  for (int i = 0; i < 50; ++i) {
    ndn::Interest interest;
    ndn::Name name;
    const std::size_t components = 1 + rng.uniform(5);
    for (std::size_t c = 0; c < components; ++c) {
      name = name.append("c" + std::to_string(rng.uniform(1000)));
    }
    interest.name = name;
    interest.nonce = rng();
    interest.lifetime = static_cast<event::Time>(rng.uniform(10'000'000'000));
    interest.flag_f = rng.bernoulli(0.5) ? rng.uniform_double() : 0.0;
    interest.access_path = rng.bernoulli(0.5) ? rng() : 0;
    interest.payload_size = rng.uniform(1000);
    const Bytes wire = encode(interest);
    const auto back = decode_interest(wire);
    ASSERT_TRUE(back.has_value());
    EXPECT_EQ(encode(*back), wire);
    EXPECT_EQ(back->name, interest.name);
    EXPECT_EQ(back->flag_f, interest.flag_f);
  }
}

TEST_P(PacketFuzz, RandomBytesNeverCrashDecoder) {
  util::Rng rng(GetParam() + 1000);
  for (int i = 0; i < 500; ++i) {
    Bytes junk(rng.uniform(200));
    for (auto& b : junk) b = static_cast<std::uint8_t>(rng());
    // Must not throw or crash; value is irrelevant.
    (void)decode(junk);
    (void)decode_interest(junk);
    (void)decode_data(junk);
    (void)decode_nack(junk);
    (void)core::Tag::deserialize(junk);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, PacketFuzz,
                         ::testing::Values(1, 2, 3, 4, 5));

// ---------------------------------------------------------------------------
// Adversarial wire fuzzing: random bytes into the raw TLV reader, and
// bit-flipped / truncated / spliced variants of VALID packets into the
// decoders.  Corruption must always be rejected cleanly (nullopt /
// TlvError / nullptr) — never a crash, hang, or silently identical
// packet.
// ---------------------------------------------------------------------------

class WireFuzz : public ::testing::TestWithParam<std::uint64_t> {
 protected:
  /// A fully-loaded valid packet of each kind (every optional TLV set).
  std::vector<Bytes> valid_wires() {
    ndn::Interest interest;
    interest.name = ndn::Name("/provider0/obj1/c2");
    interest.nonce = 0xDEADBEEF;
    interest.lifetime = 750 * event::kMillisecond;
    interest.tag = make_tag(GetParam());
    interest.tag_wire_size = interest.tag->wire_size();
    interest.flag_f = 0.125;
    interest.access_path = 0xAABBCCDDEEFF0011ULL;
    interest.payload_size = 64;
    ndn::Data data;
    data.name = ndn::Name("/provider0/obj9/c49");
    data.content_size = 4096;
    data.access_level = 3;
    data.provider_key_locator = "/provider0/KEY/1";
    data.signature_size = 128;
    data.tag = interest.tag;
    data.tag_wire_size = interest.tag_wire_size;
    data.nack_attached = true;
    data.nack_reason = ndn::NackReason::kInvalidSignature;
    data.flag_f = 0.25;
    data.from_cache = true;
    ndn::Nack nack{ndn::Name("/provider0/obj1/c2"),
                   ndn::NackReason::kExpiredTag};
    return {encode(interest), encode(data), encode(nack)};
  }
};

TEST_P(WireFuzz, RawTlvReaderRejectsRandomBytesCleanly) {
  util::Rng rng(GetParam() * 7919);
  for (int i = 0; i < 500; ++i) {
    Bytes junk(rng.uniform(64));
    for (auto& b : junk) b = static_cast<std::uint8_t>(rng());
    ndn::TlvReader reader(junk);
    try {
      while (!reader.at_end()) (void)reader.read_element();
    } catch (const ndn::TlvError&) {
      // The only acceptable failure mode.
    }
  }
}

TEST_P(WireFuzz, BitFlippedPacketsNeverCrashDecoders) {
  util::Rng rng(GetParam() * 104729);
  for (const Bytes& wire : valid_wires()) {
    for (int i = 0; i < 300; ++i) {
      Bytes mutated = wire;
      const std::size_t flips = 1 + rng.uniform(3);
      for (std::size_t f = 0; f < flips; ++f) {
        const std::size_t bit = rng.uniform(mutated.size() * 8);
        mutated[bit / 8] ^= static_cast<std::uint8_t>(1u << (bit % 8));
      }
      // Decoders must reject or produce a re-encodable packet — never
      // throw or crash — whose fields hold in-range values.
      if (const auto packet = decode(mutated)) (void)encode(*packet);
      if (const auto interest = decode_interest(mutated)) {
        EXPECT_GE(interest->lifetime, 0);
        EXPECT_TRUE(interest->flag_f >= 0.0 && interest->flag_f <= 1.0);
      }
      if (const auto data = decode_data(mutated)) {
        EXPECT_LT(static_cast<std::size_t>(data->nack_reason),
                  ndn::kNackReasonCount);
        EXPECT_TRUE(data->flag_f >= 0.0 && data->flag_f <= 1.0);
      }
      if (const auto nack = decode_nack(mutated)) {
        EXPECT_LT(static_cast<std::size_t>(nack->reason),
                  ndn::kNackReasonCount);
      }
    }
  }
}

TEST_P(WireFuzz, TruncatedAndSplicedPacketsRejected) {
  util::Rng rng(GetParam() * 31337);
  const std::vector<Bytes> wires = valid_wires();
  for (const Bytes& wire : wires) {
    for (int i = 0; i < 100; ++i) {
      const std::size_t cut = rng.uniform(wire.size());
      EXPECT_FALSE(
          decode(util::BytesView(wire.data(), cut)).has_value());
    }
  }
  // Two valid packets spliced back to back: trailing bytes => reject.
  for (int i = 0; i < 50; ++i) {
    Bytes spliced = wires[rng.uniform(wires.size())];
    const Bytes& tail = wires[rng.uniform(wires.size())];
    spliced.insert(spliced.end(), tail.begin(), tail.end());
    EXPECT_FALSE(decode(spliced).has_value());
    EXPECT_FALSE(decode_interest(spliced).has_value());
    EXPECT_FALSE(decode_data(spliced).has_value());
    EXPECT_FALSE(decode_nack(spliced).has_value());
  }
}

TEST_P(WireFuzz, BitFlippedTagsNeverDecodeAsTheOriginal) {
  util::Rng rng(GetParam() * 65537);
  const core::TagPtr tag = make_tag(GetParam() + 100);
  const Bytes wire = tag->serialize();
  for (int i = 0; i < 300; ++i) {
    Bytes mutated = wire;
    const std::size_t bit = rng.uniform(mutated.size() * 8);
    mutated[bit / 8] ^= static_cast<std::uint8_t>(1u << (bit % 8));
    const core::TagPtr back = core::Tag::deserialize(mutated);
    // A flipped bit either breaks the framing (nullptr) or lands in a
    // field/signature byte — in which case the tag must differ, and its
    // Bloom key with it (no corrupted tag can impersonate the original
    // in a router's filter).
    if (back != nullptr) {
      EXPECT_FALSE(back->same_tag(*tag));
      EXPECT_NE(back->bloom_key(), tag->bloom_key());
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, WireFuzz,
                         ::testing::Values(11, 22, 33, 44, 55));

// ---------------------------------------------------------------------------
// Wire fidelity: run the actual protocol machinery across links that
// serialize and re-parse every packet.  Everything the TACTIC protocols
// need (tag, signature, F, access path, NACK marks) must survive a real
// transport.
// ---------------------------------------------------------------------------

TEST(WireFidelity, TacticFlowSurvivesSerializingTransport) {
  event::Scheduler sched;
  std::vector<std::unique_ptr<net::Link>> links;

  ndn::Forwarder client(sched, {0, net::NodeKind::kClient, "client0"}, 0);
  ndn::Forwarder edge(sched, {1, net::NodeKind::kEdgeRouter, "edge0"}, 0);
  ndn::Forwarder producer(sched, {2, net::NodeKind::kProvider, "prov"}, 0);

  // Wire a <-> b with an encode->bytes->decode pipe in each direction.
  auto pipe = [&](ndn::Forwarder& a, ndn::Forwarder& b) {
    links.push_back(std::make_unique<net::Link>(
        sched, net::LinkParams{1e9, event::kMillisecond, 100}));
    net::Link* ab = links.back().get();
    links.push_back(std::make_unique<net::Link>(
        sched, net::LinkParams{1e9, event::kMillisecond, 100}));
    net::Link* ba = links.back().get();
    auto fa = std::make_shared<ndn::FaceId>();
    auto fb = std::make_shared<ndn::FaceId>();
    *fa = a.add_link_face(ab, [&b, fb](ndn::PacketVariant&& p) {
      const util::Bytes bytes = encode(p);           // serialize
      auto parsed = decode(bytes);                   // re-parse
      ASSERT_TRUE(parsed.has_value()) << "codec dropped a live packet";
      b.receive(*fb, std::move(*parsed));
    });
    *fb = b.add_link_face(ba, [&a, fa](ndn::PacketVariant&& p) {
      const util::Bytes bytes = encode(p);
      auto parsed = decode(bytes);
      ASSERT_TRUE(parsed.has_value()) << "codec dropped a live packet";
      a.receive(*fa, std::move(*parsed));
    });
    return std::make_pair(*fa, *fb);
  };
  auto [c_e, e_c] = pipe(client, edge);
  auto [e_p, p_e] = pipe(edge, producer);
  (void)e_c;
  (void)p_e;

  // Real TACTIC machinery on the edge.
  util::Rng rng(5);
  const crypto::RsaKeyPair provider_keys =
      crypto::generate_rsa_keypair(rng, 512);
  core::TrustAnchors anchors;
  anchors.pki.add_key("/provider0/KEY/1", provider_keys.public_key);
  anchors.protected_prefixes.insert("/provider0");
  core::TacticConfig tactic_config;
  tactic_config.bloom = {100, 5, 1e-4, 1e-4};
  auto edge_policy = std::make_unique<core::EdgeTacticPolicy>(
      tactic_config, anchors, core::ComputeModel::zero(), util::Rng(6));
  auto* edge_policy_ptr = edge_policy.get();
  edge.set_policy(std::move(edge_policy));

  // Producer validates the (deserialized!) tag for real.
  int producer_valid = 0, producer_invalid = 0;
  const ndn::FaceId papp = producer.add_app_face(ndn::AppSink{
      [&](ndn::FaceId face, const ndn::Interest& interest) {
        ndn::Data data;
        data.name = interest.name;
        data.access_level = 1;
        data.provider_key_locator = "/provider0/KEY/1";
        data.tag = interest.tag;
        data.tag_wire_size = interest.tag_wire_size;
        const bool valid =
            interest.tag &&
            core::verify_tag_signature(*interest.tag, anchors.pki);
        (valid ? producer_valid : producer_invalid) += 1;
        if (!valid) {
          data.nack_attached = true;
          data.nack_reason = ndn::NackReason::kInvalidSignature;
        }
        producer.inject_from_app(face, std::move(data));
      },
      nullptr, nullptr});
  producer.fib().add_route(ndn::Name("/provider0"), papp);
  edge.fib().add_route(ndn::Name("/provider0"), e_p);
  client.fib().add_route(ndn::Name("/"), c_e);

  int received = 0;
  const ndn::FaceId capp = client.add_app_face(ndn::AppSink{
      nullptr, [&](const ndn::Data& data) { received += !data.nack_attached; },
      nullptr});

  // A genuine tag fetched over the serialized transport retrieves content.
  core::Tag::Fields fields;
  fields.provider_key_locator = "/provider0/KEY/1";
  fields.client_key_locator = "/client0/KEY/1";
  fields.access_level = 2;
  fields.expiry = 100 * event::kSecond;
  const core::TagPtr tag = core::issue_tag(fields, provider_keys.private_key);

  ndn::Interest interest;
  interest.name = ndn::Name("/provider0/obj0/c0");
  interest.nonce = 1;
  interest.tag = tag;
  interest.tag_wire_size = tag->wire_size();
  client.inject_from_app(capp, std::move(interest));
  sched.run();
  EXPECT_EQ(received, 1);
  EXPECT_EQ(producer_valid, 1);
  // The tag that crossed the wire landed in the edge BF under the SAME
  // Bloom key (byte-exact round-trip of fields + signature).
  EXPECT_TRUE(edge_policy_ptr->bloom().contains(tag->bloom_key()));

  // A forged tag still fails after transport.
  const crypto::RsaKeyPair forger = crypto::generate_rsa_keypair(rng, 512);
  ndn::Interest forged;
  forged.name = ndn::Name("/provider0/obj0/c1");
  forged.nonce = 2;
  forged.tag = core::forge_tag(fields, forger.private_key);
  forged.tag_wire_size = forged.tag->wire_size();
  client.inject_from_app(capp, std::move(forged));
  sched.run();
  EXPECT_EQ(received, 1);  // nothing new delivered
  EXPECT_EQ(producer_invalid, 1);
}

}  // namespace
}  // namespace tactic::wire
