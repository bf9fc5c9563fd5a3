#include "tactic/tag.hpp"

#include "crypto/sha256.hpp"

namespace tactic::core {

Tag::Tag(Fields fields, util::Bytes signature)
    : fields_(std::move(fields)), signature_(std::move(signature)) {}

void Tag::derive_keys() const {
  bloom_key_ = crypto::Sha256::digest(serialize());
  bloom_hashes_ = bloom::base_hashes(bloom_key_);
}

util::Bytes Tag::serialize_fields(const Fields& fields) {
  util::Bytes out;
  util::append_lv(out, fields.provider_key_locator);
  util::append_lv(out, fields.client_key_locator);
  util::append_u32(out, fields.access_level);
  util::append_u64(out, fields.access_path);
  util::append_u64(out, static_cast<std::uint64_t>(fields.expiry));
  return out;
}

util::Bytes Tag::serialize() const {
  util::Bytes out = serialize_fields(fields_);
  util::append_lv(out, signature_);
  return out;
}

std::size_t Tag::wire_size() const {
  // Three u32 length prefixes (two locators and the signature), the u32
  // access level, and the u64 access path and expiry.
  return 3 * 4 + 4 + 8 + 8 + fields_.provider_key_locator.size() +
         fields_.client_key_locator.size() + signature_.size();
}

namespace {
/// Reads one length-prefixed field; returns false on truncation.
bool read_lv(util::BytesView in, std::size_t& offset, util::BytesView& out) {
  if (offset + 4 > in.size()) return false;
  const std::uint32_t length = util::read_u32(in, offset);
  offset += 4;
  if (offset + length > in.size()) return false;
  out = in.subspan(offset, length);
  offset += length;
  return true;
}
}  // namespace

std::shared_ptr<const Tag> Tag::deserialize(util::BytesView wire) {
  std::size_t offset = 0;
  util::BytesView provider_locator, client_locator, signature;
  if (!read_lv(wire, offset, provider_locator)) return nullptr;
  if (!read_lv(wire, offset, client_locator)) return nullptr;
  if (offset + 4 + 8 + 8 > wire.size()) return nullptr;
  Fields fields;
  fields.provider_key_locator.assign(provider_locator.begin(),
                                     provider_locator.end());
  fields.client_key_locator.assign(client_locator.begin(),
                                   client_locator.end());
  fields.access_level = util::read_u32(wire, offset);
  offset += 4;
  fields.access_path = util::read_u64(wire, offset);
  offset += 8;
  fields.expiry = static_cast<event::Time>(util::read_u64(wire, offset));
  offset += 8;
  if (!read_lv(wire, offset, signature)) return nullptr;
  if (offset != wire.size()) return nullptr;  // trailing bytes
  return std::make_shared<const Tag>(
      std::move(fields), util::Bytes(signature.begin(), signature.end()));
}

bool Tag::same_tag(const Tag& other) const {
  // serialize() is length-prefixed, so equal fields and signatures are
  // exactly equal encodings.
  return this == &other ||
         (fields_ == other.fields_ && signature_ == other.signature_);
}

bool Tag::provider_prefix_of(const ndn::Name& name) const {
  const std::string_view locator = fields_.provider_key_locator;
  const std::size_t start = locator.find_first_not_of('/');
  if (start == std::string_view::npos) return true;  // the root prefix
  const std::size_t end = locator.find('/', start);
  return !name.empty() && locator.substr(start, end - start) == name.at(0);
}

TagPtr issue_tag(const Tag::Fields& fields,
                 const crypto::RsaPrivateKey& provider_key) {
  util::Bytes signature =
      provider_key.sign_pkcs1_sha256(Tag::serialize_fields(fields));
  return std::make_shared<const Tag>(fields, std::move(signature));
}

bool verify_tag_signature(const Tag& tag, const crypto::Pki& pki) {
  const crypto::RsaPublicKey* key = pki.find(tag.provider_key_locator());
  if (key == nullptr) return false;
  return key->verify_pkcs1_sha256(Tag::serialize_fields(tag.fields()),
                                  tag.signature());
}

TagPtr forge_tag(const Tag::Fields& fields,
                 const crypto::RsaPrivateKey& forger_key) {
  // Signed by the wrong key: the provider-signature check must fail.
  return issue_tag(fields, forger_key);
}

}  // namespace tactic::core
