#include "tactic/registration.hpp"

namespace tactic::core {

TagIssuer::TagIssuer(std::string key_locator,
                     const crypto::RsaPrivateKey& key, event::Time validity)
    : key_locator_(std::move(key_locator)), key_(key), validity_(validity) {}

void TagIssuer::enroll(const std::string& client_key_locator,
                       std::uint32_t access_level) {
  enrolled_[client_key_locator] = access_level;
  revoked_.erase(client_key_locator);
}

void TagIssuer::revoke(const std::string& client_key_locator) {
  revoked_.insert(client_key_locator);
}

bool TagIssuer::is_revoked(const std::string& client_key_locator) const {
  return revoked_.count(client_key_locator) > 0;
}

TagPtr TagIssuer::issue(const std::string& client_key_locator,
                        std::uint64_t access_path, event::Time now) {
  const auto it = enrolled_.find(client_key_locator);
  if (it == enrolled_.end() || revoked_.count(client_key_locator) > 0) {
    ++refusals_;
    return nullptr;
  }
  Tag::Fields fields;
  fields.provider_key_locator = key_locator_;
  fields.client_key_locator = client_key_locator;
  fields.access_level = it->second;
  fields.access_path = access_path;
  fields.expiry = now + validity_;
  ++tags_issued_;
  TagPtr tag = issue_tag(fields, key_);
  last_issued_[client_key_locator] = tag;
  return tag;
}

TagPtr TagIssuer::last_issued(const std::string& client_key_locator) const {
  const auto it = last_issued_.find(client_key_locator);
  return it == last_issued_.end() ? nullptr : it->second;
}

}  // namespace tactic::core
