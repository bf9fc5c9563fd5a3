#pragma once
// Provider-side registration: credential checking and tag issuance
// (the Client-Provider Interaction of Section 4.A).
//
// "A client registers her credential with a content provider to obtain an
// authentication tag ... When p receives a tag request, it verifies client
// u's credentials and provides her a fresh tag if she is authorized or
// drops the request otherwise."  Revocation is "reduced to a tag
// request/response communication": the provider simply refuses to refresh
// a revoked client's tag and the old one ages out.

#include <cstdint>
#include <string>
#include <string_view>
#include <unordered_map>
#include <unordered_set>

#include "crypto/rsa.hpp"
#include "event/time.hpp"
#include "ndn/name.hpp"
#include "tactic/tag.hpp"

namespace tactic::core {

/// Name component marking registration (tag-request) Interests:
/// "/<provider>/register/<client>/<nonce>".
inline constexpr std::string_view kRegistrationComponent = "register";

/// True when `name` is a registration Interest under that convention.
/// Providers answer such Interests with a tag; routers let them through
/// unvalidated, since they carry no tag by definition.
inline bool is_registration_name(const ndn::Name& name) {
  return name.size() >= 2 && name.at(1) == kRegistrationComponent;
}

class TagIssuer {
 public:
  /// `key_locator` is the provider's public key locator (Pub_p) embedded
  /// in every issued tag; `validity` is the tag lifetime T_e - T_now.
  TagIssuer(std::string key_locator, const crypto::RsaPrivateKey& key,
            event::Time validity);

  const std::string& key_locator() const { return key_locator_; }
  event::Time validity() const { return validity_; }
  void set_validity(event::Time validity) { validity_ = validity; }

  /// Grants `client_key_locator` the given access level.  Clients unknown
  /// to the issuer are refused at issue() time.
  void enroll(const std::string& client_key_locator,
              std::uint32_t access_level);

  /// Revokes a client: no further tags will be issued to it.  Its
  /// outstanding tag stays usable until T_e — the paper's tunable
  /// time-based revocation window.
  void revoke(const std::string& client_key_locator);
  bool is_revoked(const std::string& client_key_locator) const;

  /// Issues a fresh signed tag, or nullptr when the credential is
  /// unknown or revoked.  `access_path` is the AP_u accumulated by the
  /// registration Interest on its way here.  `now` is the issuing
  /// node's *local*-clock reading (ndn::Forwarder::local_now): under
  /// the clock-skew fault model the stamped T_e = now + validity
  /// inherits the provider's skew, which is exactly what downstream
  /// validators must tolerate.
  TagPtr issue(const std::string& client_key_locator,
               std::uint64_t access_path, event::Time now);

  /// The most recent tag issued to a client (nullptr if none) — the
  /// credential an *eager* revocation must blacklist network-wide.
  TagPtr last_issued(const std::string& client_key_locator) const;

  std::uint64_t tags_issued() const { return tags_issued_; }
  std::uint64_t refusals() const { return refusals_; }

 private:
  std::string key_locator_;
  const crypto::RsaPrivateKey& key_;
  event::Time validity_;
  std::unordered_map<std::string, std::uint32_t> enrolled_;  // -> AL_u
  std::unordered_set<std::string> revoked_;
  std::unordered_map<std::string, TagPtr> last_issued_;
  std::uint64_t tags_issued_ = 0;
  std::uint64_t refusals_ = 0;
};

}  // namespace tactic::core
