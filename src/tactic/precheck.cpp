#include "tactic/precheck.hpp"

namespace tactic::core {

const char* to_string(PrecheckResult result) {
  switch (result) {
    case PrecheckResult::kOk: return "ok";
    case PrecheckResult::kPrefixMismatch: return "prefix-mismatch";
    case PrecheckResult::kExpired: return "expired";
    case PrecheckResult::kAccessLevelTooLow: return "access-level-too-low";
    case PrecheckResult::kProviderKeyMismatch: return "provider-key-mismatch";
  }
  return "?";
}

ndn::NackReason to_nack_reason(PrecheckResult result) {
  switch (result) {
    case PrecheckResult::kOk: return ndn::NackReason::kNone;
    case PrecheckResult::kPrefixMismatch:
      return ndn::NackReason::kPrefixMismatch;
    case PrecheckResult::kExpired: return ndn::NackReason::kExpiredTag;
    case PrecheckResult::kAccessLevelTooLow:
      return ndn::NackReason::kAccessLevelTooLow;
    case PrecheckResult::kProviderKeyMismatch:
      return ndn::NackReason::kProviderKeyMismatch;
  }
  return ndn::NackReason::kNone;
}

PrecheckResult edge_precheck(const Tag& tag, const ndn::Name& content_name,
                             event::Time now, event::Time tolerance) {
  if (!tag.provider_prefix_of(content_name)) {
    return PrecheckResult::kPrefixMismatch;
  }
  if (tag.expiry() + tolerance < now) return PrecheckResult::kExpired;
  return PrecheckResult::kOk;
}

PrecheckResult content_precheck(const Tag& tag, const ndn::Data& data) {
  if (data.access_level == ndn::kPublicAccessLevel) return PrecheckResult::kOk;
  if (data.access_level > tag.access_level()) {
    return PrecheckResult::kAccessLevelTooLow;
  }
  if (data.provider_key_locator != tag.provider_key_locator()) {
    return PrecheckResult::kProviderKeyMismatch;
  }
  return PrecheckResult::kOk;
}

}  // namespace tactic::core
