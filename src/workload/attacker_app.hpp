#pragma once
// Attacker applications — the threat model of Section 3.C.
//
// Attackers request protected content with (a) no tag, (b) a forged tag
// signed by a non-provider key, (c) an expired (stale/revoked) tag,
// (d) a tag whose access level is below the content's, (e) a tag shared
// by a client located behind a different access point, or (f) a valid tag
// of provider A presented for provider B's content.  Each attacker runs
// the UserApp request loop (user_app.hpp) with one-shot requests: a
// random chunk of a Zipf-drawn object, carrying whatever tag its
// strategy supplies.  The strategy is a pluggable functor, so experiment
// harnesses can compose arbitrary mixes.

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "workload/user_app.hpp"

namespace tactic::workload {

enum class AttackerMode {
  kNoTag,
  kForgedTag,
  kForgedTagChurn,
  kExpiredTag,
  kInsufficientAccessLevel,
  kSharedTag,
  kWrongProvider,
};

const char* to_string(AttackerMode mode);

class AttackerApp : public UserApp {
 public:
  /// `make_tag(content_name, now)` supplies the (invalid) tag for each
  /// request; returning nullptr sends an untagged Interest.
  using TagStrategy =
      std::function<core::TagPtr(const ndn::Name&, event::Time)>;

  AttackerApp(ndn::Forwarder& node, std::vector<ProviderApp*> providers,
              const UserConfig& config, util::ZipfDist popularity,
              TagStrategy make_tag, util::Rng rng);

  /// Mid-run tempo change for ramp experiments (flood intensity sweeps).
  /// Growing the window schedules fills for the new slots immediately;
  /// shrinking lets the excess in-flight slots retire as they resolve —
  /// each resolution re-fills its slot only while under the new window.
  void set_tempo(std::size_t window, event::Time think_time_mean);

 private:
  void request_next() override;

  TagStrategy make_tag_;
};

/// Ready-made tag strategies for the standard threat mix.  All returned
/// strategies mint sparingly (tags are cached until expiry) so attacker
/// crypto cost stays negligible.  The other threats need scenario state
/// (issuers, victims, locations): sim::Scenario builds their strategies.
namespace attacker_strategies {

/// (a) No tag at all.
AttackerApp::TagStrategy no_tag();

/// (b) Tags forged with `forger_key` but naming the real provider's key
/// locator; structurally fresh (expiry = now + validity) so only signature
/// verification can catch them.
AttackerApp::TagStrategy forged(
    std::shared_ptr<const crypto::RsaPrivateKey> forger_key,
    std::string client_label, event::Time validity);

/// (b') A *churning* forger: every request presents a never-seen-before
/// forgery, so neither the Bloom filter nor the negative-tag cache ever
/// absorbs the signature verification — the brute-force router-DoS
/// pressure of Ghali et al. that the overload layer exists to survive.
/// One real RSA signing per validity window per provider; per-request
/// variants perturb a signed field (changing the cache identity,
/// bloom_key) while reusing the stale signature, which stays just as
/// invalid.
AttackerApp::TagStrategy forged_churn(
    std::shared_ptr<const crypto::RsaPrivateKey> forger_key,
    std::string client_label, event::Time validity);

}  // namespace attacker_strategies

}  // namespace tactic::workload
