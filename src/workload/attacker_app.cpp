#include "workload/attacker_app.hpp"

#include <unordered_map>

namespace tactic::workload {

const char* to_string(AttackerMode mode) {
  switch (mode) {
    case AttackerMode::kNoTag: return "no-tag";
    case AttackerMode::kForgedTag: return "forged-tag";
    case AttackerMode::kForgedTagChurn: return "forged-tag-churn";
    case AttackerMode::kExpiredTag: return "expired-tag";
    case AttackerMode::kInsufficientAccessLevel: return "low-access-level";
    case AttackerMode::kSharedTag: return "shared-tag";
    case AttackerMode::kWrongProvider: return "wrong-provider";
  }
  return "?";
}

AttackerApp::AttackerApp(ndn::Forwarder& node,
                         std::vector<ProviderApp*> providers,
                         const UserConfig& config,
                         util::ZipfDist popularity, TagStrategy make_tag,
                         util::Rng rng)
    : UserApp(node, std::move(providers), config, std::move(popularity),
              rng),
      make_tag_(std::move(make_tag)) {}

void AttackerApp::set_tempo(std::size_t window,
                            event::Time think_time_mean) {
  const std::size_t old_window = loop_.window;
  loop_.window = window;
  loop_.think_time_mean = think_time_mean;
  if (!running_) return;
  for (std::size_t slot = old_window; slot < window; ++slot) {
    schedule_slot_fill();
  }
}

void AttackerApp::request_next() {
  // Pick a target chunk by the same popularity law clients use (attackers
  // want content that is likely cached).  Low-AL attackers aim
  // specifically at high-AL objects; wrong-provider attackers aim at
  // providers their tag does not cover — both handled by the strategy,
  // which sees the final name.
  const Target target = draw_target();
  const Catalog& catalog = providers_[target.provider]->catalog();
  const std::size_t chunk =
      rng_.uniform(catalog.params().chunks_per_object);
  const ndn::Name name = catalog.chunk_name(target.object, chunk);
  if (find(name) != nullptr) {
    schedule_slot_fill();
    return;
  }
  Request& request = track(name);
  send_attempt(request, make_tag_ ? make_tag_(name, node_.scheduler().now())
                                  : core::TagPtr{});
}

namespace attacker_strategies {

AttackerApp::TagStrategy no_tag() {
  return [](const ndn::Name&, event::Time) { return core::TagPtr{}; };
}

AttackerApp::TagStrategy forged(
    std::shared_ptr<const crypto::RsaPrivateKey> forger_key,
    std::string client_label, event::Time validity) {
  // Cache the forgery per provider prefix until it "expires" so forging
  // cost stays off the hot path.
  auto cache = std::make_shared<
      std::unordered_map<std::string, core::TagPtr>>();
  return [forger_key = std::move(forger_key),
          client_label = std::move(client_label), validity,
          cache](const ndn::Name& content, event::Time now) -> core::TagPtr {
    const std::string prefix = content.head_uri();
    auto& slot = (*cache)[prefix];
    if (!slot || slot->expiry() <= now) {
      core::Tag::Fields fields;
      fields.provider_key_locator = prefix + "/KEY/1";
      fields.client_key_locator = "/" + client_label + "/KEY/1";
      fields.access_level = 0xFFFFFFFF;  // claim the maximum privilege
      fields.expiry = now + validity;
      slot = core::forge_tag(fields, *forger_key);
    }
    return slot;
  };
}

AttackerApp::TagStrategy forged_churn(
    std::shared_ptr<const crypto::RsaPrivateKey> forger_key,
    std::string client_label, event::Time validity) {
  struct State {
    std::unordered_map<std::string, core::TagPtr> templates;
    std::uint64_t counter = 0;
  };
  auto state = std::make_shared<State>();
  return [forger_key = std::move(forger_key),
          client_label = std::move(client_label), validity,
          state](const ndn::Name& content, event::Time now) -> core::TagPtr {
    const std::string prefix = content.head_uri();
    auto& tmpl = state->templates[prefix];
    if (!tmpl || tmpl->expiry() <= now + validity) {
      core::Tag::Fields fields;
      fields.provider_key_locator = prefix + "/KEY/1";
      fields.client_key_locator = "/" + client_label + "/KEY/1";
      fields.access_level = 0xFFFFFFFF;
      fields.expiry = now + 2 * validity;
      tmpl = core::forge_tag(fields, *forger_key);
    }
    // Unique expiry per request: still comfortably fresh (the precheck
    // passes), but a different bloom_key — a cache-proof forgery without
    // paying an RSA signing per Interest.
    core::Tag::Fields fields = tmpl->fields();
    fields.expiry -= static_cast<event::Time>(++state->counter);
    return std::make_shared<const core::Tag>(fields, tmpl->signature());
  };
}

}  // namespace attacker_strategies

}  // namespace tactic::workload
