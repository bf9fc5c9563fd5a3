#include "workload/provider_app.hpp"

#include "tactic/precheck.hpp"
#include "tactic/registration.hpp"

namespace tactic::workload {

ProviderApp::ProviderApp(ndn::Forwarder& node, const std::string& prefix_uri,
                         ProviderConfig config, core::TrustAnchors& anchors,
                         util::Rng rng)
    : node_(node),
      config_(config),
      rng_(rng),
      keypair_(crypto::generate_rsa_keypair(rng_, config.key_bits)),
      catalog_(ndn::Name(prefix_uri), config.catalog, rng_),
      issuer_(prefix_uri + "/KEY/1", keypair_.private_key,
              config.tag_validity),
      anchors_(anchors) {
  anchors.pki.add_key(issuer_.key_locator(), keypair_.public_key);
  if (config_.catalog.public_fraction < 1.0) {
    anchors.protected_prefixes.insert(catalog_.prefix().to_uri());
  }
  face_ = node_.add_app_face(ndn::AppSink{
      [this](ndn::FaceId face, const ndn::Interest& interest) {
        on_interest(face, interest);
      },
      nullptr, nullptr});
  node_.fib().add_route(catalog_.prefix(), face_);
}

ndn::Name ProviderApp::registration_name(const std::string& client_label,
                                         std::uint64_t nonce) const {
  return catalog_.prefix()
      .append(core::kRegistrationComponent)
      .append(client_label)
      .append_number(nonce);
}

std::string ProviderApp::client_key_locator(const std::string& client_label) {
  return "/" + client_label + "/KEY/1";
}

void ProviderApp::on_interest(ndn::FaceId face,
                              const ndn::Interest& interest) {
  if (core::is_registration_name(interest.name)) {
    handle_registration(face, interest);
  } else {
    handle_content(face, interest);
  }
}

void ProviderApp::handle_registration(ndn::FaceId face,
                                      const ndn::Interest& interest) {
  ++counters_.registrations_received;
  if (interest.name.size() < 3) return;  // malformed
  const std::string& label = interest.name.at(2);
  const std::string locator = client_key_locator(label);

  // Issuance stamps T_e off the provider's *local* clock: a skewed
  // provider mints skewed expiries, which is the whole point of the
  // clock-skew fault model.
  core::TagPtr tag =
      issuer_.issue(locator, interest.access_path, node_.local_now());
  if (!tag) {
    ++counters_.registrations_refused;
    if (config_.refuse_with_nack) {
      auto refusal = node_.pool().make_data();
      refusal->name = interest.name;
      refusal->content_size = 16;
      refusal->is_registration_response = true;
      refusal->provider_key_locator = issuer_.key_locator();
      refusal->nack_attached = true;
      refusal->nack_reason = ndn::NackReason::kRegistrationRefused;
      node_.inject_from_app(face, std::move(refusal));
    }
    // Paper behaviour: "drops the request otherwise" — the client times
    // out and may retry.
    return;
  }
  ++counters_.tags_issued;

  auto response = node_.pool().make_data();
  response->name = interest.name;
  response->is_registration_response = true;
  response->provider_key_locator = issuer_.key_locator();
  response->tag = tag;
  response->tag_wire_size = tag->wire_size();
  // The content-decryption key travels alongside the tag, encrypted under
  // the client's public key (Section 6).  Real RSA when the client key is
  // resolvable; size-modeled otherwise.
  if (client_key_lookup_) {
    if (const crypto::RsaPublicKey* client_key = client_key_lookup_(label)) {
      const util::Bytes blob =
          client_key->encrypt_pkcs1(rng_, catalog_.content_key());
      ++counters_.key_encryptions;
      response->content_size = blob.size();
    } else {
      response->content_size = keypair_.public_key.modulus_size();
    }
  } else {
    response->content_size = keypair_.public_key.modulus_size();
  }
  node_.inject_from_app(face, std::move(response));
}

void ProviderApp::handle_content(ndn::FaceId face,
                                 const ndn::Interest& interest) {
  const auto parsed = catalog_.parse(interest.name);
  if (!parsed) return;  // unknown name under our prefix: drop
  const auto [object, chunk] = *parsed;

  auto response = node_.pool().make_data();
  response->name = interest.name;
  response->content_size = catalog_.params().chunk_size;
  response->access_level = catalog_.access_level(object);
  response->provider_key_locator = issuer_.key_locator();
  response->signature_size = keypair_.public_key.modulus_size();
  if (config_.sign_content) {
    auto& cached = signature_cache_[response->name];
    if (!cached) {
      cached = std::make_shared<const util::Bytes>(
          keypair_.private_key.sign_pkcs1_sha256(response->signed_portion()));
    }
    response->signature = cached;
  }
  response->tag = interest.tag;
  response->tag_wire_size = interest.tag_wire_size;
  response->flag_f = interest.flag_f;

  // The provider is the ultimate content router: validate exactly as
  // Protocol 3 prescribes, so downstream edge insertion semantics hold.
  if (config_.enforce_access_control &&
      response->access_level != ndn::kPublicAccessLevel) {
    bool valid = true;
    ndn::NackReason reason = ndn::NackReason::kNone;
    if (!interest.tag) {
      valid = false;
      reason = ndn::NackReason::kNoTag;
    } else if (interest.tag->expiry() + config_.expiry_tolerance <
               node_.local_now()) {
      // The provider is the revocation authority: an expired tag is a
      // revoked credential regardless of which mechanism the routers run.
      // The comparison runs on the provider's local clock (plus its
      // configured tolerance) — under drift even the clock that stamped
      // T_e can disagree with itself by the time the tag comes back.
      valid = false;
      reason = ndn::NackReason::kExpiredTag;
    } else {
      const core::PrecheckResult pre =
          core::content_precheck(*interest.tag, *response);
      if (pre != core::PrecheckResult::kOk) {
        valid = false;
        reason = core::to_nack_reason(pre);
      } else if (interest.flag_f == 0.0 ||
                 rng_.bernoulli(interest.flag_f)) {
        ++counters_.sig_verifications;
        if (!core::verify_tag_signature(*interest.tag, anchors_.pki)) {
          valid = false;
          reason = ndn::NackReason::kInvalidSignature;
        } else {
          response->flag_f = 0.0;  // vouch: let the edge insert
        }
      }
    }
    if (!valid) {
      ++counters_.content_nacked;
      response->nack_attached = true;
      response->nack_reason = reason;
      node_.inject_from_app(face, std::move(response));
      return;
    }
  }
  ++counters_.content_served;
  node_.inject_from_app(face, std::move(response));
}

}  // namespace tactic::workload
