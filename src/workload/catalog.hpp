#pragma once
// Per-provider content catalog.
//
// The paper's setup: "each producer generates 50 content objects of 50
// chunks each" with Zipf (alpha = 0.7) popularity.  Objects carry an
// access level; a configurable fraction is published at a higher level so
// the insufficient-access-level threat (d) is exercisable.  Chunk payloads
// and content signatures are materialized lazily — the simulator accounts
// sizes only, while the examples can ask for real AES-128-CTR-encrypted
// bytes to demonstrate end-to-end confidentiality.

#include <cstdint>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "crypto/aes.hpp"
#include "ndn/name.hpp"
#include "util/bytes.hpp"
#include "util/rng.hpp"

namespace tactic::workload {

struct CatalogParams {
  std::size_t objects = 50;
  std::size_t chunks_per_object = 50;
  std::size_t chunk_size = 1024;  // bytes
  /// Base access level of protected objects.
  std::uint32_t base_access_level = 1;
  /// Fraction of objects published at base_access_level + 1 (for the
  /// insufficient-AL threat); assigned to the least popular ranks.
  double high_al_fraction = 0.0;
  /// Fraction of objects published publicly (AL = 0, no tag needed).
  double public_fraction = 0.0;
};

class Catalog {
 public:
  /// `prefix` is the provider's name prefix, e.g. "/provider3".
  /// `rng` seeds the content-encryption key.
  Catalog(ndn::Name prefix, CatalogParams params, util::Rng& rng);

  const ndn::Name& prefix() const { return prefix_; }
  const CatalogParams& params() const { return params_; }
  std::size_t object_count() const { return params_.objects; }
  std::size_t chunk_count() const {
    return params_.objects * params_.chunks_per_object;
  }

  /// "/­<prefix>/obj<o>/c<c>".  Each "obj<o>" and "c<c>" is interned
  /// the first time this catalog names it, so a later call formats and
  /// interns nothing.
  ndn::Name chunk_name(std::size_t object, std::size_t chunk) const;

  /// Inverse of chunk_name; nullopt for names not in this catalog.
  std::optional<std::pair<std::size_t, std::size_t>> parse(
      const ndn::Name& name) const;

  /// Object access level (0 = public).  Objects are ordered by popularity
  /// rank: public objects first, then base-AL, then high-AL.
  std::uint32_t access_level(std::size_t object) const;

  /// The provider's symmetric content-encryption key (delivered to
  /// clients RSA-encrypted alongside their tag, per Section 6).
  const util::Bytes& content_key() const { return content_key_; }

  /// Deterministic plaintext of a chunk (derived from its name).
  util::Bytes chunk_plaintext(std::size_t object, std::size_t chunk) const;

  /// AES-128-CTR encryption of the chunk under content_key().
  util::Bytes chunk_ciphertext(std::size_t object, std::size_t chunk) const;

 private:
  ndn::Name prefix_;
  CatalogParams params_;
  std::vector<std::uint32_t> access_levels_;  // per object
  /// Interned "obj<o>" per object and "c<c>" per chunk index, filled by
  /// chunk_name() on first use (kInvalidComponent until then).
  mutable std::vector<ndn::ComponentId> object_ids_;
  mutable std::vector<ndn::ComponentId> chunk_ids_;
  util::Bytes content_key_;
};

}  // namespace tactic::workload
