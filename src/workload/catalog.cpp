#include "workload/catalog.hpp"

#include <cstdio>
#include <stdexcept>

#include "crypto/sha256.hpp"

namespace tactic::workload {

Catalog::Catalog(ndn::Name prefix, CatalogParams params, util::Rng& rng)
    : prefix_(std::move(prefix)), params_(params) {
  if (params_.objects == 0 || params_.chunks_per_object == 0) {
    throw std::invalid_argument("Catalog: empty catalog");
  }
  const auto n_public =
      static_cast<std::size_t>(params_.public_fraction *
                               static_cast<double>(params_.objects));
  const auto n_high =
      static_cast<std::size_t>(params_.high_al_fraction *
                               static_cast<double>(params_.objects));
  access_levels_.resize(params_.objects, params_.base_access_level);
  for (std::size_t i = 0; i < n_public && i < params_.objects; ++i) {
    access_levels_[i] = 0;
  }
  for (std::size_t i = 0; i < n_high; ++i) {
    const std::size_t idx = params_.objects - 1 - i;
    if (access_levels_[idx] != 0) {
      access_levels_[idx] = params_.base_access_level + 1;
    }
  }
  content_key_.resize(crypto::Aes128::kKeySize);
  for (auto& b : content_key_) b = static_cast<std::uint8_t>(rng());
  object_ids_.assign(params_.objects, ndn::kInvalidComponent);
  chunk_ids_.assign(params_.chunks_per_object, ndn::kInvalidComponent);
}

namespace {

/// The interned ID of `<stem><index>`, cached in ids[index] when the
/// index is in range.
ndn::ComponentId numbered_id(std::vector<ndn::ComponentId>& ids,
                             const char* stem, std::size_t index) {
  if (index < ids.size() && ids[index] != ndn::kInvalidComponent) {
    return ids[index];
  }
  const ndn::ComponentId id =
      ndn::NameTable::instance().intern(stem + std::to_string(index));
  if (index < ids.size()) ids[index] = id;
  return id;
}

}  // namespace

ndn::Name Catalog::chunk_name(std::size_t object, std::size_t chunk) const {
  ndn::Name name = prefix_;
  name.push_back(numbered_id(object_ids_, "obj", object));
  name.push_back(numbered_id(chunk_ids_, "c", chunk));
  return name;
}

std::optional<std::pair<std::size_t, std::size_t>> Catalog::parse(
    const ndn::Name& name) const {
  if (!prefix_.is_prefix_of(name) || name.size() != prefix_.size() + 2) {
    return std::nullopt;
  }
  const std::string& obj = name.at(prefix_.size());
  const std::string& chk = name.at(prefix_.size() + 1);
  if (obj.rfind("obj", 0) != 0 || chk.rfind("c", 0) != 0) return std::nullopt;
  char* end = nullptr;
  const unsigned long o = std::strtoul(obj.c_str() + 3, &end, 10);
  if (end == obj.c_str() + 3 || *end != '\0') return std::nullopt;
  const unsigned long c = std::strtoul(chk.c_str() + 1, &end, 10);
  if (end == chk.c_str() + 1 || *end != '\0') return std::nullopt;
  if (o >= params_.objects || c >= params_.chunks_per_object) {
    return std::nullopt;
  }
  return std::make_pair(static_cast<std::size_t>(o),
                        static_cast<std::size_t>(c));
}

std::uint32_t Catalog::access_level(std::size_t object) const {
  return access_levels_.at(object);
}

util::Bytes Catalog::chunk_plaintext(std::size_t object,
                                     std::size_t chunk) const {
  // Deterministic keystream derived from the chunk name: SHA-256 counter
  // expansion.  Deterministic content keeps runs reproducible and lets
  // tests check round-trips without storing 25k chunks.
  const std::string seed = chunk_name(object, chunk).to_uri();
  util::Bytes out;
  out.reserve(params_.chunk_size);
  std::uint32_t counter = 0;
  while (out.size() < params_.chunk_size) {
    crypto::Sha256 h;
    h.update(seed);
    util::Bytes ctr;
    util::append_u32(ctr, counter++);
    h.update(ctr);
    const util::Bytes block = h.finish();
    const std::size_t take =
        std::min(block.size(), params_.chunk_size - out.size());
    out.insert(out.end(), block.begin(),
               block.begin() + static_cast<std::ptrdiff_t>(take));
  }
  return out;
}

util::Bytes Catalog::chunk_ciphertext(std::size_t object,
                                      std::size_t chunk) const {
  // Per-chunk nonce derived from the name keeps CTR keystreams disjoint.
  const std::uint64_t nonce =
      crypto::sha256_prefix64(chunk_name(object, chunk).to_uri());
  return crypto::aes128_ctr(content_key_, nonce,
                            chunk_plaintext(object, chunk));
}

}  // namespace tactic::workload
