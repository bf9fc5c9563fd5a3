#include "ndn/cs.hpp"

#include <limits>

namespace tactic::ndn {

ContentStore::ContentStore(std::size_t capacity) : capacity_(capacity) {}

const std::shared_ptr<const util::Bytes>& ContentStore::signature(
    const Entry& entry) const {
  static const std::shared_ptr<const util::Bytes> kUnsigned;
  return entry.slot < signatures_.size() ? signatures_[entry.slot]
                                          : kUnsigned;
}

void ContentStore::respond(const Entry& entry, const Interest& request,
                           Data& out) const {
  // Content: what the provider published.
  out.name = entry.name;
  out.content_size = entry.content_size;
  out.access_level = entry.access_level;
  out.provider_key_locator = NameTable::instance().text(entry.key_locator);
  out.signature_size = entry.signature_size;
  out.signature = signature(entry);
  // Envelope: this request's.  The attached NACK stays at its default.
  out.tag = request.tag;
  out.tag_wire_size = request.tag_wire_size;
  out.flag_f = request.flag_f;
  out.from_cache = true;
}

void ContentStore::lru_unlink(std::uint32_t s) {
  Slot& slot = slots_[s];
  if (slot.lru_prev != kNil) {
    slots_[slot.lru_prev].lru_next = slot.lru_next;
  } else {
    lru_head_ = slot.lru_next;
  }
  if (slot.lru_next != kNil) {
    slots_[slot.lru_next].lru_prev = slot.lru_prev;
  } else {
    lru_tail_ = slot.lru_prev;
  }
  slot.lru_prev = slot.lru_next = kNil;
}

void ContentStore::lru_push_front(std::uint32_t s) {
  Slot& slot = slots_[s];
  slot.lru_next = lru_head_;
  slot.lru_prev = kNil;
  if (lru_head_ != kNil) {
    slots_[lru_head_].lru_prev = s;
  } else {
    lru_tail_ = s;
  }
  lru_head_ = s;
}

void ContentStore::free_slot(std::uint32_t s) {
  // Releases the shared signature bytes.
  if (s < signatures_.size()) signatures_[s].reset();
  slots_.release(s);
}

const ContentStore::Entry* ContentStore::find(const Name& name) {
  const std::uint32_t s = find_slot(name);
  if (s == util::HashIndex::kNpos) {
    ++misses_;
    return nullptr;
  }
  ++hits_;
  lru_unlink(s);
  lru_push_front(s);
  return &slots_[s].entry;
}

void ContentStore::insert(const Data& data) {
  constexpr std::size_t kMaxSize = std::numeric_limits<std::uint32_t>::max();
  if (capacity_ == 0 || data.content_size > kMaxSize ||
      data.signature_size > kMaxSize) {
    return;
  }
  const std::uint32_t existing = find_slot(data.name);
  if (existing != util::HashIndex::kNpos) {
    lru_unlink(existing);
    lru_push_front(existing);
    return;
  }
  if (index_.size() >= capacity_) {
    // Evict before taking a slot: the victim's slot is the one reused.
    const std::uint32_t victim = lru_tail_;
    index_.erase(slots_[victim].entry.name.id_hash(),
                 [victim](std::uint32_t v) { return v == victim; });
    lru_unlink(victim);
    free_slot(victim);
    ++evictions_;
  }
  const std::uint32_t s = slots_.acquire();
  Entry& entry = slots_[s].entry;
  entry.name = data.name;  // reuses the recycled slot's capacity
  entry.content_size = static_cast<std::uint32_t>(data.content_size);
  entry.access_level = data.access_level;
  entry.key_locator = NameTable::instance().intern(data.provider_key_locator);
  entry.signature_size = static_cast<std::uint32_t>(data.signature_size);
  entry.slot = s;
  if (data.signature) {
    if (signatures_.size() <= s) signatures_.resize(slots_.size());
    signatures_[s] = data.signature;
  }
  index_.insert(entry.name.id_hash(), s);
  lru_push_front(s);
}

void ContentStore::clear() {
  // The LRU list holds exactly the live slots.
  while (lru_head_ != kNil) {
    const std::uint32_t s = lru_head_;
    lru_unlink(s);
    free_slot(s);
  }
  index_.clear();
}

}  // namespace tactic::ndn
