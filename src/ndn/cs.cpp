#include "ndn/cs.hpp"

namespace tactic::ndn {

void ContentStore::Entry::respond(const Interest& request, Data& out) const {
  // Content: what the provider published.
  out.name = name;
  out.content_size = content_size;
  out.access_level = access_level;
  out.provider_key_locator = NameTable::instance().text(key_locator);
  out.signature_size = signature_size;
  out.signature = signature;
  // Envelope: this request's.  The attached NACK stays at its default.
  out.tag = request.tag;
  out.tag_wire_size = request.tag_wire_size;
  out.flag_f = request.flag_f;
  out.from_cache = true;
}

ContentStore::ContentStore(std::size_t capacity) : capacity_(capacity) {}

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
  Slot& slot = slots_[s];
  slot.entry.signature.reset();  // releases the shared signature bytes
  slot.live = false;
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
  if (capacity_ == 0) return;
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
  Slot& slot = slots_[s];
  Entry& entry = slot.entry;
  entry.name = data.name;  // reuses the recycled slot's capacity
  entry.content_size = data.content_size;
  entry.access_level = data.access_level;
  entry.key_locator = NameTable::instance().intern(data.provider_key_locator);
  entry.signature_size = data.signature_size;
  entry.signature = data.signature;
  slot.live = true;
  index_.insert(entry.name.id_hash(), s);
  lru_push_front(s);
}

void ContentStore::clear() {
  for (std::uint32_t s = 0; s < slots_.size(); ++s) {
    if (slots_[s].live) {
      lru_unlink(s);
      free_slot(s);
    }
  }
  index_.clear();
  lru_head_ = lru_tail_ = kNil;
}

}  // namespace tactic::ndn
