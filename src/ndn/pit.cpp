#include "ndn/pit.hpp"

#include <algorithm>

namespace tactic::ndn {

void Pit::lru_unlink(std::uint32_t s) {
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

void Pit::lru_push_back(std::uint32_t s) {
  Slot& slot = slots_[s];
  slot.lru_prev = lru_tail_;
  slot.lru_next = kNil;
  if (lru_tail_ != kNil) {
    slots_[lru_tail_].lru_next = s;
  } else {
    lru_head_ = s;
  }
  lru_tail_ = s;
}

std::uint32_t Pit::alloc_slot() {
  if (!free_slots_.empty()) {
    const std::uint32_t s = free_slots_.back();
    free_slots_.pop_back();
    return s;
  }
  slots_.emplace_back();
  const auto s = static_cast<std::uint32_t>(slots_.size() - 1);
  slots_[s].entry.slot = s;
  return s;
}

void Pit::free_slot(std::uint32_t s) {
  Slot& slot = slots_[s];
  slot.entry.name.clear();        // keeps component capacity
  slot.entry.in_records.clear();  // keeps capacity — the arena win
  slot.entry.forwarded = false;
  slot.entry.expiry_time = 0;
  ++slot.gen;  // invalidates any expiry-heap records for this slot
  slot.live = false;
  free_slots_.push_back(s);
}

PitEntry* Pit::find(const Name& name) {
  ++counters_.lookups;
  const std::uint32_t s = index_.find(
      name.id_hash(), [&](std::uint32_t v) { return slot_holds(v, name); });
  if (s == util::HashIndex::kNpos) return nullptr;
  lru_unlink(s);
  lru_push_back(s);  // touch
  return &slots_[s].entry;
}

PitEntry& Pit::get_or_create(const Name& name) {
  ++counters_.lookups;
  const std::uint32_t existing = index_.find(
      name.id_hash(), [&](std::uint32_t v) { return slot_holds(v, name); });
  if (existing != util::HashIndex::kNpos) {
    lru_unlink(existing);
    lru_push_back(existing);  // touch
    return slots_[existing].entry;
  }
  ++counters_.inserts;
  const std::uint32_t s = alloc_slot();
  Slot& slot = slots_[s];
  slot.entry.name = name;
  slot.live = true;
  index_.insert(name.id_hash(), s);
  lru_push_back(s);
  return slot.entry;
}

void Pit::erase(const Name& name) {
  const std::uint32_t s = index_.find(
      name.id_hash(), [&](std::uint32_t v) { return slot_holds(v, name); });
  if (s != util::HashIndex::kNpos) erase_slot(s);
}

void Pit::erase_slot(std::uint32_t s) {
  const Name& name = slots_[s].entry.name;
  index_.erase(name.id_hash(),
               [&](std::uint32_t v) { return slot_holds(v, name); });
  lru_unlink(s);
  free_slot(s);
}

void Pit::clear() {
  index_.clear();
  for (std::uint32_t s = 0; s < slots_.size(); ++s) {
    if (slots_[s].live) {
      lru_unlink(s);
      free_slot(s);
    }
  }
  expiry_heap_.clear();
  lru_head_ = lru_tail_ = kNil;
}

PitEntry* Pit::lru_victim() {
  if (lru_head_ == kNil) return nullptr;
  return &slots_[lru_head_].entry;
}

void Pit::set_expiry(PitEntry& entry, event::Time expiry) {
  const auto greater = [](const ExpiryRec& a, const ExpiryRec& b) {
    return a.expiry > b.expiry;  // min-heap
  };
  entry.expiry_time = expiry;
  const std::uint32_t s = entry.slot;
  expiry_heap_.push_back(ExpiryRec{expiry, s, slots_[s].gen});
  std::push_heap(expiry_heap_.begin(), expiry_heap_.end(), greater);
  // Discard stale heads now rather than waiting for a min_expiry()
  // poll: owners that never sample the heap (no invariant checking)
  // would otherwise grow it without bound.  Each record is discarded at
  // most once, so the amortized cost stays O(1) per set_expiry call.
  while (!expiry_heap_.empty() && !rec_current(expiry_heap_.front())) {
    std::pop_heap(expiry_heap_.begin(), expiry_heap_.end(), greater);
    expiry_heap_.pop_back();
  }
}

bool Pit::rec_current(const ExpiryRec& rec) const {
  const Slot& slot = slots_[rec.slot];
  return slot.live && slot.gen == rec.gen &&
         slot.entry.expiry_time == rec.expiry;
}

std::optional<event::Time> Pit::min_expiry() {
  const auto greater = [](const ExpiryRec& a, const ExpiryRec& b) {
    return a.expiry > b.expiry;
  };
  while (!expiry_heap_.empty()) {
    ++counters_.expiry_polls;
    if (rec_current(expiry_heap_.front())) {
      return expiry_heap_.front().expiry;
    }
    std::pop_heap(expiry_heap_.begin(), expiry_heap_.end(), greater);
    expiry_heap_.pop_back();
  }
  return std::nullopt;
}

std::size_t Pit::erase_expired(event::Time now) {
  std::size_t erased = 0;
  for (auto next = min_expiry(); next && *next <= now; next = min_expiry()) {
    erase_slot(expiry_heap_.front().slot);  // min_expiry() left it current
    ++erased;
  }
  return erased;
}

bool Pit::has_nonce(const PitEntry& entry, std::uint64_t nonce) {
  return std::any_of(
      entry.in_records.begin(), entry.in_records.end(),
      [nonce](const PitInRecord& rec) { return rec.nonce == nonce; });
}

}  // namespace tactic::ndn
