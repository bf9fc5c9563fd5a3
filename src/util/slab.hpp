#pragma once
// Slab: default-constructed T slots at stable addresses, named by a
// 32-bit index and recycled last-in first-out.
//
// Slots live in chunks of 16, 32, 64, ... slots, so growing the slab
// never moves a slot (callers hold references across acquires) and an
// index finds its chunk with one bit scan.  release() only puts the
// index on the free list: the slot keeps its contents, and with them
// their heap capacity, until a later acquire() hands it out again and
// the caller overwrites it — so a table at steady state allocates
// nothing.  A new slab allocates nothing before its first acquire().
//
// The PIT, Content Store, FIB, packet pool and event scheduler keep
// their entries here (docs/ARCHITECTURE.md, "Name interning and table
// structures").

#include <bit>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

namespace tactic::util {

template <typename T>
class Slab {
 public:
  /// A slot for a new tenant: the most recently released one, else a
  /// fresh default-constructed slot.
  std::uint32_t acquire() {
    if (!free_.empty()) {
      const std::uint32_t idx = free_.back();
      free_.pop_back();
      return idx;
    }
    if (count_ == capacity_) {
      const std::size_t size = kFirstChunk << chunks_.size();
      chunks_.push_back(std::make_unique<T[]>(size));
      capacity_ += size;
    }
    return static_cast<std::uint32_t>(count_++);
  }

  /// Returns slot `idx` for reuse; its contents stay as they are.
  void release(std::uint32_t idx) { free_.push_back(idx); }

  T& operator[](std::uint32_t idx) { return slot(idx); }
  const T& operator[](std::uint32_t idx) const { return slot(idx); }

  /// Slots ever handed out (live + free); indices run below this.
  std::size_t size() const { return count_; }
  /// Released slots awaiting reuse.
  std::size_t free_count() const { return free_.size(); }

  /// Visits every released slot, most recently released last.
  template <typename Fn>
  void for_each_free(Fn&& fn) {
    for (const std::uint32_t idx : free_) fn(slot(idx));
  }

 private:
  static constexpr std::size_t kFirstChunk = 16;

  /// Chunk k holds kFirstChunk << k slots starting at index
  /// kFirstChunk * (2^k - 1), so idx / kFirstChunk + 1 lies in
  /// [2^k, 2^(k+1)).
  T& slot(std::uint32_t idx) const {
    const std::size_t q = idx / kFirstChunk + 1;
    const auto k = static_cast<std::size_t>(std::bit_width(q)) - 1;
    return chunks_[k][idx - kFirstChunk * ((std::size_t{1} << k) - 1)];
  }

  std::vector<std::unique_ptr<T[]>> chunks_;
  std::vector<std::uint32_t> free_;
  std::size_t count_ = 0;
  std::size_t capacity_ = 0;
};

}  // namespace tactic::util
