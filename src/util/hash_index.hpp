#pragma once
// Open-addressing hash index with externalized keys.
//
// Maps a caller-computed 64-bit hash to a 32-bit slot value; the keys
// themselves stay wherever the caller keeps them (a slab arena), and
// collisions are resolved by calling back into the caller with the
// candidate value (`eq(value)` answers "does this slot hold my key?").
// Compared with unordered_map<Name, u32> this stores no key copies and
// allocates nothing per insert/erase — only the flat cell array, which
// stops growing once the table reaches its steady-state size.
//
// A cell is 8 bytes: a 32-bit tag taken from the mixed hash (its low
// bits pick the home cell; the whole tag screens candidates before `eq`
// runs) and the value, kNpos marking an empty cell.  Probing is linear.
// Erasing shifts the rest of the cluster back into the hole (Knuth's
// Algorithm R), so the table holds no tombstones and never rehashes at a
// fixed size: it only doubles, when live entries pass 3/4 of capacity.

#include <cstddef>
#include <cstdint>
#include <vector>

namespace tactic::util {

class HashIndex {
 public:
  static constexpr std::uint32_t kNpos = 0xFFFFFFFFu;

  std::size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }

  void clear() {
    for (Cell& cell : cells_) cell.value = kNpos;
    size_ = 0;
  }

  /// Returns the value stored for the key with this hash, or kNpos.
  /// `eq(value)` must return true iff `value` identifies the caller's key.
  template <typename Eq>
  std::uint32_t find(std::uint64_t hash, Eq&& eq) const {
    const std::size_t i = locate(tag_of(hash), eq);
    return i == kAbsent ? kNpos : cells_[i].value;
  }

  /// Inserts hash -> value.  The caller guarantees no equal key is
  /// present (probe with find() first).
  void insert(std::uint64_t hash, std::uint32_t value) {
    if ((size_ + 1) * 4 > cells_.size() * 3) grow();
    place(Cell{tag_of(hash), value});
    ++size_;
  }

  /// Removes the cell for this (hash, eq) key.  Returns false if absent.
  template <typename Eq>
  bool erase(std::uint64_t hash, Eq&& eq) {
    std::size_t hole = locate(tag_of(hash), eq);
    if (hole == kAbsent) return false;
    // Backward shift: a later cell of the cluster moves into the hole
    // unless its home lies cyclically in (hole, j] — moving it would put
    // it before its home, out of its own probe path.
    const std::size_t mask = cells_.size() - 1;
    for (std::size_t j = (hole + 1) & mask; cells_[j].value != kNpos;
         j = (j + 1) & mask) {
      const std::size_t home = cells_[j].tag & mask;
      if (((j - home) & mask) >= ((j - hole) & mask)) {
        cells_[hole] = cells_[j];
        hole = j;
      }
    }
    cells_[hole].value = kNpos;
    --size_;
    return true;
  }

 private:
  static constexpr std::size_t kAbsent = ~std::size_t{0};

  struct Cell {
    std::uint32_t tag = 0;
    std::uint32_t value = kNpos;
  };

  /// Finalizer so weak low bits (e.g. pointer-ish hashes) still spread
  /// across the table (splitmix64 tail); the tag is its low half.
  static std::uint32_t tag_of(std::uint64_t h) {
    h ^= h >> 30;
    h *= 0xbf58476d1ce4e5b9ull;
    h ^= h >> 27;
    h *= 0x94d049bb133111ebull;
    h ^= h >> 31;
    return static_cast<std::uint32_t>(h);
  }

  /// Index of the cell holding the (tag, eq) key, or kAbsent.
  template <typename Eq>
  std::size_t locate(std::uint32_t tag, Eq& eq) const {
    if (cells_.empty()) return kAbsent;
    const std::size_t mask = cells_.size() - 1;
    for (std::size_t i = tag & mask;; i = (i + 1) & mask) {
      const Cell& cell = cells_[i];
      if (cell.value == kNpos) return kAbsent;
      if (cell.tag == tag && eq(cell.value)) return i;
    }
  }

  /// Stores `cell` in the first empty cell of its probe path.
  void place(Cell cell) {
    const std::size_t mask = cells_.size() - 1;
    std::size_t i = cell.tag & mask;
    while (cells_[i].value != kNpos) i = (i + 1) & mask;
    cells_[i] = cell;
  }

  void grow() {
    std::vector<Cell> old(cells_.empty() ? 16 : cells_.size() * 2);
    old.swap(cells_);
    for (const Cell& cell : old) {
      if (cell.value != kNpos) place(cell);
    }
  }

  std::vector<Cell> cells_;
  std::size_t size_ = 0;
};

}  // namespace tactic::util
