#pragma once
// Global name-component interning table.
//
// Every name component string is registered here exactly once and mapped
// to a dense 32-bit ComponentId; Names then hold small ID vectors instead
// of string vectors, making component comparison O(1) and name hashing a
// few integer multiplies.  Every name table — the prefix-hash FIB, the
// PIT and the CS — keys on Name::id_hash() over these IDs
// (docs/ARCHITECTURE.md, "Name interning and table structures").  The CS
// also interns each provider key-locator string, one entry per provider,
// as a compact handle to the text of its cached entries' locators.
//
// The table is process-global and append-only: IDs are never recycled and
// interned strings are never moved, so `text(id)` references stay valid
// for the life of the process.  In particular the table survives router
// crash/restart cycles that wipe all volatile forwarding state (FIB, PIT,
// CS, Bloom filters) — it models the *vocabulary* of names, not any
// router's state.  ID values depend on interning order and carry no
// meaning: Name equality and ordering are defined over the component
// *strings*, so two runs that intern in different orders still behave
// identically.  Because the table is process-global, ID values — and so
// Name::id_hash() — depend on everything the process interned earlier
// (for example an earlier Scenario in the same test binary), and nothing
// behaviour-visible may key off them or iterate in an order they set.

#include <cstdint>
#include <deque>
#include <stdexcept>
#include <string>
#include <string_view>
#include <unordered_map>

namespace tactic::ndn {

/// Dense identifier of one interned name component.
using ComponentId = std::uint32_t;

/// Reserved non-component value (open-addressing sentinels and the like).
inline constexpr ComponentId kInvalidComponent = 0xFFFFFFFFu;

class NameTable {
 public:
  /// The process-global table every Name interns through.
  static NameTable& instance();

  /// Returns the ID for `text`, registering it on first sight.  Re-interning
  /// the same string always yields the same ID (ID stability).
  ComponentId intern(std::string_view text);

  /// The component string for `id`.  The reference is stable forever
  /// (deque growth never moves strings).  Throws std::out_of_range for
  /// unregistered IDs.
  const std::string& text(ComponentId id) const { return texts_.at(id); }

  /// Number of distinct components registered so far.
  std::size_t size() const { return texts_.size(); }

 private:
  NameTable() = default;

  std::deque<std::string> texts_;  // indexed by ComponentId
  /// text -> id; keys view the strings in texts_ (stable storage).
  std::unordered_map<std::string_view, ComponentId> ids_;
};

}  // namespace tactic::ndn
