#pragma once
// Hierarchical NDN names over interned components.
//
// A name is an ordered list of components, written as a URI like
// "/provider3/obj12/chunk7".  Names identify content, name prefixes
// identify providers (FIB entries), and public-key locators are themselves
// names (paper Section 3.B).
//
// Representation: every component string is interned once in the global
// NameTable and a Name holds a small vector of dense 32-bit ComponentIds:
// up to kInlineIds of them inside the Name itself, beside the cached hash,
// so a workload name ("/providerN/objK/cM", "/providerN/KEY/1",
// "/providerN/register/<label>/<nonce>") allocates nothing; a longer name
// keeps its IDs in one heap buffer, which clear() keeps for reuse.
// Component equality is an integer compare, prefix slicing copies a few
// words, and the one hash, id_hash(), is FNV-1a over the ID words, cached
// after its first computation — the key of every name table (FIB, PIT,
// CS) and of std::hash<Name>.  Every edit of the components (push_back,
// append, assignment from other IDs, clear) drops the cached hash; a copy
// or move carries the source's hash with its IDs.  Equality and ordering
// (compare/<) stay functions of the component strings alone.
//
// Contract: id_hash() values depend on interning order, which depends on
// everything the process interned before.  Nothing may iterate a
// Name-keyed unordered container in an order that reaches output
// (fingerprints, traces, stats).  Today nothing does; the two such maps
// are LinearFib's entry map and the provider's `signature_cache_`, and
// both are only probed.

#include <cstddef>
#include <cstdint>
#include <initializer_list>
#include <span>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "ndn/name_table.hpp"

namespace tactic::ndn {

class Name {
 public:
  /// Component IDs a Name holds without a heap buffer.
  static constexpr std::size_t kInlineIds = 4;

  Name() = default;
  /// Parses a URI: leading '/' optional, empty components collapsed.
  /// "/" or "" parse to the empty (root) name.
  explicit Name(std::string_view uri);
  Name(std::initializer_list<std::string> components);

  /// Copies and moves carry the source's cached hash with its IDs.  A
  /// copy assigned into a name with a heap buffer reuses the buffer when
  /// the IDs fit.
  Name(const Name& other);
  Name(Name&& other) noexcept;
  Name& operator=(const Name& other);
  Name& operator=(Name&& other) noexcept;
  ~Name() { release_heap(); }

  static Name from_components(std::vector<std::string> components);
  /// Builds a name directly from interned component IDs (table lookups
  /// already paid).  IDs must come from NameTable::instance().
  static Name from_ids(std::vector<ComponentId> ids);

  bool empty() const { return size_ == 0; }
  std::size_t size() const { return size_; }
  /// Resets to the empty name, keeping a heap buffer's capacity (arena
  /// slots call this on reuse so steady state allocates nothing).
  void clear() {
    size_ = 0;
    hash_cached_ = false;
  }
  /// Component text; the reference is stable for the process lifetime
  /// (it aliases the global interning table).
  const std::string& at(std::size_t i) const {
    if (i >= size_) throw std::out_of_range("Name::at");
    return NameTable::instance().text(data()[i]);
  }
  /// The interned component IDs (the representation tables key on);
  /// valid until the name is next modified.
  std::span<const ComponentId> component_ids() const {
    return {data(), size_};
  }
  /// Materialized component strings (compatibility helper; allocates).
  std::vector<std::string> components() const;

  /// Appends one interned component in place.
  void push_back(ComponentId id);

  /// Canonical URI form, "/a/b/c"; the root name renders as "/".
  std::string to_uri() const;
  /// Length of to_uri() in bytes, computed without allocating (wire-size
  /// accounting on the forwarding hot path).
  std::size_t uri_size() const;

  /// First `n` components (n clamped to size()).
  Name prefix(std::size_t n) const;
  /// prefix(1).to_uri() without building the prefix: "/" plus the first
  /// component, or "/" for the root name.
  std::string head_uri() const;

  /// True when *this is a (non-strict) prefix of `other`.
  bool is_prefix_of(const Name& other) const {
    return size_ <= other.size_ && same_ids(data(), other.data(), size_);
  }

  /// Returns a copy with `component` appended.
  Name append(std::string_view component) const;
  Name append_number(std::uint64_t number) const;

  /// Lexicographic comparison by component strings (shorter-is-smaller
  /// ties).  Interning IDs are order-free, so this walks the table text.
  int compare(const Name& other) const;
  friend bool operator==(const Name& a, const Name& b) {
    // Interning makes string equality an ID compare.
    return a.size_ == b.size_ && same_ids(a.data(), b.data(), a.size_);
  }
  friend bool operator!=(const Name& a, const Name& b) { return !(a == b); }
  friend bool operator<(const Name& a, const Name& b) {
    return a.compare(b) < 0;
  }

  /// id_hash() of the empty (root) name: the FNV-1a offset basis.
  static constexpr std::uint64_t kIdHashSeed = 14695981039346656037ULL;

  /// Folds one more component into a prefix's hash: for any name n and
  /// component id c, extend_id_hash(n.id_hash(), c) is the id_hash() of n
  /// with c appended.  The FIB folds a query's prefixes with it.
  static constexpr std::uint64_t extend_id_hash(std::uint64_t h,
                                                ComponentId id) {
    for (int shift = 0; shift < 32; shift += 8) {
      h ^= (id >> shift) & 0xFFu;
      h *= 1099511628211ULL;
    }
    return h;
  }

  /// FNV-1a over the interned ID words: extend_id_hash() folded over the
  /// components from kIdHashSeed.  Cached after the first call.  Values
  /// depend on interning order — see the contract at the top of the file.
  std::uint64_t id_hash() const {
    if (!hash_cached_) {
      std::uint64_t h = kIdHashSeed;
      for (const ComponentId id : component_ids()) h = extend_id_hash(h, id);
      hash_ = h;
      hash_cached_ = true;
    }
    return hash_;
  }

 private:
  struct HeapIds {
    ComponentId* ids;
    std::uint32_t capacity;
  };
  /// The inline IDs, or the heap buffer of a name that outgrew them.
  union Storage {
    ComponentId inline_ids[kInlineIds];
    HeapIds heap;
  };

  /// A loop, not memcmp: names are a few words long, and a library call
  /// costs more than the compare.
  static bool same_ids(const ComponentId* a, const ComponentId* b,
                       std::size_t n) {
    for (std::size_t i = 0; i < n; ++i) {
      if (a[i] != b[i]) return false;
    }
    return true;
  }

  const ComponentId* data() const {
    return on_heap_ ? ids_.heap.ids : ids_.inline_ids;
  }
  ComponentId* data() { return on_heap_ ? ids_.heap.ids : ids_.inline_ids; }
  std::size_t capacity() const {
    return on_heap_ ? ids_.heap.capacity : kInlineIds;
  }
  /// Makes room for `n` IDs, keeping the current ones.
  void reserve(std::size_t n);
  /// Replaces the IDs with ids[0, n) and drops the cached hash.
  void assign(const ComponentId* ids, std::size_t n);
  /// Exchanges IDs, storage and cached hash.
  void swap(Name& other) noexcept;
  void release_heap() {
    if (on_heap_) delete[] ids_.heap.ids;
  }

  Storage ids_{};
  /// Lazily cached id_hash() (the flag, not the value, marks "computed").
  mutable std::uint64_t hash_ = 0;
  std::uint32_t size_ = 0;
  bool on_heap_ = false;
  mutable bool hash_cached_ = false;
};

// Four IDs, the hash and its flag in half a cache line: every table slot
// and packet that holds a name pays no heap buffer for it.
static_assert(sizeof(Name) <= 32, "Name must stay within 32 bytes");

}  // namespace tactic::ndn

template <>
struct std::hash<tactic::ndn::Name> {
  std::size_t operator()(const tactic::ndn::Name& name) const noexcept {
    return static_cast<std::size_t>(name.id_hash());
  }
};
