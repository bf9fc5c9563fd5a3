#include "ndn/name.hpp"

#include <algorithm>
#include <limits>
#include <utility>

namespace tactic::ndn {

Name::Name(std::string_view uri) {
  NameTable& table = NameTable::instance();
  std::size_t start = 0;
  while (start < uri.size()) {
    if (uri[start] == '/') {
      ++start;
      continue;
    }
    std::size_t end = uri.find('/', start);
    if (end == std::string_view::npos) end = uri.size();
    push_back(table.intern(uri.substr(start, end - start)));
    start = end + 1;
  }
}

Name::Name(std::initializer_list<std::string> components) {
  NameTable& table = NameTable::instance();
  reserve(components.size());
  for (const std::string& component : components) {
    push_back(table.intern(component));
  }
}

Name::Name(const Name& other) { *this = other; }

Name::Name(Name&& other) noexcept { swap(other); }

Name& Name::operator=(const Name& other) {
  if (this == &other) return *this;
  if (on_heap_ || other.on_heap_) {
    assign(other.data(), other.size_);
  } else {
    ids_ = other.ids_;
    size_ = other.size_;
  }
  hash_ = other.hash_;
  hash_cached_ = other.hash_cached_;
  return *this;
}

Name& Name::operator=(Name&& other) noexcept {
  // Inline IDs are copied, so a heap buffer here stays for reuse (they
  // fit any name, so the copy allocates nothing); a heap buffer changes
  // hands.
  if (other.on_heap_) {
    swap(other);
  } else {
    *this = other;
  }
  return *this;
}

void Name::swap(Name& other) noexcept {
  std::swap(ids_, other.ids_);
  std::swap(hash_, other.hash_);
  std::swap(size_, other.size_);
  std::swap(on_heap_, other.on_heap_);
  std::swap(hash_cached_, other.hash_cached_);
}

void Name::reserve(std::size_t n) {
  if (n <= capacity()) return;
  constexpr std::size_t kMaxIds = std::numeric_limits<std::uint32_t>::max();
  if (n > kMaxIds) throw std::length_error("Name: too many components");
  const std::size_t grown = std::min(std::max(n, 2 * capacity()), kMaxIds);
  auto* ids = new ComponentId[grown];
  std::copy_n(data(), size_, ids);
  release_heap();
  ids_.heap = HeapIds{ids, static_cast<std::uint32_t>(grown)};
  on_heap_ = true;
}

void Name::assign(const ComponentId* ids, std::size_t n) {
  size_ = 0;
  reserve(n);
  std::copy_n(ids, n, data());
  size_ = static_cast<std::uint32_t>(n);
  hash_cached_ = false;
}

void Name::push_back(ComponentId id) {
  reserve(std::size_t{size_} + 1);
  data()[size_++] = id;
  hash_cached_ = false;
}

Name Name::from_components(std::vector<std::string> components) {
  Name n;
  NameTable& table = NameTable::instance();
  n.reserve(components.size());
  for (const std::string& component : components) {
    n.push_back(table.intern(component));
  }
  return n;
}

Name Name::from_ids(std::vector<ComponentId> ids) {
  Name n;
  n.assign(ids.data(), ids.size());
  return n;
}

std::vector<std::string> Name::components() const {
  const NameTable& table = NameTable::instance();
  std::vector<std::string> out;
  out.reserve(size_);
  for (const ComponentId id : component_ids()) out.push_back(table.text(id));
  return out;
}

std::string Name::to_uri() const {
  if (empty()) return "/";
  const NameTable& table = NameTable::instance();
  std::string out;
  out.reserve(uri_size());
  for (const ComponentId id : component_ids()) {
    out += '/';
    out += table.text(id);
  }
  return out;
}

std::size_t Name::uri_size() const {
  if (empty()) return 1;  // "/"
  const NameTable& table = NameTable::instance();
  std::size_t size = size_;  // one '/' per component
  for (const ComponentId id : component_ids()) size += table.text(id).size();
  return size;
}

Name Name::prefix(std::size_t n) const {
  Name out;
  out.assign(data(), std::min(n, size()));
  return out;
}

std::string Name::head_uri() const {
  if (empty()) return "/";
  return "/" + NameTable::instance().text(data()[0]);
}

Name Name::append(std::string_view component) const {
  Name out = *this;
  out.push_back(NameTable::instance().intern(component));
  return out;
}

Name Name::append_number(std::uint64_t number) const {
  return append(std::to_string(number));
}

int Name::compare(const Name& other) const {
  if (*this == other) return 0;  // common case, no table walk
  const NameTable& table = NameTable::instance();
  const ComponentId* ids = data();
  const ComponentId* other_ids = other.data();
  const std::size_t n = std::min(size(), other.size());
  for (std::size_t i = 0; i < n; ++i) {
    if (ids[i] == other_ids[i]) continue;  // same interned component
    const int c = table.text(ids[i]).compare(table.text(other_ids[i]));
    if (c != 0) return c < 0 ? -1 : 1;
  }
  if (size() == other.size()) return 0;
  return size() < other.size() ? -1 : 1;
}

}  // namespace tactic::ndn
