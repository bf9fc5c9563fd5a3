#include "ndn/name.hpp"

#include <algorithm>

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
    ids_.push_back(table.intern(uri.substr(start, end - start)));
    start = end + 1;
  }
}

Name::Name(std::initializer_list<std::string> components) {
  NameTable& table = NameTable::instance();
  ids_.reserve(components.size());
  for (const std::string& component : components) {
    ids_.push_back(table.intern(component));
  }
}

Name Name::from_components(std::vector<std::string> components) {
  Name n;
  NameTable& table = NameTable::instance();
  n.ids_.reserve(components.size());
  for (const std::string& component : components) {
    n.ids_.push_back(table.intern(component));
  }
  return n;
}

Name Name::from_ids(std::vector<ComponentId> ids) {
  Name n;
  n.ids_ = std::move(ids);
  return n;
}

std::vector<std::string> Name::components() const {
  const NameTable& table = NameTable::instance();
  std::vector<std::string> out;
  out.reserve(ids_.size());
  for (const ComponentId id : ids_) out.push_back(table.text(id));
  return out;
}

std::string Name::to_uri() const {
  if (ids_.empty()) return "/";
  const NameTable& table = NameTable::instance();
  std::string out;
  out.reserve(uri_size());
  for (const ComponentId id : ids_) {
    out += '/';
    out += table.text(id);
  }
  return out;
}

std::size_t Name::uri_size() const {
  if (ids_.empty()) return 1;  // "/"
  const NameTable& table = NameTable::instance();
  std::size_t size = ids_.size();  // one '/' per component
  for (const ComponentId id : ids_) size += table.text(id).size();
  return size;
}

Name Name::prefix(std::size_t n) const {
  Name out;
  const std::size_t take = std::min(n, ids_.size());
  out.ids_.assign(ids_.begin(),
                  ids_.begin() + static_cast<std::ptrdiff_t>(take));
  return out;
}

std::string Name::head_uri() const {
  if (ids_.empty()) return "/";
  return "/" + NameTable::instance().text(ids_.front());
}

bool Name::is_prefix_of(const Name& other) const {
  if (ids_.size() > other.ids_.size()) return false;
  return std::equal(ids_.begin(), ids_.end(), other.ids_.begin());
}

Name Name::append(std::string_view component) const {
  Name out;
  out.ids_.reserve(ids_.size() + 1);
  out.ids_ = ids_;
  out.ids_.push_back(NameTable::instance().intern(component));
  return out;
}

Name Name::append_number(std::uint64_t number) const {
  return append(std::to_string(number));
}

int Name::compare(const Name& other) const {
  if (ids_ == other.ids_) return 0;  // common case, no table walk
  const NameTable& table = NameTable::instance();
  const std::size_t n = std::min(ids_.size(), other.ids_.size());
  for (std::size_t i = 0; i < n; ++i) {
    if (ids_[i] == other.ids_[i]) continue;  // same interned component
    const int c = table.text(ids_[i]).compare(table.text(other.ids_[i]));
    if (c != 0) return c < 0 ? -1 : 1;
  }
  if (ids_.size() == other.ids_.size()) return 0;
  return ids_.size() < other.ids_.size() ? -1 : 1;
}

}  // namespace tactic::ndn
