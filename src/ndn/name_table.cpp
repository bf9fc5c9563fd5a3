#include "ndn/name_table.hpp"

namespace tactic::ndn {

NameTable& NameTable::instance() {
  static NameTable table;
  return table;
}

ComponentId NameTable::intern(std::string_view text) {
  const auto it = ids_.find(text);
  if (it != ids_.end()) return it->second;
  if (texts_.size() >= kInvalidComponent) {
    throw std::length_error("NameTable: component id space exhausted");
  }
  const auto id = static_cast<ComponentId>(texts_.size());
  const std::string& stored = texts_.emplace_back(text);
  ids_.emplace(std::string_view(stored), id);
  return id;
}

}  // namespace tactic::ndn
