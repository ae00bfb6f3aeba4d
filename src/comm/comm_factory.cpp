#include "comm/comm_factory.h"

#include <stdexcept>

namespace lmp::comm {

CommFactory& CommFactory::instance() {
  static CommFactory factory;
  return factory;
}

void CommFactory::register_variant(CommVariantInfo info) {
  const std::string name = info.name;
  variants_[name] = std::move(info);
}

bool CommFactory::known(const std::string& name) const {
  return variants_.contains(name);
}

const CommVariantInfo& CommFactory::at(const std::string& name) const {
  const auto it = variants_.find(name);
  if (it == variants_.end()) {
    throw std::invalid_argument("unknown comm variant '" + name +
                                "' (registered: " + catalog() + ")");
  }
  return it->second;
}

std::vector<std::string> CommFactory::names() const {
  std::vector<std::string> out;
  out.reserve(variants_.size());
  for (const auto& [name, info] : variants_) out.push_back(name);
  return out;  // std::map iteration is already sorted
}

std::string CommFactory::catalog() const {
  std::string out;
  for (const auto& [name, info] : variants_) {
    if (!out.empty()) out += ", ";
    out += name;
  }
  return out;
}

}  // namespace lmp::comm
