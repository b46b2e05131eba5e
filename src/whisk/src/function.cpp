#include "hpcwhisk/whisk/function.hpp"

#include <stdexcept>

namespace hpcwhisk::whisk {

FunctionSpec fixed_duration_function(std::string name, sim::SimTime d,
                                     std::int64_t memory_mb) {
  FunctionSpec spec;
  spec.name = std::move(name);
  spec.memory_mb = memory_mb;
  spec.duration = [d](sim::Rng&) { return d; };
  return spec;
}

void FunctionRegistry::put(FunctionSpec spec) {
  if (spec.name.empty())
    throw std::invalid_argument("FunctionRegistry::put: empty name");
  if (!spec.duration)
    throw std::invalid_argument("FunctionRegistry::put: missing duration model");
  const auto [it, fresh] = index_.try_emplace(
      spec.name, static_cast<std::uint32_t>(specs_.size()));
  spec.index = it->second;
  spec.hash = function_hash(spec.name);
  if (fresh) {
    specs_.push_back(std::move(spec));
  } else {
    specs_[it->second] = std::move(spec);
  }
}

const FunctionSpec* FunctionRegistry::find(const std::string& name) const {
  const auto it = index_.find(name);
  return it == index_.end() ? nullptr : &specs_[it->second];
}

const FunctionSpec& FunctionRegistry::at(const std::string& name) const {
  const auto it = index_.find(name);
  if (it == index_.end())
    throw std::out_of_range("FunctionRegistry: unknown function " + name);
  return specs_[it->second];
}

std::vector<std::string> FunctionRegistry::names() const {
  std::vector<std::string> out;
  out.reserve(specs_.size());
  for (const FunctionSpec& spec : specs_) out.push_back(spec.name);
  return out;
}

std::uint64_t function_hash(const std::string& name) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const char c : name) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ULL;
  }
  return h;
}

}  // namespace hpcwhisk::whisk
