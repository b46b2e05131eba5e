#pragma once
// FaaS function model: a named, stateless action with a memory footprint
// and an execution-duration model (the simulator's stand-in for the
// function body). Mirrors the aspects of an OpenWhisk action that matter
// to scheduling and to the paper's experiments.

#include <cstdint>
#include <deque>
#include <functional>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "hpcwhisk/sim/rng.hpp"
#include "hpcwhisk/sim/time.hpp"

namespace hpcwhisk::whisk {

struct FunctionSpec {
  std::string name;
  /// Runtime kind (image family) the function needs; a matching
  /// prewarmed stem-cell container turns its first call into a near-warm
  /// start.
  std::string kind{"python:3"};
  std::int64_t memory_mb{256};

  /// Samples one execution's duration (on an unloaded node).
  std::function<sim::SimTime(sim::Rng&)> duration;

  /// Controller-side activation timeout: if an accepted activation has
  /// not completed within this bound, the client gets a timeout error.
  sim::SimTime timeout{sim::SimTime::minutes(5)};

  /// Whether a draining invoker may interrupt a running execution of
  /// this function and requeue it to the fast lane (Sec. III-C: clients
  /// whose functions modify external state non-atomically opt out).
  bool interruptible{true};

  /// OpenWhisk action sequence: when this function completes, the
  /// controller automatically invokes `next` ("functions may be
  /// triggered by HTTP requests or other functions", Sec. II). Empty =
  /// no chaining. The chained invocation is a fresh activation routed
  /// like any other.
  std::string next;

  /// Dense registry index, assigned by FunctionRegistry::put and stable
  /// for the name. Layers below whisk (leases, container pools) key
  /// their per-function state by it.
  std::uint32_t index{0};
  /// function_hash(name), computed by FunctionRegistry::put: the hash
  /// routing modes read it per call instead of hashing the name.
  std::uint64_t hash{0};
};

/// Convenience: a function that always takes exactly `d`.
[[nodiscard]] FunctionSpec fixed_duration_function(std::string name,
                                                   sim::SimTime d,
                                                   std::int64_t memory_mb = 256);

class FunctionRegistry {
 public:
  /// Registers a function, or replaces the one of the same name in
  /// place (keeping its index). References to specs stay valid.
  void put(FunctionSpec spec);

  [[nodiscard]] const FunctionSpec* find(const std::string& name) const;
  /// Throws std::out_of_range if absent.
  [[nodiscard]] const FunctionSpec& at(const std::string& name) const;
  /// The spec with FunctionSpec::index `index` (< size()): no hashing.
  [[nodiscard]] const FunctionSpec& spec(std::uint32_t index) const {
    return specs_[index];
  }

  [[nodiscard]] std::size_t size() const { return specs_.size(); }
  /// Names in index (registration) order.
  [[nodiscard]] std::vector<std::string> names() const;

 private:
  /// Indexed by FunctionSpec::index; a deque so growth never moves a
  /// spec that callers hold a reference to.
  std::deque<FunctionSpec> specs_;
  std::unordered_map<std::string, std::uint32_t> index_;
};

/// FNV-1a hash of the function name; OpenWhisk derives the "home" invoker
/// of a function from such a hash so repeated calls land on warm
/// containers (Sec. II).
[[nodiscard]] std::uint64_t function_hash(const std::string& name);

}  // namespace hpcwhisk::whisk
