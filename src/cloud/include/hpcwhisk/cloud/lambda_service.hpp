#pragma once
// A commercial FaaS backend model (AWS-Lambda-like).
//
// Two roles in the reproduction:
//  * the fallback target of the Alg. 1 client wrapper (Sec. III-E) —
//    always available, never 503s;
//  * the comparison baseline of Fig. 7 — Lambda allocates CPU
//    proportionally to configured memory (1 vCPU at 1792 MB), and the
//    paper measures Prometheus nodes ~15 % faster at 2 GB, which we model
//    as a compute-slowdown factor relative to an HPC node.

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "hpcwhisk/sim/distributions.hpp"
#include "hpcwhisk/sim/rng.hpp"
#include "hpcwhisk/sim/simulation.hpp"
#include "hpcwhisk/whisk/function.hpp"

namespace hpcwhisk::obs {
struct Observability;
}

namespace hpcwhisk::cloud {

/// Memory for which a full vCPU is granted.
inline constexpr std::int64_t kFullVcpuMemoryMb = 1792;

class LambdaService {
 public:
  struct Config {
    /// Containers stay warm this long after an invocation.
    sim::SimTime keep_warm{sim::SimTime::minutes(10)};
    /// Single-thread compute slowdown relative to a Prometheus node
    /// (Fig. 7: HPC node ≈15 % faster => Lambda factor ≈1.15).
    double compute_slowdown{1.15};
    /// Optional trace/metrics sink; null disables all instrumentation.
    obs::Observability* obs{nullptr};
  };

  struct InvocationRecord {
    std::uint64_t id{0};
    std::string function;
    sim::SimTime submit_time;
    sim::SimTime end_time;
    /// Time spent inside the function body (the paper reports internal
    /// execution time for Fig. 7, excluding network).
    sim::SimTime internal_duration;
    bool cold_start{false};
  };

  LambdaService(sim::Simulation& simulation,
                const whisk::FunctionRegistry& registry, Config config,
                sim::Rng rng);

  /// Invokes `function` with the given memory configuration; always
  /// accepted. Returns the invocation id; the record is terminal once the
  /// simulated completion event fired.
  std::uint64_t invoke(const std::string& function, std::int64_t memory_mb);

  [[nodiscard]] const InvocationRecord& invocation(std::uint64_t id) const;
  [[nodiscard]] const std::vector<InvocationRecord>& invocations() const {
    return records_;
  }
  [[nodiscard]] std::uint64_t completed() const { return completed_; }

  /// CPU share granted at `memory_mb` (capped at 1.0 for >= 1792 MB:
  /// we model single-threaded SeBS functions).
  [[nodiscard]] double cpu_share(std::int64_t memory_mb) const;

 private:
  sim::Simulation& sim_;
  const whisk::FunctionRegistry& registry_;
  Config config_;
  sim::Rng rng_;
  sim::LognormalFromQuantiles cold_start_;
  sim::LognormalFromQuantiles overhead_;
  std::vector<InvocationRecord> records_;
  /// function -> warm-until instant (single-container-per-function model;
  /// adequate for the sequential workloads of Alg. 1 and Fig. 7).
  std::unordered_map<std::string, sim::SimTime> warm_until_;
  std::uint64_t completed_{0};
};

}  // namespace hpcwhisk::cloud
