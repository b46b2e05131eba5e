#pragma once
// Multi-cluster federation: one routing gateway serving a FaaS workload
// across N independent HPC-Whisk clusters.
//
// The paper runs one OpenWhisk controller against one Slurm cluster and
// shields clients with the Alg. 1 cloud fallback. At production scale the
// idle supply is sharded across many clusters, each with its own HPC
// background load (and therefore its own, skewed, idle-node surface).
// The FederatedGateway owns N full HpcWhiskSystem instances — each with
// its own Slurmctld, JobManager, Controller, Broker and invoker pool,
// driven by its own calibrated HpcWorkloadGenerator under a per-cluster
// seed — inside one deterministic sim::Simulation, and routes an
// open-loop FaaS workload across them.
//
// Routing policies (Żuk et al.: routing decisions dominate FaaS response
// time):
//  * round-robin            — supply-blind rotation;
//  * least-outstanding      — fewest in-flight activations wins,
//                             clusters without a healthy invoker last;
//  * power-of-two-choices   — two sampled clusters, lower load-per-
//                             healthy-invoker wins (the classic
//                             "power of d choices" balancer).
// All three read per-cluster health (healthy-invoker count, controller
// queue depth) through a bounded-staleness snapshot refreshed on a fixed
// cadence — never instantaneous global state, mirroring what a real
// gateway could know from periodic status reports.
//
// Unavailability handling generalizes Alg. 1's single Last_503 to a
// per-cluster cool-down table: a 503 puts the rejecting cluster in
// cool-down, the call spills to the healthiest-looking sibling first,
// and only when every cluster is cooling or rejecting does it fall back
// to the commercial cloud (cloud::LambdaService).

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "hpcwhisk/cloud/lambda_service.hpp"
#include "hpcwhisk/core/system.hpp"
#include "hpcwhisk/sim/rng.hpp"
#include "hpcwhisk/sim/simulation.hpp"
#include "hpcwhisk/trace/hpc_workload.hpp"

namespace hpcwhisk::fed {

enum class FedPolicy : std::uint8_t {
  kRoundRobin,
  kLeastOutstanding,
  kPowerOfTwo,
};

[[nodiscard]] const char* to_string(FedPolicy p);

/// Health snapshot refresh cadence — the staleness bound.
inline constexpr sim::SimTime kHealthRefresh = sim::SimTime::seconds(1);

class FederatedGateway {
 public:
  struct ClusterSpec {
    /// Full per-cluster deployment config. Give every cluster a distinct
    /// `system.seed`: it decorrelates the clusters' pilot supplies.
    core::HpcWhiskSystem::Config system;
    /// Background HPC workload driving this cluster's idleness pattern.
    trace::HpcWorkloadGenerator::Config hpc_load;
    /// Seed for the HPC workload generator; 0 derives one from
    /// system.seed (same derivation run_experiment uses).
    std::uint64_t hpc_seed{0};
    /// Set false to own a cluster without generating background load
    /// (unit tests drive the controllers directly).
    bool drive_hpc_load{true};
  };

  struct Config {
    std::vector<ClusterSpec> clusters;  ///< at least one
    FedPolicy policy{FedPolicy::kPowerOfTwo};
    /// The shared commercial fallback backend; every offload asks for
    /// core::kOffloadMemoryMb.
    cloud::LambdaService::Config cloud;
    /// Gateway RNG seed (power-of-two-choices sampling).
    std::uint64_t seed{1};
    /// Append one line per routed call to decision_log() — the input of
    /// the serial-vs-parallel golden test. Off by default (it grows with
    /// the call count).
    bool log_decisions{false};
    /// Optional trace/metrics sink for *gateway-level* events (routing
    /// instants, cool-down spans, counters). Per-cluster instrumentation
    /// is configured through each ClusterSpec::system.obs — cluster
    /// correlation ids (invoker ids, activation ids) are per-controller
    /// and would collide in a shared buffer, so the gateway does not fan
    /// this pointer out.
    obs::Observability* obs{nullptr};
  };

  FederatedGateway(sim::Simulation& simulation, Config config);

  FederatedGateway(const FederatedGateway&) = delete;
  FederatedGateway& operator=(const FederatedGateway&) = delete;

  /// Registers `spec` with every cluster's registry and the cloud
  /// registry, so a call can land anywhere.
  void register_function(const whisk::FunctionSpec& spec);

  /// Starts every cluster's HPC workload and pilot supply, plus the
  /// health sampler.
  void start();

  struct Result {
    bool cloud{false};
    std::size_t cluster{0};     ///< valid iff !cloud
    std::uint64_t id{0};        ///< activation id or cloud invocation id
    std::uint32_t spills{0};    ///< 503s absorbed before placement
  };

  /// Routes one call: policy pick among non-cooling clusters, spillover
  /// to siblings on 503 (healthiest snapshot first), cloud as the last
  /// resort. Never fails to place the call.
  Result invoke(const std::string& function);

  // --- Health snapshots ----------------------------------------------------

  struct ClusterHealth {
    std::size_t healthy{0};        ///< healthy invokers at sample time
    std::uint64_t outstanding{0};  ///< accepted, not yet terminal
    sim::SimTime sampled_at;
  };

  /// Re-samples every cluster now. Called on the kHealthRefresh cadence;
  /// tests drive it manually to pin staleness semantics.
  void refresh_health();
  [[nodiscard]] const std::vector<ClusterHealth>& health() const {
    return health_;
  }
  /// Whether `cluster` is inside its post-503 cool-down at time `at`:
  /// Alg. 1's fallback window (core::kFallbackWindow), per cluster. A
  /// cooling cluster receives no traffic until a call arrives strictly
  /// after last_503 + kFallbackWindow.
  [[nodiscard]] bool cooling(std::size_t cluster, sim::SimTime at) const;

  // --- Introspection -------------------------------------------------------

  [[nodiscard]] std::size_t cluster_count() const { return clusters_.size(); }
  [[nodiscard]] core::HpcWhiskSystem& cluster(std::size_t i) {
    return *clusters_[i].system;
  }
  [[nodiscard]] trace::HpcWorkloadGenerator* hpc_load(std::size_t i) {
    return clusters_[i].workload.get();
  }
  [[nodiscard]] cloud::LambdaService& cloud_service() { return *cloud_; }
  [[nodiscard]] whisk::FunctionRegistry& cloud_functions() {
    return cloud_registry_;
  }

  struct Counters {
    std::uint64_t invocations{0};
    std::uint64_t cluster_calls{0};
    std::uint64_t cloud_calls{0};
    std::uint64_t rejections_seen{0};  ///< 503s absorbed by the gateway
    std::uint64_t spillovers{0};       ///< placed on a sibling after >=1 503
    std::uint64_t cooldown_skips{0};   ///< cooling clusters bypassed
  };
  [[nodiscard]] const Counters& counters() const { return counters_; }
  /// Calls placed on each cluster (load-share numerator).
  [[nodiscard]] const std::vector<std::uint64_t>& per_cluster_calls() const {
    return per_cluster_calls_;
  }

  /// Health-sampler coverage: samples where >= 1 cluster had a healthy
  /// invoker, over all samples (federation-wide availability share).
  [[nodiscard]] std::uint64_t health_samples() const { return samples_total_; }
  [[nodiscard]] std::uint64_t health_samples_any_healthy() const {
    return samples_any_healthy_;
  }
  /// Samples where cluster `i` had >= 1 healthy invoker.
  [[nodiscard]] const std::vector<std::uint64_t>& health_samples_healthy()
      const {
    return samples_healthy_;
  }

  /// One line per routed call when Config::log_decisions — a pure
  /// function of (config, workload, seed); the golden test hashes it.
  [[nodiscard]] const std::string& decision_log() const {
    return decision_log_;
  }

 private:
  struct Cluster {
    std::unique_ptr<core::HpcWhiskSystem> system;
    std::unique_ptr<trace::HpcWorkloadGenerator> workload;
    std::optional<sim::SimTime> last_503;
    bool cooldown_span_open{false};
  };

  /// Load score from the current snapshot: outstanding work per healthy
  /// invoker; clusters with zero healthy invokers score worst.
  [[nodiscard]] double load_score(std::size_t i) const;
  /// Policy pick among `candidates` (indices into clusters_, ascending).
  [[nodiscard]] std::optional<std::size_t> pick(
      const std::vector<std::size_t>& candidates);
  /// Spillover pick: lowest load score, ties to the lowest index.
  [[nodiscard]] std::optional<std::size_t> pick_least(
      const std::vector<std::size_t>& candidates) const;
  void note_503(std::size_t i, sim::SimTime now);
  void maybe_close_cooldown_span(std::size_t i, sim::SimTime at);

  sim::Simulation& sim_;
  Config config_;
  sim::Rng rng_;
  whisk::FunctionRegistry cloud_registry_;
  std::vector<Cluster> clusters_;
  std::unique_ptr<cloud::LambdaService> cloud_;
  std::vector<ClusterHealth> health_;
  std::vector<std::uint64_t> per_cluster_calls_;
  std::vector<std::uint64_t> samples_healthy_;
  std::uint64_t samples_total_{0};
  std::uint64_t samples_any_healthy_{0};
  std::size_t rr_next_{0};
  sim::PeriodicHandle sampler_;
  Counters counters_;
  std::string decision_log_;
};

}  // namespace hpcwhisk::fed
