#pragma once
// build_scenario turns a ScenarioSpec into live components inside a
// caller-owned sim::Simulation: the one wiring path shared by SimCheck
// (run_scenario, below) and the benches (bench::run_experiment).
//
// run_scenario executes one spec and returns the RunObservation the
// invariant suite consumes. Deterministic: two calls with the same spec
// produce byte-identical decision logs.

#include <memory>

#include "hpcwhisk/check/observation.hpp"
#include "hpcwhisk/check/scenario.hpp"
#include "hpcwhisk/core/system.hpp"
#include "hpcwhisk/fed/federated_gateway.hpp"
#include "hpcwhisk/sim/simulation.hpp"
#include "hpcwhisk/trace/faas_workload.hpp"
#include "hpcwhisk/trace/hpc_workload.hpp"

namespace hpcwhisk::check {

/// A spec's components, wired but not yet started: the caller attaches
/// its observers (they must see the first submission) and then calls
/// start(). Nothing is submitted before start().
struct Scenario {
  /// clusters == 1: the system and its HPC load.
  std::unique_ptr<core::HpcWhiskSystem> system;
  std::unique_ptr<trace::HpcWorkloadGenerator> hpc_load;
  /// clusters > 1: the gateway, which owns every cluster and its load.
  std::unique_ptr<fed::FederatedGateway> gateway;
  /// Null when the spec has no FaaS load.
  std::unique_ptr<trace::FaasLoadGenerator> faas;

  [[nodiscard]] core::HpcWhiskSystem& cluster(std::size_t i) {
    return gateway ? gateway->cluster(i) : *system;
  }

  /// Starts the HPC load and the pilot supply (unless the spec has
  /// none), and opens the FaaS load over [measure_start, horizon).
  void start();

  /// What build_scenario was given; both must outlive start().
  const ScenarioSpec* spec{nullptr};
  sim::Simulation* simulation{nullptr};
};

/// Wires `spec` into `simulation`. `obs` (optional, must outlive the
/// components) is propagated to every component; `spec` must outlive
/// the returned Scenario's start(). Throws std::invalid_argument for a
/// federated spec without a pilot supply.
[[nodiscard]] Scenario build_scenario(sim::Simulation& simulation,
                                      const ScenarioSpec& spec,
                                      obs::Observability* obs = nullptr);

[[nodiscard]] RunObservation run_scenario(const ScenarioSpec& spec);

}  // namespace hpcwhisk::check
