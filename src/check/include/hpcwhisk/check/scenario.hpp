#pragma once
// ScenarioSpec: the one plain-data description of a run.
//
// Every experiment in the tree — a SimCheck scenario, a paper table, an
// ablation leg — is a ScenarioSpec turned into live components by
// check::build_scenario (runner.hpp). SimCheck explores the system's
// behavior space the way QuickCheck explores an input space: a seed
// deterministically expands into a full experiment (ScenarioSpec::sample)
// — cluster size, pilot supply model, FaaS load mix, HPC churn, an
// optional fault plan, and optionally an N-cluster federation topology.
// The benches fill the same struct from their own defaults
// (bench/common/experiment.hpp). The spec serializes to the JSON repro
// format (repro.hpp), compares for equality (shrinker bookkeeping), and
// two runs of the same spec replay byte-identically.

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "hpcwhisk/core/job_manager.hpp"
#include "hpcwhisk/fault/fault_plan.hpp"
#include "hpcwhisk/runtime/container_pool.hpp"
#include "hpcwhisk/slurm/slurmctld.hpp"
#include "hpcwhisk/sim/time.hpp"
#include "hpcwhisk/whisk/controller.hpp"

namespace hpcwhisk::check {

/// Deliberately planted defects for the checker's self-tests: the runner
/// mis-configures the system in a known way and SimCheck must catch it.
enum class BugPlant : std::uint8_t {
  kNone,
  /// Build the pilot partition with a 5-second grace while the spec
  /// promises `grace` — preempted pilots get SIGKILL far too early,
  /// violating the grace-respected invariant.
  kTruncateGrace,
  /// TRES mode: build nodes with more capacity than the spec promises
  /// (inflated by one pilot's request), so the scheduler co-locates more
  /// work than the promised capacity admits — the per-TRES
  /// no-double-allocation invariant must fire.
  kTresOvercommit,
  /// TRES mode: silently drop the spec's declared reservation window, so
  /// jobs start (and keep running) inside it — the reservation-exclusion
  /// invariant must fire.
  kReservationIgnored,
};

[[nodiscard]] const char* to_string(BugPlant p);
[[nodiscard]] BugPlant bug_plant_from_string(std::string_view name);

/// One fault event pinned to a cluster of the scenario.
struct ScenarioFault {
  std::uint32_t cluster{0};
  fault::FaultEvent event;

  friend bool operator==(const ScenarioFault&, const ScenarioFault&) = default;
};

/// Knobs for ScenarioSpec::sample.
struct SampleOptions {
  bool chaos{false};          ///< sample a fault plan into the scenario
  std::uint32_t max_clusters{1};  ///< >1 enables federated scenarios
  double fed_probability{0.4};    ///< chance of clusters > 1 when allowed
  std::uint32_t min_nodes{6};
  std::uint32_t max_nodes{20};
  double min_horizon_minutes{18.0};
  double max_horizon_minutes{30.0};
  /// Deliberate defect stamped on every sampled spec (self-tests and the
  /// `simcheck --plant` pipeline check).
  BugPlant plant{BugPlant::kNone};
};

struct ScenarioSpec {
  /// Seeds the system's own draws: cluster i of a federation runs
  /// seed + 1000003*i.
  std::uint64_t seed{1};
  /// Load and gateway RNG seeds, stored as plain data because the two
  /// front ends derive them from `seed` differently: sample() (and every
  /// v1 repro) with check_streams(), the benches with bench::reseed().
  /// Cluster i of a federation runs hpc_seed + i. The defaults are
  /// check_streams() of seed 1.
  std::uint64_t hpc_seed{78};
  std::uint64_t faas_seed{79};
  std::uint64_t gateway_seed{82};  ///< federated scenarios only
  std::uint32_t nodes{12};     ///< per cluster
  std::uint32_t clusters{1};   ///< 1 = plain system, >1 = federation
  /// Pilot supply model; nullopt runs no pilots at all (the baseline
  /// idleness runs). Single-cluster only.
  std::optional<core::SupplyModel> supply{core::SupplyModel::kFib};
  std::string length_set{"C1"};
  std::size_t fib_per_length{3};
  sim::SimTime replenish_interval{sim::SimTime::seconds(15)};
  slurm::PilotPlacement placement{slurm::PilotPlacement::kPreemptAware};
  /// The FaaS load runs over [measure_start, horizon); the benches
  /// measure that window after a burn-in, SimCheck loads from t = 0.
  sim::SimTime measure_start{sim::SimTime::zero()};
  sim::SimTime horizon{sim::SimTime::minutes(24)};
  /// Drain window past the horizon; must exceed the activation timeout
  /// (5 min default) so every accepted activation can reach a terminal
  /// state before the invariants run.
  sim::SimTime settle{sim::SimTime::minutes(7)};
  double faas_qps{4.0};  ///< 0 = no FaaS load
  std::uint32_t faas_functions{10};
  sim::SimTime faas_duration{sim::SimTime::seconds(2)};
  bool faas_poisson{false};
  /// Skewed popularity: share of arrivals drawn from the first
  /// `faas_hot_functions` names (0 keeps the uniform round-robin and
  /// makes no RNG draws) — the hot-function mix the lease tier serves.
  double faas_hot_share{0.0};
  std::uint32_t faas_hot_functions{8};
  /// Share of the functions registered as long-running interruptible
  /// actions of `faas_long_duration` — the executions live drains
  /// interrupt and reroute.
  double faas_long_share{0.0};
  sim::SimTime faas_long_duration{sim::SimTime::seconds(30)};
  std::size_t hpc_backlog{20};
  double lull_probability{0.005};
  /// Pilot-partition preemption grace the scenario promises (the
  /// invariant suite checks the system honors exactly this).
  sim::SimTime grace{sim::SimTime::minutes(3)};
  /// Controller routing policy under test; the data-driven modes
  /// (least-expected-work, sjf-affinity) exercise the sched layer —
  /// estimators, backlog ledger, and (when enabled) deadline classes.
  whisk::RouteMode route_mode{whisk::RouteMode::kHashProbing};
  /// Short-class front-of-queue publish. Only data-driven modes act on
  /// it (legacy modes have no scheduler), but it is sampled and
  /// round-tripped unconditionally so the knob is always explicit.
  bool deadline_classes{false};
  /// Lease-based serving tier: hot functions get warm-executor leases
  /// and bypass the topic via direct invoke. Every invariant (call
  /// conservation, grace, backlog hygiene) must hold with it on.
  bool lease_mode{false};
  /// Invoker dispatch gate and kHashProbing saturation threshold; 0
  /// keeps the component defaults.
  std::uint32_t invoker_concurrency{0};
  std::uint32_t invoker_slots{0};
  /// Container keep-alive engine of every invoker pool.
  runtime::KeepAlivePolicy keep_alive{runtime::KeepAlivePolicy::kFixed};
  sim::SimTime keep_alive_floor{sim::SimTime::seconds(30)};
  sim::SimTime keep_alive_reap{sim::SimTime::zero()};
  /// --- Slurm fidelity regime (sampled unconditionally, applied only
  /// when tres_mode; defaults reproduce the legacy whole-node system) ---
  /// Per-TRES scheduling: nodes carry a {cpus, mem} capacity vector,
  /// HPC jobs request fractions, pilots co-reside on partial nodes.
  bool tres_mode{false};
  std::uint32_t node_cpus{8};
  std::uint32_t node_mem_mb{32000};
  std::uint32_t pilot_cpus{0};    ///< 0 = whole-node pilots
  std::uint32_t pilot_mem_mb{0};
  /// QOS preemption tiers: two pilot QOS classes (low preemptible first,
  /// high protected at the HPC tier) instead of the binary partition flag.
  bool qos_preempt{false};
  /// Maintenance reservations carving the first `res_nodes` nodes out of
  /// both supplies for `res_length`: one window at `res_start` when
  /// `res_period` is zero, else a rolling window every `res_period`
  /// from `res_start` until the horizon.
  bool reservation{false};
  sim::SimTime res_start{sim::SimTime::seconds(432)};  ///< 30 % of 24 min
  sim::SimTime res_period{sim::SimTime::zero()};
  sim::SimTime res_length{sim::SimTime::minutes(6)};
  std::uint32_t res_nodes{1};
  std::vector<ScenarioFault> faults;
  BugPlant plant{BugPlant::kNone};

  /// Expands `seed` into a full scenario. Same seed + options => same
  /// spec, on every platform (all draws go through sim::Rng).
  [[nodiscard]] static ScenarioSpec sample(std::uint64_t seed,
                                           const SampleOptions& options = {});

  /// Scenario size for the shrinker's "≤ N elements" target: one element
  /// per fault, per registered FaaS function, and per cluster.
  [[nodiscard]] std::size_t elements() const {
    return faults.size() + faas_functions + clusters;
  }

  /// One-line human description for progress output.
  [[nodiscard]] std::string summary() const;

  friend bool operator==(const ScenarioSpec&, const ScenarioSpec&) = default;
};

/// SimCheck's per-stream seed derivation from `spec.seed` (what sample()
/// stores, and what a v1 repro — which has no seed fields — replays).
void check_streams(ScenarioSpec& spec);

}  // namespace hpcwhisk::check
