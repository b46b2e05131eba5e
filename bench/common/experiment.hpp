#pragma once
// Shared experiment driver for the reproduction benches: a bench fills a
// check::ScenarioSpec, check::build_scenario wires it (the same path
// SimCheck runs), and run_experiment adds the run instrumentation — the
// ground-truth node log, the OW-level sampler, the time-series tier and
// the steady-state window counters — then returns every log the paper's
// three perspectives need.
//
// Environment knobs (all optional; a value that does not parse exits 2
// with the accepted values):
//   HW_BENCH_QUICK=1    quarter-scale cluster and window (smoke runs)
//   HW_SEED=<n>         base RNG seed, a non-negative integer (default 1)
//   HW_BENCH_TRIALS=<n> seed-sweep width for the table benches, a
//                       positive integer (default 1)
//   HW_BENCH_JOBS=<n>   worker threads for independent trials (default
//                       hardware concurrency; 1 = serial)
//   HW_ROUTE_MODE=<m>   controller routing policy by to_string name
//                       (hash-probing, hash-only, round-robin,
//                       least-loaded, least-expected-work, sjf-affinity)
//   HW_LEASE=1          enable the lease-based serving tier
//   HW_KEEPALIVE=<p>    container keep-alive policy by to_string name
//                       (fixed, adaptive, hybrid)
//   HW_TRES=1           per-TRES packing (fractional-node harvesting)
//   HW_RESV=1           rolling maintenance reservations (implies TRES)
//   HW_QOS=1            two-tier QOS pilot preemption (implies TRES)
// HW_SEED, HW_BENCH_TRIALS and HW_FED_CLUSTERS (the federation bench's
// width) go through env_uint below.

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "hpcwhisk/exec/parallel_trials.hpp"

#include "hpcwhisk/analysis/clairvoyant.hpp"
#include "hpcwhisk/analysis/node_state_log.hpp"
#include "hpcwhisk/analysis/report.hpp"
#include "hpcwhisk/analysis/stats.hpp"
#include "hpcwhisk/check/scenario.hpp"
#include "hpcwhisk/core/job_manager.hpp"
#include "hpcwhisk/core/system.hpp"
#include "hpcwhisk/lease/lease_manager.hpp"
#include "hpcwhisk/runtime/container_pool.hpp"
#include "hpcwhisk/obs/observability.hpp"
#include "hpcwhisk/trace/faas_workload.hpp"
#include "hpcwhisk/trace/hpc_workload.hpp"

namespace hpcwhisk::bench {

/// The benches' base scenario: the paper's Prometheus day — 2,239 nodes,
/// a 4 h burn-in then a 24 h measured window, A1 fib lengths at 10 jobs
/// per length, 10 ms sleep functions, the calibrated HPC load, 2-cpu
/// fractional pilots once TRES is on — with no pilot supply and no FaaS
/// load until the bench asks for them, seeded by reseed(1).
check::ScenarioSpec base_scenario();

/// Sets `spec.seed` and the benches' per-stream seeds derived from it.
void reseed(check::ScenarioSpec& spec, std::uint64_t seed);

/// Reads a non-negative integer environment variable: nullopt when
/// unset; exits 2 with a message when set to anything but digits.
std::optional<std::uint64_t> env_uint(const char* name);

/// Applies the HW_* knobs above to a scenario.
check::ScenarioSpec apply_env(check::ScenarioSpec spec);

/// Seed-sweep width for the table benches: HW_BENCH_TRIALS, default 1.
std::size_t trial_count();

/// `n` copies of `base` reseeded base.seed, base.seed+1, ... — the unit
/// of work for exec::parallel_trials.
std::vector<check::ScenarioSpec> seed_sweep(check::ScenarioSpec base,
                                            std::size_t n);

struct ExperimentResult {
  /// Trace + metrics sink for this trial (null unless traced).
  /// Declared first: components record into it from their destructors
  /// (drain hand-offs in pilot teardown), so it must be destroyed last.
  std::unique_ptr<obs::Observability> obs;

  sim::SimTime measure_start;
  sim::SimTime measure_end;
  /// Ground-truth node-state log over the whole run (burn-in included;
  /// filter samples by measure_start).
  std::unique_ptr<analysis::NodeStateLog> log;
  /// Slurm-level samples (10 s), measurement window only.
  std::vector<analysis::StateCounts> samples;
  /// The live system (activation records, counters, manager stats).
  std::unique_ptr<sim::Simulation> simulation;
  std::unique_ptr<core::HpcWhiskSystem> system;
  std::unique_ptr<trace::HpcWorkloadGenerator> workload;
  std::uint64_t faas_issued{0};

  /// Steady-state telemetry over the measured window only (burn-in and
  /// wiring excluded): events executed, and heap allocations as seen by
  /// the alloc probe. allocs_in_window stays 0 (and alloc_probe_active
  /// false) unless the binary links bench/common/alloc_probe.cpp — the
  /// perf binaries do, the test suite does not.
  std::uint64_t events_in_window{0};
  std::uint64_t allocs_in_window{0};
  bool alloc_probe_active{false};

  /// OW-level perspective sampled every 10 s during the window:
  /// healthy / warming / unresponsive invoker counts.
  struct OwSample {
    sim::SimTime at;
    std::uint32_t warming{0};
    std::uint32_t healthy{0};
    std::uint32_t unresponsive{0};
  };
  std::vector<OwSample> ow_samples;
};

/// Runs a single-cluster scenario to its horizon and collects all
/// perspectives. A non-zero `trace_capacity` gives the run its own
/// obs::Observability sink (span trace of that many slots + metrics +
/// time series) wired into every component; the result owns it.
/// Per-trial sinks — never a shared one — keep exec::parallel_trials
/// byte-identical with serial runs.
ExperimentResult run_experiment(const check::ScenarioSpec& spec,
                                std::size_t trace_capacity = 0);

/// The paper's three-perspective coverage summary (Tables II/III).
struct CoverageSummary {
  analysis::ClairvoyantSimulator::Result simulation;  ///< a-posteriori bound
  analysis::SlurmLevelReport slurm_level;
  analysis::Summary ow_healthy;
  analysis::Summary ow_warming;
  analysis::Summary ow_unresponsive;
  double ow_zero_healthy_share{0};
  sim::SimTime ow_longest_zero_healthy;
};

CoverageSummary summarize_coverage(const ExperimentResult& result,
                                   const std::vector<sim::SimTime>& lengths,
                                   sim::SimTime max_job_length);

/// Prints a Table II / III style comparison.
void print_coverage_table(std::ostream& os, const std::string& title,
                          const CoverageSummary& summary);

}  // namespace hpcwhisk::bench
