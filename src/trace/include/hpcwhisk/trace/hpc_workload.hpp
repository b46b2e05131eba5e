#pragma once
// Synthetic HPC workload calibrated to the published Prometheus
// statistics (Sec. I, Figs. 1-2):
//  * job time limits: median 60 min, 95 % of jobs declare >= 15 min;
//  * runtimes well below limits (the "slack" of Fig. 2);
//  * node counts from 1 to a significant share of the cluster;
//  * a deep pending backlog keeps utilization > 99 %, so idleness only
//    arises from scheduling frictions (fragmentation while a multi-node
//    head job waits, limit-vs-runtime slack) — the same mechanism that
//    produces the short idle periods on the real machine.
//
// The generator is closed-loop only in backlog depth (top up pending jobs
// to a target), never in placement: all scheduling is the Slurmctld's.

#include <cstdint>
#include <string>
#include <vector>

#include "hpcwhisk/sim/distributions.hpp"
#include "hpcwhisk/sim/rng.hpp"
#include "hpcwhisk/sim/simulation.hpp"
#include "hpcwhisk/slurm/slurmctld.hpp"

namespace hpcwhisk::trace {

/// One generated job.
struct TraceJob {
  sim::SimTime submit;
  std::uint32_t num_nodes{1};
  sim::SimTime time_limit;
  sim::SimTime runtime;
  /// Per-node TRES request (zero = whole node; only meaningful when the
  /// target Slurmctld runs in TRES mode).
  slurm::TresVector tres_per_node{};
};

class HpcWorkloadGenerator {
 public:
  enum class Mode {
    /// Calibrated near-critical load (default): a shallow pending backlog
    /// topped up at a bounded rate, with occasional submission lulls.
    /// Reproduces the published Prometheus idleness statistics (Fig. 1):
    /// ~10% zero-idle time, P25/P50/P80 of the idle-node count ~2/5/13,
    /// a steady sub-1% idle surface and a heavy idle-period tail.
    kCalibrated,
    /// Unbounded instant top-up: saturates the cluster completely
    /// (nearly zero idle). Used by stress/ablation benches.
    kSaturated,
  };

  struct Config {
    Mode mode{Mode::kCalibrated};
    /// Pending-backlog depth the top-up maintains.
    std::size_t backlog_target{30};
    /// Top-up / lull cadence.
    sim::SimTime check_interval{sim::SimTime::seconds(15)};
    /// kCalibrated: submissions per tick are bounded — users do not
    /// teleport jobs into fresh holes, so freed bursts absorb gradually.
    std::size_t max_submits_per_tick{2};
    /// kCalibrated: occasionally the submission stream slows to a trickle
    /// (nights, deadlines passing); completions then outpace submissions
    /// and idle nodes accumulate — the tail of Fig. 1b and the bursts of
    /// Fig. 1c.
    double lull_probability_per_tick{0.005};
    sim::SimTime lull_mean{sim::SimTime::minutes(18)};
    /// Node-count buckets: {max_nodes, weight} pairs; a job's size is
    /// drawn uniformly within the chosen bucket.
    struct SizeBucket {
      std::uint32_t lo;
      std::uint32_t hi;
      double weight;
    };
    std::vector<SizeBucket> size_buckets;  // empty => Prometheus defaults
    std::string partition{"hpc"};
    /// Scale limits by this factor (1.0 = Fig. 2 calibration).
    double limit_scale{1.0};

    /// Per-node TRES mix (TRES-mode clusters): {request, weight} pairs;
    /// each job draws one bucket. Empty means whole-node jobs AND no
    /// extra RNG draws — committed decision-log hashes of legacy
    /// configs depend on the draw sequence staying put.
    struct TresBucket {
      slurm::TresVector tres;
      double weight;
    };
    std::vector<TresBucket> tres_buckets;
    /// QOS stamped on every generated job (empty = none).
    std::string qos;
  };

  HpcWorkloadGenerator(sim::Simulation& simulation, slurm::Slurmctld& ctld,
                       Config config, sim::Rng rng);

  /// Submits the initial backlog and starts the top-up loop.
  void start();
  void stop();

  /// Draws one job (without submitting); fig2_jobs samples the
  /// distributions through it.
  [[nodiscard]] TraceJob draw_job();

  /// The published Fig. 2 limit distribution (minutes).
  [[nodiscard]] static sim::EmpiricalCdf default_limit_cdf();

  [[nodiscard]] std::size_t lulls_entered() const { return lulls_entered_; }

 private:
  void top_up();
  void submit_one();

  sim::Simulation& sim_;
  slurm::Slurmctld& ctld_;
  Config config_;
  sim::Rng rng_;
  sim::EmpiricalCdf limit_cdf_;
  std::size_t pending_now_{0};  ///< pending jobs (callback-tracked)
  sim::SimTime lull_until_;
  std::size_t lulls_entered_{0};
  sim::PeriodicHandle loop_;
  bool running_{false};
};

}  // namespace hpcwhisk::trace
