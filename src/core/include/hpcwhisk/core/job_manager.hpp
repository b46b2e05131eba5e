#pragma once
// The HPC-Whisk job manager (Sec. III-D b): keeps Slurm supplied with
// low-priority, preemptible pilot jobs so every idleness period can be
// filled, without ever flooding the scheduler.
//
// Two supply models from the paper:
//  * fib — bags of fixed-length jobs; default lengths are set A1
//    {2,4,6,8,14,22,34,56,90} minutes (chosen via Table I); 10 jobs of
//    each length kept queued; longer length => higher priority, which
//    makes Slurm greedy towards long idle periods.
//  * var — 100 flexible jobs with --time-min 2 min and --time 120 min;
//    Slurm sizes them during scheduling.
//
// The queue is replenished every 15 seconds and never exceeds 100 jobs;
// new jobs are created only to replace ones that already started.

#include <cstdint>
#include <map>
#include <memory>
#include <vector>

#include "hpcwhisk/core/pilot.hpp"
#include "hpcwhisk/mq/broker.hpp"
#include "hpcwhisk/sim/distributions.hpp"
#include "hpcwhisk/sim/rng.hpp"
#include "hpcwhisk/sim/simulation.hpp"
#include "hpcwhisk/slurm/slurmctld.hpp"
#include "hpcwhisk/whisk/controller.hpp"
#include "hpcwhisk/whisk/invoker.hpp"

namespace hpcwhisk::core {

enum class SupplyModel { kFib, kVar };

[[nodiscard]] const char* to_string(SupplyModel m);

/// The job-length sets evaluated in Table I.
[[nodiscard]] std::vector<sim::SimTime> job_length_set(const std::string& name);

class JobManager {
 public:
  struct Config {
    SupplyModel model{SupplyModel::kFib};
    /// fib: fixed lengths (default: set A1).
    std::vector<sim::SimTime> fib_lengths;
    /// fib: queued jobs maintained per length.
    std::size_t fib_per_length{10};
    /// var: queued flexible jobs maintained.
    std::size_t var_target{100};
    /// Queue replenishment cadence (15 s on Prometheus).
    sim::SimTime replenish_interval{sim::SimTime::seconds(15)};
    /// Hard cap on queued pilot jobs (Sec. III-D: never above 100).
    std::size_t max_queued{100};
    std::string partition{"pilot"};

    /// Per-pilot TRES request (slurm fidelity/TRES mode). Zero means
    /// "whole node", reproducing the legacy exclusive pilots; a
    /// fractional request lets pilots co-reside with prime HPC work.
    slurm::TresVector pilot_tres{};
    /// QOS stamped on every pilot (empty = none: pilots sit at their
    /// partition's preempt tier, the legacy semantics).
    std::string pilot_qos;
    /// When non-empty and the fib model is active, pilots of the
    /// *longest* fib length class get this QOS instead — a protected
    /// pilot tier whose workers are preempted last (QOS regime of the
    /// fidelity bench). Deterministic: no extra RNG draws.
    std::string pilot_qos_long;
    /// Warm-up model (Sec. IV-B: median 12.48 s, P95 26.5 s).
    double warmup_median_s{12.48};
    double warmup_p95_s{26.5};
    whisk::Invoker::Config invoker;

    /// Adaptive length tuning (the paper's future-work direction:
    /// "identify the potential patterns in the workload which could be
    /// of value for the HPC-Whisk job manager"). When enabled with the
    /// fib model, the length set is recomputed periodically from the
    /// quantiles of recently observed pilot serving durations, so the
    /// supply tracks the cluster's actual hole structure.
    bool adaptive{false};
    sim::SimTime adapt_interval{sim::SimTime::minutes(60)};
    /// Minimum observations before the first adaptation.
    std::size_t adapt_min_samples{50};
    /// Observation source for adaptation: returns the lengths (minutes)
    /// of recently observed *availability periods* (e.g. from a
    /// NodeStateLog over the last window). This is the online analogue
    /// of the paper's offline Table-I input. When absent, the manager
    /// falls back to its own pilots' serving durations — a self-censored
    /// signal (a pilot never serves longer than its own limit), kept for
    /// comparison because it demonstrates *why* hole observation is
    /// needed.
    std::function<std::vector<double>()> hole_sampler;

    /// Optional trace/metrics sink, also handed to every pilot it
    /// creates; null disables all instrumentation. (The owner separately
    /// sets `invoker.obs` for invoker-level events.)
    obs::Observability* obs{nullptr};
  };

  JobManager(sim::Simulation& simulation, slurm::Slurmctld& slurmctld,
             mq::Broker& broker, const whisk::FunctionRegistry& registry,
             whisk::Controller& controller, Config config, sim::Rng rng);

  JobManager(const JobManager&) = delete;
  JobManager& operator=(const JobManager&) = delete;

  /// Submits the initial bag of jobs and starts the replenish loop.
  void start();

  /// Stops replenishment and cancels all queued (pending) pilots;
  /// running pilots keep serving until preempted/timed out.
  void stop();

  [[nodiscard]] std::size_t queued() const { return queued_.size(); }
  [[nodiscard]] std::size_t active_pilots() const { return pilots_.size(); }

  /// Live invokers of pilots in the serving phase, in slurm-job-id order
  /// (deterministic). The chaos engine's invoker directory.
  [[nodiscard]] std::vector<whisk::Invoker*> serving_invokers();

  /// Pilots currently in each phase (for the OW-level perspective).
  struct PhaseCounts {
    std::size_t warming_up{0};
    std::size_t serving{0};
    std::size_t draining{0};
  };
  [[nodiscard]] PhaseCounts phase_counts() const;

  struct Counters {
    std::uint64_t submitted{0};
    std::uint64_t started{0};
    std::uint64_t preempted{0};
    std::uint64_t timed_out{0};
    std::uint64_t completed{0};
    /// Lost to node failure (fault injection); any phase.
    std::uint64_t node_failed{0};
    /// Cancelled after starting (operator action); disjoint from the above.
    std::uint64_t cancelled{0};
    /// Ends that arrived while still serving, i.e. without any SIGTERM
    /// warning (hard node loss). A subset of node_failed, kept separate
    /// because it is the "local state lost" signal.
    std::uint64_t hard_killed{0};
  };
  [[nodiscard]] const Counters& counters() const { return counters_; }

  /// Harvest-efficiency ledger (Sec. I's value proposition, made
  /// measurable): how much of the node time pilots occupied actually
  /// served FaaS, and where the rest went. Pilots are single-node, so
  /// occupied time IS node time. Accrued when a pilot ends.
  struct HarvestStats {
    /// Registration -> drain start (or end, if no SIGTERM arrived):
    /// node-time an invoker was accepting and executing work.
    sim::SimTime harvested;
    /// Boot -> registration, for pilots that reached serving.
    sim::SimTime warmup_overhead;
    /// SIGTERM -> Slurm-job end, for pilots that drained.
    sim::SimTime drain_overhead;
    /// Whole lifetime of pilots preempted/killed before ever serving —
    /// node-time spent warming up for nothing.
    sim::SimTime preempt_wasted;
    std::uint64_t pilots_served{0};
    std::uint64_t pilots_never_served{0};

    /// harvested / (harvested + all overheads); 0 when nothing accrued.
    [[nodiscard]] double efficiency() const {
      const double total = (harvested + warmup_overhead + drain_overhead +
                            preempt_wasted)
                               .to_seconds();
      return total > 0 ? harvested.to_seconds() / total : 0.0;
    }
  };
  [[nodiscard]] const HarvestStats& harvest() const { return harvest_; }

  /// Serving durations of finished pilots, for the "ready time" stats of
  /// Tables II/III (median ~11 min for fib, ~7 min for var).
  [[nodiscard]] const std::vector<sim::SimTime>& serving_durations() const {
    return serving_durations_;
  }
  /// Observed warm-up durations of pilots that reached serving.
  [[nodiscard]] const std::vector<sim::SimTime>& warmup_durations() const {
    return warmup_durations_;
  }

  /// Current fib length set (changes over time when adaptive).
  [[nodiscard]] const std::vector<sim::SimTime>& fib_lengths() const {
    return config_.fib_lengths;
  }
  [[nodiscard]] std::size_t adaptations() const { return adaptations_; }

 private:
  void replenish();
  void adapt_lengths();
  void submit_pilot(sim::SimTime length, bool variable);
  void on_pilot_start(const slurm::JobRecord& rec);
  void on_pilot_sigterm(const slurm::JobRecord& rec);
  void on_pilot_end(const slurm::JobRecord& rec, slurm::EndReason reason);

  sim::Simulation& sim_;
  slurm::Slurmctld& slurmctld_;
  mq::Broker& broker_;
  const whisk::FunctionRegistry& registry_;
  whisk::Controller& controller_;
  Config config_;
  sim::Rng rng_;
  sim::LognormalFromQuantiles warmup_;
  /// Slurm job id -> declared length, for queued (not yet started) jobs.
  std::map<slurm::JobId, sim::SimTime> queued_;
  /// Slurm job id -> live pilot.
  std::map<slurm::JobId, std::unique_ptr<PilotJob>> pilots_;
  std::vector<std::unique_ptr<PilotJob>> graveyard_;
  sim::PeriodicHandle replenish_loop_;
  sim::PeriodicHandle adapt_loop_;
  bool running_{false};
  std::size_t adaptations_{0};
  std::size_t adapt_consumed_{0};  ///< serving samples already used
  Counters counters_;
  HarvestStats harvest_;
  std::vector<sim::SimTime> serving_durations_;
  std::vector<sim::SimTime> warmup_durations_;
};

}  // namespace hpcwhisk::core
