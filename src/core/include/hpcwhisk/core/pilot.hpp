#pragma once
// An HPC-Whisk pilot job: the glue between a Slurm allocation and an
// OpenWhisk invoker (Sec. III-A).
//
// Lifecycle:
//   Slurm starts job          -> warm-up (boot, register: median 12.48 s,
//                                P95 26.5 s on Prometheus, Sec. IV-B)
//   warm-up done              -> serving (invoker registered, healthy)
//   SIGTERM (preempt/timeout) -> draining (invoker hand-off, seconds)
//   drain done                -> pilot exits the Slurm job early, well
//                                inside the 3-minute grace period
//   SIGKILL without drain     -> hard kill (lost work, stock-OpenWhisk
//                                failure mode)

#include <functional>
#include <memory>

#include "hpcwhisk/sim/distributions.hpp"
#include "hpcwhisk/sim/simulation.hpp"
#include "hpcwhisk/slurm/slurmctld.hpp"
#include "hpcwhisk/whisk/invoker.hpp"

namespace hpcwhisk::obs {
struct Observability;
}

namespace hpcwhisk::core {

class PilotJob {
 public:
  enum class Phase {
    kWarmingUp,  ///< Slurm job running, invoker booting
    kServing,    ///< invoker registered and healthy
    kDraining,   ///< SIGTERM received, hand-off in progress
    kExited,     ///< left the system (cleanly or killed)
  };

  /// `warmup` models the boot-to-registered delay. The invoker is owned
  /// by the pilot and constructed immediately (it registers only after
  /// warm-up). `obs` (nullable) records the pilot's phase transitions.
  PilotJob(sim::Simulation& simulation, slurm::Slurmctld& slurmctld,
           slurm::JobId slurm_job, std::unique_ptr<whisk::Invoker> invoker,
           sim::SimTime warmup, obs::Observability* obs = nullptr);

  PilotJob(const PilotJob&) = delete;
  PilotJob& operator=(const PilotJob&) = delete;
  ~PilotJob();

  /// Slurm's SIGTERM (grace period begins): run the drain hand-off, then
  /// exit the Slurm job.
  void on_sigterm();

  /// The Slurm job ended (SIGKILL at grace end, node failure, or our own
  /// early exit already processed). Ensures the invoker is gone.
  void on_job_end();

  [[nodiscard]] Phase phase() const { return phase_; }
  [[nodiscard]] const whisk::Invoker& invoker() const { return *invoker_; }
  /// Mutable access for fault injection (stall / hard-kill seams).
  [[nodiscard]] whisk::Invoker& invoker() { return *invoker_; }
  [[nodiscard]] sim::SimTime started_at() const { return started_at_; }
  [[nodiscard]] sim::SimTime serving_since() const { return serving_since_; }
  /// When the serving->draining transition happened (zero if the pilot
  /// never drained — hard kill, or SIGTERM during warm-up).
  [[nodiscard]] sim::SimTime draining_since() const { return draining_since_; }

 private:
  sim::Simulation& sim_;
  slurm::Slurmctld& slurmctld_;
  slurm::JobId slurm_job_;
  std::unique_ptr<whisk::Invoker> invoker_;
  Phase phase_{Phase::kWarmingUp};
  sim::EventId warmup_event_;
  sim::SimTime started_at_;
  sim::SimTime serving_since_;
  sim::SimTime draining_since_;
  obs::Observability* obs_{nullptr};
};

}  // namespace hpcwhisk::core
