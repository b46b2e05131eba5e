#pragma once
// Job model for the Slurm-like workload manager.
//
// A job declares a node count and a time limit (and, for variable-length
// jobs, a minimum time — Slurm's --time-min). The *actual* runtime is
// carried in the spec but hidden from the scheduler, which plans using
// declared limits only; the gap between the two (the "slack" of Fig. 2)
// is what creates the unpredictable idle periods HPC-Whisk harvests.

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "hpcwhisk/sim/time.hpp"
#include "hpcwhisk/slurm/tres.hpp"

namespace hpcwhisk::slurm {

using JobId = std::uint64_t;
using NodeId = std::uint32_t;

enum class JobState {
  kPending,     ///< queued, not yet allocated
  kRunning,     ///< executing on its allocation
  kCompleting,  ///< received SIGTERM, inside the grace period
  kCompleted,   ///< ended on its own (or exited during grace)
  kTimedOut,    ///< killed at its (granted) time limit
  kPreempted,   ///< killed by SIGKILL at the end of a preemption grace
  kCancelled,   ///< cancelled while pending or running
  kNodeFailed,  ///< lost its node (failure injection)
};

enum class EndReason {
  kCompleted,
  kTimeLimit,
  kPreempted,
  kCancelled,
  kNodeFailed,
};

[[nodiscard]] const char* to_string(JobState s);
[[nodiscard]] const char* to_string(EndReason r);

class Slurmctld;
struct JobRecord;

/// What the user hands to submit().
struct JobSpec {
  std::string name;
  std::string partition;
  std::uint32_t num_nodes{1};

  /// Declared (maximum) run time: Slurm's --time.
  sim::SimTime time_limit;

  /// Minimum acceptable run time: Slurm's --time-min. Zero means a
  /// fixed-length job; non-zero lets the scheduler size the job anywhere
  /// in [time_min, time_limit] to fit an availability hole.
  sim::SimTime time_min{sim::SimTime::zero()};

  /// True run time, unknown to the scheduler. SimTime::max() means the
  /// job never exits on its own (HPC-Whisk pilots run until their granted
  /// limit or preemption).
  sim::SimTime actual_runtime{sim::SimTime::max()};

  /// Priority within the partition's tier (higher runs first). The fib
  /// job manager maps longer pilot lengths to higher priorities.
  std::int64_t priority{0};

  /// Per-node TRES request. All-zero means "whole node": submit()
  /// substitutes the node capacity, which reproduces exclusive
  /// allocation for that job. Legacy mode always substitutes it.
  TresVector tres_per_node{};

  /// QOS name (fidelity mode). Empty means no QOS: the job's preempt
  /// tier falls back to its partition's priority tier, reproducing the
  /// legacy binary preemption semantics.
  std::string qos;

  /// Fired when the job starts on its allocation.
  std::function<void(const JobRecord&)> on_start;
  /// Fired when the job receives SIGTERM (grace period begins). Only
  /// fired for jobs that are terminated while running (preemption or
  /// time limit), not for natural completion.
  std::function<void(const JobRecord&)> on_sigterm;
  /// Fired exactly once when the job leaves the system.
  std::function<void(const JobRecord&, EndReason)> on_end;
};

/// The scheduler's book-keeping for one job. Stable address for the
/// job's lifetime; exposed const to callbacks and queries.
struct JobRecord {
  JobId id{0};
  JobSpec spec;
  JobState state{JobState::kPending};
  std::int32_t priority_tier{0};
  bool preemptible{false};

  /// Preemption ordering tier: QOS tier when the job carries a
  /// registered QOS, else the partition priority tier. Strictly-higher
  /// tiers may preempt this job (TRES mode); the legacy pass keeps its
  /// binary tier-0-victim rule.
  std::int32_t preempt_tier{0};
  /// Queue priority after the QOS bonus. Equals spec.priority exactly
  /// without a QOS, so legacy decision logs are byte-identical.
  std::int64_t effective_priority{0};

  sim::SimTime submit_time;
  sim::SimTime start_time;
  sim::SimTime end_time;
  /// The limit the scheduler granted (== spec.time_limit for fixed jobs;
  /// scheduler-chosen within [time_min, time_limit] for variable jobs).
  sim::SimTime granted_limit;
  std::vector<NodeId> nodes;
  /// While kCompleting: why the grace period started (kPreempted or
  /// kTimeLimit). A job exiting during grace is attributed to this cause.
  EndReason grace_reason{EndReason::kCompleted};

  [[nodiscard]] bool is_active() const {
    return state == JobState::kRunning || state == JobState::kCompleting;
  }
  /// When the scheduler expects the allocation back (limit-based).
  [[nodiscard]] sim::SimTime expected_end() const {
    return start_time + granted_limit;
  }
};

}  // namespace hpcwhisk::slurm
