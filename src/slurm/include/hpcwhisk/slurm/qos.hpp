#pragma once
// QOS preemption tiers and fair-share priority decay — the accounting
// half of the opt-in fidelity mode, modeled on slurmctld/acct_policy.c.
//
// QOS decouples *preemption ordering* from the partition priority tier:
// a job may preempt preemptible jobs whose preempt tier is strictly
// lower, so pilots can be split into sacrificial and protected tiers
// instead of the legacy binary preemptible flag.
//
// Fair-share replaces the static job priority with a usage-decayed
// effective priority: accounts that recently consumed node-seconds are
// debited, and the debit decays with a configurable half-life.

#include <cstdint>
#include <string>

#include "hpcwhisk/sim/time.hpp"

namespace hpcwhisk::slurm {

struct Qos {
  std::string name;
  /// Preemption ordering: this job may preempt preemptible jobs with a
  /// strictly lower preempt tier, and is itself preemptible only by
  /// strictly higher tiers. Jobs without a QOS use their partition's
  /// priority tier here, so an empty QOS table reproduces legacy
  /// semantics exactly.
  std::int32_t preempt_tier{0};
  /// Flat bonus folded into the job's effective priority at submit.
  std::int64_t priority_weight{0};
  /// Fair-share charge multiplier (UsageFactor): how expensive a
  /// node-second under this QOS is in the decayed-usage ledger.
  double usage_factor{1.0};
};

/// Maximum fair-share priority debit; the debit saturates towards this
/// as usage grows (PriorityWeightFairshare).
inline constexpr std::int64_t kFairShareWeight = 1000;
/// Usage (node-seconds) at which the debit reaches kFairShareWeight/2.
/// The debit is kFairShareWeight * u / (u + kFairShareUsageNorm):
/// monotone in usage, bounded, and strictly decaying as usage decays.
inline constexpr double kFairShareUsageNorm = 3600.0;

struct FairShareConfig {
  bool enabled{false};
  /// Half-life of the decayed per-account usage accumulator
  /// (PriorityDecayHalfLife).
  sim::SimTime half_life{sim::SimTime::hours(4)};
};

}  // namespace hpcwhisk::slurm
