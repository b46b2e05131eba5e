#pragma once
// QOS preemption tiers — the accounting half of the opt-in fidelity
// mode, modeled on slurmctld/acct_policy.c.
//
// QOS decouples *preemption ordering* from the partition priority tier:
// a job may preempt preemptible jobs whose preempt tier is strictly
// lower, so pilots can be split into sacrificial and protected tiers
// instead of the legacy binary preemptible flag.

#include <cstdint>
#include <string>

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
  /// Slurm's UsageFactor. Unread: the fair-share ledger it weighted is
  /// gone; the field stays because QOS tables are built from four
  /// values ({name, tier, weight, factor}) by the benchmark workloads.
  double usage_factor{1.0};
};

}  // namespace hpcwhisk::slurm
