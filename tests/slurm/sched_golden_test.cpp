// Golden decision-log pin for the scheduler hot path: the shared seeded
// trace (slurm/testing/golden_trace.hpp) drives Slurmctld and every
// launch decision (time, job, granted limit, exact node set) plus every
// end reason is folded into an FNV-1a hash. The hash is captured once
// and must survive any performance refactor of run_sched_pass /
// build_availability byte-for-byte: an optimization that changes any
// decision — order, sizing, placement or reservation effect — fails here.
//
// It must equally survive the Slurm-fidelity generalization (per-TRES
// packing, QOS tiers, reservations): the LegacyKnobsOff leg
// spells the fidelity defaults out explicitly and demands the same hash,
// pinning the contract that all new semantics are opt-in.

#include <gtest/gtest.h>

#include "hpcwhisk/slurm/testing/golden_trace.hpp"

namespace hpcwhisk::slurm {
namespace {

using testing::GoldenOutcome;
using testing::kGoldenHash;
using testing::kGoldenLogBytes;
using testing::run_golden_trace;

TEST(SchedGolden, DecisionLogMatchesBaseline) {
  const GoldenOutcome out = run_golden_trace(42);
  EXPECT_EQ(out.hash, kGoldenHash)
      << "decision log diverged (" << out.log_bytes << " bytes, expected "
      << kGoldenLogBytes << ").\nactual hash: 0x" << std::hex << out.hash
      << std::dec << "\nlog head:\n"
      << out.head;
  EXPECT_EQ(out.log_bytes, kGoldenLogBytes);
  // The trace must exercise the paths the optimization touches.
  EXPECT_GT(out.counters.started, 100u);
  EXPECT_GT(out.counters.preempted, 0u);
  EXPECT_GT(out.counters.sched_passes, 200u);
}

TEST(SchedGolden, LegacyKnobsOffKeepsBaseline) {
  // Every fidelity knob at its documented "off" value, written out long
  // hand (not just defaulted) so this leg fails loudly if any knob's
  // neutral value ever stops being neutral.
  const GoldenOutcome out = run_golden_trace(42, [](Slurmctld::Config& cfg) {
    cfg.fidelity.tres_mode = false;
    cfg.fidelity.node_capacity = TresVector{};
    cfg.fidelity.qos.clear();
    cfg.fidelity.reservations.clear();
  });
  EXPECT_EQ(out.hash, kGoldenHash)
      << "fidelity knobs at their off values changed legacy decisions;"
         " hash 0x"
      << std::hex << out.hash << std::dec << "\nlog head:\n"
      << out.head;
  EXPECT_EQ(out.log_bytes, kGoldenLogBytes);
}

TEST(SchedGolden, SameSeedTwiceIsIdentical) {
  const GoldenOutcome a = run_golden_trace(7);
  const GoldenOutcome b = run_golden_trace(7);
  EXPECT_EQ(a.hash, b.hash);
  EXPECT_EQ(a.log_bytes, b.log_bytes);
}

TEST(SchedGolden, DifferentSeedsDiverge) {
  const GoldenOutcome a = run_golden_trace(7);
  const GoldenOutcome c = run_golden_trace(8);
  EXPECT_NE(a.hash, c.hash);
}

}  // namespace
}  // namespace hpcwhisk::slurm
