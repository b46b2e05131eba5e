// EASY-backfill behaviour: reservations for the head blocked job, safe
// backfilling of short jobs, variable-length sizing, and the invariant
// the paper relies on — tier-0 pilots never delay HPC work.

#include <gtest/gtest.h>

#include "hpcwhisk/slurm/slurmctld.hpp"

namespace hpcwhisk::slurm {
namespace {

using sim::SimTime;
using sim::Simulation;

std::vector<Partition> partitions() {
  Partition hpc;
  hpc.name = "hpc";
  hpc.priority_tier = 1;
  Partition pilot;
  pilot.name = "pilot";
  pilot.priority_tier = 0;
  pilot.preempt_mode = PreemptMode::kCancel;
  pilot.grace_time = SimTime::minutes(3);
  return {hpc, pilot};
}

Slurmctld::Config config(std::uint32_t nodes) {
  Slurmctld::Config cfg;
  cfg.node_count = nodes;
  cfg.min_pass_gap = SimTime::zero();  // tests exercise instant reaction
  return cfg;
}

JobSpec job(std::uint32_t nodes, SimTime limit, SimTime runtime) {
  JobSpec spec;
  spec.partition = "hpc";
  spec.num_nodes = nodes;
  spec.time_limit = limit;
  spec.actual_runtime = runtime;
  return spec;
}

TEST(Backfill, ShortJobBackfillsAroundBlockedHead) {
  Simulation sim;
  Slurmctld ctld{sim, config(2), partitions()};
  // Job A occupies both nodes for 60 min.
  ctld.submit(job(2, SimTime::minutes(60), SimTime::minutes(60)));
  sim.run_until(SimTime::minutes(1));
  // Job B (head, blocked): needs 2 nodes -> reserved at A's limit.
  const JobId blocked =
      ctld.submit(job(2, SimTime::minutes(30), SimTime::minutes(30)));
  // Job C: 1 node, 20 min — would fit *before* the reservation only if a
  // node were free; both are busy, so C cannot backfill here.
  const JobId c =
      ctld.submit(job(1, SimTime::minutes(20), SimTime::minutes(20)));
  sim.run_until(SimTime::minutes(5));
  EXPECT_EQ(ctld.job(blocked).state, JobState::kPending);
  EXPECT_EQ(ctld.job(c).state, JobState::kPending);
}

TEST(Backfill, BackfillDoesNotDelayReservation) {
  Simulation sim;
  Slurmctld ctld{sim, config(2), partitions()};
  // A: node-hogging job on 1 node for 60 min.
  ctld.submit(job(1, SimTime::minutes(60), SimTime::minutes(60)));
  sim.run_until(SimTime::minutes(1));
  // B (head, blocked): needs both nodes; reservation at t=60min.
  const JobId b = ctld.submit(job(2, SimTime::minutes(30), SimTime::minutes(30)));
  // C: 1 node, limit 30 min — fits on the idle node before t=60. Backfills.
  const JobId c = ctld.submit(job(1, SimTime::minutes(30), SimTime::minutes(10)));
  // D: 1 node, limit 90 min — would overlap the reservation. Must wait.
  const JobId d = ctld.submit(job(1, SimTime::minutes(90), SimTime::minutes(90)));
  sim.run_until(SimTime::minutes(2));
  EXPECT_EQ(ctld.job(c).state, JobState::kRunning);
  EXPECT_EQ(ctld.job(d).state, JobState::kPending);
  EXPECT_EQ(ctld.job(b).state, JobState::kPending);
  // B starts once A (and C) end: at t=60 both nodes are free.
  sim.run_until(SimTime::minutes(61));
  EXPECT_EQ(ctld.job(b).state, JobState::kRunning);
  // B must not have been delayed past the reservation time.
  EXPECT_LE(ctld.job(b).start_time, SimTime::minutes(61));
}

TEST(Backfill, ReservationUsesDeclaredLimitNotRuntime) {
  Simulation sim;
  Slurmctld ctld{sim, config(1), partitions()};
  // A declares 60 min but really runs 10 — the scheduler cannot know.
  ctld.submit(job(1, SimTime::minutes(60), SimTime::minutes(10)));
  sim.run_until(SimTime::minutes(1));
  const JobId b = ctld.submit(job(1, SimTime::minutes(30), SimTime::minutes(5)));
  sim.run_until(SimTime::minutes(5));
  EXPECT_EQ(ctld.job(b).state, JobState::kPending);
  // When A ends early, the event-driven pass starts B immediately.
  sim.run_until(SimTime::minutes(11));
  EXPECT_EQ(ctld.job(b).state, JobState::kRunning);
  EXPECT_EQ(ctld.job(b).start_time, SimTime::minutes(10));
}

TEST(Backfill, VariableLengthHpcJobSizedToReservation) {
  Simulation sim;
  Slurmctld ctld{sim, config(2), partitions()};
  ctld.submit(job(1, SimTime::minutes(60), SimTime::minutes(60)));
  sim.run_until(SimTime::minutes(2));
  // Head blocked job -> reservation on both nodes at t=60.
  ctld.submit(job(2, SimTime::minutes(30), SimTime::minutes(30)));
  // Variable job: accepts 10..120 min. Should be granted ~58 min
  // (reservation at 60 minus now=2, floored to 2-min slots).
  JobSpec var = job(1, SimTime::minutes(120), SimTime::max());
  var.time_min = SimTime::minutes(10);
  const JobId v = ctld.submit(var);
  sim.run_until(SimTime::minutes(3));
  ASSERT_EQ(ctld.job(v).state, JobState::kRunning);
  EXPECT_EQ(ctld.job(v).granted_limit, SimTime::minutes(58));
}

TEST(Backfill, JobBeyondWindowGetsNoReservationButEventuallyRuns) {
  Simulation sim;
  Slurmctld ctld{sim, config(1), partitions()};
  // A runs (declares) 3 hours: beyond the 120-minute kBackfillWindow.
  ctld.submit(job(1, SimTime::hours(3), SimTime::hours(3)));
  sim.run_until(SimTime::minutes(1));
  const JobId b = ctld.submit(job(1, SimTime::minutes(10), SimTime::minutes(10)));
  sim.run_until(SimTime::hours(2));
  EXPECT_EQ(ctld.job(b).state, JobState::kPending);
  sim.run_until(SimTime::hours(3) + SimTime::minutes(15));
  EXPECT_EQ(ctld.job(b).state, JobState::kCompleted);
}

TEST(Backfill, HigherPriorityWithinTierGoesFirst) {
  Simulation sim;
  Slurmctld ctld{sim, config(1), partitions()};
  ctld.submit(job(1, SimTime::minutes(10), SimTime::minutes(10)));
  sim.run_until(SimTime::minutes(1));
  JobSpec low = job(1, SimTime::minutes(10), SimTime::minutes(10));
  low.priority = 1;
  JobSpec high = job(1, SimTime::minutes(10), SimTime::minutes(10));
  high.priority = 5;
  const JobId l = ctld.submit(low);
  const JobId h = ctld.submit(high);
  sim.run_until(SimTime::hours(1));
  EXPECT_LT(ctld.job(h).start_time, ctld.job(l).start_time);
}

TEST(Backfill, BackfillDepthLimitsExamination) {
  Simulation sim;
  auto cfg = config(1);
  cfg.backfill_depth = 2;
  Slurmctld ctld{sim, cfg, partitions()};
  ctld.submit(job(1, SimTime::minutes(30), SimTime::minutes(30)));
  sim.run_until(SimTime::minutes(1));
  // Three queued jobs; with depth 2 the third is not examined this pass,
  // but later passes (after completions) still pick it up.
  std::vector<JobId> ids;
  for (int i = 0; i < 3; ++i)
    ids.push_back(job({}, {}, {}).num_nodes ? 0 : 0);  // placeholder
  ids.clear();
  for (int i = 0; i < 3; ++i)
    ids.push_back(ctld.submit(job(1, SimTime::minutes(10), SimTime::minutes(10))));
  sim.run_until(SimTime::hours(2));
  for (const JobId id : ids)
    EXPECT_EQ(ctld.job(id).state, JobState::kCompleted);
}

}  // namespace
}  // namespace hpcwhisk::slurm
