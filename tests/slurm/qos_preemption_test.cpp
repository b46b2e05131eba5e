// QOS preemption tiers (fidelity layer). Property tests for the ordering
// contracts:
//  * within a node, the lowest QOS tier is evicted first, and a job is
//    never preempted by an equal-or-lower tier;
//  * EASY backfill stays legal under partial-node (TRES) availability:
//    a backfill candidate that fits the free TRES but overlaps the head
//    job's shadow time must wait.

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

Slurmctld::Config base_config(std::uint32_t nodes) {
  Slurmctld::Config cfg;
  cfg.node_count = nodes;
  cfg.launch_latency = SimTime::zero();
  cfg.min_pass_gap = SimTime::zero();
  return cfg;
}

Slurmctld::Config qos_config(std::uint32_t nodes) {
  auto cfg = base_config(nodes);
  cfg.fidelity.tres_mode = true;
  cfg.fidelity.node_capacity = {8, 32000, 0};
  cfg.fidelity.qos.push_back({"pilot-low", -1, 0, 1.0});
  cfg.fidelity.qos.push_back({"pilot-high", 0, 0, 1.0});
  return cfg;
}

JobSpec pilot_job(TresVector tres, const std::string& qos) {
  JobSpec spec;
  spec.partition = "pilot";
  spec.num_nodes = 1;
  spec.time_limit = SimTime::minutes(90);
  spec.actual_runtime = SimTime::max();
  spec.tres_per_node = tres;
  spec.qos = qos;
  return spec;
}

TEST(QosPreemption, LowestTierDiesFirstWithinANode) {
  Simulation sim;
  Slurmctld ctld{sim, qos_config(1), partitions()};
  const JobId low = ctld.submit(pilot_job({3, 12000, 0}, "pilot-low"));
  const JobId high = ctld.submit(pilot_job({3, 12000, 0}, "pilot-high"));
  sim.run_until(SimTime::minutes(2));
  ASSERT_EQ(ctld.job(low).state, JobState::kRunning);
  ASSERT_EQ(ctld.job(high).state, JobState::kRunning);

  // HPC job needs 5 cpus: evicting the low pilot alone frees enough
  // (2 free + 3), so the high pilot must survive.
  JobSpec spec;
  spec.partition = "hpc";
  spec.num_nodes = 1;
  spec.time_limit = SimTime::minutes(10);
  spec.actual_runtime = SimTime::minutes(10);
  spec.tres_per_node = {5, 20000, 0};
  const JobId h = ctld.submit(spec);
  sim.run_until(SimTime::minutes(7));
  EXPECT_EQ(ctld.job(low).state, JobState::kPreempted);
  EXPECT_EQ(ctld.job(high).state, JobState::kRunning);
  EXPECT_EQ(ctld.job(h).state, JobState::kRunning);
}

TEST(QosPreemption, HigherTierNeverPreemptedByLower) {
  Simulation sim;
  Slurmctld ctld{sim, qos_config(1), partitions()};
  // The high pilot fills the node; a low pilot then queues. Equal-or-
  // lower tiers never preempt, so the low pilot waits forever.
  const JobId high = ctld.submit(pilot_job({8, 32000, 0}, "pilot-high"));
  sim.run_until(SimTime::minutes(1));
  ASSERT_EQ(ctld.job(high).state, JobState::kRunning);
  const JobId low = ctld.submit(pilot_job({2, 8000, 0}, "pilot-low"));
  sim.run_until(SimTime::minutes(30));
  EXPECT_EQ(ctld.job(high).state, JobState::kRunning);
  EXPECT_EQ(ctld.job(low).state, JobState::kPending);
  EXPECT_EQ(ctld.counters().preempted, 0u);
}

TEST(QosPreemption, UnknownQosIsRejected) {
  Simulation sim;
  Slurmctld ctld{sim, qos_config(1), partitions()};
  EXPECT_THROW(ctld.submit(pilot_job({2, 8000, 0}, "no-such-qos")),
               std::invalid_argument);
}

TEST(EasyBackfill, PartialNodeBackfillRespectsShadowTime) {
  Simulation sim;
  auto cfg = base_config(1);
  cfg.fidelity.tres_mode = true;
  cfg.fidelity.node_capacity = {8, 32000, 0};
  Slurmctld ctld{sim, cfg, partitions()};

  // A takes 6/8 cpus for exactly 10 minutes.
  JobSpec a;
  a.partition = "hpc";
  a.num_nodes = 1;
  a.time_limit = SimTime::minutes(10);
  a.actual_runtime = SimTime::minutes(10);
  a.tres_per_node = {6, 24000, 0};
  const JobId ja = ctld.submit(a);
  sim.run_until(SimTime::seconds(30));
  ASSERT_EQ(ctld.job(ja).state, JobState::kRunning);

  // Head job B wants the whole node: blocked until A ends (the shadow).
  JobSpec b = a;
  b.tres_per_node = {8, 32000, 0};
  b.priority = 10;
  const JobId jb = ctld.submit(b);

  // C fits the free 2 cpus *now* but its 20-minute limit overlaps the
  // shadow: EASY legality says it must NOT start. D (5 min) fits before
  // the shadow and backfills immediately.
  JobSpec c = a;
  c.tres_per_node = {2, 8000, 0};
  c.time_limit = SimTime::minutes(20);
  c.actual_runtime = SimTime::minutes(4);
  const JobId jc = ctld.submit(c);
  JobSpec d = a;
  d.tres_per_node = {2, 8000, 0};
  d.time_limit = SimTime::minutes(5);
  d.actual_runtime = SimTime::minutes(4);
  const JobId jd = ctld.submit(d);

  sim.run_until(SimTime::minutes(9));
  EXPECT_EQ(ctld.job(jd).state, JobState::kCompleted)
      << "D should have backfilled and completed";
  EXPECT_LT(ctld.job(jd).start_time, SimTime::minutes(10));
  EXPECT_EQ(ctld.job(jb).state, JobState::kPending);
  EXPECT_EQ(ctld.job(jc).state, JobState::kPending)
      << "C overlaps the shadow and must not backfill ahead of B";

  // A ends at 10: B (the shadow holder) starts; C only after B.
  sim.run_until(SimTime::minutes(25));
  ASSERT_EQ(ctld.job(jb).state, JobState::kCompleted);
  ASSERT_EQ(ctld.job(jc).state, JobState::kCompleted);
  EXPECT_GE(ctld.job(jb).start_time, SimTime::minutes(10));
  EXPECT_GT(ctld.job(jc).start_time, ctld.job(jb).start_time);
}

}  // namespace
}  // namespace hpcwhisk::slurm
