// Operator maintenance: drain_node stops scheduling onto a node and
// hands it to maintenance once its current job ends.

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
  return {hpc};
}

Slurmctld::Config config(std::uint32_t nodes) {
  Slurmctld::Config cfg;
  cfg.node_count = nodes;
  cfg.min_pass_gap = SimTime::zero();
  return cfg;
}

JobSpec job(std::uint32_t nodes, double minutes) {
  JobSpec spec;
  spec.partition = "hpc";
  spec.num_nodes = nodes;
  spec.time_limit = SimTime::minutes(minutes);
  spec.actual_runtime = SimTime::minutes(minutes);
  return spec;
}

TEST(Drain, IdleNodeGoesDownImmediately) {
  Simulation sim;
  Slurmctld ctld{sim, config(2), partitions()};
  ctld.drain_node(0);
  EXPECT_EQ(ctld.observed_state(0), ObservedNodeState::kDown);
  EXPECT_TRUE(ctld.is_draining(0));
  // Jobs land on the remaining node only.
  const JobId id = ctld.submit(job(1, 5));
  sim.run_until(SimTime::minutes(1));
  EXPECT_EQ(ctld.job(id).nodes.front(), 1u);
}

TEST(Drain, BusyNodeFinishesJobThenLeavesService) {
  Simulation sim;
  Slurmctld ctld{sim, config(1), partitions()};
  const JobId id = ctld.submit(job(1, 10));
  sim.run_until(SimTime::minutes(1));
  ctld.drain_node(0);
  // The running job is untouched.
  EXPECT_EQ(ctld.job(id).state, JobState::kRunning);
  sim.run_until(SimTime::minutes(11));
  EXPECT_EQ(ctld.job(id).state, JobState::kCompleted);
  EXPECT_EQ(ctld.observed_state(0), ObservedNodeState::kDown);
}

TEST(Drain, SetNodeUpCancelsDrain) {
  Simulation sim;
  Slurmctld ctld{sim, config(1), partitions()};
  ctld.drain_node(0);
  EXPECT_EQ(ctld.observed_state(0), ObservedNodeState::kDown);
  ctld.set_node_up(0);
  EXPECT_FALSE(ctld.is_draining(0));
  const JobId id = ctld.submit(job(1, 5));
  sim.run_until(SimTime::minutes(6));
  EXPECT_EQ(ctld.job(id).state, JobState::kCompleted);
}

TEST(Drain, RollingMaintenanceAcrossCluster) {
  Simulation sim;
  Slurmctld ctld{sim, config(4), partitions()};
  // Steady stream of jobs while nodes are drained one by one.
  for (int i = 0; i < 12; ++i) ctld.submit(job(1, 4));
  sim.run_until(SimTime::minutes(1));
  for (NodeId n = 0; n < 2; ++n) ctld.drain_node(n);
  sim.run_until(SimTime::hours(1));
  EXPECT_EQ(ctld.observed_state(0), ObservedNodeState::kDown);
  EXPECT_EQ(ctld.observed_state(1), ObservedNodeState::kDown);
  // All jobs still completed (on the remaining nodes).
  EXPECT_EQ(ctld.counters().completed, 12u);
}

}  // namespace
}  // namespace hpcwhisk::slurm
