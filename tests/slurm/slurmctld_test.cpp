#include "hpcwhisk/slurm/slurmctld.hpp"

#include <gtest/gtest.h>

#include <vector>

namespace hpcwhisk::slurm {
namespace {

using sim::SimTime;
using sim::Simulation;

std::vector<Partition> default_partitions() {
  Partition hpc;
  hpc.name = "hpc";
  hpc.priority_tier = 1;
  hpc.preempt_mode = PreemptMode::kOff;
  Partition pilot;
  pilot.name = "pilot";
  pilot.priority_tier = 0;
  pilot.preempt_mode = PreemptMode::kCancel;
  pilot.grace_time = SimTime::minutes(3);
  pilot.max_time = SimTime::hours(2);
  return {hpc, pilot};
}

Slurmctld::Config small_config(std::uint32_t nodes = 4) {
  Slurmctld::Config cfg;
  cfg.node_count = nodes;
  cfg.sched_interval = SimTime::seconds(30);
  cfg.launch_latency = SimTime::zero();
  cfg.min_pass_gap = SimTime::zero();  // tests exercise instant reaction
  return cfg;
}

JobSpec hpc_job(std::uint32_t nodes, SimTime limit, SimTime runtime) {
  JobSpec spec;
  spec.partition = "hpc";
  spec.num_nodes = nodes;
  spec.time_limit = limit;
  spec.actual_runtime = runtime;
  return spec;
}

TEST(Slurmctld, RejectsInvalidSubmissions) {
  Simulation sim;
  Slurmctld ctld{sim, small_config(), default_partitions()};
  EXPECT_THROW(ctld.submit(hpc_job(0, SimTime::minutes(10), SimTime::minutes(5))),
               std::invalid_argument);
  EXPECT_THROW(ctld.submit(hpc_job(99, SimTime::minutes(10), SimTime::minutes(5))),
               std::invalid_argument);
  EXPECT_THROW(ctld.submit(hpc_job(1, SimTime::zero(), SimTime::zero())),
               std::invalid_argument);
  JobSpec bad_partition = hpc_job(1, SimTime::minutes(10), SimTime::minutes(5));
  bad_partition.partition = "nope";
  EXPECT_THROW(ctld.submit(bad_partition), std::invalid_argument);
  JobSpec bad_min = hpc_job(1, SimTime::minutes(10), SimTime::minutes(5));
  bad_min.time_min = SimTime::minutes(20);
  EXPECT_THROW(ctld.submit(bad_min), std::invalid_argument);
}

TEST(Slurmctld, PartitionMaxTimeEnforced) {
  Simulation sim;
  Slurmctld ctld{sim, small_config(), default_partitions()};
  JobSpec pilot;
  pilot.partition = "pilot";
  pilot.num_nodes = 1;
  pilot.time_limit = SimTime::hours(3);  // > pilot partition max of 2h
  EXPECT_THROW(ctld.submit(pilot), std::invalid_argument);
}

TEST(Slurmctld, SingleJobRunsToCompletion) {
  Simulation sim;
  Slurmctld ctld{sim, small_config(), default_partitions()};
  bool started = false;
  EndReason reason{};
  auto spec = hpc_job(2, SimTime::minutes(30), SimTime::minutes(10));
  spec.on_start = [&](const JobRecord&) { started = true; };
  spec.on_end = [&](const JobRecord&, EndReason r) { reason = r; };
  const JobId id = ctld.submit(spec);
  sim.run_until(SimTime::hours(1));
  EXPECT_TRUE(started);
  EXPECT_EQ(reason, EndReason::kCompleted);
  EXPECT_EQ(ctld.job(id).state, JobState::kCompleted);
  EXPECT_EQ(ctld.job(id).end_time, SimTime::minutes(10));
  EXPECT_EQ(ctld.idle_node_count(), 4u);
}

TEST(Slurmctld, JobUsesRequestedNodeCount) {
  Simulation sim;
  Slurmctld ctld{sim, small_config(4), default_partitions()};
  const JobId id =
      ctld.submit(hpc_job(3, SimTime::minutes(30), SimTime::minutes(30)));
  sim.run_until(SimTime::minutes(1));
  EXPECT_EQ(ctld.job(id).nodes.size(), 3u);
  EXPECT_EQ(ctld.idle_node_count(), 1u);
}

TEST(Slurmctld, JobsQueueWhenClusterFull) {
  Simulation sim;
  Slurmctld ctld{sim, small_config(2), default_partitions()};
  ctld.submit(hpc_job(2, SimTime::minutes(20), SimTime::minutes(20)));
  const JobId second =
      ctld.submit(hpc_job(2, SimTime::minutes(20), SimTime::minutes(10)));
  sim.run_until(SimTime::minutes(5));
  EXPECT_EQ(ctld.job(second).state, JobState::kPending);
  sim.run_until(SimTime::minutes(25));
  EXPECT_EQ(ctld.job(second).state, JobState::kRunning);
  sim.run_until(SimTime::minutes(40));
  EXPECT_EQ(ctld.job(second).state, JobState::kCompleted);
}

TEST(Slurmctld, TimeoutGetsSigtermThenGraceThenKill) {
  Simulation sim;
  auto parts = default_partitions();
  parts[0].grace_time = SimTime::minutes(3);
  Slurmctld ctld{sim, small_config(), parts};
  bool sigterm = false;
  SimTime sigterm_at;
  // Runs "forever": must be killed at its limit + grace.
  auto spec = hpc_job(1, SimTime::minutes(10), SimTime::max());
  spec.on_sigterm = [&](const JobRecord&) {
    sigterm = true;
    sigterm_at = sim.now();
  };
  const JobId id = ctld.submit(spec);
  sim.run_until(SimTime::hours(1));
  EXPECT_TRUE(sigterm);
  EXPECT_EQ(sigterm_at, SimTime::minutes(10));
  EXPECT_EQ(ctld.job(id).state, JobState::kTimedOut);
  EXPECT_EQ(ctld.job(id).end_time, SimTime::minutes(13));
}

TEST(Slurmctld, JobExitedDuringGraceFreesNodesEarly) {
  Simulation sim;
  Slurmctld ctld{sim, small_config(1), default_partitions()};
  auto spec = hpc_job(1, SimTime::minutes(10), SimTime::max());
  JobId id = 0;
  spec.on_sigterm = [&](const JobRecord& rec) {
    id = rec.id;
    // Exit 5 seconds into the grace period.
    sim.after(SimTime::seconds(5), [&ctld, &rec] { ctld.job_exited(rec.id); });
  };
  ctld.submit(spec);
  sim.run_until(SimTime::hours(1));
  const auto& rec = ctld.job(id);
  EXPECT_EQ(rec.end_time, SimTime::minutes(10) + SimTime::seconds(5));
  // Exited during a time-limit grace: attributed to the time limit.
  EXPECT_EQ(rec.state, JobState::kTimedOut);
}

TEST(Slurmctld, CancelPendingJob) {
  Simulation sim;
  Slurmctld ctld{sim, small_config(1), default_partitions()};
  ctld.submit(hpc_job(1, SimTime::minutes(60), SimTime::minutes(60)));
  const JobId queued =
      ctld.submit(hpc_job(1, SimTime::minutes(60), SimTime::minutes(60)));
  sim.run_until(SimTime::minutes(1));
  EXPECT_TRUE(ctld.cancel(queued));
  EXPECT_EQ(ctld.job(queued).state, JobState::kCancelled);
  EXPECT_FALSE(ctld.cancel(queued));  // already finished
}

TEST(Slurmctld, CancelRunningJobGoesThroughGrace) {
  Simulation sim;
  Slurmctld ctld{sim, small_config(1), default_partitions()};
  const JobId id =
      ctld.submit(hpc_job(1, SimTime::minutes(60), SimTime::max()));
  sim.run_until(SimTime::minutes(1));
  EXPECT_TRUE(ctld.cancel(id));
  EXPECT_EQ(ctld.job(id).state, JobState::kCompleting);
  sim.run_until(SimTime::minutes(10));
  EXPECT_NE(ctld.job(id).state, JobState::kRunning);
  EXPECT_EQ(ctld.idle_node_count(), 1u);
}

TEST(Slurmctld, NodeDownKillsJobAndNodeUpRestores) {
  Simulation sim;
  Slurmctld ctld{sim, small_config(1), default_partitions()};
  const JobId id =
      ctld.submit(hpc_job(1, SimTime::minutes(60), SimTime::minutes(60)));
  sim.run_until(SimTime::minutes(5));
  const NodeId node = ctld.job(id).nodes.front();
  ctld.set_node_down(node);
  EXPECT_EQ(ctld.job(id).state, JobState::kNodeFailed);
  EXPECT_EQ(ctld.observed_state(node), ObservedNodeState::kDown);
  EXPECT_EQ(ctld.idle_node_count(), 0u);
  ctld.set_node_up(node);
  EXPECT_EQ(ctld.idle_node_count(), 1u);
}

TEST(Slurmctld, NodeObserverSeesTransitions) {
  Simulation sim;
  Slurmctld ctld{sim, small_config(1), default_partitions()};
  std::vector<NodeTransition> transitions;
  ctld.set_node_observer(
      [&](const NodeTransition& t) { transitions.push_back(t); });
  ctld.submit(hpc_job(1, SimTime::minutes(10), SimTime::minutes(10)));
  sim.run_until(SimTime::minutes(30));
  ASSERT_EQ(transitions.size(), 2u);
  EXPECT_EQ(transitions[0].state, ObservedNodeState::kHpc);
  EXPECT_EQ(transitions[1].state, ObservedNodeState::kIdle);
  EXPECT_EQ(transitions[1].when, SimTime::minutes(10));
}

/// Setting an allocated node down announces exactly one `down`, and the
/// node is never treated as freshly idle: in both scheduling modes.
class NodeDownTransitions : public ::testing::TestWithParam<bool> {};

TEST_P(NodeDownTransitions, AllocatedNodeAnnouncesOneDownAndNoIdle) {
  Simulation sim;
  auto cfg = small_config(1);
  cfg.pilot_min_idle = SimTime::minutes(5);
  if (GetParam()) {
    cfg.fidelity.tres_mode = true;
    cfg.fidelity.node_capacity = TresVector{4, 16000, 0};
  }
  Slurmctld ctld{sim, cfg, default_partitions()};
  std::vector<NodeTransition> transitions;
  ctld.set_node_observer(
      [&](const NodeTransition& t) { transitions.push_back(t); });
  const JobId id =
      ctld.submit(hpc_job(1, SimTime::minutes(60), SimTime::minutes(60)));
  sim.run_until(SimTime::minutes(10));
  ctld.set_node_down(0);
  EXPECT_EQ(ctld.job(id).state, JobState::kNodeFailed);
  ASSERT_EQ(transitions.size(), 2u);
  EXPECT_EQ(transitions[0].state, ObservedNodeState::kHpc);
  EXPECT_EQ(transitions[1].state, ObservedNodeState::kDown);
  EXPECT_EQ(transitions[1].when, SimTime::minutes(10));

  // The node was never freed, so the pilot_min_idle gate does not hold a
  // pilot back once the node is repaired.
  ctld.set_node_up(0);
  JobSpec pilot;
  pilot.partition = "pilot";
  pilot.num_nodes = 1;
  pilot.time_limit = SimTime::minutes(30);
  pilot.actual_runtime = SimTime::max();
  const JobId p = ctld.submit(pilot);
  sim.run_until(SimTime::minutes(10) + SimTime::seconds(1));
  EXPECT_EQ(ctld.job(p).state, JobState::kRunning);
  ASSERT_EQ(transitions.size(), 4u);
  EXPECT_EQ(transitions[2].state, ObservedNodeState::kIdle);
  EXPECT_EQ(transitions[3].state, ObservedNodeState::kPilot);
}

INSTANTIATE_TEST_SUITE_P(BothModes, NodeDownTransitions,
                         ::testing::Values(false, true),
                         [](const ::testing::TestParamInfo<bool>& param) {
                           return param.param ? "Tres" : "Legacy";
                         });

TEST(Slurmctld, CountersAreConsistent) {
  Simulation sim;
  Slurmctld ctld{sim, small_config(2), default_partitions()};
  for (int i = 0; i < 5; ++i)
    ctld.submit(hpc_job(1, SimTime::minutes(10), SimTime::minutes(5)));
  sim.run_until(SimTime::hours(1));
  EXPECT_EQ(ctld.counters().submitted, 5u);
  EXPECT_EQ(ctld.counters().started, 5u);
  EXPECT_EQ(ctld.counters().completed, 5u);
}

TEST(Slurmctld, MinPassGapDefersEventScheduling) {
  Simulation sim;
  auto cfg = small_config(1);
  cfg.min_pass_gap = SimTime::seconds(20);
  cfg.sched_interval = SimTime::hours(10);  // keep periodic passes away
  Slurmctld ctld{sim, cfg, default_partitions()};
  // First job triggers a pass immediately (no previous pass).
  ctld.submit(hpc_job(1, SimTime::minutes(5), SimTime::minutes(5)));
  sim.run_until(SimTime::seconds(1));
  EXPECT_EQ(ctld.idle_node_count(), 0u);
  // The node frees at t=5min; the end-of-job pass request is deferred to
  // 20s after the *previous* pass... which was long ago, so it runs
  // immediately. Submit a successor right before the free to check the
  // deferral window after that pass.
  const JobId next =
      ctld.submit(hpc_job(1, SimTime::minutes(5), SimTime::minutes(5)));
  sim.run_until(SimTime::minutes(5) + SimTime::seconds(1));
  // The free-triggered pass at t=5min started the successor (gap elapsed
  // since the submission pass).
  EXPECT_EQ(ctld.job(next).state, JobState::kRunning);
}

}  // namespace
}  // namespace hpcwhisk::slurm
