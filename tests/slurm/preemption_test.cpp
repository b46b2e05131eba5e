// Preemption (PreemptMode=CANCEL) behaviour: tier-0 pilots yield to HPC
// jobs with SIGTERM + grace, the paper's central non-invasiveness
// mechanism ("HPC-Whisk jobs never significantly dislodge HPC jobs").

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <memory>
#include <ostream>
#include <set>
#include <sstream>
#include <string>

#include "hpcwhisk/sim/rng.hpp"
#include "hpcwhisk/slurm/slurmctld.hpp"

namespace hpcwhisk::slurm {
namespace {

using sim::SimTime;
using sim::Simulation;

std::vector<Partition> partitions(SimTime grace = SimTime::minutes(3)) {
  Partition hpc;
  hpc.name = "hpc";
  hpc.priority_tier = 1;
  Partition pilot;
  pilot.name = "pilot";
  pilot.priority_tier = 0;
  pilot.preempt_mode = PreemptMode::kCancel;
  pilot.grace_time = grace;
  return {hpc, pilot};
}

Slurmctld::Config config(std::uint32_t nodes) {
  Slurmctld::Config cfg;
  cfg.node_count = nodes;
  cfg.launch_latency = SimTime::zero();
  cfg.min_pass_gap = SimTime::zero();  // tests exercise instant reaction
  return cfg;
}

JobSpec hpc(std::uint32_t nodes, SimTime limit, SimTime runtime) {
  JobSpec spec;
  spec.partition = "hpc";
  spec.num_nodes = nodes;
  spec.time_limit = limit;
  spec.actual_runtime = runtime;
  return spec;
}

JobSpec pilot(SimTime limit) {
  JobSpec spec;
  spec.partition = "pilot";
  spec.num_nodes = 1;
  spec.time_limit = limit;
  spec.actual_runtime = SimTime::max();  // serves until terminated
  return spec;
}

TEST(Preemption, PilotRunsOnIdleNode) {
  Simulation sim;
  Slurmctld ctld{sim, config(1), partitions()};
  const JobId p = ctld.submit(pilot(SimTime::minutes(90)));
  sim.run_until(SimTime::minutes(1));
  EXPECT_EQ(ctld.job(p).state, JobState::kRunning);
  EXPECT_EQ(ctld.observed_state(0), ObservedNodeState::kPilot);
}

TEST(Preemption, HpcJobEvictsPilotWithSigterm) {
  Simulation sim;
  Slurmctld ctld{sim, config(1), partitions()};
  bool pilot_sigterm = false;
  auto p = pilot(SimTime::minutes(90));
  p.on_sigterm = [&](const JobRecord&) { pilot_sigterm = true; };
  const JobId pid = ctld.submit(p);
  sim.run_until(SimTime::minutes(5));
  ASSERT_EQ(ctld.job(pid).state, JobState::kRunning);

  const JobId h = ctld.submit(hpc(1, SimTime::minutes(10), SimTime::minutes(10)));
  sim.run_until(SimTime::minutes(5) + SimTime::seconds(1));
  EXPECT_TRUE(pilot_sigterm);
  EXPECT_EQ(ctld.job(pid).state, JobState::kCompleting);
  // HPC job waits for the node; pilot killed at grace end -> HPC starts.
  sim.run_until(SimTime::minutes(9));
  EXPECT_EQ(ctld.job(pid).state, JobState::kPreempted);
  EXPECT_EQ(ctld.job(h).state, JobState::kRunning);
  // Delay bounded by the grace period (3 min).
  EXPECT_LE(ctld.job(h).start_time, SimTime::minutes(8) + SimTime::seconds(1));
}

TEST(Preemption, EarlyPilotExitShortensHpcDelay) {
  Simulation sim;
  Slurmctld ctld{sim, config(1), partitions()};
  auto p = pilot(SimTime::minutes(90));
  p.on_sigterm = [&](const JobRecord& rec) {
    // A well-behaved pilot drains in 2 seconds, not 3 minutes.
    const JobId id = rec.id;
    sim.after(SimTime::seconds(2), [&ctld, id] { ctld.job_exited(id); });
  };
  ctld.submit(p);
  sim.run_until(SimTime::minutes(5));
  const JobId h = ctld.submit(hpc(1, SimTime::minutes(10), SimTime::minutes(10)));
  sim.run_until(SimTime::minutes(6));
  EXPECT_EQ(ctld.job(h).state, JobState::kRunning);
  EXPECT_LE(ctld.job(h).start_time - ctld.job(h).submit_time,
            SimTime::seconds(3));
}

TEST(Preemption, PilotNeverDelaysQueuedHpcJob) {
  // The core invariant: with pilots present, HPC start times must be no
  // later than the pilot drain time, and pilots only ever use idle nodes.
  Simulation sim;
  Slurmctld ctld{sim, config(2), partitions()};
  // Fill one node with HPC work, the other gets a pilot.
  ctld.submit(hpc(1, SimTime::minutes(30), SimTime::minutes(30)));
  const JobId p = ctld.submit(pilot(SimTime::minutes(90)));
  sim.run_until(SimTime::minutes(1));
  EXPECT_EQ(ctld.job(p).state, JobState::kRunning);
  // Now a 2-node HPC job arrives: needs the pilot's node AND the busy one.
  const JobId h = ctld.submit(hpc(2, SimTime::minutes(10), SimTime::minutes(10)));
  sim.run_until(SimTime::minutes(40));
  EXPECT_EQ(ctld.job(h).state, JobState::kRunning);
  // Without the pilot, H would start at t=30 (when the HPC job ends).
  // With the pilot, it must start no later than 30 + grace.
  EXPECT_LE(ctld.job(h).start_time, SimTime::minutes(33) + SimTime::seconds(1));
}

TEST(Preemption, PilotTimesOutAtOwnLimitWithGrace) {
  Simulation sim;
  Slurmctld ctld{sim, config(1), partitions()};
  bool sigterm = false;
  auto p = pilot(SimTime::minutes(10));
  p.on_sigterm = [&](const JobRecord& rec) {
    sigterm = true;
    const JobId id = rec.id;
    sim.after(SimTime::seconds(1), [&ctld, id] { ctld.job_exited(id); });
  };
  const JobId pid = ctld.submit(p);
  sim.run_until(SimTime::minutes(30));
  EXPECT_TRUE(sigterm);
  // Exited during a time-limit grace: state is TIMEOUT, at limit+1s.
  EXPECT_EQ(ctld.job(pid).state, JobState::kTimedOut);
  EXPECT_EQ(ctld.job(pid).end_time,
            SimTime::minutes(10) + SimTime::seconds(1));
}

TEST(Preemption, NonPreemptiblePartitionIsNeverEvicted) {
  Simulation sim;
  // Two HPC tiers, neither preemptible.
  Partition t1;
  t1.name = "t1";
  t1.priority_tier = 1;
  Partition t2;
  t2.name = "t2";
  t2.priority_tier = 2;
  Slurmctld ctld{sim, config(1), {t1, t2}};
  JobSpec low;
  low.partition = "t1";
  low.num_nodes = 1;
  low.time_limit = SimTime::minutes(30);
  low.actual_runtime = SimTime::minutes(30);
  const JobId l = ctld.submit(low);
  sim.run_until(SimTime::minutes(1));
  JobSpec high = low;
  high.partition = "t2";
  high.time_limit = SimTime::minutes(5);
  high.actual_runtime = SimTime::minutes(5);
  const JobId h = ctld.submit(high);
  sim.run_until(SimTime::minutes(20));
  // The higher-tier job must WAIT (no preemption without CANCEL mode).
  EXPECT_EQ(ctld.job(l).state, JobState::kRunning);
  EXPECT_EQ(ctld.job(h).state, JobState::kPending);
  sim.run_until(SimTime::minutes(40));
  EXPECT_EQ(ctld.job(h).state, JobState::kCompleted);
}

TEST(Preemption, MultiplePilotsEvictedForMultiNodeJob) {
  Simulation sim;
  Slurmctld ctld{sim, config(3), partitions()};
  std::vector<JobId> pilots;
  int sigterms = 0;
  for (int i = 0; i < 3; ++i) {
    auto p = pilot(SimTime::minutes(90));
    p.on_sigterm = [&sigterms, &ctld, &sim](const JobRecord& rec) {
      ++sigterms;
      const JobId id = rec.id;
      sim.after(SimTime::seconds(2), [&ctld, id] { ctld.job_exited(id); });
    };
    pilots.push_back(ctld.submit(p));
  }
  sim.run_until(SimTime::minutes(2));
  const JobId h = ctld.submit(hpc(3, SimTime::minutes(10), SimTime::minutes(10)));
  sim.run_until(SimTime::minutes(3));
  EXPECT_EQ(sigterms, 3);
  EXPECT_EQ(ctld.job(h).state, JobState::kRunning);
  EXPECT_EQ(ctld.counters().preempted, 3u);
}

TEST(Preemption, HoleFittingPolicyRejectsOversizedPilot) {
  Simulation sim;
  auto cfg = config(2);
  cfg.pilot_placement = PilotPlacement::kHoleFitting;
  Slurmctld ctld{sim, cfg, partitions()};
  // One node busy for 20 min; head blocked 2-node job reserves both at 20.
  ctld.submit(hpc(1, SimTime::minutes(20), SimTime::minutes(20)));
  sim.run_until(SimTime::minutes(1));
  ctld.submit(hpc(2, SimTime::minutes(30), SimTime::minutes(30)));
  sim.run_until(SimTime::minutes(2));
  // 90-min pilot does not fit the <=18-min hole; an 8-min one does.
  const JobId big = ctld.submit(pilot(SimTime::minutes(90)));
  const JobId small = ctld.submit(pilot(SimTime::minutes(8)));
  sim.run_until(SimTime::minutes(4));
  EXPECT_EQ(ctld.job(big).state, JobState::kPending);
  EXPECT_EQ(ctld.job(small).state, JobState::kRunning);
}

TEST(Preemption, PreemptAwarePolicyPlacesOversizedPilot) {
  Simulation sim;
  auto cfg = config(2);
  cfg.pilot_placement = PilotPlacement::kPreemptAware;
  Slurmctld ctld{sim, cfg, partitions()};
  ctld.submit(hpc(1, SimTime::minutes(20), SimTime::minutes(20)));
  sim.run_until(SimTime::minutes(1));
  ctld.submit(hpc(2, SimTime::minutes(30), SimTime::minutes(30)));
  sim.run_until(SimTime::minutes(2));
  const JobId big = ctld.submit(pilot(SimTime::minutes(90)));
  sim.run_until(SimTime::minutes(4));
  // Faithful Slurm-with-CANCEL behaviour: the pilot starts anyway and
  // will simply be preempted when the reservation materializes.
  EXPECT_EQ(ctld.job(big).state, JobState::kRunning);
}

// --- Claims under faults, in both scheduling modes -------------------------
// The whole-node pass and the TRES pass share one node and claim model, so
// every claim scenario below runs against both.

struct Mode {
  const char* name;
  bool tres;
};

Slurmctld::Config mode_config(const Mode& mode, std::uint32_t nodes) {
  Slurmctld::Config cfg = config(nodes);
  if (mode.tres) {
    cfg.fidelity.tres_mode = true;
    cfg.fidelity.node_capacity = TresVector{4, 16000, 0};
  }
  return cfg;
}

void PrintTo(const Mode& mode, std::ostream* os) { *os << mode.name; }

std::string mode_name(const ::testing::TestParamInfo<Mode>& info) {
  return info.param.name;
}

const auto kBothModes =
    ::testing::Values(Mode{"Legacy", false}, Mode{"Tres", true});

bool holds(const JobRecord& rec, NodeId node) {
  return std::find(rec.nodes.begin(), rec.nodes.end(), node) !=
         rec.nodes.end();
}

/// Two pilot-held nodes, then a one-node HPC job that claims one of them.
/// Each test then takes the claimed node out of service while its pilot
/// drains; the claimant must be requeued and complete elsewhere.
class ClaimUnderFault : public ::testing::TestWithParam<Mode> {
 protected:
  void SetUp() override {
    ctld_ = std::make_unique<Slurmctld>(sim_, mode_config(GetParam(), 2),
                                        partitions());
    ctld_->set_job_observer([this](const JobEvent& ev) {
      if (ev.id == claimant_ && ev.kind == JobEventKind::kClaimed) ++claims_;
    });
    ctld_->set_node_observer([this](const NodeTransition& t) {
      if (t.state != ObservedNodeState::kDown || claimant_ == 0) return;
      const JobRecord& h = ctld_->job(claimant_);
      if (h.is_active() && holds(h, t.node)) ran_on_down_node_ = true;
    });
    const JobId p0 = ctld_->submit(pilot(SimTime::minutes(90)));
    const JobId p1 = ctld_->submit(pilot(SimTime::minutes(90)));
    sim_.run_until(SimTime::minutes(1));
    claimant_ =
        ctld_->submit(hpc(1, SimTime::minutes(10), SimTime::minutes(10)));
    sim_.run_until(SimTime::minutes(1) + SimTime::seconds(1));
    ASSERT_EQ(claims_, 1);
    ASSERT_EQ(ctld_->job(claimant_).state, JobState::kPending);
    const JobRecord& victim = ctld_->job(p0).state == JobState::kCompleting
                                  ? ctld_->job(p0)
                                  : ctld_->job(p1);
    ASSERT_EQ(victim.state, JobState::kCompleting);
    claimed_node_ = victim.nodes.front();
  }

  void expect_requeued_and_completed() {
    sim_.run_until(SimTime::hours(1));
    const JobRecord& h = ctld_->job(claimant_);
    // The first claim was given up and the job claimed again from its
    // queue, this time the other pilot's node.
    EXPECT_EQ(claims_, 2);
    ASSERT_EQ(h.nodes.size(), 1u);
    EXPECT_NE(h.nodes.front(), claimed_node_);
    EXPECT_FALSE(ran_on_down_node_);
    EXPECT_EQ(h.state, JobState::kCompleted);
    EXPECT_EQ(ctld_->observed_state(claimed_node_), ObservedNodeState::kDown);
  }

  Simulation sim_;
  std::unique_ptr<Slurmctld> ctld_;
  JobId claimant_{0};
  NodeId claimed_node_{0};
  int claims_{0};
  bool ran_on_down_node_{false};
};

TEST_P(ClaimUnderFault, TruncatedFailureWhileVictimDrains) {
  ctld_->fail_node(claimed_node_, SimTime::seconds(10));
  expect_requeued_and_completed();
}

TEST_P(ClaimUnderFault, NodeDownWhileVictimDrains) {
  ctld_->set_node_down(claimed_node_);
  expect_requeued_and_completed();
}

INSTANTIATE_TEST_SUITE_P(BothModes, ClaimUnderFault, kBothModes, mode_name);

/// Seeded fault property: a small pilot-saturated cluster with HPC
/// arrivals (many preemptions) and random failures, truncated-grace
/// failures and repairs. Checked through the public observers only:
///  (a) a node never goes down while a job launched on it is still live;
///  (b) once submissions stop and every grace has run out, every kPending
///      job sits in a partition queue (no claimant stranded outside).
class ClaimFaultProperty : public ::testing::TestWithParam<Mode> {};

void run_fault_property(const Mode& mode, std::uint64_t seed) {
  constexpr std::uint32_t kNodes = 6;
  const SimTime stop = SimTime::hours(4);
  Simulation sim;
  Slurmctld ctld{sim, mode_config(mode, kNodes), partitions()};
  sim::Rng rng{seed};

  std::vector<std::set<JobId>> live(kNodes);  // launched, not yet ended
  std::size_t down_with_live_job = 0;
  std::string first_violation;
  ctld.set_job_observer([&](const JobEvent& ev) {
    if (ev.kind == JobEventKind::kLaunched) {
      for (const NodeId n : ev.job->nodes) live[n].insert(ev.id);
    } else if (ev.kind == JobEventKind::kEnded) {
      for (const NodeId n : ev.job->nodes) live[n].erase(ev.id);
    }
  });
  ctld.set_node_observer([&](const NodeTransition& t) {
    if (t.state != ObservedNodeState::kDown || live[t.node].empty()) return;
    if (down_with_live_job++ == 0) {
      std::ostringstream msg;
      msg << "node " << t.node << " down at " << t.when.to_string()
          << " under live job " << *live[t.node].begin();
      first_violation = msg.str();
    }
  });

  std::function<void()> submit_pilot = [&] {
    JobSpec spec = pilot(SimTime::minutes(rng.uniform_int(10, 30)));
    // Half the pilots drain early (possibly at once); the rest wait for
    // SIGKILL.
    const bool drains = rng.bernoulli(0.5);
    const SimTime drain = SimTime::seconds(rng.uniform_int(0, 60));
    spec.on_sigterm = [&ctld, &sim, drains, drain](const JobRecord& rec) {
      if (!drains) return;
      const JobId id = rec.id;
      sim.after(drain, [&ctld, id] { ctld.job_exited(id); });
    };
    spec.on_end = [&](const JobRecord&, EndReason) {
      if (sim.now() < stop)
        sim.after(SimTime::seconds(rng.uniform_int(1, 30)), submit_pilot);
    };
    ctld.submit(spec);
  };
  for (std::uint32_t i = 0; i < kNodes; ++i) submit_pilot();

  std::function<void()> hpc_arrival = [&] {
    const SimTime limit = SimTime::minutes(rng.uniform_int(5, 30));
    ctld.submit(hpc(static_cast<std::uint32_t>(rng.uniform_int(1, 3)), limit,
                    limit - SimTime::minutes(rng.uniform_int(0, 4))));
    const SimTime next = SimTime::minutes(rng.uniform_int(1, 4));
    if (sim.now() + next < stop) sim.after(next, hpc_arrival);
  };
  sim.after(SimTime::minutes(2), hpc_arrival);

  std::function<void()> fault = [&] {
    // Half the faults aim at a node whose job is in its grace window, the
    // window in which a claim waits on its victims.
    std::vector<NodeId> draining;
    ctld.for_each_job([&](const JobRecord& rec) {
      if (rec.state == JobState::kCompleting)
        draining.insert(draining.end(), rec.nodes.begin(), rec.nodes.end());
    });
    auto node = static_cast<NodeId>(rng.uniform_int(0, kNodes - 1));
    if (!draining.empty() && rng.bernoulli(0.5)) {
      node = draining[static_cast<std::size_t>(rng.uniform_int(
          0, static_cast<std::int64_t>(draining.size()) - 1))];
    }
    switch (rng.uniform_int(0, 4)) {
      case 0: ctld.fail_node(node, SimTime::zero()); break;
      case 1: ctld.fail_node(node, SimTime::seconds(rng.uniform_int(5, 120)));
              break;
      case 2: ctld.set_node_down(node); break;
      default: ctld.set_node_up(node); break;
    }
    const SimTime next = SimTime::seconds(rng.uniform_int(30, 240));
    if (sim.now() + next < stop) sim.after(next, fault);
  };
  sim.after(SimTime::minutes(3), fault);

  sim.run_until(stop);
  // Submissions stop: drop queued pilots so no victim launches later.
  std::vector<JobId> queued_pilots;
  ctld.for_each_job([&](const JobRecord& rec) {
    if (rec.state == JobState::kPending && rec.priority_tier == 0)
      queued_pilots.push_back(rec.id);
  });
  for (const JobId id : queued_pilots) ctld.cancel(id);
  // Longest pilot limit (30 min) plus its grace (3 min) and slack.
  sim.run_until(stop + SimTime::hours(1));

  EXPECT_EQ(down_with_live_job, 0u) << first_violation;
  std::size_t pending_jobs = 0;
  ctld.for_each_job([&](const JobRecord& rec) {
    if (rec.state == JobState::kPending) ++pending_jobs;
  });
  EXPECT_EQ(pending_jobs, ctld.pending_count("hpc") + ctld.pending_count("pilot"))
      << "a kPending job is in no partition queue";
  // The run must actually exercise claims and faults.
  EXPECT_GT(ctld.counters().preempted, 10u);
  EXPECT_GT(ctld.counters().node_failures, 5u);
}

TEST_P(ClaimFaultProperty, NoLiveJobOnDownNodeNoStrandedClaimant) {
  for (std::uint64_t seed = 1; seed <= 16; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    run_fault_property(GetParam(), seed);
  }
}

INSTANTIATE_TEST_SUITE_P(BothModes, ClaimFaultProperty, kBothModes,
                         mode_name);

}  // namespace
}  // namespace hpcwhisk::slurm
