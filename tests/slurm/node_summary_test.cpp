// Coherence of the scheduler's per-node view. A seeded script drives a
// small whole-node cluster and a small TRES cluster through submits,
// preemptions, grace exits, time limits, cancels, node failures, drains
// and returns to service. After every step, availability_snapshot() for
// each tier and observed_states() must equal what the public job records
// say: the jobs active on each node, their limits, grace deadlines and
// preemptibility, and the claim waiting on the node.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "hpcwhisk/sim/rng.hpp"
#include "hpcwhisk/slurm/slurmctld.hpp"

namespace hpcwhisk::slurm {
namespace {

using sim::SimTime;
using sim::Simulation;

std::vector<Partition> script_partitions() {
  return {
      {.name = "hpc", .priority_tier = 1, .grace_time = SimTime::minutes(2)},
      {.name = "low",
       .priority_tier = 1,
       .preempt_mode = PreemptMode::kCancel,
       .grace_time = SimTime::minutes(1)},
      {.name = "top", .priority_tier = 2, .grace_time = SimTime::minutes(2)},
      {.name = "pilot",
       .priority_tier = 0,
       .preempt_mode = PreemptMode::kCancel,
       .grace_time = SimTime::seconds(30)},
  };
}

SimTime grace_of(const JobRecord& rec) {
  for (const Partition& p : script_partitions()) {
    if (p.name == rec.spec.partition) return p.grace_time;
  }
  ADD_FAILURE() << "unknown partition " << rec.spec.partition;
  return SimTime::zero();
}

/// How often the script reached each state the view must follow.
struct Seen {
  std::uint64_t claimed{0};
  std::uint64_t completing{0};
  std::uint64_t states[4]{};
  std::uint64_t shared{0};  ///< a node running two jobs at once
};

/// Recomputes every node's observed state and every tier's availability
/// from the job records and compares them with the scheduler's.
void expect_coherent(const Slurmctld& ctld, const std::vector<bool>& out_of_service,
                     SimTime now, Seen& seen) {
  const std::uint32_t n = ctld.node_count();
  std::vector<std::vector<const JobRecord*>> on(n);
  std::size_t active = 0;
  JobId last = 0;
  ctld.for_each_job([&](const JobRecord& rec) {
    EXPECT_GT(rec.id, last) << "for_each_job visits in id order";
    last = rec.id;
    if (!rec.is_active()) return;
    ++active;
    if (rec.state == JobState::kCompleting) ++seen.completing;
    for (const NodeId node : rec.nodes) on[node].push_back(&rec);
  });
  EXPECT_EQ(ctld.running_count(), active);

  std::vector<ObservedNodeState> want_states(n);
  for (NodeId node = 0; node < n; ++node) {
    ObservedNodeState s = ObservedNodeState::kPilot;
    if (on[node].empty()) {
      s = out_of_service[node] ? ObservedNodeState::kDown
                               : ObservedNodeState::kIdle;
    } else if (std::any_of(on[node].begin(), on[node].end(),
                           [](const JobRecord* r) {
                             return r->priority_tier != 0;
                           })) {
      s = ObservedNodeState::kHpc;
    }
    want_states[node] = s;
    ++seen.states[static_cast<int>(s)];
    if (on[node].size() > 1) ++seen.shared;
    EXPECT_EQ(ctld.observed_state(node), s) << "node " << node;
  }
  EXPECT_EQ(ctld.observed_states(), want_states);
  EXPECT_EQ(ctld.idle_node_count(),
            static_cast<std::size_t>(std::count(want_states.begin(),
                                                want_states.end(),
                                                ObservedNodeState::kIdle)));

  for (std::int32_t tier = 0; tier <= 3; ++tier) {
    const Slurmctld::Availability got = ctld.availability_snapshot(tier);
    ASSERT_EQ(got.free_at.size(), n);
    for (NodeId node = 0; node < n; ++node) {
      SimTime want = now;
      if (want_states[node] == ObservedNodeState::kDown) {
        want = SimTime::max();
      } else {
        const bool transparent =
            std::all_of(on[node].begin(), on[node].end(),
                        [tier](const JobRecord* r) {
                          return r->preemptible && r->preempt_tier < tier;
                        });
        if (!transparent) {
          for (const JobRecord* r : on[node]) {
            SimTime expected = r->expected_end();
            if (r->state == JobState::kCompleting)
              expected = std::min(expected, r->end_time);
            want = std::max(want, expected);
          }
        }
      }
      if (const JobId c = ctld.claimant(node); c != 0) {
        ++seen.claimed;
        const JobRecord& claimant = ctld.job(c);
        want = std::max(want, now + claimant.granted_limit + grace_of(claimant));
      }
      EXPECT_EQ(got.free_at[node], want) << "tier " << tier << " node " << node;
    }
  }
}

/// One seeded script on a small whole-node or TRES cluster.
void run_script(std::uint64_t seed, bool tres, Seen& seen) {
  Simulation sim;
  Slurmctld::Config cfg;
  cfg.node_count = tres ? 5 : 8;
  cfg.min_pass_gap = SimTime::seconds(5);
  if (tres) {
    cfg.fidelity.tres_mode = true;
    cfg.fidelity.node_capacity = TresVector{8, 32000, 0};
    cfg.fidelity.qos = {{"pilot-low", -1, 0, 1.0}, {"pilot-high", 1, 0, 1.0}};
  }
  Slurmctld ctld{sim, cfg, script_partitions()};
  sim::Rng rng{seed};
  std::vector<bool> out(cfg.node_count, false);
  const auto any_node = [&] {
    return static_cast<NodeId>(rng.uniform_int(0, cfg.node_count - 1));
  };
  const auto any_job = [&]() -> JobId {
    const auto submitted = static_cast<std::int64_t>(ctld.counters().submitted);
    return submitted == 0 ? 0
                          : static_cast<JobId>(rng.uniform_int(1, submitted));
  };

  for (int step = 0; step < 160; ++step) {
    SCOPED_TRACE(::testing::Message() << (tres ? "tres" : "legacy") << " seed "
                                      << seed << " step " << step);
    switch (rng.uniform_int(0, 11)) {
      case 0:
      case 1:
      case 2: {  // HPC work: fixed or variable, ends early or hits its limit
        static const char* kParts[] = {"hpc", "low", "top"};
        JobSpec spec;
        spec.partition = kParts[rng.uniform_int(0, 2)];
        spec.num_nodes = static_cast<std::uint32_t>(rng.uniform_int(1, 3));
        spec.time_limit = SimTime::minutes(rng.uniform_int(4, 40));
        if (rng.bernoulli(0.2)) spec.time_min = SimTime::minutes(2);
        spec.actual_runtime = rng.bernoulli(0.5)
                                  ? SimTime::minutes(rng.uniform_int(1, 30))
                                  : SimTime::max();
        if (tres && rng.bernoulli(0.6))
          spec.tres_per_node = {static_cast<std::uint32_t>(rng.uniform_int(1, 6)),
                                8000, 0};
        ctld.submit(std::move(spec));
        break;
      }
      case 3:
      case 4: {  // a pilot, fixed or variable length
        JobSpec spec;
        spec.partition = "pilot";
        spec.time_limit = SimTime::minutes(rng.uniform_int(5, 30));
        if (rng.bernoulli(0.3)) spec.time_min = SimTime::minutes(2);
        if (rng.bernoulli(0.2)) spec.actual_runtime = SimTime::minutes(3);
        if (tres) {
          spec.tres_per_node = {2, 8000, 0};
          if (rng.bernoulli(0.5))
            spec.qos = rng.bernoulli(0.5) ? "pilot-low" : "pilot-high";
        }
        ctld.submit(std::move(spec));
        break;
      }
      case 5:
        if (const JobId id = any_job(); id != 0) ctld.cancel(id);
        break;
      case 6:  // early exit, or an exit inside the grace window
        if (const JobId id = any_job(); id != 0) ctld.job_exited(id);
        break;
      case 7: {
        const NodeId node = any_node();
        out[node] = true;
        ctld.fail_node(node, SimTime::seconds(rng.uniform_int(0, 60)));
        break;
      }
      case 8: {
        const NodeId node = any_node();
        out[node] = true;
        if (rng.bernoulli(0.5)) {
          ctld.drain_node(node);
        } else {
          ctld.set_node_down(node);
        }
        break;
      }
      case 9: {
        const NodeId node = any_node();
        out[node] = false;
        ctld.set_node_up(node);
        break;
      }
      case 10:
        ctld.schedule_now();
        break;
      default:
        sim.run_until(sim.now() + SimTime::seconds(rng.uniform_int(0, 240)));
        break;
    }
    expect_coherent(ctld, out, sim.now(), seen);
    if (::testing::Test::HasFailure()) return;
  }
}

TEST(NodeSummary, WholeNodeViewFollowsTheJobRecords) {
  Seen seen;
  for (std::uint64_t seed = 1; seed <= 40; ++seed) {
    run_script(seed, false, seen);
    if (::testing::Test::HasFailure()) return;
  }
  EXPECT_GT(seen.claimed, 100u);
  EXPECT_GT(seen.completing, 100u);
  for (const std::uint64_t s : seen.states) EXPECT_GT(s, 100u);
}

TEST(NodeSummary, TresViewFollowsTheJobRecords) {
  Seen seen;
  for (std::uint64_t seed = 1; seed <= 40; ++seed) {
    run_script(seed, true, seen);
    if (::testing::Test::HasFailure()) return;
  }
  EXPECT_GT(seen.claimed, 100u);
  EXPECT_GT(seen.completing, 100u);
  EXPECT_GT(seen.shared, 100u);
  for (const std::uint64_t s : seen.states) EXPECT_GT(s, 100u);
}

}  // namespace
}  // namespace hpcwhisk::slurm
