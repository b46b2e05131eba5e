#include "hpcwhisk/trace/hpc_workload.hpp"

#include <gtest/gtest.h>

#include <algorithm>

#include "hpcwhisk/core/system.hpp"

namespace hpcwhisk::trace {
namespace {

using sim::Rng;
using sim::SimTime;
using sim::Simulation;

struct Fixture {
  Simulation sim;
  slurm::Slurmctld ctld;
  Fixture(std::uint32_t nodes = 64)
      : ctld{sim, {.node_count = nodes}, core::default_partitions()} {}
};

TEST(HpcWorkload, DrawnJobsAreValid) {
  Fixture f;
  HpcWorkloadGenerator gen{f.sim, f.ctld, {}, Rng{1}};
  for (int i = 0; i < 2000; ++i) {
    const TraceJob job = gen.draw_job();
    EXPECT_GE(job.num_nodes, 1u);
    EXPECT_LE(job.num_nodes, 240u);
    EXPECT_GE(job.time_limit, SimTime::minutes(2));
    if (job.runtime != SimTime::max()) {
      EXPECT_LE(job.runtime, job.time_limit);
      EXPECT_GE(job.runtime, SimTime::seconds(30));
    }
  }
}

TEST(HpcWorkload, LimitDistributionMatchesFig2) {
  Fixture f;
  HpcWorkloadGenerator gen{f.sim, f.ctld, {}, Rng{2}};
  std::vector<double> limits;
  for (int i = 0; i < 20000; ++i)
    limits.push_back(gen.draw_job().time_limit.to_minutes());
  std::sort(limits.begin(), limits.end());
  const double median = limits[limits.size() / 2];
  EXPECT_NEAR(median, 60.0, 6.0);  // paper: median declared limit 60 min
  // 95% declare at least 15 minutes.
  const auto below15 = std::lower_bound(limits.begin(), limits.end(), 15.0) -
                       limits.begin();
  EXPECT_NEAR(static_cast<double>(below15) / limits.size(), 0.05, 0.02);
}

TEST(HpcWorkload, CalibratedModeKeepsShallowBacklog) {
  Fixture f;
  HpcWorkloadGenerator gen{f.sim, f.ctld, {}, Rng{3}};
  gen.start();
  f.sim.run_until(SimTime::hours(2));
  // The backlog target bounds pending jobs.
  EXPECT_LE(f.ctld.pending_count("hpc"), 30u + 5u);
  EXPECT_GT(f.ctld.counters().submitted, 10u);
}

TEST(HpcWorkload, SaturatedModeFillsCluster) {
  Fixture f;
  HpcWorkloadGenerator::Config cfg;
  cfg.mode = HpcWorkloadGenerator::Mode::kSaturated;
  cfg.backlog_target = 100;
  HpcWorkloadGenerator gen{f.sim, f.ctld, cfg, Rng{4}};
  gen.start();
  f.sim.run_until(SimTime::hours(2));
  // Near-zero idle under saturation.
  EXPECT_LE(f.ctld.idle_node_count(), 8u);
}

TEST(HpcWorkload, StopHaltsSubmissions) {
  Fixture f;
  HpcWorkloadGenerator gen{f.sim, f.ctld, {}, Rng{5}};
  gen.start();
  f.sim.run_until(SimTime::minutes(30));
  gen.stop();
  const std::uint64_t submitted = f.ctld.counters().submitted;
  f.sim.run_until(SimTime::hours(2));
  EXPECT_EQ(f.ctld.counters().submitted, submitted);
}

TEST(HpcWorkload, DeterministicForSeed) {
  Fixture f1, f2;
  HpcWorkloadGenerator a{f1.sim, f1.ctld, {}, Rng{7}};
  HpcWorkloadGenerator b{f2.sim, f2.ctld, {}, Rng{7}};
  for (int i = 0; i < 100; ++i) {
    const TraceJob ja = a.draw_job();
    const TraceJob jb = b.draw_job();
    EXPECT_EQ(ja.num_nodes, jb.num_nodes);
    EXPECT_EQ(ja.time_limit, jb.time_limit);
    EXPECT_EQ(ja.runtime, jb.runtime);
  }
}

}  // namespace
}  // namespace hpcwhisk::trace
