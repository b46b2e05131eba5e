// Adaptive fib-length tuning (the paper's future-work extension).

#include <gtest/gtest.h>

#include "hpcwhisk/core/system.hpp"
#include "hpcwhisk/trace/hpc_workload.hpp"

namespace hpcwhisk::core {
namespace {

using sim::SimTime;
using sim::Simulation;

TEST(AdaptiveManager, RecomputesLengthsFromServingDurations) {
  Simulation simulation;
  HpcWhiskSystem::Config cfg;
  cfg.slurm.node_count = 32;
  cfg.manager.model = SupplyModel::kFib;
  cfg.manager.adaptive = true;
  cfg.manager.adapt_interval = SimTime::minutes(30);
  HpcWhiskSystem system{simulation, cfg};
  trace::HpcWorkloadGenerator workload{simulation, system.slurm(), {},
                                       sim::Rng{3}};
  workload.start();
  system.start();
  const auto before = system.manager().fib_lengths();
  simulation.run_until(SimTime::hours(6));
  EXPECT_GE(system.manager().adaptations(), 1u);
  const auto& after = system.manager().fib_lengths();
  // Adapted set: sorted, even-minute, within [2, 120].
  EXPECT_TRUE(std::is_sorted(after.begin(), after.end()));
  for (const auto len : after) {
    EXPECT_GE(len, SimTime::minutes(2));
    EXPECT_LE(len, SimTime::minutes(120));
    EXPECT_EQ(len.ticks() % SimTime::minutes(2).ticks(), 0);
  }
  // On this churny cluster the adapted set differs from A1.
  EXPECT_NE(after, before);
}

TEST(AdaptiveManager, DisabledByDefault) {
  Simulation simulation;
  HpcWhiskSystem::Config cfg;
  cfg.slurm.node_count = 8;
  HpcWhiskSystem system{simulation, cfg};
  trace::HpcWorkloadGenerator workload{simulation, system.slurm(), {},
                                       sim::Rng{4}};
  workload.start();
  system.start();
  simulation.run_until(SimTime::hours(4));
  EXPECT_EQ(system.manager().adaptations(), 0u);
  EXPECT_EQ(system.manager().fib_lengths(), job_length_set("A1"));
}

TEST(AdaptiveManager, WaitsForMinimumSamples) {
  Simulation simulation;
  HpcWhiskSystem::Config cfg;
  cfg.slurm.node_count = 2;
  cfg.manager.adaptive = true;
  cfg.manager.adapt_interval = SimTime::minutes(10);
  HpcWhiskSystem system{simulation, cfg};
  system.start();
  simulation.run_until(SimTime::hours(2));
  // Two idle nodes running 90-minute pilots to their limit serve a
  // handful of pilots, far short of kAdaptMinSamples.
  EXPECT_LT(system.manager().serving_durations().size(), kAdaptMinSamples);
  EXPECT_EQ(system.manager().adaptations(), 0u);
}

}  // namespace
}  // namespace hpcwhisk::core
