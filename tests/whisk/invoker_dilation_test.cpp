// CPU-dilation model: concurrent CPU-bound executions beyond the node's
// core count (kCores) slow each other down.

#include <gtest/gtest.h>

#include "hpcwhisk/whisk/invoker.hpp"

namespace hpcwhisk::whisk {
namespace {

using sim::Rng;
using sim::SimTime;
using sim::Simulation;

struct Fixture {
  Simulation sim;
  mq::Broker broker;
  FunctionRegistry registry;
  Controller controller{sim, broker, registry};

  Fixture() {
    registry.put(fixed_duration_function("busy", SimTime::seconds(60)));
  }

  std::unique_ptr<Invoker> make() {
    Invoker::Config cfg;
    cfg.max_concurrent = 3 * kCores;
    cfg.pool.max_containers = 3 * kCores;
    cfg.pool.memory_mb = 3 * kCores * 256;
    return std::make_unique<Invoker>(sim, broker, registry, controller, cfg,
                                     Rng{9});
  }

  double mean_exec_seconds() {
    std::vector<double> xs;
    for (const auto& rec : controller.activations()) {
      if (rec.state != ActivationState::kCompleted) continue;
      xs.push_back((rec.end_time - rec.start_time).to_seconds());
    }
    double sum = 0;
    for (const double x : xs) sum += x;
    return xs.empty() ? 0 : sum / static_cast<double>(xs.size());
  }
};

TEST(CpuDilation, OversubscriptionSlowsExecutions) {
  Fixture f;
  auto inv = f.make();
  inv->start();
  for (std::uint32_t i = 0; i < 3 * kCores; ++i)
    ASSERT_TRUE(f.controller.submit("busy").accepted);
  f.sim.run_until(SimTime::minutes(30));
  // The k-th concurrent start past the core count runs k / kCores times
  // slower: 3x oversubscription averages ~1.7x (60 s nominal).
  EXPECT_GT(f.mean_exec_seconds(), 90.0);
}

TEST(CpuDilation, NoEffectUnderCoreCount) {
  Fixture f;
  auto inv = f.make();
  inv->start();
  // Exactly kCores concurrent executions: none is dilated.
  for (std::uint32_t i = 0; i < kCores; ++i)
    ASSERT_TRUE(f.controller.submit("busy").accepted);
  f.sim.run_until(SimTime::minutes(10));
  EXPECT_NEAR(f.mean_exec_seconds(), 60.0, 1.0);
}

}  // namespace
}  // namespace hpcwhisk::whisk
