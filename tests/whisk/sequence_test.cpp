// Action sequences ("functions triggered by other functions", Sec. II).

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
  std::unique_ptr<Invoker> invoker;

  Fixture() {
    invoker = std::make_unique<Invoker>(sim, broker, registry, controller,
                                        Invoker::Config{}, Rng{7});
  }

  void chain(const std::string& name, const std::string& next,
             SimTime duration = SimTime::millis(20)) {
    FunctionSpec spec = fixed_duration_function(name, duration);
    spec.next = next;
    registry.put(spec);
  }
};

TEST(Sequence, ChainsNextFunctionOnCompletion) {
  Fixture f;
  f.chain("extract", "transform");
  f.chain("transform", "load");
  f.chain("load", "");
  f.invoker->start();
  const auto result = f.controller.submit("extract");
  ASSERT_TRUE(result.accepted);
  f.sim.run_until(SimTime::minutes(1));
  // All three stages completed; 2 chained invocations were created.
  EXPECT_EQ(f.controller.counters().sequence_invocations, 2u);
  EXPECT_EQ(f.controller.counters().completed, 3u);
  std::size_t completed = 0;
  for (const auto& rec : f.controller.activations()) {
    if (rec.state == ActivationState::kCompleted) ++completed;
  }
  EXPECT_EQ(completed, 3u);
}

TEST(Sequence, NoChainOnFailure) {
  Fixture f;
  f.chain("a", "b");
  f.chain("b", "");
  // No invoker at all: "a" is rejected (503), never chains.
  const auto result = f.controller.submit("a");
  EXPECT_FALSE(result.accepted);
  f.sim.run_until(SimTime::minutes(1));
  EXPECT_EQ(f.controller.counters().sequence_invocations, 0u);
}

TEST(Sequence, NoChainOnTimeout) {
  Fixture f;
  FunctionSpec slow = fixed_duration_function("slow", SimTime::minutes(10));
  slow.timeout = SimTime::seconds(30);
  slow.next = "never";
  f.registry.put(slow);
  f.chain("never", "");
  f.invoker->start();
  const auto result = f.controller.submit("slow");
  ASSERT_TRUE(result.accepted);
  f.sim.run_until(SimTime::minutes(2));
  EXPECT_EQ(f.controller.activation(result.activation).state,
            ActivationState::kTimedOut);
  EXPECT_EQ(f.controller.counters().sequence_invocations, 0u);
}

TEST(Sequence, SurvivesWorkerChurnMidChain) {
  Fixture f;
  f.chain("first", "second", SimTime::seconds(30));
  f.chain("second", "", SimTime::millis(20));
  f.invoker->start();
  ASSERT_TRUE(f.controller.submit("first").accepted);
  // Drain the only invoker mid-execution of "first"; a replacement
  // arrives and both stages still complete.
  f.sim.run_until(SimTime::seconds(10));
  f.invoker->sigterm([] {});
  auto replacement = std::make_unique<Invoker>(
      f.sim, f.broker, f.registry, f.controller, Invoker::Config{}, Rng{8});
  replacement->start();
  f.sim.run_until(SimTime::minutes(3));
  EXPECT_EQ(f.controller.counters().sequence_invocations, 1u);
  EXPECT_EQ(f.controller.counters().completed, 2u);
}

}  // namespace
}  // namespace hpcwhisk::whisk
