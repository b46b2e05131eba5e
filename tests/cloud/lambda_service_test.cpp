#include "hpcwhisk/cloud/lambda_service.hpp"

#include <gtest/gtest.h>

namespace hpcwhisk::cloud {
namespace {

using sim::Rng;
using sim::SimTime;
using sim::Simulation;

struct Fixture {
  Simulation sim;
  whisk::FunctionRegistry registry;

  Fixture() {
    registry.put(whisk::fixed_duration_function("fn", SimTime::millis(100)));
  }
};

TEST(LambdaService, CpuShareScalesWithMemory) {
  Fixture f;
  LambdaService lambda{f.sim, f.registry, {}, Rng{1}};
  EXPECT_DOUBLE_EQ(lambda.cpu_share(1792), 1.0);
  EXPECT_DOUBLE_EQ(lambda.cpu_share(896), 0.5);
  EXPECT_DOUBLE_EQ(lambda.cpu_share(2048), 1.0);  // capped: single thread
}

TEST(LambdaService, FirstInvocationIsCold) {
  Fixture f;
  LambdaService lambda{f.sim, f.registry, {}, Rng{1}};
  const auto id = lambda.invoke("fn", 2048);
  EXPECT_TRUE(lambda.invocation(id).cold_start);
  f.sim.run();
  EXPECT_EQ(lambda.completed(), 1u);
  EXPECT_GT(lambda.invocation(id).end_time, lambda.invocation(id).submit_time);
}

TEST(LambdaService, WarmWithinKeepWarmWindow) {
  Fixture f;
  LambdaService lambda{f.sim, f.registry, {}, Rng{1}};
  (void)lambda.invoke("fn", 2048);
  f.sim.run();
  const auto second = lambda.invoke("fn", 2048);
  EXPECT_FALSE(lambda.invocation(second).cold_start);
}

TEST(LambdaService, ColdAgainAfterKeepWarmExpires) {
  Fixture f;
  LambdaService lambda{f.sim, f.registry, {}, Rng{1}};
  (void)lambda.invoke("fn", 2048);
  f.sim.run();
  f.sim.settle_to(kKeepWarm * 3);
  const auto late = lambda.invoke("fn", 2048);
  EXPECT_TRUE(lambda.invocation(late).cold_start);
}

TEST(LambdaService, LowMemoryDilatesExecution) {
  Fixture f;
  LambdaService lambda{f.sim, f.registry, {}, Rng{1}};
  const auto big = lambda.invoke("fn", 1792);   // full vCPU
  const auto small = lambda.invoke("fn", 448);  // quarter vCPU
  f.sim.run();
  const double ratio = lambda.invocation(small).internal_duration.to_seconds() /
                       lambda.invocation(big).internal_duration.to_seconds();
  EXPECT_NEAR(ratio, 4.0, 0.01);
}

TEST(LambdaService, ComputeSlowdownMatchesFig7) {
  // Fig. 7: Prometheus ~15% faster than Lambda at 2048 MB. The model's
  // internal duration at 2048 MB must be kComputeSlowdown (1.15) x the
  // function body (no CPU-share penalty above 1792 MB).
  Fixture f;
  LambdaService lambda{f.sim, f.registry, {}, Rng{1}};
  const auto id = lambda.invoke("fn", 2048);
  f.sim.run();
  EXPECT_EQ(kComputeSlowdown, 1.15);
  EXPECT_NEAR(lambda.invocation(id).internal_duration.to_seconds(),
              0.100 * 1.15, 1e-5);
}

TEST(LambdaService, AlwaysAccepts) {
  Fixture f;
  LambdaService lambda{f.sim, f.registry, {}, Rng{1}};
  for (int i = 0; i < 100; ++i) (void)lambda.invoke("fn", 2048);
  f.sim.run();
  EXPECT_EQ(lambda.completed(), 100u);
  EXPECT_EQ(lambda.invocations().size(), 100u);
}

TEST(LambdaService, UnknownFunctionThrows) {
  Fixture f;
  LambdaService lambda{f.sim, f.registry, {}, Rng{1}};
  EXPECT_THROW(lambda.invoke("nope", 2048), std::out_of_range);
  EXPECT_THROW(static_cast<void>(lambda.invocation(99)), std::out_of_range);
}

}  // namespace
}  // namespace hpcwhisk::cloud
