// The benches' HW_* override layer (bench::apply_env): values that parse
// land in the scenario; values that do not stop the run with a message
// listing what is accepted, instead of silently running the default.

#include <gtest/gtest.h>

#include <cstdlib>

#include "common/experiment.hpp"

namespace hpcwhisk {
namespace {

/// Sets one variable for the scope of a test (gtest death tests fork, so
/// the child sees it too).
class ScopedEnv {
 public:
  ScopedEnv(const char* name, const char* value) : name_{name} {
    ::setenv(name, value, 1);
  }
  ~ScopedEnv() { ::unsetenv(name_); }
  ScopedEnv(const ScopedEnv&) = delete;
  ScopedEnv& operator=(const ScopedEnv&) = delete;

 private:
  const char* name_;
};

TEST(BenchEnv, AppliesValidValues) {
  const ScopedEnv seed{"HW_SEED", "42"};
  const ScopedEnv mode{"HW_ROUTE_MODE", "least-expected-work"};
  const ScopedEnv keep{"HW_KEEPALIVE", "hybrid"};
  const check::ScenarioSpec spec = bench::apply_env(bench::base_scenario());
  EXPECT_EQ(spec.seed, 42u);
  EXPECT_EQ(spec.hpc_seed, 42u ^ 0x9E3779B9ULL);
  EXPECT_EQ(spec.faas_seed, 42u ^ 0xC0FFEEULL);
  EXPECT_EQ(spec.route_mode, whisk::RouteMode::kLeastExpectedWork);
  EXPECT_EQ(spec.keep_alive, runtime::KeepAlivePolicy::kHybrid);
}

TEST(BenchEnv, QuickModeScalesTheWindow) {
  const ScopedEnv quick{"HW_BENCH_QUICK", "1"};
  const check::ScenarioSpec spec = bench::apply_env(bench::base_scenario());
  EXPECT_EQ(spec.nodes, 2239u / 4);
  EXPECT_EQ(spec.measure_start, sim::SimTime::hours(2));
  EXPECT_EQ(spec.horizon - spec.measure_start, sim::SimTime::hours(6));
}

TEST(BenchEnvDeathTest, RejectsUnknownRouteMode) {
  const ScopedEnv mode{"HW_ROUTE_MODE", "least_expected_work"};
  EXPECT_EXIT((void)bench::apply_env(bench::base_scenario()),
              ::testing::ExitedWithCode(2),
              "HW_ROUTE_MODE=\"least_expected_work\" is not valid; accepted: "
              "hash-probing, .*least-expected-work, sjf-affinity");
}

TEST(BenchEnvDeathTest, RejectsUnknownKeepAlivePolicy) {
  const ScopedEnv keep{"HW_KEEPALIVE", "forever"};
  EXPECT_EXIT((void)bench::apply_env(bench::base_scenario()),
              ::testing::ExitedWithCode(2),
              "accepted: fixed, adaptive, hybrid");
}

TEST(BenchEnvDeathTest, RejectsNonNumericSeed) {
  for (const char* bad : {"abc", "-1", "1.5", "7x", ""}) {
    const ScopedEnv seed{"HW_SEED", bad};
    EXPECT_EXIT((void)bench::apply_env(bench::base_scenario()),
                ::testing::ExitedWithCode(2),
                "HW_SEED=.* accepted: a non-negative integer")
        << bad;
  }
}

TEST(BenchEnvDeathTest, RejectsZeroTrials) {
  const ScopedEnv trials{"HW_BENCH_TRIALS", "0"};
  EXPECT_EXIT((void)bench::trial_count(), ::testing::ExitedWithCode(2),
              "accepted: a positive integer");
}

}  // namespace
}  // namespace hpcwhisk
