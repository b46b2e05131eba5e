#include "hpcwhisk/runtime/container_pool.hpp"

#include <gtest/gtest.h>

namespace hpcwhisk::runtime {
namespace {

using sim::Rng;
using sim::SimTime;

// Functions are keyed by their dense registry index.
constexpr FunctionKey kF = 0;
constexpr FunctionKey kG = 1;
constexpr FunctionKey kA = 2;
constexpr FunctionKey kB = 3;
constexpr FunctionKey kC = 4;
constexpr FunctionKey kHuge = 5;

ContainerPool make_pool(std::size_t max_containers = 4,
                        std::int64_t memory_mb = 4096) {
  ContainerPool::Config cfg;
  cfg.max_containers = max_containers;
  cfg.memory_mb = memory_mb;
  cfg.idle_timeout = SimTime::minutes(10);
  return ContainerPool{cfg, RuntimeProfile::singularity(), Rng{1}};
}

TEST(ContainerPool, FirstAcquireIsColdStart) {
  auto pool = make_pool();
  const auto r = pool.acquire(kF, 256, SimTime::zero());
  EXPECT_EQ(r.kind, AcquireResult::Kind::kCold);
  EXPECT_GT(r.start_latency, SimTime::zero());
  EXPECT_EQ(pool.total_containers(), 1u);
}

TEST(ContainerPool, WarmReuseAfterRelease) {
  auto pool = make_pool();
  const auto r1 = pool.acquire(kF, 256, SimTime::zero());
  pool.mark_running(r1.container, SimTime::zero());
  pool.release(r1.container, SimTime::seconds(1));
  const auto r2 = pool.acquire(kF, 256, SimTime::seconds(2));
  EXPECT_EQ(r2.kind, AcquireResult::Kind::kWarm);
  EXPECT_EQ(r2.container, r1.container);
  // Warm start is much cheaper than a cold start.
  EXPECT_LT(r2.start_latency, SimTime::millis(200));
}

TEST(ContainerPool, DifferentFunctionGetsDifferentContainer) {
  auto pool = make_pool();
  const auto r1 = pool.acquire(kF, 256, SimTime::zero());
  pool.mark_running(r1.container, SimTime::zero());
  pool.release(r1.container, SimTime::zero());
  const auto r2 = pool.acquire(kG, 256, SimTime::zero());
  EXPECT_EQ(r2.kind, AcquireResult::Kind::kCold);
  EXPECT_NE(r2.container, r1.container);
}

TEST(ContainerPool, EvictsIdleLruWhenCapReached) {
  auto pool = make_pool(/*max_containers=*/2);
  const auto a = pool.acquire(kA, 256, SimTime::zero());
  pool.mark_running(a.container, SimTime::zero());
  pool.release(a.container, SimTime::seconds(1));
  const auto b = pool.acquire(kB, 256, SimTime::seconds(2));
  pool.mark_running(b.container, SimTime::seconds(2));
  pool.release(b.container, SimTime::seconds(3));
  // Cap is 2; acquiring c must evict the LRU (a).
  const auto c = pool.acquire(kC, 256, SimTime::seconds(4));
  EXPECT_EQ(c.kind, AcquireResult::Kind::kCold);
  EXPECT_EQ(pool.total_containers(), 2u);
  EXPECT_EQ(pool.counters().evictions, 1u);
  // a is gone: next acquire of a is cold again.
  const auto a2 = pool.acquire(kA, 256, SimTime::seconds(5));
  EXPECT_EQ(a2.kind, AcquireResult::Kind::kCold);
}

TEST(ContainerPool, RejectsWhenAllBusy) {
  auto pool = make_pool(/*max_containers=*/2);
  const auto a = pool.acquire(kA, 256, SimTime::zero());
  pool.mark_running(a.container, SimTime::zero());
  const auto b = pool.acquire(kB, 256, SimTime::zero());
  pool.mark_running(b.container, SimTime::zero());
  const auto c = pool.acquire(kC, 256, SimTime::zero());
  EXPECT_EQ(c.kind, AcquireResult::Kind::kRejected);
  EXPECT_EQ(pool.counters().rejections, 1u);
}

TEST(ContainerPool, RejectsOversizedFunction) {
  auto pool = make_pool(4, /*memory_mb=*/1024);
  const auto r = pool.acquire(kHuge, 2048, SimTime::zero());
  EXPECT_EQ(r.kind, AcquireResult::Kind::kRejected);
}

TEST(ContainerPool, MemoryBudgetForcesEviction) {
  auto pool = make_pool(/*max_containers=*/10, /*memory_mb=*/1024);
  const auto a = pool.acquire(kA, 512, SimTime::zero());
  pool.mark_running(a.container, SimTime::zero());
  pool.release(a.container, SimTime::zero());
  const auto b = pool.acquire(kB, 512, SimTime::zero());
  pool.mark_running(b.container, SimTime::zero());
  // 1024 MB used; c (512) requires evicting the idle a.
  const auto c = pool.acquire(kC, 512, SimTime::zero());
  EXPECT_EQ(c.kind, AcquireResult::Kind::kCold);
  EXPECT_EQ(pool.memory_in_use_mb(), 1024);
  EXPECT_EQ(pool.counters().evictions, 1u);
}

TEST(ContainerPool, ReapIdleRemovesOnlyStale) {
  auto pool = make_pool();
  const auto a = pool.acquire(kA, 256, SimTime::zero());
  pool.mark_running(a.container, SimTime::zero());
  pool.release(a.container, SimTime::minutes(1));
  const auto b = pool.acquire(kB, 256, SimTime::minutes(12));
  pool.mark_running(b.container, SimTime::minutes(12));
  pool.release(b.container, SimTime::minutes(12));
  // a idle since minute 1 (> 10 min ago), b fresh.
  EXPECT_EQ(pool.reap_idle(SimTime::minutes(13)), 1u);
  EXPECT_EQ(pool.total_containers(), 1u);
}

TEST(ContainerPool, ClearDropsEverything) {
  auto pool = make_pool();
  const auto a = pool.acquire(kA, 256, SimTime::zero());
  pool.mark_running(a.container, SimTime::zero());
  (void)pool.acquire(kB, 256, SimTime::zero());
  pool.clear();
  EXPECT_EQ(pool.total_containers(), 0u);
  EXPECT_EQ(pool.busy_containers(), 0u);
  EXPECT_EQ(pool.memory_in_use_mb(), 0);
}

TEST(ContainerPool, RemoveBusyContainer) {
  auto pool = make_pool();
  const auto a = pool.acquire(kA, 256, SimTime::zero());
  pool.mark_running(a.container, SimTime::zero());
  EXPECT_EQ(pool.busy_containers(), 1u);
  pool.remove(a.container);
  EXPECT_EQ(pool.busy_containers(), 0u);
  EXPECT_EQ(pool.total_containers(), 0u);
}

TEST(ContainerPool, CountersTrackKinds) {
  auto pool = make_pool();
  const auto a = pool.acquire(kA, 256, SimTime::zero());
  pool.mark_running(a.container, SimTime::zero());
  pool.release(a.container, SimTime::zero());
  (void)pool.acquire(kA, 256, SimTime::zero());
  EXPECT_EQ(pool.counters().cold_starts, 1u);
  EXPECT_EQ(pool.counters().warm_hits, 1u);
}

TEST(RuntimeProfile, SingularityIsRootless) {
  EXPECT_FALSE(RuntimeProfile::singularity().requires_root_daemon());
  EXPECT_TRUE(RuntimeProfile::docker().requires_root_daemon());
}

TEST(RuntimeProfile, ColdStartUnderHalfSecondTypically) {
  // Sec. II: a container "is created usually in less than 500 ms".
  auto profile = RuntimeProfile::singularity();
  Rng rng{2};
  int under = 0;
  for (int i = 0; i < 1000; ++i) {
    if (profile.sample_cold_start(rng) < SimTime::millis(500)) ++under;
  }
  EXPECT_GT(under, 900);
}

}  // namespace
}  // namespace hpcwhisk::runtime
