#include <gtest/gtest.h>

#include "hpcwhisk/runtime/container_pool.hpp"

namespace hpcwhisk::runtime {
namespace {

using sim::Rng;
using sim::SimTime;

// Functions are keyed by their dense registry index.
constexpr FunctionKey kF = 0;
constexpr FunctionKey kNeverSeen = 1;
constexpr FunctionKey kHotFn = 2;
constexpr FunctionKey kRareFn = 3;
constexpr FunctionKey kG = 4;
constexpr FunctionKey kH = 5;
constexpr FunctionKey kI = 6;
constexpr FunctionKey kSlowFn = 7;
constexpr FunctionKey kA = 8;
constexpr FunctionKey kB = 9;
constexpr FunctionKey kC = 10;
constexpr FunctionKey kD = 11;

ContainerPool make_pool(KeepAliveConfig ka, std::size_t max_containers = 8,
                        std::int64_t memory_mb = 8192) {
  ContainerPool::Config cfg;
  cfg.max_containers = max_containers;
  cfg.memory_mb = memory_mb;
  cfg.idle_timeout = SimTime::minutes(10);
  cfg.keep_alive = ka;
  cfg.prewarm_kind.clear();  // no stem cells unless a test asks
  return ContainerPool{cfg, RuntimeProfile::singularity(), Rng{1}};
}

/// One full acquire/run/release cycle at `now`.
void cycle(ContainerPool& pool, FunctionKey fn, SimTime now) {
  const auto r = pool.acquire(fn, 256, now);
  ASSERT_NE(r.kind, AcquireResult::Kind::kRejected);
  pool.mark_running(r.container, now);
  pool.release(r.container, now);
}

TEST(KeepAlivePolicyNames, RoundTrip) {
  for (const auto p : {KeepAlivePolicy::kFixed, KeepAlivePolicy::kAdaptive,
                       KeepAlivePolicy::kHybrid}) {
    const auto back = keep_alive_policy_from_string(to_string(p));
    ASSERT_TRUE(back.has_value());
    EXPECT_EQ(*back, p);
  }
  EXPECT_FALSE(keep_alive_policy_from_string("bogus").has_value());
}

TEST(KeepAliveFixed, TimeoutIsTheConfiguredConstant) {
  auto pool = make_pool(KeepAliveConfig{});  // kFixed
  cycle(pool, kF, SimTime::seconds(1));
  cycle(pool, kF, SimTime::seconds(2));
  // No arrival history is kept and the timeout never moves.
  EXPECT_EQ(pool.effective_idle_timeout(kF), SimTime::minutes(10));
  EXPECT_EQ(pool.effective_idle_timeout(kNeverSeen), SimTime::minutes(10));
}

TEST(KeepAliveAdaptive, TimeoutTracksInterArrival) {
  KeepAliveConfig ka;
  ka.policy = KeepAlivePolicy::kAdaptive;
  ka.margin = 4.0;
  ka.floor = SimTime::seconds(30);
  ka.ceiling = SimTime::minutes(20);
  auto pool = make_pool(ka);
  // Before any history the fixed timeout is the fallback.
  EXPECT_EQ(pool.effective_idle_timeout(kF), SimTime::minutes(10));
  // Steady one-minute gaps: timeout = margin * gap = 4 min.
  for (int i = 0; i < 6; ++i)
    cycle(pool, kF, SimTime::minutes(static_cast<double>(i)));
  EXPECT_EQ(pool.effective_idle_timeout(kF), SimTime::minutes(4));
}

TEST(KeepAliveAdaptive, ClampsToFloorAndCeiling) {
  KeepAliveConfig ka;
  ka.policy = KeepAlivePolicy::kAdaptive;
  ka.margin = 4.0;
  ka.floor = SimTime::seconds(30);
  ka.ceiling = SimTime::minutes(20);
  auto pool = make_pool(ka);
  // 100 ms gaps: 4 * 0.1 s = 0.4 s, below the 30 s floor.
  for (int i = 0; i < 6; ++i)
    cycle(pool, kHotFn, SimTime::millis(100.0 * static_cast<double>(i + 1)));
  EXPECT_EQ(pool.effective_idle_timeout(kHotFn), SimTime::seconds(30));
  // 30 min gaps: 4 * 30 min = 2 h, above the 20 min ceiling.
  for (int i = 0; i < 4; ++i)
    cycle(pool, kRareFn, SimTime::minutes(30.0 * static_cast<double>(i + 1)));
  EXPECT_EQ(pool.effective_idle_timeout(kRareFn), SimTime::minutes(20));
}

TEST(KeepAliveHybrid, PressureScalesTowardFloor) {
  KeepAliveConfig ka;
  ka.policy = KeepAlivePolicy::kHybrid;
  ka.margin = 4.0;
  ka.floor = SimTime::seconds(30);
  ka.ceiling = SimTime::minutes(20);
  ka.pressure_low = 0.5;
  ka.pressure_high = 1.0;
  auto pool = make_pool(ka, /*max_containers=*/4, /*memory_mb=*/8192);
  // One-minute gaps: adaptive base 4 min.
  for (int i = 0; i < 6; ++i)
    cycle(pool, kF, SimTime::minutes(static_cast<double>(i)));
  // One container of four: occupancy 0.25, below pressure_low — untouched.
  EXPECT_EQ(pool.effective_idle_timeout(kF), SimTime::minutes(4));
  // Fill to full occupancy: the timeout collapses to the floor.
  for (const FunctionKey fn : {kG, kH, kI}) {
    const auto r = pool.acquire(fn, 256, SimTime::minutes(6));
    pool.mark_running(r.container, SimTime::minutes(6));
  }
  EXPECT_EQ(pool.total_containers(), 4u);
  EXPECT_EQ(pool.effective_idle_timeout(kF), SimTime::seconds(30));
}

TEST(KeepAliveAdaptive, ReapHonorsPerFunctionTimeouts) {
  KeepAliveConfig ka;
  ka.policy = KeepAlivePolicy::kAdaptive;
  ka.margin = 4.0;
  ka.floor = SimTime::seconds(30);
  ka.ceiling = SimTime::minutes(20);
  auto pool = make_pool(ka);
  // kHotFn arrives every 10 s (timeout clamps to the 30 s... no: 40 s),
  // kSlowFn every 4 min (timeout 16 min).
  for (int i = 0; i < 6; ++i)
    cycle(pool, kHotFn, SimTime::seconds(10.0 * static_cast<double>(i + 1)));
  for (int i = 0; i < 3; ++i)
    cycle(pool, kSlowFn, SimTime::minutes(4.0 * static_cast<double>(i + 1)));
  ASSERT_EQ(pool.total_containers(), 2u);
  // At t=14min: hot idle since 60 s -> way past its 40 s timeout, reaped;
  // slow idle since 12 min -> inside its 16 min timeout, kept.
  EXPECT_EQ(pool.reap_idle(SimTime::minutes(14)), 1u);
  EXPECT_EQ(pool.total_containers(), 1u);
  EXPECT_TRUE(pool.has_warm_idle(kSlowFn, 256));
  EXPECT_FALSE(pool.has_warm_idle(kHotFn, 256));
}

TEST(ContainerPoolEviction, OldestIdleEvictedFirst) {
  auto pool = make_pool(KeepAliveConfig{}, /*max_containers=*/3);
  // Idle in age order: a (oldest), b, c.
  cycle(pool, kA, SimTime::seconds(1));
  cycle(pool, kB, SimTime::seconds(2));
  cycle(pool, kC, SimTime::seconds(3));
  // Cap reached: admitting d evicts exactly the LRU head (a).
  const auto d = pool.acquire(kD, 256, SimTime::seconds(4));
  EXPECT_EQ(d.kind, AcquireResult::Kind::kCold);
  EXPECT_EQ(pool.counters().evictions, 1u);
  EXPECT_FALSE(pool.has_warm_idle(kA, 256));
  EXPECT_TRUE(pool.has_warm_idle(kB, 256));
  EXPECT_TRUE(pool.has_warm_idle(kC, 256));
}

TEST(ContainerPoolEviction, WarmReuseRefreshesLruPosition) {
  auto pool = make_pool(KeepAliveConfig{}, /*max_containers=*/2);
  cycle(pool, kA, SimTime::seconds(1));
  cycle(pool, kB, SimTime::seconds(2));
  // Touch a again: b becomes the LRU head.
  cycle(pool, kA, SimTime::seconds(3));
  (void)pool.acquire(kC, 256, SimTime::seconds(4));
  EXPECT_TRUE(pool.has_warm_idle(kA, 256));
  EXPECT_FALSE(pool.has_warm_idle(kB, 256));
}

TEST(ContainerPoolEviction, StemCellsEvictBeforeWarmContainers) {
  ContainerPool::Config cfg;
  cfg.max_containers = 3;
  cfg.memory_mb = 8192;
  cfg.prewarm_kind = "python:3";
  cfg.prewarm_count = 2;
  ContainerPool pool{cfg, RuntimeProfile::singularity(), Rng{1}};
  pool.maintain_prewarm(SimTime::zero());
  ASSERT_EQ(pool.prewarmed_containers(), 2u);
  const auto a = pool.acquire(kA, 256, SimTime::seconds(1));
  ASSERT_EQ(a.kind, AcquireResult::Kind::kCold);  // wrong kind for stem cells
  pool.mark_running(a.container, SimTime::seconds(1));
  pool.release(a.container, SimTime::seconds(2));
  // Cap reached (2 stem + a). Admitting b must sacrifice a stem cell,
  // never the warm container.
  const auto b = pool.acquire(kB, 256, SimTime::seconds(3));
  EXPECT_EQ(b.kind, AcquireResult::Kind::kCold);
  EXPECT_EQ(pool.prewarmed_containers(), 1u);
  EXPECT_TRUE(pool.has_warm_idle(kA, 256));
}

TEST(ContainerPoolPrewarm, RefillNeverEvictsUnderPressure) {
  ContainerPool::Config cfg;
  cfg.max_containers = 2;
  cfg.memory_mb = 8192;
  cfg.prewarm_kind = "python:3";
  cfg.prewarm_count = 2;
  ContainerPool pool{cfg, RuntimeProfile::singularity(), Rng{1}};
  // Two busy containers occupy the whole cap.
  for (const FunctionKey fn : {kA, kB}) {
    const auto r = pool.acquire(fn, 256, SimTime::zero());
    pool.mark_running(r.container, SimTime::zero());
  }
  pool.maintain_prewarm(SimTime::seconds(1));
  EXPECT_EQ(pool.prewarmed_containers(), 0u);  // refused, nothing evicted
  EXPECT_EQ(pool.counters().evictions, 0u);
  EXPECT_EQ(pool.total_containers(), 2u);
}

TEST(ContainerPoolPrewarm, RefillStopsAtMemoryBudget) {
  ContainerPool::Config cfg;
  cfg.max_containers = 16;
  cfg.memory_mb = 900;  // room for one 256 MB stem cell next to 512 busy
  cfg.prewarm_kind = "python:3";
  cfg.prewarm_count = 4;
  cfg.prewarm_memory_mb = 256;
  ContainerPool pool{cfg, RuntimeProfile::singularity(), Rng{1}};
  const auto r = pool.acquire(kA, 512, SimTime::zero());
  pool.mark_running(r.container, SimTime::zero());
  pool.maintain_prewarm(SimTime::seconds(1));
  EXPECT_EQ(pool.prewarmed_containers(), 1u);  // 512 + 256 <= 900, +256 > 900
  EXPECT_EQ(pool.counters().evictions, 0u);
}

TEST(ContainerPoolProbes, HasWarmIdleAndCanAdmit) {
  auto pool = make_pool(KeepAliveConfig{}, /*max_containers=*/2,
                        /*memory_mb=*/512);
  EXPECT_FALSE(pool.has_warm_idle(kF, 256));
  EXPECT_TRUE(pool.can_admit(256));
  const auto r = pool.acquire(kF, 256, SimTime::zero());
  pool.mark_running(r.container, SimTime::zero());
  EXPECT_FALSE(pool.has_warm_idle(kF, 256));  // busy, not idle
  pool.release(r.container, SimTime::seconds(1));
  EXPECT_TRUE(pool.has_warm_idle(kF, 256));
  EXPECT_FALSE(pool.has_warm_idle(kF, 512));  // too small for 512
  // 256 of 512 MB in use: one more 256 fits, but not beyond the budget.
  EXPECT_TRUE(pool.can_admit(256));
  EXPECT_FALSE(pool.can_admit(512));
}

}  // namespace
}  // namespace hpcwhisk::runtime
