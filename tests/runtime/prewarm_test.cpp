// Stem-cell (prewarm) container pool behaviour.

#include <gtest/gtest.h>

#include "hpcwhisk/runtime/container_pool.hpp"

namespace hpcwhisk::runtime {
namespace {

using sim::Rng;
using sim::SimTime;

// Functions are keyed by their dense registry index.
constexpr FunctionKey kNewFn = 0;
constexpr FunctionKey kFn = 1;
constexpr FunctionKey kA = 2;
constexpr FunctionKey kB = 3;
constexpr FunctionKey kC = 4;

ContainerPool make_pool(std::size_t prewarm = 2, std::size_t cap = 8) {
  ContainerPool::Config cfg;
  cfg.max_containers = cap;
  cfg.memory_mb = 8192;
  cfg.prewarm_count = prewarm;
  return ContainerPool{cfg, RuntimeProfile::singularity(), Rng{1}};
}

TEST(Prewarm, MaintainCreatesStemCells) {
  auto pool = make_pool(3);
  EXPECT_EQ(pool.prewarmed_containers(), 0u);
  pool.maintain_prewarm(SimTime::zero());
  EXPECT_EQ(pool.prewarmed_containers(), 3u);
  EXPECT_EQ(pool.total_containers(), 3u);
  // Idempotent.
  pool.maintain_prewarm(SimTime::seconds(1));
  EXPECT_EQ(pool.prewarmed_containers(), 3u);
}

TEST(Prewarm, MatchingKindSpecializesInsteadOfColdStart) {
  auto pool = make_pool(2);
  pool.maintain_prewarm(SimTime::zero());
  // After boot (a few hundred ms) the stem cell is usable.
  const auto r = pool.acquire(kNewFn, "python:3", 128, SimTime::seconds(5));
  EXPECT_EQ(r.kind, AcquireResult::Kind::kPrewarmed);
  EXPECT_LT(r.start_latency, SimTime::millis(100));  // near-warm
  EXPECT_EQ(pool.prewarmed_containers(), 1u);
  EXPECT_EQ(pool.counters().prewarm_hits, 1u);
}

TEST(Prewarm, BootingStemCellNotUsableYet) {
  auto pool = make_pool(1);
  pool.maintain_prewarm(SimTime::zero());
  // Immediately after creation the stem cell is still booting: cold path.
  const auto r = pool.acquire(kFn, "python:3", 128, SimTime::millis(1));
  EXPECT_EQ(r.kind, AcquireResult::Kind::kCold);
}

TEST(Prewarm, MismatchedKindGoesCold) {
  auto pool = make_pool(2);
  pool.maintain_prewarm(SimTime::zero());
  const auto r = pool.acquire(kFn, "nodejs:18", 128, SimTime::seconds(5));
  EXPECT_EQ(r.kind, AcquireResult::Kind::kCold);
  EXPECT_EQ(pool.prewarmed_containers(), 2u);
}

TEST(Prewarm, WarmHitStillPreferredOverStemCell) {
  auto pool = make_pool(2);
  pool.maintain_prewarm(SimTime::zero());
  const auto first = pool.acquire(kFn, "python:3", 128, SimTime::seconds(5));
  pool.mark_running(first.container, SimTime::seconds(5));
  pool.release(first.container, SimTime::seconds(6));
  const auto second = pool.acquire(kFn, "python:3", 128, SimTime::seconds(7));
  EXPECT_EQ(second.kind, AcquireResult::Kind::kWarm);
  EXPECT_EQ(second.container, first.container);
}

TEST(Prewarm, StemCellsEvictedFirstUnderPressure) {
  auto pool = make_pool(2, /*cap=*/3);
  pool.maintain_prewarm(SimTime::zero());
  // Fill the cap with busy containers of another kind: stem cells are
  // sacrificed first.
  const auto a = pool.acquire(kA, "go:1", 512, SimTime::seconds(5));
  pool.mark_running(a.container, SimTime::seconds(5));
  const auto b = pool.acquire(kB, "go:1", 512, SimTime::seconds(5));
  pool.mark_running(b.container, SimTime::seconds(5));
  const auto c = pool.acquire(kC, "go:1", 512, SimTime::seconds(5));
  EXPECT_NE(c.kind, AcquireResult::Kind::kRejected);
  EXPECT_EQ(pool.prewarmed_containers(), 0u);
  EXPECT_GE(pool.counters().evictions, 2u);
}

TEST(Prewarm, NeverEvictsToCreateStemCells) {
  auto pool = make_pool(2, /*cap=*/2);
  const auto a = pool.acquire(kA, "go:1", 512, SimTime::zero());
  pool.mark_running(a.container, SimTime::zero());
  const auto b = pool.acquire(kB, "go:1", 512, SimTime::zero());
  pool.mark_running(b.container, SimTime::zero());
  pool.maintain_prewarm(SimTime::seconds(1));
  EXPECT_EQ(pool.prewarmed_containers(), 0u);  // no room, no eviction
}

TEST(Prewarm, DisabledWhenCountZero) {
  auto pool = make_pool(0);
  pool.maintain_prewarm(SimTime::zero());
  EXPECT_EQ(pool.prewarmed_containers(), 0u);
}

}  // namespace
}  // namespace hpcwhisk::runtime
