#include "hpcwhisk/lease/lease_manager.hpp"

#include <gtest/gtest.h>

namespace hpcwhisk::lease {
namespace {

using sim::SimTime;

// Functions are keyed by their dense registry index.
constexpr FunctionKey kF = 0;
constexpr FunctionKey kHotFn = 1;
constexpr FunctionKey kWarmFn = 2;
constexpr FunctionKey kColdFn = 3;
constexpr FunctionKey kA = 4;
constexpr FunctionKey kB = 5;
constexpr FunctionKey kC = 6;

/// Feeds `n` arrivals spaced `gap` apart starting at `start`; returns the
/// time of the last arrival.
SimTime feed(LeaseManager& lm, FunctionKey fn, SimTime start,
             SimTime gap, int n) {
  SimTime t = start;
  for (int i = 0; i < n; ++i) {
    lm.observe_arrival(fn, t);
    t = t + gap;
  }
  return t - gap;
}

TEST(LeaseManagerTest, TierNeedsMinArrivals) {
  LeaseManager lm;
  EXPECT_EQ(lm.tier(kF), Tier::kCold);
  lm.observe_arrival(kF, SimTime::seconds(1));
  lm.observe_arrival(kF, SimTime::seconds(1) + SimTime::millis(100));
  EXPECT_EQ(lm.tier(kF), Tier::kCold);  // 2 arrivals < kMinArrivals
  lm.observe_arrival(kF, SimTime::seconds(1) + SimTime::millis(200));
  EXPECT_EQ(lm.tier(kF), Tier::kHot);
}

TEST(LeaseManagerTest, TieringFollowsInterArrival) {
  LeaseManager lm;
  feed(lm, kHotFn, SimTime::seconds(1), SimTime::millis(100), 5);
  feed(lm, kWarmFn, SimTime::seconds(1), SimTime::seconds(2), 5);
  feed(lm, kColdFn, SimTime::seconds(1), SimTime::seconds(60), 5);
  EXPECT_EQ(lm.tier(kHotFn), Tier::kHot);
  EXPECT_EQ(lm.tier(kWarmFn), Tier::kWarm);
  EXPECT_EQ(lm.tier(kColdFn), Tier::kCold);
  EXPECT_GT(lm.interarrival(kWarmFn), lm.interarrival(kHotFn));
}

TEST(LeaseManagerTest, AcquireFindRenewRevoke) {
  LeaseManager lm;
  const SimTime t0 = SimTime::seconds(10);
  const Lease* l = lm.acquire(kF, 3, t0);
  ASSERT_NE(l, nullptr);
  EXPECT_EQ(l->worker, 3u);
  EXPECT_EQ(l->expires_at, t0 + kLeaseTerm);
  EXPECT_EQ(lm.lease_count(), 1u);
  EXPECT_EQ(lm.leases_on(3), 1u);

  // A second acquire for the same function is refused.
  EXPECT_EQ(lm.acquire(kF, 4, t0), nullptr);

  // find() before expiry returns the lease; renew extends it.
  EXPECT_NE(lm.find(kF, t0 + SimTime::seconds(29)), nullptr);
  EXPECT_TRUE(lm.renew(kF, t0 + SimTime::seconds(29)));
  EXPECT_NE(lm.find(kF, t0 + SimTime::seconds(58)), nullptr);

  EXPECT_TRUE(lm.revoke(kF));
  EXPECT_FALSE(lm.revoke(kF));
  EXPECT_EQ(lm.lease_count(), 0u);
  EXPECT_EQ(lm.leases_on(3), 0u);
  EXPECT_EQ(lm.stats().granted, 1u);
  EXPECT_EQ(lm.stats().revoked, 1u);
}

TEST(LeaseManagerTest, ExpiryIsLazy) {
  LeaseManager lm;
  const SimTime t0 = SimTime::seconds(10);
  ASSERT_NE(lm.acquire(kF, 0, t0), nullptr);
  // Past the term: the lookup itself lapses the lease.
  EXPECT_EQ(lm.find(kF, t0 + SimTime::seconds(31)), nullptr);
  EXPECT_EQ(lm.lease_count(), 0u);
  EXPECT_EQ(lm.stats().expired, 1u);
  // The function can re-acquire afterwards.
  EXPECT_NE(lm.acquire(kF, 1, t0 + SimTime::seconds(32)), nullptr);
}

TEST(LeaseManagerTest, OnHitAutoRenews) {
  LeaseManager lm;
  const SimTime t0 = SimTime::seconds(10);
  ASSERT_NE(lm.acquire(kF, 0, t0), nullptr);
  const SimTime t1 = t0 + SimTime::seconds(20);
  lm.on_hit(kF, t1);
  EXPECT_EQ(lm.stats().hits, 1u);
  EXPECT_EQ(lm.stats().renewed, 1u);
  const Lease* l = lm.find(kF, t1 + SimTime::seconds(29));
  ASSERT_NE(l, nullptr);
  EXPECT_EQ(l->hits, 1u);
  EXPECT_EQ(l->expires_at, t1 + kLeaseTerm);
}

TEST(LeaseManagerTest, PerWorkerCap) {
  LeaseManager lm;
  const SimTime t0 = SimTime::seconds(1);
  constexpr FunctionKey kFirst = 10;
  const auto cap = static_cast<FunctionKey>(kMaxLeasesPerWorker);
  for (FunctionKey fn = kFirst; fn < kFirst + cap; ++fn)
    EXPECT_NE(lm.acquire(fn, 7, t0), nullptr);
  EXPECT_EQ(lm.leases_on(7), kMaxLeasesPerWorker);
  EXPECT_EQ(lm.acquire(kC, 7, t0), nullptr);  // worker 7 full
  EXPECT_NE(lm.acquire(kC, 8, t0), nullptr);  // another worker is fine
}

TEST(LeaseManagerTest, RevokeWorkerDropsAllItsLeases) {
  LeaseManager lm;
  const SimTime t0 = SimTime::seconds(1);
  ASSERT_NE(lm.acquire(kA, 7, t0), nullptr);
  ASSERT_NE(lm.acquire(kB, 7, t0), nullptr);
  ASSERT_NE(lm.acquire(kC, 8, t0), nullptr);
  EXPECT_EQ(lm.revoke_worker(7), 2u);
  EXPECT_EQ(lm.lease_count(), 1u);
  EXPECT_EQ(lm.leases_on(7), 0u);
  EXPECT_NE(lm.find(kC, t0), nullptr);
  EXPECT_EQ(lm.stats().revoked, 2u);
  EXPECT_EQ(lm.revoke_worker(7), 0u);
}

TEST(LeaseManagerTest, DeterministicAcrossInstances) {
  // Same call sequence => same lease ids, tiers and stats: the manager is
  // a pure fold, which is what lets SimCheck sample lease mode.
  auto run = [](LeaseManager& lm) {
    feed(lm, kF, SimTime::seconds(1), SimTime::millis(100), 5);
    (void)lm.acquire(kF, 2, SimTime::seconds(2));
    lm.on_hit(kF, SimTime::seconds(3));
    (void)lm.find(kF, SimTime::seconds(40));
  };
  LeaseManager a;
  LeaseManager b;
  run(a);
  run(b);
  EXPECT_EQ(a.stats().granted, b.stats().granted);
  EXPECT_EQ(a.stats().hits, b.stats().hits);
  EXPECT_EQ(a.stats().expired, b.stats().expired);
  EXPECT_EQ(a.interarrival(kF), b.interarrival(kF));
}

}  // namespace
}  // namespace hpcwhisk::lease
