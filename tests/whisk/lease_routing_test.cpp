// Lease-based serving tier, end to end at the whisk layer: hot functions
// earn a lease and later calls bypass the topic queue through the direct
// seam; saturated workers fall back to the queue path without losing the
// lease; departures (drain, hard kill) revoke every lease on the worker.

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
  Controller controller;

  static Controller::Config lease_on() {
    Controller::Config cfg;
    cfg.lease.enabled = true;
    return cfg;
  }

  explicit Fixture(Controller::Config cfg = lease_on())
      : controller{sim, broker, registry, cfg} {
    registry.put(fixed_duration_function("fast", SimTime::millis(10)));
    registry.put(fixed_duration_function("slow", SimTime::minutes(2)));
  }

  std::unique_ptr<Invoker> make_invoker(Invoker::Config cfg = {}) {
    return std::make_unique<Invoker>(sim, broker, registry, controller, cfg,
                                     Rng{42});
  }

  /// Submits `function` `calls` times, `gap` apart, running the clock in
  /// between; returns the activation ids.
  std::vector<ActivationId> drive(const std::string& function, int calls,
                                  SimTime gap = SimTime::millis(200)) {
    std::vector<ActivationId> ids;
    for (int i = 0; i < calls; ++i) {
      const auto r = controller.submit(function);
      EXPECT_TRUE(r.accepted);
      if (r.accepted) ids.push_back(r.activation);
      sim.run_until(sim.now() + gap);
    }
    return ids;
  }
};

TEST(LeaseRouting, DisabledByDefaultKeepsLegacyPath) {
  Fixture f{Controller::Config{}};
  auto inv = f.make_invoker();
  inv->start();
  (void)f.drive("fast", 6);
  f.sim.run_until(SimTime::seconds(10));
  EXPECT_EQ(f.controller.lease_manager(), nullptr);
  EXPECT_EQ(f.controller.counters().lease_hits, 0u);
  EXPECT_EQ(f.controller.counters().lease_granted, 0u);
  EXPECT_EQ(f.controller.counters().lease_fallback, 0u);
  EXPECT_EQ(inv->counters().direct_invocations, 0u);
  EXPECT_EQ(f.controller.counters().completed, 6u);
}

TEST(LeaseRouting, HotFunctionEarnsLeaseThenBypassesTheQueue) {
  Fixture f;
  auto inv = f.make_invoker();
  inv->start();
  const auto ids = f.drive("fast", 10);
  f.sim.run_until(SimTime::seconds(30));
  // Arrivals 1-2 are below kMinArrivals, the 3rd routes normally and
  // grants; every later call goes through the seam.
  EXPECT_EQ(f.controller.counters().lease_granted, 1u);
  EXPECT_EQ(f.controller.counters().lease_hits, 7u);
  EXPECT_EQ(inv->counters().direct_invocations, 7u);
  ASSERT_NE(f.controller.lease_manager(), nullptr);
  EXPECT_EQ(f.controller.lease_manager()->stats().hits, 7u);
  EXPECT_EQ(f.controller.lease_manager()->lease_count(), 1u);
  for (const ActivationId id : ids) {
    EXPECT_EQ(f.controller.activation(id).state, ActivationState::kCompleted);
  }
  // The direct path always lands on a warm container: cold/prewarm
  // starts can only come from the pre-grant queue calls (the second call
  // may race the first call's still-booting container), never from the
  // 7 hits.
  const auto& pc = inv->pool().counters();
  EXPECT_LE(pc.cold_starts + pc.prewarm_hits, 3u);
  EXPECT_GE(pc.warm_hits, 7u);
  EXPECT_EQ(pc.warm_hits + pc.prewarm_hits + pc.cold_starts, 10u);
}

TEST(LeaseRouting, LeasedCallsPinToOneInvoker) {
  Fixture f;
  auto a = f.make_invoker();
  auto b = f.make_invoker();
  a->start();
  b->start();
  const auto ids = f.drive("fast", 12);
  f.sim.run_until(SimTime::seconds(30));
  ASSERT_GE(f.controller.counters().lease_hits, 8u);
  // Every call after the grant executed on the same (leased) invoker.
  const auto& pinned = f.controller.activation(ids[4]);
  ASSERT_EQ(pinned.state, ActivationState::kCompleted);
  for (std::size_t i = 4; i < ids.size(); ++i) {
    const auto& rec = f.controller.activation(ids[i]);
    EXPECT_EQ(rec.state, ActivationState::kCompleted);
    EXPECT_EQ(rec.executed_by, pinned.executed_by) << "call " << i;
  }
}

TEST(LeaseRouting, BusyWorkerFallsBackToQueueAndKeepsTheLease) {
  Fixture f;
  Invoker::Config cfg;
  cfg.max_concurrent = 1;  // the dispatch gate closes while slow runs
  auto inv = f.make_invoker(cfg);
  inv->start();
  (void)f.drive("fast", 5);
  ASSERT_EQ(f.controller.lease_manager()->lease_count(), 1u);
  const auto before = f.controller.counters().lease_fallback;
  // Occupy the single execution slot, then call the leased function: the
  // seam refuses, the call pays the queue path, the lease survives.
  (void)f.controller.submit("slow");
  f.sim.run_until(f.sim.now() + SimTime::seconds(2));
  ASSERT_EQ(inv->running_executions(), 1u);
  const auto r = f.controller.submit("fast");
  ASSERT_TRUE(r.accepted);
  EXPECT_EQ(f.controller.counters().lease_fallback, before + 1);
  EXPECT_EQ(f.controller.lease_manager()->lease_count(), 1u);
  EXPECT_EQ(f.controller.lease_manager()->stats().revoked, 0u);
}

TEST(LeaseRouting, FullPoolFallsBackInsteadOfEvicting) {
  Fixture f;
  Invoker::Config cfg;
  cfg.pool.max_containers = 1;  // tiny node: one container total
  cfg.pool.prewarm_count = 0;
  auto inv = f.make_invoker(cfg);
  inv->start();
  (void)f.drive("fast", 5);
  ASSERT_EQ(f.controller.lease_manager()->lease_count(), 1u);
  const auto evictions_before = inv->pool().counters().evictions;
  // "slow" evicts fast's idle container (queue path may do that); now the
  // pool is full and busy, so a direct call would cold-start at best —
  // the seam must refuse rather than storm the pool.
  (void)f.controller.submit("slow");
  f.sim.run_until(f.sim.now() + SimTime::seconds(2));
  ASSERT_EQ(inv->pool().busy_containers(), 1u);
  const auto before = f.controller.counters().lease_fallback;
  (void)f.controller.submit("fast");
  EXPECT_EQ(f.controller.counters().lease_fallback, before + 1);
  EXPECT_EQ(f.controller.lease_manager()->lease_count(), 1u);
  // The fallback itself never evicted anything.
  EXPECT_EQ(inv->pool().counters().evictions, evictions_before + 1);
}

TEST(LeaseRouting, DrainRevokesEveryLeaseOnTheWorker) {
  Fixture f;
  auto inv = f.make_invoker();
  inv->start();
  (void)f.drive("fast", 5);
  ASSERT_EQ(f.controller.lease_manager()->lease_count(), 1u);
  inv->sigterm([] {});
  EXPECT_EQ(f.controller.lease_manager()->lease_count(), 0u);
  EXPECT_GE(f.controller.lease_manager()->stats().revoked, 1u);
}

TEST(LeaseRouting, HardKillRevokesViaTheWatchdog) {
  Fixture f;
  auto inv = f.make_invoker();
  inv->start();
  (void)f.drive("fast", 5);
  ASSERT_EQ(f.controller.lease_manager()->lease_count(), 1u);
  inv->hard_kill();
  // 3 missed heartbeats at 2 s + watchdog cadence: well inside 15 s.
  f.sim.run_until(f.sim.now() + SimTime::seconds(15));
  EXPECT_GE(f.controller.counters().unresponsive_detected, 1u);
  EXPECT_EQ(f.controller.lease_manager()->lease_count(), 0u);
  EXPECT_GE(f.controller.lease_manager()->stats().revoked, 1u);
}

TEST(LeaseRouting, ReGrantsOnANewInvokerAfterRevocation) {
  Fixture f;
  auto a = f.make_invoker();
  a->start();
  (void)f.drive("fast", 5);
  ASSERT_EQ(f.controller.lease_manager()->lease_count(), 1u);
  a->sigterm([] {});
  ASSERT_EQ(f.controller.lease_manager()->lease_count(), 0u);
  auto b = f.make_invoker();
  b->start();
  const auto granted_before = f.controller.lease_manager()->stats().granted;
  (void)f.drive("fast", 4);
  f.sim.run_until(f.sim.now() + SimTime::seconds(10));
  // Still hot: the first routed call re-leases on the survivor.
  EXPECT_EQ(f.controller.lease_manager()->stats().granted, granted_before + 1);
  EXPECT_EQ(f.controller.lease_manager()->lease_count(), 1u);
}

}  // namespace
}  // namespace hpcwhisk::whisk
