// Recovery paths of the controller/invoker pair under failure injection:
//  * an unresponsive invoker that heartbeats again is readmitted;
//  * the watchdog re-submits the in-flight work of a vanished invoker to
//    the fast lane (not just its unpulled backlog);
//  * duplicate message delivery is idempotent via deliverable().

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
    registry.put(fixed_duration_function("fast", SimTime::millis(10)));
    registry.put(fixed_duration_function("slow", SimTime::minutes(2)));
  }

  std::unique_ptr<Invoker> make_invoker(std::uint64_t seed = 42) {
    return std::make_unique<Invoker>(sim, broker, registry, controller,
                                     Invoker::Config{}, Rng{seed});
  }
};

TEST(Recovery, StalledInvokerIsFlaggedThenReadmittedOnThaw) {
  Fixture f;
  auto inv = f.make_invoker();
  inv->start();
  f.sim.run_until(SimTime::seconds(4));
  ASSERT_EQ(f.controller.invoker_health(inv->id()), InvokerHealth::kHealthy);

  // Freeze for 30 s: more than 3 missed heartbeats at 2 s.
  inv->stall(SimTime::seconds(30));
  EXPECT_TRUE(inv->stalled());
  f.sim.run_until(SimTime::seconds(20));
  EXPECT_EQ(f.controller.invoker_health(inv->id()),
            InvokerHealth::kUnresponsive);
  EXPECT_GE(f.controller.counters().unresponsive_detected, 1u);

  // The thaw heartbeats immediately: readmission without waiting for the
  // next heartbeat period.
  f.sim.run_until(SimTime::seconds(35));
  EXPECT_FALSE(inv->stalled());
  EXPECT_EQ(f.controller.invoker_health(inv->id()), InvokerHealth::kHealthy);
  EXPECT_EQ(f.controller.healthy_count(), 1u);

  // The readmitted invoker serves again.
  const auto result = f.controller.submit("fast");
  ASSERT_TRUE(result.accepted);
  f.sim.run_until(SimTime::seconds(40));
  EXPECT_EQ(f.controller.activation(result.activation).state,
            ActivationState::kCompleted);
}

TEST(Recovery, StallPreservesExecutionRemainingTime) {
  Fixture f;
  auto inv = f.make_invoker();
  inv->start();
  const auto result = f.controller.submit("slow");  // 2 min body
  ASSERT_TRUE(result.accepted);
  f.sim.run_until(SimTime::seconds(30));  // well into the execution
  ASSERT_EQ(f.controller.activation(result.activation).state,
            ActivationState::kRunning);

  inv->stall(SimTime::seconds(45));
  f.sim.run_until(SimTime::minutes(4));
  const auto& rec = f.controller.activation(result.activation);
  EXPECT_EQ(rec.state, ActivationState::kCompleted);
  // A 2 min body + 45 s freeze ends ~2m45s + startup after submit; a
  // restart-from-zero would instead finish near 3m15s+.
  EXPECT_LT(rec.end_time, SimTime::minutes(3));
  EXPECT_GE(rec.end_time, SimTime::minutes(2) + SimTime::seconds(45));
}

TEST(Recovery, WatchdogRescuesInFlightWorkOfDeadInvoker) {
  Fixture f;
  auto victim = f.make_invoker(1);
  victim->start();
  const auto result = f.controller.submit("slow");
  ASSERT_TRUE(result.accepted);
  f.sim.run_until(SimTime::seconds(10));
  ASSERT_EQ(f.controller.activation(result.activation).state,
            ActivationState::kRunning);
  ASSERT_EQ(f.controller.activation(result.activation).executed_by,
            victim->id());

  // A second invoker joins, then the first dies mid-execution with no
  // hand-off. Its topic backlog is empty — the activation lives only in
  // its running set, so only the in-flight rescue can save it.
  auto rescuer = f.make_invoker(2);
  rescuer->start();
  const InvokerId victim_id = victim->id();
  victim->hard_kill();
  f.sim.run_until(SimTime::minutes(4));

  EXPECT_EQ(f.controller.invoker_health(victim_id),
            InvokerHealth::kUnresponsive);
  const auto& rec = f.controller.activation(result.activation);
  EXPECT_GE(rec.requeues, 1u) << "watchdog must re-submit in-flight work";
  EXPECT_EQ(rec.state, ActivationState::kCompleted)
      << "the rescuer must finish the re-submitted activation";
  EXPECT_EQ(rec.executed_by, rescuer->id());
  EXPECT_GE(f.controller.counters().requeued, 1u);
}

TEST(Recovery, DuplicateDeliveryAfterCompletionIsDropped) {
  Fixture f;
  auto inv = f.make_invoker();
  inv->start();
  const auto result = f.controller.submit("fast");
  ASSERT_TRUE(result.accepted);
  f.sim.run_until(SimTime::seconds(5));
  ASSERT_EQ(f.controller.activation(result.activation).state,
            ActivationState::kCompleted);
  ASSERT_EQ(inv->counters().executed, 1u);

  // A stale duplicate (e.g. an mq duplication fault) arrives afterwards.
  mq::Message dup;
  dup.id = result.activation;
  f.broker.fast_lane().publish(dup, f.sim.now());
  f.sim.run_until(SimTime::seconds(10));

  EXPECT_EQ(inv->counters().executed, 1u) << "terminal work must not rerun";
  EXPECT_GE(inv->counters().dropped_undeliverable, 1u);
  EXPECT_EQ(f.controller.counters().completed, 1u);
}

TEST(Recovery, DuplicateDeliveryWhilePendingCompletesExactlyOnce) {
  Fixture f;
  auto inv = f.make_invoker();
  inv->start();
  const auto result = f.controller.submit("fast");
  ASSERT_TRUE(result.accepted);
  // Duplicate lands before the original was even pulled: both copies may
  // execute (at-least-once), but the activation terminates exactly once.
  mq::Message dup;
  dup.id = result.activation;
  f.broker.fast_lane().publish(dup, f.sim.now());
  f.sim.run_until(SimTime::seconds(10));

  EXPECT_EQ(f.controller.activation(result.activation).state,
            ActivationState::kCompleted);
  EXPECT_EQ(f.controller.counters().completed, 1u);
}

}  // namespace
}  // namespace hpcwhisk::whisk
