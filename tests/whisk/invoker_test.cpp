#include "hpcwhisk/whisk/invoker.hpp"

#include <gtest/gtest.h>

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
    FunctionSpec slow = fixed_duration_function("slow", SimTime::minutes(2));
    registry.put(slow);
    FunctionSpec pinned = fixed_duration_function("pinned", SimTime::minutes(2));
    pinned.interruptible = false;
    registry.put(pinned);
  }

  std::unique_ptr<Invoker> make_invoker(Invoker::Config cfg = {}) {
    return std::make_unique<Invoker>(sim, broker, registry, controller, cfg,
                                     Rng{42});
  }
};

TEST(Invoker, StartRegistersWithController) {
  Fixture f;
  auto inv = f.make_invoker();
  EXPECT_FALSE(inv->started());
  inv->start();
  EXPECT_TRUE(inv->started());
  EXPECT_EQ(f.controller.healthy_count(), 1u);
}

TEST(Invoker, ExecutesSubmittedActivation) {
  Fixture f;
  auto inv = f.make_invoker();
  inv->start();
  const auto result = f.controller.submit("fast");
  ASSERT_TRUE(result.accepted);
  f.sim.run_until(SimTime::seconds(5));
  const auto& rec = f.controller.activation(result.activation);
  EXPECT_EQ(rec.state, ActivationState::kCompleted);
  EXPECT_TRUE(rec.cold_start);
  EXPECT_EQ(inv->counters().executed, 1u);
  // Response = poll delay + cold start + 10 ms body; well under 2 s.
  EXPECT_LT(rec.response_time(), SimTime::seconds(2));
}

TEST(Invoker, SecondCallHitsWarmContainer) {
  Fixture f;
  auto inv = f.make_invoker();
  inv->start();
  const auto first = f.controller.submit("fast");
  f.sim.run_until(SimTime::seconds(5));
  const auto second = f.controller.submit("fast");
  f.sim.run_until(SimTime::seconds(10));
  EXPECT_TRUE(f.controller.activation(first.activation).cold_start);
  EXPECT_FALSE(f.controller.activation(second.activation).cold_start);
  // Warm path is visibly faster.
  EXPECT_LT(f.controller.activation(second.activation).response_time(),
            f.controller.activation(first.activation).response_time());
}

TEST(Invoker, FastLaneConsumedBeforeOwnTopic) {
  Fixture f;
  Invoker::Config cfg;
  cfg.max_concurrent = 1;  // serialize dispatch so pull order is visible
  auto inv = f.make_invoker(cfg);
  inv->start();
  // Two activations: one direct, one planted in the fast lane *after* the
  // direct one. The fast-lane one must start first on the next poll.
  const auto direct = f.controller.submit("fast");
  const auto planted = f.controller.submit("fast");
  // Move the second message from the invoker topic to the fast lane by
  // draining it manually (simulating another invoker's hand-off).
  auto msgs = f.broker.topic(Controller::invoker_topic_name(inv->id())).drain();
  ASSERT_EQ(msgs.size(), 2u);
  // Put the direct one back in the invoker topic, the planted one in the
  // fast lane. The planted message should still win.
  f.broker.topic(Controller::invoker_topic_name(inv->id()))
      .publish(msgs[0], f.sim.now());
  f.broker.fast_lane().publish(msgs[1], f.sim.now());
  f.sim.run_until(SimTime::seconds(5));
  const auto& direct_rec = f.controller.activation(direct.activation);
  const auto& planted_rec = f.controller.activation(planted.activation);
  EXPECT_EQ(direct_rec.state, ActivationState::kCompleted);
  EXPECT_EQ(planted_rec.state, ActivationState::kCompleted);
  EXPECT_LE(planted_rec.start_time, direct_rec.start_time);
}

TEST(Invoker, SigtermRequeuesBufferedWork) {
  Fixture f;
  Invoker::Config cfg;
  cfg.max_concurrent = 1;  // force queueing in the buffer
  auto inv = f.make_invoker(cfg);
  inv->start();
  std::vector<ActivationId> ids;
  for (int i = 0; i < 5; ++i) {
    const auto result = f.controller.submit("slow");
    ASSERT_TRUE(result.accepted);
    ids.push_back(result.activation);
  }
  f.sim.run_until(SimTime::seconds(10));  // one running, rest buffered/queued
  EXPECT_EQ(inv->running_executions(), 1u);

  bool drained = false;
  inv->sigterm([&] { drained = true; });
  f.sim.run_until(SimTime::seconds(11));
  EXPECT_TRUE(drained);  // "slow" is interruptible: drain is immediate
  EXPECT_TRUE(inv->dead());
  // Nothing lost: every activation is queued in the fast lane (requeued)
  // and none is terminal-failed.
  std::size_t queued = 0;
  for (const ActivationId id : ids) {
    const auto& rec = f.controller.activation(id);
    EXPECT_TRUE(rec.state == ActivationState::kQueued) << to_string(rec.state);
    ++queued;
  }
  EXPECT_EQ(queued, 5u);
  EXPECT_EQ(f.broker.fast_lane().size(), 5u);
}

TEST(Invoker, SigtermWaitsForNonInterruptibleWork) {
  Fixture f;
  auto inv = f.make_invoker();
  inv->start();
  const auto result = f.controller.submit("pinned");
  ASSERT_TRUE(result.accepted);
  f.sim.run_until(SimTime::seconds(10));
  ASSERT_EQ(inv->running_executions(), 1u);

  bool drained = false;
  inv->sigterm([&] { drained = true; });
  EXPECT_FALSE(drained);  // still running the pinned function
  EXPECT_TRUE(inv->draining());
  f.sim.run_until(SimTime::minutes(3));
  EXPECT_TRUE(drained);  // finished naturally, then drain completed
  EXPECT_EQ(f.controller.activation(result.activation).state,
            ActivationState::kCompleted);
}

TEST(Invoker, InterruptedExecutionRequeuedToFastLane) {
  Fixture f;
  auto inv = f.make_invoker();
  inv->start();
  const auto result = f.controller.submit("slow");
  f.sim.run_until(SimTime::seconds(30));  // mid-execution
  ASSERT_EQ(inv->running_executions(), 1u);
  bool drained = false;
  inv->sigterm([&] { drained = true; });
  EXPECT_TRUE(drained);
  EXPECT_EQ(inv->counters().interrupted, 1u);
  const auto& rec = f.controller.activation(result.activation);
  EXPECT_EQ(rec.state, ActivationState::kQueued);
  EXPECT_EQ(rec.interruptions, 1u);
  EXPECT_EQ(f.broker.fast_lane().size(), 1u);
}

TEST(Invoker, SigtermRequeuesInterruptedWorkInAscendingIdOrder) {
  // Executions start in a scrambled id order; the drain hand-off must
  // still interrupt and requeue them by ascending activation id, so the
  // fast lane's order never depends on where each execution was kept.
  Fixture f;
  auto inv = f.make_invoker();
  inv->start();
  for (int i = 0; i < 5; ++i)
    ASSERT_TRUE(f.controller.submit("slow").accepted);
  mq::Topic& own = f.broker.topic(Controller::invoker_topic_name(inv->id()));
  const std::vector<mq::Message> sent = own.drain();
  ASSERT_EQ(sent.size(), 5u);
  for (const std::size_t k : {3u, 0u, 4u, 1u, 2u})
    own.publish(sent[k], f.sim.now());
  f.sim.run_until(SimTime::seconds(30));  // all five mid-execution
  ASSERT_EQ(inv->running_executions(), 5u);

  inv->sigterm([] {});
  const std::vector<mq::Message> requeued = f.broker.fast_lane().drain();
  std::vector<ActivationId> order;
  for (const mq::Message& m : requeued) order.push_back(m.id);
  EXPECT_EQ(order, (std::vector<ActivationId>{0, 1, 2, 3, 4}));
  EXPECT_EQ(inv->counters().interrupted, 5u);
}

TEST(Invoker, RequeuedWorkPickedUpByAnotherInvoker) {
  Fixture f;
  auto a = f.make_invoker();
  a->start();
  const auto result = f.controller.submit("slow");
  f.sim.run_until(SimTime::seconds(30));
  a->sigterm([] {});
  // A second invoker arrives and picks the interrupted call from the
  // fast lane.
  auto b = f.make_invoker();
  b->start();
  f.sim.run_until(SimTime::minutes(5));
  const auto& rec = f.controller.activation(result.activation);
  EXPECT_EQ(rec.state, ActivationState::kCompleted);
  EXPECT_EQ(rec.executed_by, b->id());
}

TEST(Invoker, HardKillLosesWorkWhichTimesOut) {
  Fixture f;
  FunctionSpec fn = fixed_duration_function("doomed", SimTime::minutes(2));
  fn.timeout = SimTime::minutes(5);
  f.registry.put(fn);
  auto inv = f.make_invoker();
  inv->start();
  const auto result = f.controller.submit("doomed");
  f.sim.run_until(SimTime::seconds(30));
  inv->hard_kill();
  f.sim.run_until(SimTime::minutes(6));
  // Lost without hand-off: the client sees a timeout (stock-OpenWhisk
  // failure mode the paper fixes for graceful departures).
  EXPECT_EQ(f.controller.activation(result.activation).state,
            ActivationState::kTimedOut);
}

TEST(Invoker, CapacityRejectionFailsActivation) {
  Fixture f;
  Invoker::Config cfg;
  cfg.max_concurrent = 8;
  cfg.pool.max_containers = 2;  // tiny node: 3rd concurrent exec rejected
  auto inv = f.make_invoker(cfg);
  inv->start();
  std::vector<ActivationId> ids;
  for (int i = 0; i < 3; ++i) ids.push_back(f.controller.submit("slow").activation);
  f.sim.run_until(SimTime::seconds(10));
  std::size_t failed = 0;
  for (const auto id : ids) {
    if (f.controller.activation(id).state == ActivationState::kFailed) ++failed;
  }
  EXPECT_EQ(failed, 1u);
  EXPECT_EQ(inv->counters().capacity_failures, 1u);
  EXPECT_EQ(f.controller.counters().failed, 1u);
}

TEST(Invoker, DropsUndeliverableMessages) {
  Fixture f;
  FunctionSpec fn = fixed_duration_function("expiring", SimTime::millis(10));
  fn.timeout = SimTime::seconds(30);
  f.registry.put(fn);
  auto inv = f.make_invoker();
  // Submit while a registered invoker exists but is not yet polling...
  inv->start();
  const auto result = f.controller.submit("expiring");
  // Stall the message by draining it now and re-publishing it after the
  // timeout fires.
  auto msgs = f.broker.topic(Controller::invoker_topic_name(inv->id())).drain();
  ASSERT_EQ(msgs.size(), 1u);
  f.sim.run_until(SimTime::minutes(1));  // activation timed out meanwhile
  f.broker.topic(Controller::invoker_topic_name(inv->id()))
      .publish(msgs[0], f.sim.now());
  f.sim.run_until(SimTime::minutes(2));
  EXPECT_EQ(f.controller.activation(result.activation).state,
            ActivationState::kTimedOut);
  EXPECT_EQ(inv->counters().dropped_undeliverable, 1u);
  EXPECT_EQ(inv->counters().executed, 0u);
}

TEST(Invoker, SigtermDuringWarmupExitsImmediately) {
  Fixture f;
  auto inv = f.make_invoker();
  // Never started (still warming up in pilot terms).
  bool drained = false;
  inv->sigterm([&] { drained = true; });
  EXPECT_TRUE(drained);
  EXPECT_TRUE(inv->dead());
}

}  // namespace
}  // namespace hpcwhisk::whisk
