#include "hpcwhisk/whisk/controller.hpp"

#include <gtest/gtest.h>

#include <string>
#include <vector>

namespace hpcwhisk::whisk {
namespace {

using sim::SimTime;
using sim::Simulation;

// One record per call is the simulator's largest structure at hundreds
// of calls per second: keep it string-free and within one cache line.
static_assert(sizeof(ActivationRecord) <= 64);

struct Fixture {
  Simulation sim;
  mq::Broker broker;
  FunctionRegistry registry;
  Controller controller{sim, broker, registry};

  Fixture() {
    registry.put(fixed_duration_function("fn", SimTime::millis(10)));
    registry.put(fixed_duration_function("other", SimTime::millis(10)));
  }
};

TEST(Controller, Returns503WithNoInvokers) {
  Fixture f;
  const auto result = f.controller.submit("fn");
  EXPECT_FALSE(result.accepted);
  EXPECT_EQ(f.controller.counters().rejected_503, 1u);
  EXPECT_EQ(f.controller.activation(result.activation).state,
            ActivationState::kRejected503);
  EXPECT_EQ(f.controller.last_503_time(), SimTime::zero());
}

TEST(Controller, RoutesToRegisteredInvoker) {
  Fixture f;
  const InvokerId id = f.controller.register_invoker();
  const auto result = f.controller.submit("fn");
  ASSERT_TRUE(result.accepted);
  EXPECT_EQ(f.broker.topic(Controller::invoker_topic_name(id)).size(), 1u);
  EXPECT_EQ(f.controller.activation(result.activation).state,
            ActivationState::kQueued);
}

TEST(Controller, SameFunctionSameInvoker) {
  Fixture f;
  for (int i = 0; i < 4; ++i) f.controller.register_invoker();
  for (int i = 0; i < 10; ++i) ASSERT_TRUE(f.controller.submit("fn").accepted);
  // All ten messages must land on one topic (hash-based home invoker).
  int topics_with_messages = 0;
  for (InvokerId id = 0; id < 4; ++id) {
    if (!f.broker.topic(Controller::invoker_topic_name(id)).empty())
      ++topics_with_messages;
  }
  EXPECT_EQ(topics_with_messages, 1);
}

TEST(Controller, DrainingInvokerNotRouted) {
  Fixture f;
  const InvokerId a = f.controller.register_invoker();
  f.controller.begin_drain(a);
  const auto result = f.controller.submit("fn");
  EXPECT_FALSE(result.accepted);  // only invoker is draining -> 503
}

TEST(Controller, DrainMovesBacklogToFastLane) {
  Fixture f;
  const InvokerId a = f.controller.register_invoker();
  for (int i = 0; i < 5; ++i) ASSERT_TRUE(f.controller.submit("fn").accepted);
  EXPECT_EQ(f.broker.topic(Controller::invoker_topic_name(a)).size(), 5u);
  f.controller.begin_drain(a);
  EXPECT_TRUE(f.broker.topic(Controller::invoker_topic_name(a)).empty());
  EXPECT_EQ(f.broker.fast_lane().size(), 5u);
  EXPECT_EQ(f.controller.counters().requeued, 5u);
  // Requeues are recorded on the activation.
  const auto msg = f.broker.fast_lane().poll_one();
  ASSERT_TRUE(msg);
  EXPECT_EQ(f.controller.activation(msg->id).requeues, 1u);
}

TEST(Controller, ActivationLifecycleTimestamps) {
  Fixture f;
  const InvokerId a = f.controller.register_invoker();
  const auto result = f.controller.submit("fn");
  ASSERT_TRUE(result.accepted);
  f.sim.run_until(SimTime::seconds(1));
  f.controller.activation_started(result.activation, a, true);
  f.sim.run_until(SimTime::seconds(2));
  f.controller.activation_completed(result.activation);
  const auto& rec = f.controller.activation(result.activation);
  EXPECT_EQ(rec.state, ActivationState::kCompleted);
  EXPECT_EQ(rec.start_time, SimTime::seconds(1));
  EXPECT_EQ(rec.end_time, SimTime::seconds(2));
  EXPECT_EQ(rec.response_time(), SimTime::seconds(2));
  EXPECT_TRUE(rec.cold_start);
  EXPECT_EQ(rec.executed_by, a);
}

TEST(Controller, TimeoutFiresForUnservedActivation) {
  Fixture f;
  FunctionSpec slow = fixed_duration_function("slow", SimTime::millis(10));
  slow.timeout = SimTime::minutes(2);
  f.registry.put(slow);
  f.controller.register_invoker();
  const auto result = f.controller.submit("slow");
  ASSERT_TRUE(result.accepted);
  f.sim.run_until(SimTime::minutes(3));
  EXPECT_EQ(f.controller.activation(result.activation).state,
            ActivationState::kTimedOut);
  EXPECT_EQ(f.controller.counters().timed_out, 1u);
  EXPECT_FALSE(f.controller.deliverable(result.activation));
}

TEST(Controller, CompletionCancelsTimeout) {
  Fixture f;
  const InvokerId a = f.controller.register_invoker();
  const auto result = f.controller.submit("fn");
  f.controller.activation_started(result.activation, a, false);
  f.controller.activation_completed(result.activation);
  f.sim.run_until(SimTime::hours(1));
  EXPECT_EQ(f.controller.activation(result.activation).state,
            ActivationState::kCompleted);
  EXPECT_EQ(f.controller.counters().timed_out, 0u);
}

TEST(Controller, InterruptedActivationRequeuedNotLost) {
  Fixture f;
  const InvokerId a = f.controller.register_invoker();
  const auto result = f.controller.submit("fn");
  f.controller.activation_started(result.activation, a, false);
  f.controller.activation_interrupted(result.activation);
  const auto& rec = f.controller.activation(result.activation);
  EXPECT_EQ(rec.state, ActivationState::kQueued);
  EXPECT_EQ(rec.interruptions, 1u);
  EXPECT_TRUE(f.controller.deliverable(result.activation));
}

TEST(Controller, RequeueDropsTerminalActivations) {
  Fixture f;
  const InvokerId a = f.controller.register_invoker();
  const auto result = f.controller.submit("fn");
  f.controller.activation_started(result.activation, a, false);
  f.controller.activation_completed(result.activation);
  mq::Message msg;
  msg.id = result.activation;
  f.controller.requeue_to_fast_lane(msg);
  EXPECT_TRUE(f.broker.fast_lane().empty());
}

TEST(Controller, WatchdogDetectsSilentInvoker) {
  Fixture f;
  const InvokerId a = f.controller.register_invoker();
  ASSERT_TRUE(f.controller.submit("fn").accepted);
  // No heartbeats at all: after miss_limit * interval the invoker is
  // unresponsive and its backlog is rescued.
  f.sim.run_until(SimTime::seconds(30));
  EXPECT_EQ(f.controller.invoker_health(a), InvokerHealth::kUnresponsive);
  EXPECT_EQ(f.controller.counters().unresponsive_detected, 1u);
  EXPECT_EQ(f.broker.fast_lane().size(), 1u);
  EXPECT_EQ(f.controller.healthy_count(), 0u);
}

TEST(Controller, WatchdogVerdictFlipsAtTheMissDeadline) {
  // The edge any heartbeat model must reproduce (an invoker implying its
  // beats included): with no heartbeat since registration, the invoker
  // is healthy at every sweep up to and including registration +
  // kHeartbeatMissLimit x kHeartbeatInterval, and unresponsive at the
  // first sweep past it. Sweeps run every kWatchdogInterval from t = 0.
  for (const SimTime registered_at : {SimTime::zero(), SimTime::seconds(3)}) {
    Fixture f;
    f.sim.run_until(registered_at);
    const InvokerId a = f.controller.register_invoker();
    const SimTime deadline =
        registered_at + kHeartbeatInterval * kHeartbeatMissLimit;
    const SimTime last_sweep_before =
        (deadline / kWatchdogInterval) * kWatchdogInterval;
    const SimTime first_sweep_after = last_sweep_before + kWatchdogInterval;
    f.sim.run_until(last_sweep_before);
    EXPECT_EQ(f.controller.invoker_health(a), InvokerHealth::kHealthy)
        << "registered at " << registered_at.to_string();
    f.sim.run_until(first_sweep_after - SimTime::micros(1));
    EXPECT_EQ(f.controller.invoker_health(a), InvokerHealth::kHealthy)
        << "registered at " << registered_at.to_string();
    f.sim.run_until(first_sweep_after);
    EXPECT_EQ(f.controller.invoker_health(a), InvokerHealth::kUnresponsive)
        << "registered at " << registered_at.to_string();
    EXPECT_EQ(f.controller.counters().unresponsive_detected, 1u);
  }
}

TEST(Controller, HeartbeatsKeepInvokerHealthy) {
  Fixture f;
  const InvokerId a = f.controller.register_invoker();
  f.sim.every(kHeartbeatInterval, [&] { f.controller.heartbeat(a); });
  f.sim.run_until(SimTime::minutes(1));
  EXPECT_EQ(f.controller.invoker_health(a), InvokerHealth::kHealthy);
}

TEST(Controller, DeregisterRemovesFromRouting) {
  Fixture f;
  const InvokerId a = f.controller.register_invoker();
  const InvokerId b = f.controller.register_invoker();
  f.controller.begin_drain(a);
  f.controller.deregister(a);
  EXPECT_EQ(f.controller.invoker_health(a), InvokerHealth::kGone);
  EXPECT_EQ(f.controller.healthy_count(), 1u);
  const auto result = f.controller.submit("fn");
  ASSERT_TRUE(result.accepted);
  EXPECT_EQ(f.broker.topic(Controller::invoker_topic_name(b)).size(), 1u);
}

TEST(Controller, WatchdogSkipsGoneInvokersAndKeepsHealthyOrder) {
  // Six invokers: 1 and 3 leave, 4 goes silent, the rest heartbeat. The
  // sweep must flag only 4, leave the departed ones kGone, and the
  // healthy view must stay ascending through later joins and a
  // readmission.
  Fixture f;
  for (int i = 0; i < 6; ++i) f.controller.register_invoker();
  f.sim.every(SimTime::seconds(2), [&] {
    for (const InvokerId id : {0u, 2u, 5u}) f.controller.heartbeat(id);
  });
  f.controller.deregister(1);
  f.controller.deregister(3);
  f.sim.run_until(SimTime::minutes(1));
  EXPECT_EQ(f.controller.invoker_health(1), InvokerHealth::kGone);
  EXPECT_EQ(f.controller.invoker_health(3), InvokerHealth::kGone);
  EXPECT_EQ(f.controller.invoker_health(4), InvokerHealth::kUnresponsive);
  EXPECT_EQ(f.controller.counters().unresponsive_detected, 1u);
  EXPECT_EQ(f.controller.healthy_invokers(), (std::vector<InvokerId>{0, 2, 5}));

  const InvokerId late = f.controller.register_invoker();
  f.controller.heartbeat(4);  // readmitted
  EXPECT_EQ(f.controller.healthy_invokers(),
            (std::vector<InvokerId>{0, 2, 4, 5, late}));
  f.controller.deregister(2);
  f.sim.run_until(SimTime::minutes(1) + SimTime::seconds(3));
  EXPECT_EQ(f.controller.invoker_health(2), InvokerHealth::kGone);
  EXPECT_EQ(f.controller.healthy_invokers(),
            (std::vector<InvokerId>{0, 4, 5, late}));
}

TEST(Controller, MembershipChangeRemapsRouting) {
  Fixture f;
  const InvokerId a = f.controller.register_invoker();
  ASSERT_TRUE(f.controller.submit("fn").accepted);
  ASSERT_EQ(f.broker.topic(Controller::invoker_topic_name(a)).size(), 1u);
  // A second invoker appears; "fn" may remap, but some invoker gets it.
  f.controller.register_invoker();
  ASSERT_TRUE(f.controller.submit("fn").accepted);
  std::size_t total = 0;
  for (InvokerId id = 0; id < 2; ++id)
    total += f.broker.topic(Controller::invoker_topic_name(id)).size();
  EXPECT_EQ(total, 2u);
}

TEST(Controller, HashProbingStrideSharingAFactorWithNVisitsItsCosetOnly) {
  // The probe stride (hash >> 32 | 1) % n is odd, which makes it co-prime
  // with a power-of-two n only. With 6 invokers and stride 3 the probes
  // visit the home and home + 3 alone; the least-loaded fallback then
  // takes the lowest-id idle invoker. This pins today's decisions.
  constexpr std::size_t kInvokers = 6;
  Simulation sim;
  mq::Broker broker;
  FunctionRegistry registry;
  Controller::Config cfg;
  cfg.invoker_slots = 1;
  Controller controller{sim, broker, registry, cfg};
  std::string name;
  for (int i = 0;; ++i) {
    name = "probe-" + std::to_string(i);
    const std::uint64_t h = function_hash(name);
    if ((h >> 32 | 1) % kInvokers == 3 && h % kInvokers % 3 != 0) break;
  }
  registry.put(fixed_duration_function(name, SimTime::minutes(1)));
  for (std::size_t i = 0; i < kInvokers; ++i) controller.register_invoker();
  const auto home = static_cast<InvokerId>(function_hash(name) % kInvokers);
  const auto partner = static_cast<InvokerId>((home + 3) % kInvokers);

  std::vector<InvokerId> routed;
  for (int i = 0; i < 4; ++i) {
    const auto r = controller.submit(name);
    ASSERT_TRUE(r.accepted);
    routed.push_back(controller.activation(r.activation).routed_to);
  }
  // Home {1, 2, 4, 5}: the coset {home, home + 3} excludes invokers 0
  // and 3, so the fallback picks 0 and then the lowest id still idle.
  const InvokerId lowest_idle = home == 1 || partner == 1 ? 2 : 1;
  EXPECT_EQ(routed, (std::vector<InvokerId>{home, partner, 0, lowest_idle}));
}

// A record in the store's window keeps its address while the store grows
// past several chunks (1,024 records each) and the record stays open;
// once it and every record before its chunk are terminal, the chunk is
// archived and the record reads back field for field.
TEST(Controller, ActivationRecordsKeepTheirAddressAsTheStoreGrows) {
  Fixture f;
  const InvokerId inv = f.controller.register_invoker();
  f.sim.run_until(SimTime::seconds(1));
  ASSERT_TRUE(f.controller.submit("other").accepted);
  const ActivationRecord* const open = &f.controller.activations().live(0);
  const ActivationRecord before = *open;
  for (ActivationId id = 1; id <= 2500; ++id) {
    ASSERT_TRUE(f.controller.submit("fn").accepted);
    f.controller.activation_started(id, inv, id % 2 == 0);
    f.controller.activation_completed(id);
  }
  ASSERT_EQ(f.controller.activations().size(), 2501u);
  EXPECT_EQ(f.controller.activations().base(), 0u);  // id 0 is open
  EXPECT_EQ(&f.controller.activations().live(0), open);
  EXPECT_EQ(*open, before);

  f.sim.run_until(SimTime::seconds(2));
  f.controller.activation_started(0, inv, true);
  f.sim.run_until(SimTime::seconds(3));
  f.controller.activation_completed(0);
  const ActivationRecord done = f.controller.activation(0);
  const ActivationRecord late = f.controller.activation(2047);
  ASSERT_EQ(done.state, ActivationState::kCompleted);
  ASSERT_TRUE(f.controller.submit("fn").accepted);  // archives ids 0-2047
  EXPECT_EQ(f.controller.activations().base(), 2048u);
  EXPECT_EQ(f.controller.activation(0), done);
  EXPECT_EQ(f.controller.activation(2047), late);
  EXPECT_EQ(f.controller.function_index(0), done.function_index);
}

}  // namespace
}  // namespace hpcwhisk::whisk
