// Activation timeouts: the controller arms one per accepted call on the
// simulation's fixed-delay lanes and tracks it in a ring indexed by
// activation id. These tests pin the client-visible behaviour (deadlines,
// cancellation, 503 gaps, the event count returning to its baseline) and
// the watchdog rescue, which walks that ring instead of every record.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <utility>
#include <vector>

#include "hpcwhisk/sim/rng.hpp"
#include "hpcwhisk/whisk/controller.hpp"

namespace hpcwhisk::whisk {
namespace {

using sim::SimTime;
using sim::Simulation;

struct Fixture {
  Simulation sim;
  mq::Broker broker;
  FunctionRegistry registry;
  Controller controller{sim, broker, registry};

  Fixture() {
    FunctionSpec brief = fixed_duration_function("brief", SimTime::millis(10));
    brief.timeout = SimTime::minutes(1);
    registry.put(brief);
    FunctionSpec patient = fixed_duration_function("patient", SimTime::millis(10));
    patient.timeout = SimTime::minutes(3);
    registry.put(patient);
  }

  /// An invoker the test keeps alive with heartbeats every second, as
  /// long as `*alive` holds.
  InvokerId live_invoker(const bool* alive) {
    const InvokerId id = controller.register_invoker();
    sim.every(SimTime::seconds(1), [this, id, alive] {
      if (*alive) controller.heartbeat(id);
    });
    return id;
  }
};

TEST(TimeoutRing, TwoTimeoutValuesFireOnTheirOwnDeadlines) {
  Fixture f;
  const bool alive = true;
  f.live_invoker(&alive);
  std::vector<ActivationId> fired;
  f.controller.set_terminal_observer(
      [&fired](const ActivationRecord& r) { fired.push_back(r.id); });
  // Interleaved submits of a 1 min and a 3 min function: two lanes.
  std::vector<ActivationId> ids;
  for (int k = 0; k < 40; ++k) {
    f.sim.run_until(SimTime::seconds(5 * k));
    const auto r = f.controller.submit(k % 3 == 0 ? "patient" : "brief");
    ASSERT_TRUE(r.accepted);
    ids.push_back(r.activation);
  }
  f.sim.run_until(SimTime::minutes(10));
  ASSERT_EQ(fired.size(), ids.size());
  for (const ActivationId id : ids) {
    const ActivationRecord& r = f.controller.activation(id);
    EXPECT_EQ(r.state, ActivationState::kTimedOut);
    const SimTime timeout = f.registry.spec(r.function_index).timeout;
    EXPECT_EQ(r.end_time, r.submit_time + timeout) << "id " << id;
  }
  // Deadlines of both lanes merge in (deadline, id) order.
  std::vector<ActivationId> want = ids;
  std::stable_sort(want.begin(), want.end(), [&f](ActivationId a, ActivationId b) {
    return f.controller.activation(a).end_time < f.controller.activation(b).end_time;
  });
  EXPECT_EQ(fired, want);
  EXPECT_EQ(f.controller.counters().timed_out, ids.size());
}

TEST(TimeoutRing, FiresAtExactlySubmitPlusTimeout) {
  Fixture f;
  const bool alive = true;
  f.live_invoker(&alive);
  f.sim.run_until(SimTime::millis(1'234));
  const auto r = f.controller.submit("brief");
  ASSERT_TRUE(r.accepted);
  const SimTime deadline = SimTime::millis(1'234) + SimTime::minutes(1);
  f.sim.run_until(deadline - SimTime::micros(1));
  EXPECT_EQ(f.controller.activation(r.activation).state, ActivationState::kQueued);
  f.sim.run_until(deadline);
  EXPECT_EQ(f.controller.activation(r.activation).state, ActivationState::kTimedOut);
  EXPECT_EQ(f.controller.activation(r.activation).end_time, deadline);
}

TEST(TimeoutRing, CompletionCancelsItsTimeoutEvent) {
  Fixture f;
  const bool alive = true;
  const InvokerId a = f.live_invoker(&alive);
  const std::size_t baseline = f.sim.pending_events();
  const auto r = f.controller.submit("patient");
  ASSERT_TRUE(r.accepted);
  EXPECT_EQ(f.sim.pending_events(), baseline + 1);
  f.controller.activation_started(r.activation, a, false);
  f.controller.activation_completed(r.activation);
  EXPECT_EQ(f.sim.pending_events(), baseline);
  f.sim.run_until(SimTime::minutes(10));
  EXPECT_EQ(f.controller.activation(r.activation).state, ActivationState::kCompleted);
  EXPECT_EQ(f.controller.counters().timed_out, 0u);
}

TEST(TimeoutRing, RejectedIdsLeaveGapsThatTheRingSkips) {
  Fixture f;
  bool first_alive = true;
  const InvokerId a = f.live_invoker(&first_alive);
  const auto before = f.controller.submit("patient");
  ASSERT_TRUE(before.accepted);
  // No healthy invoker: three 503s take the next ids.
  f.controller.begin_drain(a);
  f.controller.deregister(a);
  first_alive = false;
  std::vector<ActivationId> rejected;
  for (int k = 0; k < 3; ++k) {
    const auto r = f.controller.submit("brief");
    ASSERT_FALSE(r.accepted);
    rejected.push_back(r.activation);
  }
  const bool second_alive = true;
  const InvokerId b = f.live_invoker(&second_alive);
  f.sim.run_until(SimTime::seconds(10));
  // Heartbeats, the watchdog and the first call's timeout.
  const std::size_t baseline = f.sim.pending_events() - 1;
  const auto after = f.controller.submit("brief");
  ASSERT_TRUE(after.accepted);
  EXPECT_EQ(after.activation, before.activation + 4);
  EXPECT_EQ(f.sim.pending_events(), baseline + 2);

  // The later call ends first, cancelling its own timeout; the earlier
  // one still times out on time.
  f.controller.activation_started(after.activation, b, false);
  f.controller.activation_completed(after.activation);
  EXPECT_EQ(f.sim.pending_events(), baseline + 1);
  f.sim.run_until(SimTime::minutes(10));
  EXPECT_EQ(f.sim.pending_events(), baseline);
  EXPECT_EQ(f.controller.activation(before.activation).state,
            ActivationState::kTimedOut);
  EXPECT_EQ(f.controller.activation(before.activation).end_time,
            SimTime::minutes(3));
  EXPECT_EQ(f.controller.activation(after.activation).state,
            ActivationState::kCompleted);
  for (const ActivationId id : rejected)
    EXPECT_EQ(f.controller.activation(id).state, ActivationState::kRejected503);
  EXPECT_EQ(f.controller.counters().timed_out, 1u);
}

TEST(TimeoutRing, PendingEventsReturnToBaselineOnceEveryCallEnded) {
  Fixture f;
  const bool alive = true;
  const InvokerId a = f.live_invoker(&alive);
  const std::size_t baseline = f.sim.pending_events();
  sim::Rng rng{11};
  std::vector<ActivationId> open;
  for (int k = 0; k < 500; ++k) {
    f.sim.run_until(f.sim.now() + SimTime::millis(rng.uniform_int(0, 900)));
    const auto r = f.controller.submit(rng.uniform_int(0, 1) == 0 ? "brief" : "patient");
    ASSERT_TRUE(r.accepted);
    open.push_back(r.activation);
    // End a random open call now and then, in no particular order.
    if (rng.uniform_int(0, 2) != 0) {
      const auto i = static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(open.size()) - 1));
      const ActivationId id = open[i];
      open.erase(open.begin() + static_cast<std::ptrdiff_t>(i));
      if (!f.controller.deliverable(id)) continue;  // already timed out
      f.controller.activation_started(id, a, false);
      if (rng.uniform_int(0, 3) == 0) {
        f.controller.activation_failed(id);
      } else {
        f.controller.activation_completed(id);
      }
    }
  }
  EXPECT_GT(f.sim.pending_events(), baseline);
  f.sim.run_until(f.sim.now() + SimTime::minutes(4));
  const Controller::Counters& c = f.controller.counters();
  EXPECT_EQ(c.completed + c.failed + c.timed_out, c.accepted);
  EXPECT_GT(c.timed_out, 0u);
  EXPECT_EQ(f.sim.pending_events(), baseline);
}

/// The rescue as a scan over every record (the order the ring walk must
/// reproduce): non-terminal calls routed to `dead` that it held, minus
/// its unpulled backlog.
std::vector<ActivationId> full_scan_rescue(const Controller& c, InvokerId dead,
                                           const std::vector<ActivationId>& backlog) {
  std::vector<ActivationId> out;
  for (const ActivationRecord& rec : c.activations()) {
    if (is_terminal(rec.state) || rec.routed_to != dead) continue;
    if (rec.executed_by != kNoInvoker && rec.executed_by != dead) continue;
    if (std::find(backlog.begin(), backlog.end(), rec.id) != backlog.end()) continue;
    out.push_back(rec.id);
  }
  return out;
}

std::vector<ActivationId> ids_of(std::vector<mq::Message> msgs) {
  std::vector<ActivationId> ids;
  for (const mq::Message& m : msgs) ids.push_back(m.id);
  return ids;
}

TEST(TimeoutRing, WatchdogRescueWalksOpenCallsInIdOrder) {
  Fixture f;
  // Long timeouts: nothing times out during the test unless asked to.
  FunctionSpec keep = fixed_duration_function("keep", SimTime::millis(10));
  keep.timeout = SimTime::hours(1);
  f.registry.put(keep);
  FunctionSpec keep2 = fixed_duration_function("keep2", SimTime::millis(10));
  keep2.timeout = SimTime::hours(1);
  f.registry.put(keep2);
  const char* fns[] = {"keep", "keep2", "brief"};

  bool victim_alive = true;
  bool other_alive = true;
  const InvokerId victim = f.live_invoker(&victim_alive);
  const InvokerId other = f.live_invoker(&other_alive);
  const std::size_t baseline = f.sim.pending_events();
  sim::Rng rng{3};
  mq::Topic& victim_topic = f.broker.topic(Controller::invoker_topic_name(victim));
  std::vector<mq::Message> pulled;

  // Mixes every record kind: completed, failed, timed out ("brief"),
  // started on either invoker, pulled but not started, still queued.
  const auto load = [&](int calls) {
    for (int k = 0; k < calls; ++k) {
      f.sim.run_until(f.sim.now() + SimTime::millis(rng.uniform_int(0, 200)));
      const auto r = f.controller.submit(fns[rng.uniform_int(0, 2)]);
      if (!r.accepted) continue;
      const ActivationRecord& rec = f.controller.activation(r.activation);
      switch (rng.uniform_int(0, 5)) {
        case 0:
          f.controller.activation_started(r.activation, rec.routed_to, false);
          f.controller.activation_completed(r.activation);
          break;
        case 1:
          f.controller.activation_failed(r.activation);
          break;
        case 2:  // started where it was routed
          f.controller.activation_started(r.activation, rec.routed_to, false);
          break;
        case 3:  // rerouted: started on the other invoker
          f.controller.activation_started(
              r.activation, rec.routed_to == victim ? other : victim, false);
          break;
        default:
          break;  // left queued
      }
    }
    // The victim pulls part of its topic into its (lost) buffer.
    victim_topic.poll_into(victim_topic.size() / 2, pulled);
  };
  // A lull: every invoker silent, so calls get 503 ids in between.
  const auto outage = [&] {
    victim_alive = other_alive = false;
    f.sim.run_until(f.sim.now() + SimTime::seconds(10));
    ASSERT_EQ(f.controller.healthy_count(), 0u);
    for (int k = 0; k < 25; ++k) ASSERT_FALSE(f.controller.submit("keep").accepted);
    victim_alive = other_alive = true;
    f.sim.run_until(f.sim.now() + SimTime::seconds(2));
    ASSERT_EQ(f.controller.healthy_count(), 2u);
    (void)f.broker.fast_lane().drain();
  };

  load(300);
  outage();
  load(300);
  f.sim.run_until(f.sim.now() + SimTime::minutes(2));  // "brief" calls time out
  outage();
  load(300);

  // The victim dies silently. Predict the rescue just before the sweep
  // that notices (nothing else touches the records in between).
  ASSERT_TRUE(f.broker.fast_lane().empty());
  victim_alive = false;
  const std::vector<ActivationId> backlog = [&] {
    std::vector<ActivationId> ids;
    std::vector<mq::Message> copy;
    // Read the backlog without consuming it: drain, note, re-publish.
    copy = victim_topic.drain();
    for (mq::Message& m : copy) {
      ids.push_back(m.id);
      victim_topic.publish(std::move(m), f.sim.now());
    }
    return ids;
  }();
  const std::vector<ActivationId> in_flight =
      full_scan_rescue(f.controller, victim, backlog);
  ASSERT_GT(in_flight.size(), 50u);
  ASSERT_GT(backlog.size(), 10u);
  std::size_t terminal = 0;
  std::size_t rejected = 0;
  for (const ActivationRecord& rec : f.controller.activations()) {
    terminal += is_terminal(rec.state) ? 1 : 0;
    rejected += rec.state == ActivationState::kRejected503 ? 1 : 0;
  }
  ASSERT_GT(terminal, 300u);
  ASSERT_EQ(rejected, 50u);

  f.sim.run_until(f.sim.now() + SimTime::seconds(10));
  ASSERT_EQ(f.controller.invoker_health(victim), InvokerHealth::kUnresponsive);
  // The backlog goes first, minus calls that already ended (the requeue
  // drops those), then the in-flight rescue.
  std::vector<ActivationId> want;
  for (const ActivationId id : backlog)
    if (f.controller.deliverable(id)) want.push_back(id);
  want.insert(want.end(), in_flight.begin(), in_flight.end());
  EXPECT_EQ(ids_of(f.broker.fast_lane().drain()), want);

  // Ending every open call cancels exactly the timeouts still pending.
  for (const ActivationRecord& rec : f.controller.activations()) {
    if (!is_terminal(rec.state)) f.controller.activation_failed(rec.id);
  }
  EXPECT_EQ(f.sim.pending_events(), baseline);
}

}  // namespace
}  // namespace hpcwhisk::whisk
