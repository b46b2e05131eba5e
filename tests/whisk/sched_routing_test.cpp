// Controller-level behavior of the data-driven route modes: scheduler
// lifecycle wiring, deadline-class front publishes, and — the invariant
// the ledger exists for — zero leaked backlog after watchdog rescues.

#include <gtest/gtest.h>

#include <sstream>
#include <vector>

#include "hpcwhisk/obs/export.hpp"
#include "hpcwhisk/obs/observability.hpp"
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

  Fixture() {
    registry.put(fixed_duration_function("fast", SimTime::millis(10)));
    registry.put(fixed_duration_function("slow", SimTime::minutes(2)));
  }

  Controller make_controller(RouteMode mode, bool deadline_classes = false) {
    Controller::Config cfg;
    cfg.route_mode = mode;
    cfg.sched.deadline_classes = deadline_classes;
    return Controller{sim, broker, registry, cfg};
  }
};

TEST(SchedRouting, LegacyModesHaveNoScheduler) {
  Fixture f;
  auto controller = f.make_controller(RouteMode::kHashProbing);
  EXPECT_EQ(controller.scheduler(), nullptr);
}

TEST(SchedRouting, DataDrivenModeLearnsFromCompletions) {
  Fixture f;
  auto controller = f.make_controller(RouteMode::kLeastExpectedWork);
  ASSERT_NE(controller.scheduler(), nullptr);
  Invoker invoker{f.sim, f.broker, f.registry, controller, {}, Rng{1}};
  invoker.start();
  for (int i = 0; i < 20; ++i) {
    ASSERT_TRUE(controller.submit("fast").accepted);
  }
  f.sim.run_until(SimTime::minutes(1));

  const auto* sched = controller.scheduler();
  EXPECT_EQ(controller.counters().completed, 20u);
  EXPECT_EQ(sched->stats().decisions, 20u);
  EXPECT_GT(sched->stats().error_observations, 0u);
  EXPECT_TRUE(sched->estimator().seen(f.registry.at("fast").index));
  // The 10ms body converged into the model (EWMA seeds on the first
  // sample, so even one completion pins it).
  EXPECT_EQ(sched->estimator().predict(f.registry.at("fast").index), SimTime::millis(10));
  // Everything drained: no outstanding predicted work.
  EXPECT_EQ(sched->ledger().total(), 0);
}

TEST(SchedRouting, BacklogIsVisibleWhileWorkIsOutstanding) {
  Fixture f;
  auto controller = f.make_controller(RouteMode::kSjfAffinity);
  const auto* sched = controller.scheduler();
  ASSERT_NE(sched, nullptr);
  Invoker invoker{f.sim, f.broker, f.registry, controller, {}, Rng{1}};
  invoker.start();
  ASSERT_TRUE(controller.submit("slow").accepted);
  f.sim.run_until(SimTime::seconds(10));
  EXPECT_GT(sched->ledger().total(), 0);
  f.sim.run_until(SimTime::minutes(4));
  EXPECT_EQ(sched->ledger().total(), 0);
}

TEST(SchedRouting, DeadlineClassesPublishToQueueFront) {
  Fixture f;
  auto controller =
      f.make_controller(RouteMode::kLeastExpectedWork, /*deadline=*/true);
  const InvokerId id = controller.register_invoker();
  // Never-seen prior (100ms) is under the short-class bound (250ms):
  // the publish goes to the front of the invoker's queue.
  ASSERT_TRUE(controller.submit("fast").accepted);
  const auto& topic = f.broker.topic(Controller::invoker_topic_name(id));
  EXPECT_EQ(topic.counters().front_published, 1u);
  EXPECT_EQ(controller.scheduler()->stats().short_class, 1u);
}

TEST(SchedRouting, WatchdogRescueLeavesZeroLeakedBacklog) {
  Fixture f;
  auto controller = f.make_controller(RouteMode::kLeastExpectedWork);
  auto victim = std::make_unique<Invoker>(f.sim, f.broker, f.registry,
                                          controller, Invoker::Config{},
                                          Rng{1});
  victim->start();
  const auto result = controller.submit("slow");
  ASSERT_TRUE(result.accepted);
  f.sim.run_until(SimTime::seconds(10));
  ASSERT_EQ(controller.activation(result.activation).state,
            ActivationState::kRunning);

  auto rescuer = std::make_unique<Invoker>(f.sim, f.broker, f.registry,
                                           controller, Invoker::Config{},
                                           Rng{2});
  rescuer->start();
  victim->hard_kill();
  f.sim.run_until(SimTime::minutes(5));

  const auto& rec = controller.activation(result.activation);
  EXPECT_EQ(rec.state, ActivationState::kCompleted);
  EXPECT_EQ(rec.executed_by, rescuer->id());

  // The kill dropped the victim's charge; the rescuer's restart
  // re-charged it; completion released it. Books must read exactly zero
  // — a leak here would bias every future routing decision.
  const auto* sched = controller.scheduler();
  EXPECT_GE(sched->stats().forgotten, 1u);
  EXPECT_GE(sched->stats().rescue_charges, 1u);
  EXPECT_EQ(sched->ledger().total(), 0);
  EXPECT_EQ(sched->ledger().charge_count(), 0u);
  EXPECT_FALSE(sched->is_warm(victim->id(), f.registry.at("slow").index));
}

TEST(SchedRouting, DecisionRecordsExplainEveryRouting) {
  // The explainability contract: with obs attached, every data-driven
  // routing emits one RouteDecision whose chosen worker IS the worker
  // the activation was routed to, whose runner-up (when present)
  // differs, and whose costs are consistent with the policy (the chosen
  // expected completion never exceeds the rejected one).
  Fixture f;
  obs::Observability obs;
  Controller::Config cfg;
  cfg.route_mode = RouteMode::kLeastExpectedWork;
  cfg.obs = &obs;
  Controller controller{f.sim, f.broker, f.registry, cfg};
  Invoker a{f.sim, f.broker, f.registry, controller, {}, Rng{1}};
  Invoker b{f.sim, f.broker, f.registry, controller, {}, Rng{2}};
  a.start();
  b.start();

  std::vector<ActivationId> submitted;
  for (int i = 0; i < 12; ++i) {
    const auto result = controller.submit(i % 3 == 0 ? "slow" : "fast");
    ASSERT_TRUE(result.accepted);
    submitted.push_back(result.activation);
  }
  f.sim.run_until(SimTime::minutes(5));

  ASSERT_EQ(obs.decisions.recorded(), submitted.size());
  ASSERT_EQ(obs.decisions.decisions().size(), submitted.size());
  for (std::size_t i = 0; i < submitted.size(); ++i) {
    const obs::RouteDecision& d = obs.decisions.decisions()[i];
    EXPECT_EQ(d.call, submitted[i]);
    EXPECT_STREQ(d.policy, "least-expected-work");
    EXPECT_EQ(d.chosen, controller.activation(submitted[i]).routed_to);
    EXPECT_EQ(d.candidates, 2u);
    EXPECT_GT(d.predicted_ticks, 0);
    if (d.runner_up != obs::RouteDecision::kNone) {
      EXPECT_NE(d.runner_up, d.chosen);
      EXPECT_GE(d.runner_up_cost_ticks, d.chosen_cost_ticks);
    }
  }

  // And the records survive a JSONL round trip.
  std::ostringstream os;
  obs::write_decisions_jsonl(os, obs.decisions, {});
  // One "_run" info line plus one line per decision.
  std::size_t lines = 0;
  for (const char c : os.str()) lines += c == '\n' ? 1 : 0;
  EXPECT_EQ(lines, submitted.size() + 1);
}

TEST(SchedRouting, RouteModeStringsRoundTrip) {
  for (const auto mode :
       {RouteMode::kHashProbing, RouteMode::kHashOnly, RouteMode::kRoundRobin,
        RouteMode::kLeastLoaded, RouteMode::kLeastExpectedWork,
        RouteMode::kSjfAffinity}) {
    const auto parsed = route_mode_from_string(to_string(mode));
    ASSERT_TRUE(parsed.has_value()) << to_string(mode);
    EXPECT_EQ(*parsed, mode);
  }
  EXPECT_FALSE(route_mode_from_string("teleport").has_value());
}

}  // namespace
}  // namespace hpcwhisk::whisk
