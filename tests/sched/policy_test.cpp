// CallScheduler policies: least-expected-work picks, sjf-affinity's
// escape hysteresis, deadline classes, and lifecycle accounting (no
// backlog leaks under reroutes, rescues, and worker kills).

#include <gtest/gtest.h>

#include "hpcwhisk/sched/scheduler.hpp"

namespace hpcwhisk::sched {
namespace {

using sim::SimTime;

const std::vector<WorkerId> kWorkers{0, 1, 2};

// Function keys are dense registry indices.
constexpr FunctionKey kFn = 0;
constexpr FunctionKey kQuick = 1;
constexpr FunctionKey kSlow = 2;
constexpr FunctionKey kSteady = 3;
constexpr FunctionKey kWild = 4;

SchedConfig config_with(double slack = 2.0, bool deadline = false) {
  SchedConfig cfg;
  cfg.sjf_affinity_slack = slack;
  cfg.deadline_classes = deadline;
  return cfg;
}

/// Runs `calls` to completion on `worker` so it is warm for `function`
/// and the estimator has history.
void warm_up(CallScheduler& sched, WorkerId worker,
             FunctionKey function, SimTime duration, int calls,
             CallId base) {
  for (int i = 0; i < calls; ++i) {
    const CallId id = base + static_cast<CallId>(i);
    sched.on_started(id, worker, function);
    (void)sched.on_finished(id, function, duration.ticks(),
                            /*cold_start=*/false);
  }
}

TEST(LeastExpectedWork, PrefersLowestIdWhenIndistinguishable) {
  CallScheduler sched;
  const auto d = sched.route_least_expected_work(kFn, kWorkers);
  EXPECT_EQ(d.worker, 0u);
  EXPECT_TRUE(d.expected_cold);
  // Never-seen function: prediction is the prior, cost adds the
  // cold-start overhead on top.
  EXPECT_EQ(d.predicted_ticks, sched.config().estimator.prior.ticks());
  EXPECT_EQ(d.cost_ticks,
            sched.config().estimator.prior.ticks() +
                kColdOverhead.ticks());
}

TEST(LeastExpectedWork, WarmWorkerBeatsColdOnes) {
  CallScheduler sched;
  warm_up(sched, /*worker=*/2, kFn, SimTime::millis(10), 5, 1000);
  const auto d = sched.route_least_expected_work(kFn, kWorkers);
  EXPECT_EQ(d.worker, 2u);  // cold workers pay the overhead, 2 does not
  EXPECT_FALSE(d.expected_cold);
}

TEST(LeastExpectedWork, AvoidsBackloggedWorker) {
  CallScheduler sched;
  warm_up(sched, 0, kFn, SimTime::millis(10), 5, 1000);
  warm_up(sched, 1, kFn, SimTime::millis(10), 5, 2000);
  // Pile predicted work onto worker 0.
  for (CallId c = 0; c < 10; ++c) {
    const auto d = sched.route_least_expected_work(kFn, {0});
    sched.on_routed(c, d);
  }
  EXPECT_GT(sched.ledger().backlog(0), 0);
  const auto d = sched.route_least_expected_work(kFn, {0, 1});
  EXPECT_EQ(d.worker, 1u);
}

TEST(SjfAffinity, StaysHomeWithinSlack) {
  CallScheduler sched{config_with(/*slack=*/2.0)};
  warm_up(sched, 0, kFn, SimTime::millis(10), 5, 1000);
  warm_up(sched, 1, kFn, SimTime::millis(10), 5, 2000);
  // A small queue at home (one predicted call) is far under the
  // cold-overhead hysteresis: affinity holds.
  const auto first = sched.route_sjf_affinity(kFn, kWorkers, 0);
  sched.on_routed(5000, first);
  const auto d = sched.route_sjf_affinity(kFn, kWorkers, 0);
  EXPECT_EQ(d.worker, 0u);
  EXPECT_EQ(sched.stats().affinity_kept, 2u);
  EXPECT_EQ(sched.stats().affinity_escaped, 0u);
}

TEST(SjfAffinity, EscapesWhenHomeQueueExceedsSlackPlusColdStart) {
  CallScheduler sched{config_with(/*slack=*/2.0)};
  warm_up(sched, 0, kFn, SimTime::millis(10), 5, 1000);
  warm_up(sched, 1, kFn, SimTime::millis(10), 5, 2000);
  // Pile ~1s of predicted work on home 0: excess queueing over worker 1
  // now dwarfs slack * 10ms + 500ms cold overhead.
  for (CallId c = 0; c < 100; ++c) {
    const auto d = sched.route_sjf_affinity(kFn, {0}, 0);
    sched.on_routed(c, d);
  }
  const auto d = sched.route_sjf_affinity(kFn, kWorkers, 0);
  EXPECT_EQ(d.worker, 1u);
  EXPECT_GT(sched.stats().affinity_escaped, 0u);
}

TEST(SjfAffinity, HomeIndexWrapsAroundWorkerList) {
  CallScheduler sched;
  const auto d = sched.route_sjf_affinity(kFn, kWorkers, 7);  // 7 % 3 == 1
  EXPECT_EQ(d.worker, 1u);
}

TEST(DeadlineClasses, ShortPredictionsAreShortClass) {
  CallScheduler sched{config_with(2.0, /*deadline=*/true)};
  warm_up(sched, 0, kQuick, SimTime::millis(10), 5, 1000);
  warm_up(sched, 0, kSlow, SimTime::seconds(30), 5, 2000);
  const auto quick = sched.route_least_expected_work(kQuick, kWorkers);
  EXPECT_TRUE(quick.short_class);
  const auto slow = sched.route_least_expected_work(kSlow, kWorkers);
  EXPECT_FALSE(slow.short_class);
  EXPECT_EQ(sched.stats().short_class, 1u);
}

TEST(DeadlineClasses, DisabledByDefault) {
  CallScheduler sched;
  warm_up(sched, 0, kQuick, SimTime::millis(10), 5, 1000);
  const auto d = sched.route_least_expected_work(kQuick, kWorkers);
  EXPECT_FALSE(d.short_class);
}

TEST(DeadlineClasses, DeviationFactorGuardsDispersedFunctions) {
  // Two functions with the same 200 ms mean (under the 250 ms bound):
  // kSteady always takes 200 ms, kWild alternates 40/360 ms. With the
  // dispersion guard on, only the steady one may jump queues.
  SchedConfig cfg = config_with(2.0, /*deadline=*/true);
  cfg.short_class_deviation_factor = 1.0;
  CallScheduler sched{cfg};
  warm_up(sched, 0, kSteady, SimTime::millis(200), 20, 1000);
  for (int i = 0; i < 20; ++i) {
    const CallId id = 2000 + static_cast<CallId>(i);
    sched.on_started(id, 0, kWild);
    (void)sched.on_finished(
        id, kWild, SimTime::millis(i % 2 == 0 ? 40 : 360).ticks(), false);
  }
  EXPECT_LT(sched.estimator().predict(kWild), SimTime::millis(250));
  EXPECT_GT(sched.estimator().deviation(kWild), SimTime::millis(50));
  const auto steady = sched.route_least_expected_work(kSteady, kWorkers);
  EXPECT_TRUE(steady.short_class);
  const auto wild = sched.route_least_expected_work(kWild, kWorkers);
  EXPECT_FALSE(wild.short_class);
}

TEST(DeadlineClasses, ZeroDeviationFactorPreservesPlainBound) {
  // factor 0 (the default) must reproduce the plain predict <= bound
  // test even for a high-dispersion function.
  CallScheduler sched{config_with(2.0, /*deadline=*/true)};
  for (int i = 0; i < 20; ++i) {
    const CallId id = 1000 + static_cast<CallId>(i);
    sched.on_started(id, 0, kWild);
    (void)sched.on_finished(
        id, kWild, SimTime::millis(i % 2 == 0 ? 40 : 360).ticks(), false);
  }
  const auto d = sched.route_least_expected_work(kWild, kWorkers);
  EXPECT_TRUE(d.short_class);
}

TEST(PerWorkerRouting, PrefersTheWorkerThatRunsTheFunctionFaster) {
  // Worker 1 is dilated (co-located HPC load): the same function takes
  // 8x longer there. With per-worker models on, least-expected-work
  // routes to the fast worker even though both are warm.
  SchedConfig cfg;
  cfg.estimator.per_worker = true;
  CallScheduler sched{cfg};
  for (int i = 0; i < 20; ++i) {
    const CallId a = 1000 + static_cast<CallId>(2 * i);
    sched.on_started(a, 0, kFn);
    (void)sched.on_finished(a, kFn, SimTime::millis(10).ticks(), false, 0);
    const CallId b = 1001 + static_cast<CallId>(2 * i);
    sched.on_started(b, 1, kFn);
    (void)sched.on_finished(b, kFn, SimTime::millis(80).ticks(), false, 1);
  }
  const auto d = sched.route_least_expected_work(kFn, {0, 1});
  EXPECT_EQ(d.worker, 0u);
  // The blended global model would see both workers as identical; the
  // per-worker prediction is what separates them.
  EXPECT_EQ(d.predicted_ticks, SimTime::millis(10).ticks());
}

TEST(PerWorkerRouting, FourArgFinishKeepsGlobalBehavior) {
  // The 4-arg on_finished (no worker attribution) must leave per-worker
  // models empty: predictions equal the global model everywhere.
  SchedConfig cfg;
  cfg.estimator.per_worker = true;
  CallScheduler sched{cfg};
  warm_up(sched, 0, kFn, SimTime::millis(10), 5, 1000);
  EXPECT_EQ(sched.estimator().model(kFn).predict(0),
            sched.estimator().predict(kFn));
}

TEST(Lifecycle, FinishedReportsForecastErrorAgainstPinnedPrediction) {
  CallScheduler sched;
  warm_up(sched, 0, kFn, SimTime::millis(100), 10, 1000);
  const auto d = sched.route_least_expected_work(kFn, kWorkers);
  sched.on_routed(1, d);
  sched.on_started(1, d.worker, kFn);
  const auto out =
      sched.on_finished(1, kFn, SimTime::millis(130).ticks(), false);
  EXPECT_TRUE(out.had_charge);
  EXPECT_TRUE(out.observed);
  // Prediction was pinned at route time (100ms EWMA), so the error is a
  // genuine forecast error — not contaminated by the new sample.
  EXPECT_EQ(out.predicted_ticks, SimTime::millis(100).ticks());
  EXPECT_EQ(out.abs_error_ticks, SimTime::millis(30).ticks());
  EXPECT_EQ(sched.ledger().total(), 0);
}

TEST(Lifecycle, NeverExecutedOutcomeIsNotObserved) {
  CallScheduler sched;
  const auto d = sched.route_least_expected_work(kFn, kWorkers);
  sched.on_routed(1, d);
  const auto out = sched.on_finished(1, kFn, /*actual_ticks=*/-1, false);
  EXPECT_TRUE(out.had_charge);
  EXPECT_FALSE(out.observed);
  EXPECT_FALSE(sched.estimator().seen(kFn));
  EXPECT_EQ(sched.ledger().total(), 0);
}

TEST(Lifecycle, FastLaneRerouteDoesNotLeakBacklog) {
  CallScheduler sched;
  // Route -> requeue (drain hand-off) -> restart on another worker ->
  // finish. The charge must follow the call and end at zero.
  const auto d = sched.route_least_expected_work(kFn, kWorkers);
  sched.on_routed(1, d);
  EXPECT_GT(sched.ledger().total(), 0);
  sched.on_requeued(1);
  EXPECT_EQ(sched.ledger().total(), 0);
  sched.on_started(1, 2, kFn);  // re-charged against the executor
  EXPECT_GT(sched.ledger().total(), 0);
  EXPECT_EQ(sched.stats().rescue_charges, 1u);
  (void)sched.on_finished(1, kFn, SimTime::millis(10).ticks(), true);
  EXPECT_EQ(sched.ledger().total(), 0);
}

TEST(Lifecycle, ForgetWorkerDropsChargesAndWarmth) {
  CallScheduler sched;
  warm_up(sched, 0, kFn, SimTime::millis(10), 3, 1000);
  for (CallId c = 0; c < 5; ++c) {
    const auto d = sched.route_least_expected_work(kFn, {0});
    sched.on_routed(c, d);
  }
  EXPECT_TRUE(sched.is_warm(0, kFn));
  sched.forget_worker(0);
  EXPECT_FALSE(sched.is_warm(0, kFn));
  EXPECT_EQ(sched.ledger().backlog(0), 0);
  EXPECT_EQ(sched.ledger().total(), 0);
  EXPECT_EQ(sched.stats().forgotten, 5u);
  // Terminal notifications for the dropped calls are harmless.
  const auto out = sched.on_finished(3, kFn, -1, false);
  EXPECT_FALSE(out.had_charge);
}

TEST(Lifecycle, ChaosInterleavingLeavesZeroBacklog) {
  // Worker-kill chaos: calls in every lifecycle stage when worker 1 dies;
  // survivors restart elsewhere. Invariant: once every call reaches a
  // terminal state the ledger reads exactly zero.
  CallScheduler sched{config_with(2.0, true)};
  warm_up(sched, 0, kFn, SimTime::millis(20), 5, 10000);
  for (CallId c = 0; c < 30; ++c) {
    const auto d = sched.route_sjf_affinity(
        kFn, kWorkers, static_cast<std::size_t>(c));
    sched.on_routed(c, d);
    if (c % 3 == 0) sched.on_started(c, d.worker, kFn);
  }
  sched.forget_worker(1);
  for (CallId c = 0; c < 30; ++c) {
    if (c % 5 == 0) {
      sched.on_requeued(c);          // rescued to the fast lane...
      sched.on_started(c, 2, kFn);  // ...restarts on worker 2
      (void)sched.on_finished(c, kFn, SimTime::millis(25).ticks(), true);
    } else if (c % 5 == 1) {
      (void)sched.on_finished(c, kFn, -1, false);  // timed out
    } else {
      (void)sched.on_finished(c, kFn, SimTime::millis(20).ticks(), false);
    }
  }
  EXPECT_EQ(sched.ledger().total(), 0);
  EXPECT_EQ(sched.ledger().charge_count(), 0u);
  for (const WorkerId w : kWorkers) EXPECT_EQ(sched.ledger().backlog(w), 0);
}

}  // namespace
}  // namespace hpcwhisk::sched
