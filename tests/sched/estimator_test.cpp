// Duration estimator: EWMA convergence, cold/warm discrimination, the
// never-seen prior, and the quantile sketch's error bound.

#include <gtest/gtest.h>

#include "hpcwhisk/sched/estimator.hpp"

namespace hpcwhisk::sched {
namespace {

using sim::SimTime;

// Function keys are dense registry indices.
constexpr FunctionKey kFn = 0;
constexpr FunctionKey kShort = 1;
constexpr FunctionKey kLong = 2;
constexpr FunctionKey kGhost = 7;  ///< never observed

TEST(QuantileSketch, EmptyReturnsZeros) {
  QuantileSketch s;
  EXPECT_EQ(s.count(), 0u);
  EXPECT_EQ(s.min(), 0.0);
  EXPECT_EQ(s.max(), 0.0);
  EXPECT_EQ(s.quantile(0.5), 0.0);
}

TEST(QuantileSketch, TracksExactMinMax) {
  QuantileSketch s;
  for (int v : {700, 3, 150, 42, 9000}) s.observe(v);
  EXPECT_EQ(s.count(), 5u);
  EXPECT_EQ(s.min(), 3.0);
  EXPECT_EQ(s.max(), 9000.0);
}

TEST(QuantileSketch, QuantileWithinRelativeErrorBound) {
  QuantileSketch s;
  for (int v = 1; v <= 1000; ++v) s.observe(v);
  // 8 sub-buckets per octave => <= 12.5% relative error at the bucket
  // boundary; allow a little slack for the mid-bucket estimate.
  const double p50 = s.quantile(0.5);
  EXPECT_GT(p50, 500.0 * 0.85);
  EXPECT_LT(p50, 500.0 * 1.15);
  const double p95 = s.quantile(0.95);
  EXPECT_GT(p95, 950.0 * 0.85);
  EXPECT_LT(p95, 1000.0);
}

TEST(QuantileSketch, QuantileClampsToObservedRange) {
  QuantileSketch s;
  s.observe(100);
  s.observe(200);
  EXPECT_GE(s.quantile(0.0), 100.0);
  EXPECT_LE(s.quantile(1.0), 200.0);
}

TEST(DurationEstimator, NeverSeenFallsBackToPrior) {
  EstimatorConfig cfg;
  cfg.prior = SimTime::millis(123);
  DurationEstimator est{cfg};
  EXPECT_FALSE(est.seen(kGhost));
  EXPECT_EQ(est.predict(kGhost), SimTime::millis(123));
  EXPECT_EQ(est.predict_cold(kGhost), SimTime::millis(123));
  EXPECT_EQ(est.predict_quantile(kGhost, 0.95), SimTime::millis(123));
  // A model looked up once answers each worker from the prior, one hit
  // per answer (a routing decision asks once per candidate).
  const DurationEstimator::ModelRef ghost = est.model(kGhost);
  EXPECT_EQ(ghost.predict(0), SimTime::millis(123));
  EXPECT_EQ(ghost.predict_cold(3), SimTime::millis(123));
  EXPECT_EQ(est.stats().prior_hits, 5u);
}

TEST(DurationEstimator, KeysBelowTheLargestObservedStayUnseen) {
  // Observing key 2 grows the model table past keys 0 and 1; they must
  // still answer from the prior and not count as tracked.
  DurationEstimator est;
  est.observe(kLong, SimTime::seconds(1), false);
  EXPECT_FALSE(est.seen(kFn));
  EXPECT_FALSE(est.seen(kShort));
  EXPECT_EQ(est.tracked_functions(), 1u);
  EXPECT_EQ(est.observations(kShort), 0u);
  EXPECT_EQ(est.deviation(kShort), SimTime::zero());
  EXPECT_EQ(est.predict(kShort), est.config().prior);
  EXPECT_EQ(est.stats().prior_hits, 1u);
}

TEST(DurationEstimator, FirstObservationSeedsTheMean) {
  DurationEstimator est;
  est.observe(kFn, SimTime::millis(50), /*cold_start=*/false);
  EXPECT_TRUE(est.seen(kFn));
  EXPECT_EQ(est.predict(kFn), SimTime::millis(50));
  EXPECT_EQ(est.stats().prior_hits, 0u);
}

TEST(DurationEstimator, ConvergesToConstantDuration) {
  DurationEstimator est;
  for (int i = 0; i < 100; ++i) {
    est.observe(kFn, SimTime::millis(50), false);
  }
  EXPECT_EQ(est.predict(kFn), SimTime::millis(50));
  EXPECT_EQ(est.deviation(kFn), SimTime::zero());
  EXPECT_EQ(est.observations(kFn), 100u);
}

TEST(DurationEstimator, ConvergesAfterLevelShift) {
  // alpha = 0.25: after ~30 samples at the new level the EWMA is within
  // a tick of it — the model forgets a stale history quickly.
  DurationEstimator est;
  for (int i = 0; i < 20; ++i) est.observe(kFn, SimTime::millis(10), false);
  for (int i = 0; i < 40; ++i) est.observe(kFn, SimTime::millis(200), false);
  const auto p = est.predict(kFn);
  EXPECT_GT(p, SimTime::millis(195));
  EXPECT_LE(p, SimTime::millis(200));
}

TEST(DurationEstimator, ColdAndWarmModelsAreSeparate) {
  DurationEstimator est;
  for (int i = 0; i < 20; ++i) {
    est.observe(kFn, SimTime::millis(10), /*cold_start=*/false);
    est.observe(kFn, SimTime::millis(300), /*cold_start=*/true);
  }
  EXPECT_EQ(est.predict(kFn), SimTime::millis(10));
  EXPECT_EQ(est.predict_cold(kFn), SimTime::millis(300));
  EXPECT_EQ(est.stats().cold_observations, 20u);
  EXPECT_EQ(est.stats().observations, 40u);
}

TEST(DurationEstimator, PredictionsAreDeterministicFolds) {
  // Two estimators fed the identical sequence agree exactly — routing on
  // these estimates keeps seeded runs replayable.
  DurationEstimator a, b;
  for (int i = 1; i <= 50; ++i) {
    const auto d = SimTime::millis(10 + (i * 7) % 90);
    const bool cold = i % 5 == 0;
    a.observe(kFn, d, cold);
    b.observe(kFn, d, cold);
  }
  EXPECT_EQ(a.predict(kFn), b.predict(kFn));
  EXPECT_EQ(a.predict_cold(kFn), b.predict_cold(kFn));
  EXPECT_EQ(a.predict_quantile(kFn, 0.95), b.predict_quantile(kFn, 0.95));
  EXPECT_EQ(a.deviation(kFn), b.deviation(kFn));
}

TEST(DurationEstimator, TracksFunctionsIndependently) {
  DurationEstimator est;
  est.observe(kShort, SimTime::millis(5), false);
  est.observe(kLong, SimTime::seconds(30), false);
  EXPECT_EQ(est.tracked_functions(), 2u);
  EXPECT_EQ(est.predict(kShort), SimTime::millis(5));
  EXPECT_EQ(est.predict(kLong), SimTime::seconds(30));
}

TEST(DurationEstimator, PerWorkerOffMakesOverloadsDelegate) {
  // The worker-qualified overloads must be byte-identical to the global
  // model while per_worker is off (the default) — routing decisions pin
  // golden hashes on this.
  DurationEstimator est;
  for (int i = 0; i < 10; ++i) {
    est.observe(kFn, SimTime::millis(40), false, /*worker=*/3);
  }
  EXPECT_EQ(est.model(kFn).predict(3), est.predict(kFn));
  EXPECT_EQ(est.model(kFn).predict(9), est.predict(kFn));
  EXPECT_EQ(est.model(kFn).predict_cold(3), est.predict_cold(kFn));
}

TEST(DurationEstimator, PerWorkerModelCapturesNodeHeterogeneity) {
  EstimatorConfig cfg;
  cfg.per_worker = true;
  DurationEstimator est{cfg};
  // The same function runs 10 ms on worker 0 and 80 ms on the dilated
  // worker 1 (CPU oversubscription).
  for (int i = 0; i < 20; ++i) {
    est.observe(kFn, SimTime::millis(10), false, 0);
    est.observe(kFn, SimTime::millis(80), false, 1);
  }
  EXPECT_EQ(est.model(kFn).predict(0), SimTime::millis(10));
  EXPECT_EQ(est.model(kFn).predict(1), SimTime::millis(80));
  // The global model blends both; a worker without history answers from it.
  EXPECT_EQ(est.model(kFn).predict(7), est.predict(kFn));
  EXPECT_GT(est.predict(kFn), SimTime::millis(10));
  EXPECT_LT(est.predict(kFn), SimTime::millis(80));
}

TEST(DurationEstimator, PerWorkerColdModelIsSeparateToo) {
  EstimatorConfig cfg;
  cfg.per_worker = true;
  DurationEstimator est{cfg};
  for (int i = 0; i < 10; ++i) {
    est.observe(kFn, SimTime::millis(10), /*cold_start=*/false, 0);
    est.observe(kFn, SimTime::millis(400), /*cold_start=*/true, 0);
  }
  EXPECT_EQ(est.model(kFn).predict(0), SimTime::millis(10));
  EXPECT_EQ(est.model(kFn).predict_cold(0), SimTime::millis(400));
}

TEST(DurationEstimator, AnyWorkerSentinelNeverPopulatesPerWorker) {
  EstimatorConfig cfg;
  cfg.per_worker = true;
  DurationEstimator est{cfg};
  est.observe(kFn, SimTime::millis(10), false, DurationEstimator::kAnyWorker);
  est.observe(kFn, SimTime::millis(10), false);  // 3-arg == kAnyWorker
  // Lookups through the sentinel (and unknown workers) hit the global model.
  EXPECT_EQ(est.model(kFn).predict(DurationEstimator::kAnyWorker),
            est.predict(kFn));
  EXPECT_EQ(est.model(kFn).predict(0), est.predict(kFn));
}

}  // namespace
}  // namespace hpcwhisk::sched
