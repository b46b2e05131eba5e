// Duration estimator: EWMA convergence, cold/warm discrimination and the
// never-seen prior.

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

TEST(DurationEstimator, NeverSeenFallsBackToPrior) {
  DurationEstimator est;
  EXPECT_FALSE(est.seen(kGhost));
  EXPECT_EQ(est.predict(kGhost), kDurationPrior);
  EXPECT_EQ(est.predict_cold(kGhost), kDurationPrior);
  // A model looked up once answers from the prior, one hit per answer (a
  // routing decision asks once per candidate).
  const DurationEstimator::ModelRef ghost = est.model(kGhost);
  EXPECT_EQ(ghost.predict(), kDurationPrior);
  EXPECT_EQ(ghost.predict_cold(), kDurationPrior);
  EXPECT_EQ(est.stats().prior_hits, 4u);
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
  EXPECT_EQ(est.predict(kShort), kDurationPrior);
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
}

TEST(DurationEstimator, TracksFunctionsIndependently) {
  DurationEstimator est;
  est.observe(kShort, SimTime::millis(5), false);
  est.observe(kLong, SimTime::seconds(30), false);
  EXPECT_EQ(est.tracked_functions(), 2u);
  EXPECT_EQ(est.predict(kShort), SimTime::millis(5));
  EXPECT_EQ(est.predict(kLong), SimTime::seconds(30));
}

}  // namespace
}  // namespace hpcwhisk::sched
