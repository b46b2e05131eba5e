// Self-tests for the fidelity invariants (per-TRES capacity and
// reservation exclusion): plant a known defect in the system under test
// and require the full SimCheck pipeline to catch it end to end —
// detection by exactly the right invariant, ddmin-shrink to a small
// still-failing spec, repro round-trip, and byte-identical replay. A
// clean campaign over the new regimes (TRES packing, QOS tiers,
// reservations) then shows the invariants are quiet when nothing is
// planted.

#include <gtest/gtest.h>

#include <sstream>

#include "hpcwhisk/check/repro.hpp"
#include "hpcwhisk/check/runner.hpp"
#include "hpcwhisk/check/shrink.hpp"
#include "hpcwhisk/check/simcheck.hpp"

namespace hpcwhisk {
namespace {

constexpr char kTresInvariant[] = "tres-capacity";
constexpr char kReservationInvariant[] = "reservation-exclusion";

/// kTresOvercommit builds nodes larger than the spec promises, so jobs
/// that legally co-reside on the real hardware overflow the *promised*
/// capacity vector. Needs a tres_mode seed; 6 is the first sampled one.
check::ScenarioSpec overcommit_spec() {
  check::SampleOptions opts;
  opts.plant = check::BugPlant::kTresOvercommit;
  const auto spec = check::ScenarioSpec::sample(6, opts);
  EXPECT_TRUE(spec.tres_mode);
  return spec;
}

/// kReservationIgnored drops the declared maintenance window from the
/// system under test, so jobs run straight through it. Needs a seed that
/// samples both tres_mode and a reservation; 23 is the first.
check::ScenarioSpec ignored_reservation_spec() {
  check::SampleOptions opts;
  opts.plant = check::BugPlant::kReservationIgnored;
  const auto spec = check::ScenarioSpec::sample(23, opts);
  EXPECT_TRUE(spec.tres_mode && spec.reservation);
  return spec;
}

bool fails_with(const check::CheckResult& result, const char* invariant) {
  for (const auto& v : result.violations) {
    if (v.invariant == invariant) return true;
  }
  return false;
}

void expect_shrinks_to_replayable_repro(const check::ScenarioSpec& spec,
                                        const char* invariant) {
  const auto suite = check::InvariantSuite::standard();
  const auto shrunk = check::shrink(spec, invariant, suite, {});
  EXPECT_GT(shrunk.reductions, 0u);
  EXPECT_LT(shrunk.spec.elements(), spec.elements())
      << "shrinker made no progress: " << shrunk.spec.summary();

  // The minimized spec must still fail with the same invariant...
  const auto recheck =
      check::check_scenario(shrunk.spec, suite, {.replay_check = false});
  ASSERT_TRUE(fails_with(recheck, invariant))
      << "shrunk spec no longer fails " << invariant << ": "
      << shrunk.spec.summary();

  // ...survive the repro round-trip losslessly (including the fidelity
  // fields: tres geometry, QOS flag, reservation window)...
  check::Repro repro;
  repro.invariant = invariant;
  repro.message = recheck.violations.front().message;
  repro.decision_hash = recheck.decision_hash;
  repro.spec = shrunk.spec;
  const auto parsed = check::parse_repro(check::write_repro(repro));
  EXPECT_EQ(parsed.spec, shrunk.spec);
  EXPECT_EQ(parsed.decision_hash, recheck.decision_hash);

  // ...and replay byte-identically.
  const auto run_a = check::run_scenario(parsed.spec);
  const auto run_b = check::run_scenario(parsed.spec);
  EXPECT_EQ(run_a.decision_hash, run_b.decision_hash);
  EXPECT_EQ(run_a.decision_log, run_b.decision_log);
  EXPECT_EQ(run_a.decision_hash, recheck.decision_hash);
}

TEST(FidelityPlant, TresOvercommitIsDetected) {
  const auto spec = overcommit_spec();
  const auto result = check::check_scenario(
      spec, check::InvariantSuite::standard(), {.replay_check = false});
  ASSERT_FALSE(result.ok()) << "planted bug went undetected: " << spec.summary();
  EXPECT_TRUE(fails_with(result, kTresInvariant))
      << "violations found, but none from " << kTresInvariant;
}

TEST(FidelityPlant, TresOvercommitShrinksToReplayableRepro) {
  expect_shrinks_to_replayable_repro(overcommit_spec(), kTresInvariant);
}

TEST(FidelityPlant, ReservationIgnoredIsDetected) {
  const auto spec = ignored_reservation_spec();
  const auto result = check::check_scenario(
      spec, check::InvariantSuite::standard(), {.replay_check = false});
  ASSERT_FALSE(result.ok()) << "planted bug went undetected: " << spec.summary();
  EXPECT_TRUE(fails_with(result, kReservationInvariant))
      << "violations found, but none from " << kReservationInvariant;
}

TEST(FidelityPlant, ReservationIgnoredShrinksToReplayableRepro) {
  expect_shrinks_to_replayable_repro(ignored_reservation_spec(),
                                     kReservationInvariant);
}

// Halving the horizon must take a single reservation window along:
// a window left at its absolute start would fall past the shrunk run's
// end, the plant would stop firing, and the shrinker would have to
// keep the long horizon.
TEST(FidelityPlant, ShrunkHorizonKeepsTheReservationWindowInside) {
  check::ScenarioSpec spec = ignored_reservation_spec();
  spec.horizon = sim::SimTime::minutes(30);
  spec.res_start = sim::SimTime::minutes(18);
  const auto shrunk = check::shrink(spec, kReservationInvariant,
                                    check::InvariantSuite::standard(), {});
  EXPECT_EQ(shrunk.spec.horizon, sim::SimTime::minutes(10));
  EXPECT_LT(shrunk.spec.res_start, shrunk.spec.horizon);
  EXPECT_NEAR(shrunk.spec.res_start.to_seconds(),
              0.6 * shrunk.spec.horizon.to_seconds(), 1e-3);
}

TEST(FidelityPlant, CampaignEmitsReproForOvercommit) {
  check::CampaignOptions options;
  options.seed_base = 6;
  options.seeds = 1;
  options.jobs = 1;
  options.sample.plant = check::BugPlant::kTresOvercommit;
  options.shrink_budget = 96;

  std::ostringstream progress;
  const auto campaign =
      check::run_campaign(options, check::InvariantSuite::standard(), progress);
  ASSERT_EQ(campaign.failures, 1u);
  const auto& outcome = campaign.outcomes.front();
  ASSERT_TRUE(outcome.shrunk_valid);
  ASSERT_FALSE(outcome.repro_json.empty());

  const auto repro = check::parse_repro(outcome.repro_json);
  EXPECT_EQ(repro.invariant, kTresInvariant);
  EXPECT_EQ(repro.spec, outcome.shrunk);

  const auto replay = check::run_scenario(repro.spec);
  EXPECT_EQ(replay.decision_hash, repro.decision_hash);
}

// The ISSUE-10 acceptance sweep: >= 200 unplanted scenarios sampled over
// the new regimes (seeds 1..200 draw tres_mode ~45%, qos ~40%,
// reservations ~35%) must pass the extended suite — the fidelity
// invariants hold on the real system, and the legacy invariants still
// hold on non-TRES draws.
TEST(FidelityCampaign, TwoHundredCleanScenariosAcrossRegimes) {
  check::CampaignOptions options;
  options.seed_base = 1;
  options.seeds = 200;
  options.shrink = false;
  options.replay_check = false;

  std::ostringstream progress;
  const auto campaign =
      check::run_campaign(options, check::InvariantSuite::standard(), progress);
  std::size_t tres = 0, qos = 0, resv = 0;
  for (const auto& outcome : campaign.outcomes) {
    tres += outcome.spec.tres_mode ? 1 : 0;
    qos += outcome.spec.tres_mode && outcome.spec.qos_preempt ? 1 : 0;
    resv += outcome.spec.tres_mode && outcome.spec.reservation ? 1 : 0;
  }
  // The sweep only counts if it actually visited the new regimes.
  EXPECT_GT(tres, 50u);
  EXPECT_GT(qos, 15u);
  EXPECT_GT(resv, 15u);
  EXPECT_EQ(campaign.failures, 0u) << progress.str();
}

}  // namespace
}  // namespace hpcwhisk
