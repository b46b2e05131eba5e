#include "hpcwhisk/check/scenario.hpp"

#include <gtest/gtest.h>

namespace hpcwhisk {
namespace {

TEST(ScenarioSpec, SamplingIsDeterministic) {
  const auto a = check::ScenarioSpec::sample(1234);
  const auto b = check::ScenarioSpec::sample(1234);
  EXPECT_EQ(a, b);
  const auto c = check::ScenarioSpec::sample(1235);
  EXPECT_NE(a, c);
}

TEST(ScenarioSpec, SamplingRespectsRanges) {
  check::SampleOptions opts;
  opts.min_nodes = 6;
  opts.max_nodes = 20;
  for (std::uint64_t seed = 1; seed <= 50; ++seed) {
    const auto s = check::ScenarioSpec::sample(seed, opts);
    EXPECT_EQ(s.seed, seed);
    EXPECT_GE(s.nodes, 6u);
    EXPECT_LE(s.nodes, 20u);
    EXPECT_EQ(s.clusters, 1u);  // max_clusters defaults to 1
    EXPECT_TRUE(s.faults.empty());
    EXPECT_GE(s.faas_functions, 1u);
    EXPECT_GE(s.horizon, sim::SimTime::minutes(18));
    EXPECT_LE(s.horizon, sim::SimTime::minutes(30));
    // The settle window must outlast the 5-minute activation timeout.
    EXPECT_GT(s.settle, sim::SimTime::minutes(5));
  }
}

TEST(ScenarioSpec, ChaosSamplesFaults) {
  check::SampleOptions opts;
  opts.chaos = true;
  std::size_t total = 0;
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    const auto s = check::ScenarioSpec::sample(seed, opts);
    total += s.faults.size();
    for (const auto& f : s.faults) {
      EXPECT_EQ(f.cluster, 0u);
      EXPECT_GE(f.event.at, sim::SimTime::minutes(3));
      EXPECT_LE(f.event.at, s.horizon);
    }
  }
  EXPECT_GT(total, 20u);  // ~27/hour over ~15 min windows, 20 seeds
}

TEST(ScenarioSpec, FederationSamplesMultipleClusters) {
  check::SampleOptions opts;
  opts.chaos = true;
  opts.max_clusters = 3;
  opts.fed_probability = 1.0;
  bool saw_multi = false;
  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    const auto s = check::ScenarioSpec::sample(seed, opts);
    EXPECT_GE(s.clusters, 2u);
    EXPECT_LE(s.clusters, 3u);
    if (s.clusters > 1) saw_multi = true;
    for (const auto& f : s.faults) EXPECT_LT(f.cluster, s.clusters);
  }
  EXPECT_TRUE(saw_multi);
}

TEST(ScenarioSpec, ElementsCountsFaultsFunctionsAndClusters) {
  check::ScenarioSpec s;
  s.faas_functions = 3;
  s.clusters = 2;
  s.faults.resize(4);
  EXPECT_EQ(s.elements(), 9u);
}

TEST(ScenarioSpec, BugPlantStringsRoundTrip) {
  for (const auto plant :
       {check::BugPlant::kNone, check::BugPlant::kTruncateGrace,
        check::BugPlant::kTresOvercommit, check::BugPlant::kReservationIgnored}) {
    EXPECT_EQ(check::bug_plant_from_string(check::to_string(plant)), plant);
  }
  EXPECT_THROW((void)check::bug_plant_from_string("nope"),
               std::invalid_argument);
}

TEST(ScenarioSpec, SamplesFidelityRegimes) {
  // The fidelity draws (TRES geometry, QOS preemption, reservations) are
  // sampled often enough that a modest campaign visits every regime.
  std::size_t tres = 0, qos = 0, resv = 0;
  for (std::uint64_t seed = 1; seed <= 200; ++seed) {
    const auto s = check::ScenarioSpec::sample(seed);
    if (!s.tres_mode) continue;
    ++tres;
    qos += s.qos_preempt ? 1 : 0;
    resv += s.reservation ? 1 : 0;
    // Geometry sanity: a pilot slice always fits inside a node.
    EXPECT_GE(s.node_cpus, 4u);
    EXPECT_LE(s.node_cpus, 16u);
    EXPECT_GE(s.pilot_cpus, 1u);
    EXPECT_LE(s.pilot_cpus, s.node_cpus / 2 > 0 ? s.node_cpus / 2 : 1u);
    EXPECT_LE(s.pilot_mem_mb, s.node_mem_mb);
    if (s.reservation) {
      // One window opening at 20-60 % of the horizon, 4-10 min long.
      EXPECT_EQ(s.res_period, sim::SimTime::zero());
      EXPECT_GE(s.res_start.to_seconds(), 0.2 * s.horizon.to_seconds() - 1e-6);
      EXPECT_LE(s.res_start.to_seconds(), 0.6 * s.horizon.to_seconds() + 1e-6);
      EXPECT_GE(s.res_length, sim::SimTime::minutes(4));
      EXPECT_LE(s.res_length, sim::SimTime::minutes(10));
      EXPECT_GE(s.res_nodes, 1u);
    }
  }
  EXPECT_GT(tres, 50u);
  EXPECT_GT(qos, 15u);
  EXPECT_GT(resv, 15u);
}

TEST(ScenarioSpec, FidelityDrawsAreSeedDeterministic) {
  // The fidelity fields are drawn unconditionally (fixed draw count), so
  // a seed's pre-fidelity fields are what they were before the fields
  // existed, and the fidelity block itself is reproducible.
  for (std::uint64_t seed = 1; seed <= 30; ++seed) {
    const auto a = check::ScenarioSpec::sample(seed, {.chaos = true});
    const auto b = check::ScenarioSpec::sample(seed, {.chaos = true});
    EXPECT_EQ(a.tres_mode, b.tres_mode);
    EXPECT_EQ(a.node_cpus, b.node_cpus);
    EXPECT_EQ(a.pilot_cpus, b.pilot_cpus);
    EXPECT_EQ(a.qos_preempt, b.qos_preempt);
    EXPECT_EQ(a.reservation, b.reservation);
    EXPECT_EQ(a.res_start, b.res_start);
  }
}

TEST(ScenarioSpec, SummaryMentionsFidelityRegime) {
  // Seed 6 is the first tres_mode draw (fidelity_check_test relies on
  // it); its summary must say so.
  const auto s = check::ScenarioSpec::sample(6);
  ASSERT_TRUE(s.tres_mode);
  EXPECT_NE(s.summary().find("+tres"), std::string::npos);
}

TEST(ScenarioSpec, SamplesEveryRouteModeAndDeadlineClasses) {
  std::size_t mode_seen[6] = {};
  bool dl_on = false, dl_off = false;
  for (std::uint64_t seed = 1; seed <= 200; ++seed) {
    const auto s = check::ScenarioSpec::sample(seed);
    ++mode_seen[static_cast<std::size_t>(s.route_mode)];
    (s.deadline_classes ? dl_on : dl_off) = true;
  }
  for (std::size_t m = 0; m < 6; ++m) {
    EXPECT_GT(mode_seen[m], 0u) << "route mode " << m << " never sampled";
  }
  EXPECT_TRUE(dl_on);
  EXPECT_TRUE(dl_off);
}

TEST(ScenarioSpec, RouteModeDrawsAreSeedDeterministic) {
  for (std::uint64_t seed = 1; seed <= 30; ++seed) {
    const auto a = check::ScenarioSpec::sample(seed, {.chaos = true});
    const auto b = check::ScenarioSpec::sample(seed, {.chaos = true});
    EXPECT_EQ(a.route_mode, b.route_mode);
    EXPECT_EQ(a.deadline_classes, b.deadline_classes);
  }
}

TEST(ScenarioSpec, SummaryMentionsKeyKnobs) {
  const auto s = check::ScenarioSpec::sample(7);
  const std::string summary = s.summary();
  EXPECT_NE(summary.find("seed=7"), std::string::npos);
  EXPECT_NE(summary.find("nodes="), std::string::npos);
}

}  // namespace
}  // namespace hpcwhisk
