#include "hpcwhisk/check/repro.hpp"

#include <gtest/gtest.h>

#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "hpcwhisk/check/runner.hpp"
#include "hpcwhisk/check/simcheck.hpp"

namespace hpcwhisk {
namespace {

check::Repro make_repro() {
  check::Repro repro;
  repro.invariant = "grace-respected";
  repro.message = "pilot 42 sigterm deadline mismatch";
  repro.decision_hash = 0xDEADBEEFCAFEF00DULL;
  repro.spec = check::ScenarioSpec::sample(
      99, {.chaos = true, .max_clusters = 3, .fed_probability = 1.0});
  repro.spec.plant = check::BugPlant::kTruncateGrace;
  return repro;
}

/// A written repro relabelled as the v1 format, which ignores the
/// fields v1 never had and derives the seed streams.
std::string as_v1(std::string json) {
  const std::string v2{check::kReproFormat};
  json.replace(json.find(v2), v2.size(), check::kReproFormatV1);
  return json;
}

/// Replaces the value of the first `"key": value` in `json`.
std::string with_value(std::string json, const std::string& key,
                       const std::string& value) {
  const std::size_t pos = json.find("\"" + key + "\": ");
  EXPECT_NE(pos, std::string::npos) << key;
  const std::size_t vstart = pos + key.size() + 4;
  const std::size_t vend = json.find_first_of(",\n}", vstart);
  json.replace(vstart, vend - vstart, value);
  return json;
}

TEST(Repro, RoundTripPreservesEverything) {
  const check::Repro original = make_repro();
  ASSERT_FALSE(original.spec.faults.empty());
  ASSERT_GT(original.spec.clusters, 1u);

  const std::string json = check::write_repro(original);
  const check::Repro parsed = check::parse_repro(json);

  EXPECT_EQ(parsed.invariant, original.invariant);
  EXPECT_EQ(parsed.message, original.message);
  EXPECT_EQ(parsed.decision_hash, original.decision_hash);
  EXPECT_EQ(parsed.spec, original.spec);
}

TEST(Repro, RoundTripPreservesNonRepresentableDoubles) {
  check::Repro repro = make_repro();
  repro.spec.faas_qps = 0.1 + 0.2;  // 0.30000000000000004
  repro.spec.lull_probability = 1.0 / 3.0;
  const check::Repro parsed = check::parse_repro(check::write_repro(repro));
  EXPECT_EQ(parsed.spec.faas_qps, repro.spec.faas_qps);
  EXPECT_EQ(parsed.spec.lull_probability, repro.spec.lull_probability);
}

TEST(Repro, WriteIsDeterministic) {
  const check::Repro repro = make_repro();
  EXPECT_EQ(check::write_repro(repro), check::write_repro(repro));
}

TEST(Repro, EscapesStringsInMessages) {
  check::Repro repro = make_repro();
  repro.message = "got \"quote\"\nand\ttabs \\ backslash";
  const check::Repro parsed = check::parse_repro(check::write_repro(repro));
  EXPECT_EQ(parsed.message, repro.message);
}

TEST(Repro, RoundTripPreservesRouteModeAndDeadlineClasses) {
  check::Repro repro = make_repro();
  repro.spec.route_mode = whisk::RouteMode::kSjfAffinity;
  repro.spec.deadline_classes = true;
  const check::Repro parsed = check::parse_repro(check::write_repro(repro));
  EXPECT_EQ(parsed.spec.route_mode, whisk::RouteMode::kSjfAffinity);
  EXPECT_TRUE(parsed.spec.deadline_classes);
}

TEST(Repro, RoundTripPreservesFidelityFields) {
  check::Repro repro = make_repro();
  repro.spec.tres_mode = true;
  repro.spec.node_cpus = 12;
  repro.spec.node_mem_mb = 48000;
  repro.spec.pilot_cpus = 5;
  repro.spec.pilot_mem_mb = 20000;
  repro.spec.qos_preempt = true;
  repro.spec.reservation = true;
  repro.spec.res_start = sim::SimTime::seconds(500);
  repro.spec.res_period = sim::SimTime::minutes(9);
  repro.spec.res_length = sim::SimTime::minutes(7);
  repro.spec.res_nodes = 3;
  repro.spec.plant = check::BugPlant::kTresOvercommit;
  const check::Repro parsed = check::parse_repro(check::write_repro(repro));
  EXPECT_EQ(parsed.spec, repro.spec);
  EXPECT_EQ(parsed.spec.plant, check::BugPlant::kTresOvercommit);
}

TEST(Repro, ParsesPreFidelityReprosWithDefaults) {
  // Repros written before the Slurm-fidelity layer lack the TRES /
  // QOS / reservation fields; they must parse and mean what they always
  // meant (all fidelity off).
  std::string json = as_v1(check::write_repro(make_repro()));
  for (const auto field :
       {"\"tres_mode\"", "\"node_cpus\"", "\"node_mem_mb\"", "\"pilot_cpus\"",
        "\"pilot_mem_mb\"", "\"qos_preempt\"", "\"reservation\"",
        "\"res_start_us\"", "\"res_length_us\"", "\"res_nodes\""}) {
    const std::size_t start = json.find(field);
    ASSERT_NE(start, std::string::npos) << field;
    const std::size_t line_start = json.rfind(",\n", start);
    const std::size_t line_end = json.find(",\n", start);
    ASSERT_NE(line_start, std::string::npos);
    ASSERT_NE(line_end, std::string::npos);
    json.erase(line_start, line_end - line_start);
  }
  const check::Repro parsed = check::parse_repro(json);
  EXPECT_FALSE(parsed.spec.tres_mode);
  EXPECT_FALSE(parsed.spec.qos_preempt);
  EXPECT_FALSE(parsed.spec.reservation);
  EXPECT_EQ(parsed.spec.node_cpus, 8u);
  EXPECT_EQ(parsed.spec.node_mem_mb, 32000u);
  EXPECT_EQ(parsed.spec.pilot_cpus, 0u);

  // A v1 repro replays deterministically with the fidelity defaults.
  check::Repro replayable = parsed;
  replayable.spec.plant = check::BugPlant::kNone;
  const auto run_a = check::run_scenario(replayable.spec);
  const auto run_b = check::run_scenario(replayable.spec);
  EXPECT_EQ(run_a.decision_hash, run_b.decision_hash);
}

TEST(Repro, ParsesPreRouteModeReprosWithDefaults) {
  // Repros written before data-driven scheduling lack the route fields;
  // they must parse and mean what they always meant.
  std::string json = as_v1(check::write_repro(make_repro()));
  const auto strip = [&json](std::string_view field) {
    const std::size_t start = json.find(field);
    ASSERT_NE(start, std::string::npos);
    const std::size_t line_start = json.rfind(",\n", start);
    const std::size_t line_end = json.find(",\n", start);
    ASSERT_NE(line_start, std::string::npos);
    ASSERT_NE(line_end, std::string::npos);
    json.erase(line_start, line_end - line_start);
  };
  strip("\"route_mode\"");
  strip("\"deadline_classes\"");
  const check::Repro parsed = check::parse_repro(json);
  EXPECT_EQ(parsed.spec.route_mode, whisk::RouteMode::kHashProbing);
  EXPECT_FALSE(parsed.spec.deadline_classes);
}

TEST(Repro, RejectsUnknownRouteMode) {
  std::string json = check::write_repro(make_repro());
  const std::size_t pos = json.find("\"route_mode\": \"");
  ASSERT_NE(pos, std::string::npos);
  const std::size_t vstart = json.find(": \"", pos) + 3;
  const std::size_t vend = json.find('"', vstart);
  json.replace(vstart, vend - vstart, "teleport");
  EXPECT_THROW((void)check::parse_repro(json), std::invalid_argument);
}

TEST(Repro, RejectsMalformedInput) {
  EXPECT_THROW((void)check::parse_repro(""), std::invalid_argument);
  EXPECT_THROW((void)check::parse_repro("{"), std::invalid_argument);
  EXPECT_THROW((void)check::parse_repro("not json at all"),
               std::invalid_argument);
  EXPECT_THROW((void)check::parse_repro("{\"format\": \"something-else\"}"),
               std::invalid_argument);

  // Integer fields take plain non-negative integer literals only: no
  // wrap-around of negatives, no rounding of fractions or exponents, no
  // narrowing past the field's width. Real fields take one whole
  // number, never a leading prefix of the literal.
  const std::string good = check::write_repro(make_repro());
  ASSERT_NO_THROW((void)check::parse_repro(good));
  for (const auto& [key, bad] :
       std::vector<std::pair<std::string, std::string>>{
           {"nodes", "-1"},
           {"nodes", "1.5"},
           {"nodes", "1e3"},
           {"nodes", "4294967296"},
           {"seed", "18446744073709551616"},
           {"horizon_us", "-60000000"},
           {"fib_per_length", "+3"},
           {"faas_qps", "4-1"},
           {"probability", "0.3.5"},
           {"lull_probability", "1e-3e2"},
           {"decision_hash", "\"0xZZ\""},
           {"decision_hash", "\"123\""},
           {"decision_hash", "\"0x\""},
           {"decision_hash", "\"0x10000000000000000\""},
       }) {
    EXPECT_THROW((void)check::parse_repro(with_value(good, key, bad)),
                 std::invalid_argument)
        << key << " = " << bad;
  }
}

TEST(Repro, RoundTripsFullWidthSeeds) {
  check::Repro repro = make_repro();
  repro.spec.seed = 0xFFFFFFFFFFFFFFFFULL;
  repro.spec.faas_seed = 0x9E3779B97F4A7C15ULL;
  const check::Repro parsed = check::parse_repro(check::write_repro(repro));
  EXPECT_EQ(parsed.spec.seed, repro.spec.seed);
  EXPECT_EQ(parsed.spec.faas_seed, repro.spec.faas_seed);
}

TEST(Repro, V2RequiresEveryField) {
  // Only v1 files may omit fields (they predate them); a v2 file
  // missing one is malformed.
  std::string json = check::write_repro(make_repro());
  const std::size_t start = json.find("\"keep_alive_reap_us\"");
  ASSERT_NE(start, std::string::npos);
  const std::size_t line_start = json.rfind(",\n", start);
  json.erase(line_start, json.find(",\n", start) - line_start);
  EXPECT_THROW((void)check::parse_repro(json), std::invalid_argument);
  EXPECT_NO_THROW((void)check::parse_repro(as_v1(json)));
}

TEST(Repro, V1FixturesReplayToTheirRecordedHash) {
  // Written by the v1 writer before the scenario merge: a single-cluster
  // TRES + reservation scenario and a federated chaos scenario. Both
  // must still parse and replay to the decision hash recorded then.
  for (const char* name : {"repro_v1_tres_reservation.json",
                           "repro_v1_federated_chaos.json"}) {
    std::ifstream in{std::string{HPCWHISK_CHECK_FIXTURES} + "/" + name};
    ASSERT_TRUE(in) << name;
    std::ostringstream text;
    text << in.rdbuf();
    const check::Repro repro = check::parse_repro(text.str());
    EXPECT_EQ(check::run_scenario(repro.spec).decision_hash,
              repro.decision_hash)
        << name;
  }
}

TEST(Repro, PilotSigtermedInsideTheLaunchLatencyReplaysClean) {
  // Chaos seed 60 of a 3-cluster campaign, shrunk to a fault-free single
  // cluster: four pilots got SIGTERM inside Slurm's launch latency, were
  // told to start anyway, served through their grace and died at
  // SIGKILL, failing pilot-accounting (hard kills without a node
  // failure). The recorded hash is that failing run's.
  std::ifstream in{std::string{HPCWHISK_CHECK_FIXTURES} +
                   "/repro_v2_sigterm_inside_launch_latency.json"};
  ASSERT_TRUE(in);
  std::ostringstream text;
  text << in.rdbuf();
  const check::Repro repro = check::parse_repro(text.str());
  ASSERT_EQ(repro.invariant, "pilot-accounting");
  const check::CheckResult result =
      check::check_scenario(repro.spec, check::InvariantSuite::standard());
  for (const check::Violation& v : result.violations)
    ADD_FAILURE() << "[" << v.invariant << "] " << v.message;
  EXPECT_TRUE(result.ok());
}

TEST(Repro, RejectsMissingFields) {
  const std::string json = check::write_repro(make_repro());
  // Chop the closing brace and the last field off: still syntactically
  // truncated, must not parse.
  EXPECT_THROW((void)check::parse_repro(json.substr(0, json.size() / 2)),
               std::invalid_argument);
}

}  // namespace
}  // namespace hpcwhisk
