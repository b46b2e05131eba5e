// Slurm-fidelity ablation: what does richer scheduler fidelity do to the
// harvesting story? Four cumulative regimes over the same workload:
//
//   legacy          whole-node jobs, static priority (the pre-fidelity
//                   simulator; golden-pinned)
//   tres            per-TRES packing — HPC jobs draw a whole/half/quarter
//                   node mix and pilots become fractional slices that
//                   co-reside with prime work
//   tres+resv       + rolling maintenance reservations carving nodes out
//                   of both supplies
//   tres+resv+qos   + two-tier QOS pilot preemption (long-fib pilots
//                   ride the protected tier)
//
// Per leg: harvested node-seconds (invoker serving time scaled by the
// pilot's node fraction), harvest efficiency, FaaS cold-start rate and
// p50/p95 response. Acceptance (the bench's exit code):
//   1. the four regimes DIVERGE on harvested node-seconds and on p95 —
//      each knob visibly moves the system;
//   2. the legacy golden decision-log hash still matches (the fidelity
//      layer is opt-in: with the knobs off, byte-identical decisions);
//   3. a SimCheck mini-campaign over the new regimes is invariant-clean.
//
//   HW_BENCH_QUICK=1     64 nodes, short window (CI smoke)
//   HW_SEED=<n>          base RNG seed (default 1)
//   HW_BENCH_TRIALS=<n>  seeds per regime (default 1)
//   HW_BENCH_JOBS=<n>    legs run in parallel (default hw threads)
//   HW_FIDELITY_OUT=<p>  report path (default BENCH_fidelity.json)

#include <cstdlib>
#include <fstream>
#include <iostream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "common/bench_json.hpp"
#include "common/experiment.hpp"
#include "hpcwhisk/check/simcheck.hpp"
#include "hpcwhisk/slurm/testing/golden_trace.hpp"

using namespace hpcwhisk;

namespace {

enum class Regime { kLegacy, kTres, kTresResv, kTresResvQos };
constexpr Regime kRegimes[] = {Regime::kLegacy, Regime::kTres,
                               Regime::kTresResv, Regime::kTresResvQos};

const char* to_string(Regime r) {
  switch (r) {
    case Regime::kLegacy: return "legacy";
    case Regime::kTres: return "tres";
    case Regime::kTresResv: return "tres+resv";
    case Regime::kTresResvQos: return "tres+resv+qos";
  }
  return "?";
}

struct Leg {
  Regime regime{Regime::kLegacy};
  std::uint64_t seed{1};
};

struct LegResult {
  // Slurm perspective.
  std::uint64_t jobs_started{0};
  std::uint64_t preempted{0};
  // Harvest ledger (manager perspective).
  double harvested_node_s{0.0};
  double harvest_efficiency{0.0};
  std::uint64_t pilots_served{0};
  std::uint64_t pilots_never_served{0};
  // FaaS perspective.
  std::uint64_t issued{0};
  std::uint64_t completed{0};
  double cold_start_rate{0.0};
  double p50_ms{0.0};
  double p95_ms{0.0};
};

LegResult run_leg(const Leg& leg, bool quick, std::ostream&) {
  check::ScenarioSpec cfg = bench::base_scenario();
  cfg.supply = core::SupplyModel::kFib;
  cfg.nodes = quick ? 64 : 512;
  cfg.measure_start =
      quick ? sim::SimTime::minutes(15) : sim::SimTime::hours(1);
  cfg.horizon = cfg.measure_start +
                (quick ? sim::SimTime::minutes(30) : sim::SimTime::hours(2));
  cfg.faas_qps = quick ? 30.0 : 120.0;
  cfg.faas_functions = 40;
  bench::reseed(cfg, leg.seed);

  cfg.tres_mode = leg.regime != Regime::kLegacy;
  cfg.reservation = leg.regime == Regime::kTresResv ||
                    leg.regime == Regime::kTresResvQos;
  cfg.qos_preempt = leg.regime == Regime::kTresResvQos;
  // Rolling maintenance windows over the first nodes/16 nodes, sized to
  // the run: several windows must fall inside the measured window for the
  // knob to matter.
  cfg.res_period =
      quick ? sim::SimTime::minutes(12) : sim::SimTime::minutes(40);
  cfg.res_start = cfg.res_period;
  cfg.res_length = quick ? sim::SimTime::minutes(6) : sim::SimTime::minutes(15);
  cfg.res_nodes = std::max<std::uint32_t>(1, cfg.nodes / 16);

  const bench::ExperimentResult result = bench::run_experiment(cfg);

  LegResult out;
  const auto& sc = result.system->slurm().counters();
  out.jobs_started = sc.started;
  out.preempted = sc.preempted;

  // A legacy pilot owns its whole node; a TRES pilot owns a fraction.
  const double node_fraction =
      cfg.tres_mode
          ? static_cast<double>(cfg.pilot_cpus) /
                static_cast<double>(cfg.node_cpus)
          : 1.0;
  const auto& harvest = result.system->manager().harvest();
  out.harvested_node_s = harvest.harvested.to_seconds() * node_fraction;
  out.harvest_efficiency = harvest.efficiency();
  out.pilots_served = harvest.pilots_served;
  out.pilots_never_served = harvest.pilots_never_served;

  out.issued = result.faas_issued;
  std::uint64_t cold = 0;
  std::vector<double> response_ms;
  for (const auto& rec : result.system->controller().activations()) {
    if (rec.state != whisk::ActivationState::kCompleted) continue;
    ++out.completed;
    if (rec.cold_start) ++cold;
    response_ms.push_back(rec.response_time().to_seconds() * 1e3);
  }
  out.cold_start_rate =
      out.completed == 0
          ? 0.0
          : static_cast<double>(cold) / static_cast<double>(out.completed);
  if (!response_ms.empty()) {
    out.p50_ms = analysis::percentile(response_ms, 0.50);
    out.p95_ms = analysis::percentile(response_ms, 0.95);
  }
  return out;
}

std::string fmt_num(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.6g", v);
  return buf;
}

const char* env_or(const char* name, const char* fallback) {
  const char* v = std::getenv(name);
  return v != nullptr ? v : fallback;
}

struct Aggregate {
  double harvested_node_s{0.0};
  double efficiency{0.0};
  double cold_rate{0.0};
  double p50_ms{0.0};
  double p95_ms{0.0};
  double preempted{0.0};
  std::size_t n{0};

  void fold(const LegResult& r) {
    harvested_node_s += r.harvested_node_s;
    efficiency += r.harvest_efficiency;
    cold_rate += r.cold_start_rate;
    p50_ms += r.p50_ms;
    p95_ms += r.p95_ms;
    preempted += static_cast<double>(r.preempted);
    ++n;
  }
  void finish() {
    if (n == 0) return;
    const auto d = static_cast<double>(n);
    harvested_node_s /= d;
    efficiency /= d;
    cold_rate /= d;
    p50_ms /= d;
    p95_ms /= d;
    preempted /= d;
  }
};

/// All four values pairwise distinct (relative gap > 0.01 %)?
bool diverges(const std::vector<double>& v) {
  for (std::size_t i = 0; i < v.size(); ++i) {
    for (std::size_t j = i + 1; j < v.size(); ++j) {
      const double scale = std::max(std::abs(v[i]), std::abs(v[j]));
      if (scale == 0.0 || std::abs(v[i] - v[j]) / scale <= 1e-4) return false;
    }
  }
  return true;
}

}  // namespace

int main() {
  const bool quick = std::getenv("HW_BENCH_QUICK") != nullptr;
  const std::string out_path =
      env_or("HW_FIDELITY_OUT", "BENCH_fidelity.json");
  const std::uint64_t base_seed =
      bench::apply_env(bench::base_scenario()).seed;
  const std::size_t trials = bench::trial_count();

  std::vector<Leg> legs;
  for (const Regime regime : kRegimes) {
    for (std::size_t t = 0; t < trials; ++t) {
      legs.push_back({regime, base_seed + t});
    }
  }
  const std::vector<LegResult> results = exec::parallel_trials(
      legs,
      [quick](const Leg& leg, std::ostream& os) {
        return run_leg(leg, quick, os);
      });

  std::map<Regime, Aggregate> agg;
  for (std::size_t i = 0; i < legs.size(); ++i) {
    agg[legs[i].regime].fold(results[i]);
  }
  for (auto& [regime, a] : agg) a.finish();

  // Acceptance 1: every knob moves the system — harvested node-seconds
  // and p95 are pairwise distinct across the four regimes.
  std::vector<double> harvests, p95s;
  for (const Regime regime : kRegimes) {
    harvests.push_back(agg[regime].harvested_node_s);
    p95s.push_back(agg[regime].p95_ms);
  }
  const bool harvest_diverges = diverges(harvests);
  const bool p95_diverges = diverges(p95s);

  // Acceptance 2: fidelity stays opt-in — the legacy golden decision-log
  // hash is untouched with every knob at its off value.
  const auto golden = slurm::testing::run_golden_trace(
      42, [](slurm::Slurmctld::Config& c) {
        c.fidelity.tres_mode = false;
        c.fidelity.node_capacity = slurm::TresVector{};
        c.fidelity.fair_share.enabled = false;
        c.fidelity.qos.clear();
        c.fidelity.reservations.clear();
      });
  const bool golden_ok = golden.hash == slurm::testing::kGoldenHash;

  // Acceptance 3: a SimCheck mini-campaign over the sampled regimes
  // (seeds 1..12 draw TRES/QOS/reservation mixes) is invariant-clean.
  check::CampaignOptions campaign_opts;
  campaign_opts.seed_base = base_seed;
  campaign_opts.seeds = 12;
  campaign_opts.shrink = false;
  campaign_opts.replay_check = false;
  std::ostringstream campaign_log;
  const auto campaign = check::run_campaign(
      campaign_opts, check::InvariantSuite::standard(), campaign_log);
  const bool simcheck_clean = campaign.ok();

  const bool acceptance_ok =
      harvest_diverges && p95_diverges && golden_ok && simcheck_clean;

  std::vector<std::vector<std::string>> rows;
  for (std::size_t i = 0; i < legs.size(); ++i) {
    const LegResult& r = results[i];
    rows.push_back({
        to_string(legs[i].regime),
        std::to_string(legs[i].seed),
        std::to_string(r.jobs_started),
        std::to_string(r.preempted),
        analysis::fmt(r.harvested_node_s, 0),
        analysis::fmt_pct(r.harvest_efficiency),
        analysis::fmt_pct(r.cold_start_rate),
        analysis::fmt(r.p50_ms, 1),
        analysis::fmt(r.p95_ms, 1),
    });
  }
  analysis::print_table(
      std::cout,
      quick ? "fidelity ablation (quick: 64 nodes)"
            : "fidelity ablation (512 nodes)",
      {"regime", "seed", "started", "preempted", "harvest node-s",
       "efficiency", "cold-start", "p50 ms", "p95 ms"},
      rows);

  std::ofstream json{out_path};
  bench::write_meta_header(json, "ablation_fidelity", quick, base_seed);
  json << "  \"trials\": " << trials << ",\n  \"legs\": [\n";
  for (std::size_t i = 0; i < legs.size(); ++i) {
    const LegResult& r = results[i];
    json << "    {\"regime\": \"" << to_string(legs[i].regime)
         << "\", \"seed\": " << legs[i].seed
         << ", \"jobs_started\": " << r.jobs_started
         << ", \"preempted\": " << r.preempted
         << ", \"harvested_node_s\": " << fmt_num(r.harvested_node_s)
         << ", \"harvest_efficiency\": " << fmt_num(r.harvest_efficiency)
         << ", \"pilots_served\": " << r.pilots_served
         << ", \"pilots_never_served\": " << r.pilots_never_served
         << ", \"issued\": " << r.issued << ", \"completed\": " << r.completed
         << ", \"cold_start_rate\": " << fmt_num(r.cold_start_rate)
         << ", \"p50_ms\": " << fmt_num(r.p50_ms)
         << ", \"p95_ms\": " << fmt_num(r.p95_ms) << "}"
         << (i + 1 < legs.size() ? "," : "") << "\n";
  }
  json << "  ],\n  \"regimes\": {\n";
  for (std::size_t i = 0; i < 4; ++i) {
    const Aggregate& a = agg[kRegimes[i]];
    json << "    \"" << to_string(kRegimes[i])
         << "\": {\"harvested_node_s\": " << fmt_num(a.harvested_node_s)
         << ", \"harvest_efficiency\": " << fmt_num(a.efficiency)
         << ", \"cold_start_rate\": " << fmt_num(a.cold_rate)
         << ", \"p50_ms\": " << fmt_num(a.p50_ms)
         << ", \"p95_ms\": " << fmt_num(a.p95_ms)
         << ", \"preempted\": " << fmt_num(a.preempted) << "}"
         << (i + 1 < 4 ? "," : "") << "\n";
  }
  json << "  },\n  \"golden\": {\"hash\": \"0x" << std::hex << golden.hash
       << std::dec << "\", \"expected\": \"0x" << std::hex
       << slurm::testing::kGoldenHash << std::dec
       << "\", \"log_bytes\": " << golden.log_bytes << "},\n"
       << "  \"simcheck\": {\"seeds\": " << campaign_opts.seeds
       << ", \"failures\": " << campaign.failures << "},\n"
       << "  \"acceptance\": {\"harvest_diverges\": "
       << (harvest_diverges ? "true" : "false")
       << ", \"p95_diverges\": " << (p95_diverges ? "true" : "false")
       << ", \"golden_hash_ok\": " << (golden_ok ? "true" : "false")
       << ", \"simcheck_clean\": " << (simcheck_clean ? "true" : "false")
       << ", \"acceptance_ok\": " << (acceptance_ok ? "true" : "false")
       << "}\n}\n";
  json.close();

  std::cout << "acceptance: harvest "
            << (harvest_diverges ? "diverges" : "DEGENERATE") << ", p95 "
            << (p95_diverges ? "diverges" : "DEGENERATE") << ", golden "
            << (golden_ok ? "intact" : "BROKEN") << ", simcheck "
            << (simcheck_clean ? "clean" : "VIOLATED") << " -> "
            << (acceptance_ok ? "OK" : "VIOLATED") << " (" << out_path
            << ")\n";
  return acceptance_ok ? 0 : 1;
}
