// Ablation: controller load-balancing policy, including the data-driven
// sched modes. OpenWhisk routes a function to a hash-selected "home"
// invoker to maximize warm-container reuse (Sec. II); with probing it
// overflows only when the home is saturated — but it counts *calls*,
// not work. Under a heterogeneous short/long mix a short call hashed
// behind a pile of 30 s executions waits, and that wait is the tail.
// The data-driven modes (least-expected-work, sjf-affinity) route on
// predicted remaining *work* from the online duration estimators, which
// is exactly what the call-scheduling papers (Żuk & Rzadca) show cuts
// FaaS response time.
//
// Every leg runs the same pilot supply and the same open-loop mix of
// short (10 ms sleep) and long (faas_long_share at faas_long_duration)
// functions through bench::run_experiment; only the route mode differs.
// The emitted BENCH_routing.json carries per-leg latency quantiles,
// warm-start rate and estimator quality, plus the acceptance flags: the
// best data-driven mode must beat kHashProbing on p95 at an
// equal-or-better warm-start rate.
//
//   HW_BENCH_QUICK=1     smaller cluster, shorter window
//   HW_SEED=<n>          base RNG seed (default 1)
//   HW_BENCH_TRIALS=<n>  seeds per mode (default 1)
//   HW_BENCH_JOBS=<n>    legs run in parallel (default hw threads)
//   HW_ROUTING_OUT=<p>   report path (default BENCH_routing.json)

#include <cstdlib>
#include <fstream>
#include <iostream>
#include <map>
#include <string>
#include <vector>

#include "common/bench_json.hpp"
#include "common/experiment.hpp"

using namespace hpcwhisk;

namespace {

// The heterogeneous mix shared by every leg (echoed in the JSON header).
constexpr double kLongShare = 0.025;  // 1 of 40 functions
constexpr int kLongDurationS = 30;

struct Leg {
  whisk::RouteMode mode{whisk::RouteMode::kHashProbing};
  std::uint64_t seed{1};
};

struct LegResult {
  std::uint64_t issued{0};
  std::uint64_t completed{0};
  std::uint64_t timed_out{0};
  std::uint64_t rejected_503{0};
  std::uint64_t requeues{0};
  double warm_start_rate{0.0};
  double p50_ms{0.0};
  double p95_ms{0.0};
  double p99_ms{0.0};
  double mean_ms{0.0};
  // Data-driven legs only (has_sched).
  bool has_sched{false};
  std::uint64_t sched_decisions{0};
  std::uint64_t sched_cold_routed{0};
  std::uint64_t sched_short_class{0};
  std::uint64_t sched_affinity_escaped{0};
  std::uint64_t prior_hits{0};
  std::uint64_t error_observations{0};
  double mean_abs_error_ms{0.0};
  std::int64_t end_backlog_ticks{0};
  std::size_t end_charges{0};
  std::uint64_t nonterminal{0};
  /// Charges still attached to *terminal* activations — a real ledger
  /// leak (end_charges alone is not: the run ends with work in flight).
  std::uint64_t orphan_charges{0};
};

LegResult run_leg(const Leg& leg, bool quick, std::ostream&) {
  check::ScenarioSpec cfg = bench::base_scenario();
  cfg.supply = core::SupplyModel::kFib;
  cfg.nodes = quick ? 48 : 96;
  cfg.measure_start = sim::SimTime::minutes(quick ? 15 : 30);
  cfg.horizon = cfg.measure_start +
                (quick ? sim::SimTime::minutes(45) : sim::SimTime::hours(2));
  cfg.faas_qps = quick ? 6.0 : 12.0;
  cfg.faas_functions = 40;
  // The heterogeneous mix: 2.5 % of the traffic is 30 s interruptible
  // actions, the rest 10 ms sleeps — below the p95 quantile, so the
  // overall p95 measures *shorts queueing behind longs*, not the long
  // executions themselves.
  cfg.faas_long_share = kLongShare;
  cfg.faas_long_duration = sim::SimTime::seconds(kLongDurationS);
  // Deadline classes are part of the data-driven subsystem under test:
  // predicted-short calls may jump queue position at publish time.
  cfg.deadline_classes = true;
  // A 4-wide dispatch gate makes queueing real (one long execution is a
  // quarter of an invoker); probing gets the matching slot count so the
  // baseline saturates exactly when the invoker does.
  cfg.invoker_concurrency = 4;
  cfg.invoker_slots = 4;
  bench::reseed(cfg, leg.seed);
  cfg.route_mode = leg.mode;

  const bench::ExperimentResult result = bench::run_experiment(cfg);
  const whisk::Controller& ctrl = result.system->controller();

  LegResult out;
  out.issued = result.faas_issued;
  const auto& c = ctrl.counters();
  out.timed_out = c.timed_out;
  out.rejected_503 = c.rejected_503;
  out.requeues = c.requeued;

  std::vector<double> response_ms;
  std::uint64_t cold = 0;
  for (const auto& rec : ctrl.activations()) {
    if (rec.state != whisk::ActivationState::kCompleted) continue;
    ++out.completed;
    if (rec.cold_start) ++cold;
    response_ms.push_back(rec.response_time().to_seconds() * 1e3);
  }
  out.warm_start_rate =
      out.completed == 0
          ? 0.0
          : 1.0 - static_cast<double>(cold) / static_cast<double>(out.completed);
  if (!response_ms.empty()) {
    const auto rt = analysis::summarize(response_ms);
    out.p50_ms = rt.p50;
    out.mean_ms = rt.avg;
    out.p95_ms = analysis::percentile(response_ms, 0.95);
    out.p99_ms = analysis::percentile(response_ms, 0.99);
  }

  if (const sched::CallScheduler* sched = ctrl.scheduler()) {
    out.has_sched = true;
    const auto& s = sched->stats();
    out.sched_decisions = s.decisions;
    out.sched_cold_routed = s.cold_routed;
    out.sched_short_class = s.short_class;
    out.sched_affinity_escaped = s.affinity_escaped;
    out.prior_hits = sched->estimator().stats().prior_hits;
    out.error_observations = s.error_observations;
    out.mean_abs_error_ms =
        s.error_observations == 0
            ? 0.0
            : static_cast<double>(s.sum_abs_error_ticks) /
                  static_cast<double>(s.error_observations) / 1e3;
    // Backlog conservation at end of run: work still in flight at the
    // horizon is legitimately charged, so "charges == 0" is the wrong
    // invariant. The leak test is: no charge may survive its call's
    // terminal state, and charges cannot outnumber non-terminal calls.
    out.end_backlog_ticks = sched->ledger().total();
    out.end_charges = sched->ledger().charge_count();
    for (const auto& rec : ctrl.activations()) {
      if (!whisk::is_terminal(rec.state)) {
        ++out.nonterminal;
      } else if (sched->ledger().find(rec.id) != nullptr) {
        ++out.orphan_charges;
      }
    }
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
  double p95_ms{0.0};
  double warm{0.0};
  std::size_t n{0};
};

}  // namespace

int main() {
  const bool quick = std::getenv("HW_BENCH_QUICK") != nullptr;
  const std::string out_path = env_or("HW_ROUTING_OUT", "BENCH_routing.json");
  const std::uint64_t base_seed =
      bench::apply_env(bench::base_scenario()).seed;
  const std::size_t trials = bench::trial_count();

  const std::vector<whisk::RouteMode> sweep{
      whisk::RouteMode::kHashProbing,      whisk::RouteMode::kHashOnly,
      whisk::RouteMode::kRoundRobin,       whisk::RouteMode::kLeastLoaded,
      whisk::RouteMode::kLeastExpectedWork, whisk::RouteMode::kSjfAffinity};
  std::vector<Leg> legs;
  for (const whisk::RouteMode mode : sweep) {
    for (std::size_t t = 0; t < trials; ++t) {
      legs.push_back({mode, base_seed + t});
    }
  }

  const std::vector<LegResult> results = exec::parallel_trials(
      legs, [quick](const Leg& leg, std::ostream& os) {
        return run_leg(leg, quick, os);
      });

  // Seed-averaged per-mode aggregates for the acceptance inequalities.
  std::map<int, Aggregate> agg;
  for (std::size_t i = 0; i < legs.size(); ++i) {
    Aggregate& a = agg[static_cast<int>(legs[i].mode)];
    a.p95_ms += results[i].p95_ms;
    a.warm += results[i].warm_start_rate;
    ++a.n;
  }
  for (auto& [mode, a] : agg) {
    a.p95_ms /= static_cast<double>(a.n);
    a.warm /= static_cast<double>(a.n);
  }

  // Acceptance: the better data-driven mode (by p95) must beat
  // kHashProbing on p95 at an equal-or-better warm-start rate.
  const Aggregate& hash = agg[static_cast<int>(whisk::RouteMode::kHashProbing)];
  const Aggregate& lew =
      agg[static_cast<int>(whisk::RouteMode::kLeastExpectedWork)];
  const Aggregate& sjf = agg[static_cast<int>(whisk::RouteMode::kSjfAffinity)];
  const bool lew_qualifies = lew.warm >= hash.warm;
  const bool sjf_qualifies = sjf.warm >= hash.warm;
  const whisk::RouteMode candidate =
      (lew_qualifies && (!sjf_qualifies || lew.p95_ms <= sjf.p95_ms))
          ? whisk::RouteMode::kLeastExpectedWork
          : whisk::RouteMode::kSjfAffinity;
  const Aggregate& cand =
      agg[static_cast<int>(candidate)];
  const bool p95_beats = cand.p95_ms < hash.p95_ms;
  const bool warm_not_worse = cand.warm >= hash.warm;
  const bool acceptance_ok = p95_beats && warm_not_worse;

  std::vector<std::vector<std::string>> rows;
  for (std::size_t i = 0; i < legs.size(); ++i) {
    const LegResult& r = results[i];
    rows.push_back({
        to_string(legs[i].mode),
        std::to_string(legs[i].seed),
        std::to_string(r.completed),
        analysis::fmt_pct(r.warm_start_rate),
        analysis::fmt(r.p50_ms, 1),
        analysis::fmt(r.p95_ms, 1),
        analysis::fmt(r.p99_ms, 1),
        std::to_string(r.timed_out),
        r.has_sched ? analysis::fmt(r.mean_abs_error_ms, 1) : "-",
    });
  }
  analysis::print_table(
      std::cout,
      quick ? "ablation: routing under short/long mix (quick: 48 nodes)"
            : "ablation: routing under short/long mix (96 nodes, 2 h)",
      {"policy", "seed", "completed", "warm-start", "p50 ms", "p95 ms",
       "p99 ms", "timeouts", "pred err ms"},
      rows);

  std::ofstream json{out_path};
  bench::write_meta_header(json, "ablation_routing", quick, base_seed);
  json << "  \"trials\": " << trials << ",\n"
       << "  \"long_share\": " << fmt_num(kLongShare) << ",\n"
       << "  \"long_duration_s\": " << kLongDurationS << ",\n"
       << "  \"legs\": [\n";
  for (std::size_t i = 0; i < legs.size(); ++i) {
    const LegResult& r = results[i];
    json << "    {\"mode\": \"" << to_string(legs[i].mode) << "\", \"seed\": "
         << legs[i].seed << ", \"issued\": " << r.issued
         << ", \"completed\": " << r.completed
         << ", \"timed_out\": " << r.timed_out
         << ", \"rejected_503\": " << r.rejected_503
         << ", \"requeues\": " << r.requeues
         << ", \"warm_start_rate\": " << fmt_num(r.warm_start_rate)
         << ", \"p50_ms\": " << fmt_num(r.p50_ms)
         << ", \"p95_ms\": " << fmt_num(r.p95_ms)
         << ", \"p99_ms\": " << fmt_num(r.p99_ms)
         << ", \"mean_ms\": " << fmt_num(r.mean_ms);
    if (r.has_sched) {
      json << ", \"sched\": {\"decisions\": " << r.sched_decisions
           << ", \"cold_routed\": " << r.sched_cold_routed
           << ", \"short_class\": " << r.sched_short_class
           << ", \"affinity_escaped\": " << r.sched_affinity_escaped
           << ", \"prior_hits\": " << r.prior_hits
           << ", \"error_observations\": " << r.error_observations
           << ", \"mean_abs_error_ms\": " << fmt_num(r.mean_abs_error_ms)
           << ", \"end_charges\": " << r.end_charges
           << ", \"end_backlog_ticks\": " << r.end_backlog_ticks
           << ", \"nonterminal\": " << r.nonterminal
           << ", \"orphan_charges\": " << r.orphan_charges << "}";
    }
    json << "}" << (i + 1 < legs.size() ? "," : "") << "\n";
  }
  json << "  ],\n  \"modes\": {\n";
  std::size_t k = 0;
  for (const whisk::RouteMode mode : sweep) {
    const Aggregate& a = agg[static_cast<int>(mode)];
    json << "    \"" << to_string(mode) << "\": {\"p95_ms\": "
         << fmt_num(a.p95_ms) << ", \"warm_start_rate\": " << fmt_num(a.warm)
         << "}" << (++k < sweep.size() ? "," : "") << "\n";
  }
  json << "  },\n"
       << "  \"acceptance\": {\"candidate\": \"" << to_string(candidate)
       << "\", \"p95_beats_hash_probing\": " << (p95_beats ? "true" : "false")
       << ", \"warm_rate_not_worse\": " << (warm_not_worse ? "true" : "false")
       << ", \"acceptance_ok\": " << (acceptance_ok ? "true" : "false")
       << "}\n}\n";
  json.close();

  std::cout << "acceptance: " << to_string(candidate) << " p95 "
            << fmt_num(cand.p95_ms) << " ms vs hash-probing "
            << fmt_num(hash.p95_ms) << " ms, warm "
            << analysis::fmt_pct(cand.warm) << " vs "
            << analysis::fmt_pct(hash.warm) << " -> "
            << (acceptance_ok ? "OK" : "VIOLATED") << " (" << out_path << ")\n";
  return acceptance_ok ? 0 : 1;
}
