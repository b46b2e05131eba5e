// Serving-tier bench: open-loop QPS sweep, lease tier vs the classic
// controller -> topic -> pull path.
//
// The workload is the skewed mix the lease tier is designed for: 80 % of
// the open-loop traffic concentrates on 8 hot functions (production FaaS
// traces are this shaped), the rest round-robins over the remaining
// names. Each QPS step runs twice per seed — a baseline leg (hash
// probing, fixed keep-alive, no reaping: the historical configuration)
// and a lease leg (warm-executor leases + direct invoke, hybrid
// keep-alive with periodic reaping). Full scale is the paper's 2,239
// Prometheus nodes swept to 10k QPS; quick scale shrinks the cluster
// and the steps for CI.
//
// Acceptance (top QPS step, seed-averaged): the lease leg must beat the
// baseline on p95 AND on cold-start rate, and serve at least half of
// all accepted calls through the direct seam (lease hit rate >= 0.5).
//
//   HW_BENCH_QUICK=1     64 nodes, steps {50, 150, 300} QPS
//   HW_SEED=<n>          base RNG seed (default 1)
//   HW_BENCH_TRIALS=<n>  seeds per leg (default 1)
//   HW_BENCH_JOBS=<n>    legs run in parallel (default hw threads)
//   HW_SERVING_OUT=<p>   report path (default BENCH_serving.json)

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

// The skewed mix shared by every leg (echoed in the JSON header).
constexpr double kHotShare = 0.8;
constexpr std::size_t kHotFunctions = 8;
constexpr std::size_t kFunctions = 40;

struct Leg {
  double qps{0.0};
  bool lease{false};
  std::uint64_t seed{1};
};

struct LegResult {
  std::uint64_t issued{0};
  std::uint64_t accepted{0};
  std::uint64_t completed{0};
  std::uint64_t timed_out{0};
  std::uint64_t rejected_503{0};
  std::uint64_t failed{0};
  std::uint64_t requeued{0};
  std::uint64_t interrupted{0};
  std::uint64_t cold{0};
  double cold_start_rate{0.0};
  double p50_ms{0.0};
  double p95_ms{0.0};
  double p99_ms{0.0};
  double mean_ms{0.0};
  // Lease legs only.
  std::uint64_t lease_hits{0};
  std::uint64_t lease_granted{0};
  std::uint64_t lease_renewed{0};
  std::uint64_t lease_expired{0};
  std::uint64_t lease_revoked{0};
  std::uint64_t lease_fallbacks{0};
  std::uint64_t direct_invocations{0};
  double hit_rate{0.0};
  double revocation_rate{0.0};
};

LegResult run_leg(const Leg& leg, bool quick, std::ostream&) {
  check::ScenarioSpec cfg = bench::base_scenario();
  cfg.supply = core::SupplyModel::kFib;
  cfg.nodes = quick ? 64 : 2239;
  cfg.measure_start =
      quick ? sim::SimTime::minutes(15) : sim::SimTime::hours(2);
  cfg.horizon = cfg.measure_start + sim::SimTime::minutes(30);
  cfg.faas_qps = leg.qps;
  cfg.faas_functions = kFunctions;
  cfg.faas_hot_share = kHotShare;
  cfg.faas_hot_functions = kHotFunctions;
  bench::reseed(cfg, leg.seed);
  if (leg.lease) {
    cfg.lease_mode = true;
    // The keep-alive engine rides the lease leg: hybrid policy (adaptive
    // per-function timeouts, pressure-scaled) with the periodic reaper
    // on. The floor stays comfortably above the hot functions' bursts.
    cfg.keep_alive = runtime::KeepAlivePolicy::kHybrid;
    cfg.keep_alive_floor = sim::SimTime::seconds(60);
    cfg.keep_alive_reap = sim::SimTime::seconds(30);
  }

  const bench::ExperimentResult result = bench::run_experiment(cfg);
  const whisk::Controller& ctrl = result.system->controller();

  LegResult out;
  out.issued = result.faas_issued;
  const auto& c = ctrl.counters();
  out.accepted = c.accepted;
  out.timed_out = c.timed_out;
  out.rejected_503 = c.rejected_503;
  out.failed = c.failed;
  out.requeued = c.requeued;
  out.interrupted = c.interrupted;

  std::vector<double> response_ms;
  for (const auto& rec : ctrl.activations()) {
    if (rec.state != whisk::ActivationState::kCompleted) continue;
    ++out.completed;
    if (rec.cold_start) ++out.cold;
    response_ms.push_back(rec.response_time().to_seconds() * 1e3);
  }
  out.cold_start_rate =
      out.completed == 0
          ? 0.0
          : static_cast<double>(out.cold) / static_cast<double>(out.completed);
  if (!response_ms.empty()) {
    const auto rt = analysis::summarize(response_ms);
    out.p50_ms = rt.p50;
    out.mean_ms = rt.avg;
    out.p95_ms = analysis::percentile(response_ms, 0.95);
    out.p99_ms = analysis::percentile(response_ms, 0.99);
  }

  if (const lease::LeaseManager* lm = ctrl.lease_manager()) {
    const auto& ls = lm->stats();
    out.lease_hits = c.lease_hits;
    out.lease_granted = ls.granted;
    out.lease_renewed = ls.renewed;
    out.lease_expired = ls.expired;
    out.lease_revoked = ls.revoked;
    out.lease_fallbacks = c.lease_fallback;
    out.hit_rate = out.accepted == 0
                       ? 0.0
                       : static_cast<double>(out.lease_hits) /
                             static_cast<double>(out.accepted);
    out.revocation_rate = ls.granted == 0
                              ? 0.0
                              : static_cast<double>(ls.revoked) /
                                    static_cast<double>(ls.granted);
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
  double p50_ms{0.0};
  double p95_ms{0.0};
  double p99_ms{0.0};
  double cold_rate{0.0};
  double hit_rate{0.0};
  double revocation_rate{0.0};
  std::size_t n{0};

  void fold(const LegResult& r) {
    p50_ms += r.p50_ms;
    p95_ms += r.p95_ms;
    p99_ms += r.p99_ms;
    cold_rate += r.cold_start_rate;
    hit_rate += r.hit_rate;
    revocation_rate += r.revocation_rate;
    ++n;
  }
  void finish() {
    if (n == 0) return;
    const auto d = static_cast<double>(n);
    p50_ms /= d;
    p95_ms /= d;
    p99_ms /= d;
    cold_rate /= d;
    hit_rate /= d;
    revocation_rate /= d;
  }
};

}  // namespace

int main() {
  const bool quick = std::getenv("HW_BENCH_QUICK") != nullptr;
  const std::string out_path = env_or("HW_SERVING_OUT", "BENCH_serving.json");
  const std::uint64_t base_seed =
      bench::apply_env(bench::base_scenario()).seed;
  const std::size_t trials = bench::trial_count();

  const std::vector<double> steps = quick
                                        ? std::vector<double>{50, 150, 300}
                                        : std::vector<double>{2500, 5000, 10000};
  std::vector<Leg> legs;
  for (const double qps : steps) {
    for (const bool lease : {false, true}) {
      for (std::size_t t = 0; t < trials; ++t) {
        legs.push_back({qps, lease, base_seed + t});
      }
    }
  }

  const std::vector<LegResult> results = exec::parallel_trials(
      legs, [quick](const Leg& leg, std::ostream& os) {
        return run_leg(leg, quick, os);
      });

  // Seed-averaged aggregates per (step, mode).
  std::map<std::pair<double, bool>, Aggregate> agg;
  for (std::size_t i = 0; i < legs.size(); ++i) {
    agg[{legs[i].qps, legs[i].lease}].fold(results[i]);
  }
  for (auto& [key, a] : agg) a.finish();

  // Acceptance at the top QPS step.
  const double top_qps = steps.back();
  const Aggregate& top_base = agg[{top_qps, false}];
  const Aggregate& top_lease = agg[{top_qps, true}];
  const bool p95_beats = top_lease.p95_ms < top_base.p95_ms;
  const bool cold_beats = top_lease.cold_rate < top_base.cold_rate;
  const bool hit_ok = top_lease.hit_rate >= 0.5;
  const bool acceptance_ok = p95_beats && cold_beats && hit_ok;

  std::vector<std::vector<std::string>> rows;
  for (std::size_t i = 0; i < legs.size(); ++i) {
    const LegResult& r = results[i];
    rows.push_back({
        fmt_num(legs[i].qps),
        legs[i].lease ? "lease" : "baseline",
        std::to_string(legs[i].seed),
        std::to_string(r.completed),
        analysis::fmt_pct(r.cold_start_rate),
        legs[i].lease ? analysis::fmt_pct(r.hit_rate) : "-",
        analysis::fmt(r.p50_ms, 1),
        analysis::fmt(r.p95_ms, 1),
        analysis::fmt(r.p99_ms, 1),
        std::to_string(r.timed_out),
    });
  }
  analysis::print_table(
      std::cout,
      quick ? "serving: open-loop QPS sweep (quick: 64 nodes)"
            : "serving: open-loop QPS sweep (2239 nodes)",
      {"qps", "mode", "seed", "completed", "cold-start", "lease-hit", "p50 ms",
       "p95 ms", "p99 ms", "timeouts"},
      rows);

  std::ofstream json{out_path};
  bench::write_meta_header(json, "qps_sweep", quick, base_seed);
  json << "  \"trials\": " << trials << ",\n"
       << "  \"hot_share\": " << fmt_num(kHotShare) << ",\n"
       << "  \"hot_functions\": " << kHotFunctions << ",\n"
       << "  \"functions\": " << kFunctions << ",\n"
       << "  \"qps_steps\": [";
  for (std::size_t i = 0; i < steps.size(); ++i) {
    json << fmt_num(steps[i]) << (i + 1 < steps.size() ? ", " : "");
  }
  json << "],\n  \"legs\": [\n";
  for (std::size_t i = 0; i < legs.size(); ++i) {
    const LegResult& r = results[i];
    json << "    {\"qps\": " << fmt_num(legs[i].qps) << ", \"mode\": \""
         << (legs[i].lease ? "lease" : "baseline")
         << "\", \"seed\": " << legs[i].seed << ", \"issued\": " << r.issued
         << ", \"accepted\": " << r.accepted
         << ", \"completed\": " << r.completed
         << ", \"timed_out\": " << r.timed_out
         << ", \"rejected_503\": " << r.rejected_503
         << ", \"failed\": " << r.failed
         << ", \"requeued\": " << r.requeued
         << ", \"interrupted\": " << r.interrupted
         << ", \"cold_starts\": " << r.cold
         << ", \"cold_start_rate\": " << fmt_num(r.cold_start_rate)
         << ", \"p50_ms\": " << fmt_num(r.p50_ms)
         << ", \"p95_ms\": " << fmt_num(r.p95_ms)
         << ", \"p99_ms\": " << fmt_num(r.p99_ms)
         << ", \"mean_ms\": " << fmt_num(r.mean_ms);
    if (legs[i].lease) {
      json << ", \"lease\": {\"hits\": " << r.lease_hits
           << ", \"granted\": " << r.lease_granted
           << ", \"renewed\": " << r.lease_renewed
           << ", \"expired\": " << r.lease_expired
           << ", \"revoked\": " << r.lease_revoked
           << ", \"fallbacks\": " << r.lease_fallbacks
           << ", \"hit_rate\": " << fmt_num(r.hit_rate)
           << ", \"revocation_rate\": " << fmt_num(r.revocation_rate) << "}";
    }
    json << "}" << (i + 1 < legs.size() ? "," : "") << "\n";
  }
  json << "  ],\n  \"steps\": {\n";
  for (std::size_t i = 0; i < steps.size(); ++i) {
    const Aggregate& b = agg[{steps[i], false}];
    const Aggregate& l = agg[{steps[i], true}];
    json << "    \"" << fmt_num(steps[i])
         << "\": {\"baseline\": {\"p50_ms\": " << fmt_num(b.p50_ms)
         << ", \"p95_ms\": " << fmt_num(b.p95_ms)
         << ", \"p99_ms\": " << fmt_num(b.p99_ms)
         << ", \"cold_start_rate\": " << fmt_num(b.cold_rate)
         << "}, \"lease\": {\"p50_ms\": " << fmt_num(l.p50_ms)
         << ", \"p95_ms\": " << fmt_num(l.p95_ms)
         << ", \"p99_ms\": " << fmt_num(l.p99_ms)
         << ", \"cold_start_rate\": " << fmt_num(l.cold_rate)
         << ", \"hit_rate\": " << fmt_num(l.hit_rate)
         << ", \"revocation_rate\": " << fmt_num(l.revocation_rate) << "}}"
         << (i + 1 < steps.size() ? "," : "") << "\n";
  }
  json << "  },\n  \"top\": {\"qps\": " << fmt_num(top_qps)
       << ", \"baseline\": {\"p95_ms\": " << fmt_num(top_base.p95_ms)
       << ", \"cold_start_rate\": " << fmt_num(top_base.cold_rate)
       << "}, \"lease\": {\"p95_ms\": " << fmt_num(top_lease.p95_ms)
       << ", \"cold_start_rate\": " << fmt_num(top_lease.cold_rate)
       << ", \"hit_rate\": " << fmt_num(top_lease.hit_rate)
       << ", \"revocation_rate\": " << fmt_num(top_lease.revocation_rate)
       << "}},\n"
       << "  \"acceptance\": {\"p95_beats_baseline\": "
       << (p95_beats ? "true" : "false")
       << ", \"cold_rate_beats_baseline\": " << (cold_beats ? "true" : "false")
       << ", \"hit_rate_ok\": " << (hit_ok ? "true" : "false")
       << ", \"acceptance_ok\": " << (acceptance_ok ? "true" : "false")
       << "}\n}\n";
  json.close();

  std::cout << "acceptance @ " << fmt_num(top_qps) << " QPS: lease p95 "
            << fmt_num(top_lease.p95_ms) << " ms vs baseline "
            << fmt_num(top_base.p95_ms) << " ms, cold "
            << analysis::fmt_pct(top_lease.cold_rate) << " vs "
            << analysis::fmt_pct(top_base.cold_rate) << ", hit rate "
            << analysis::fmt_pct(top_lease.hit_rate) << " -> "
            << (acceptance_ok ? "OK" : "VIOLATED") << " (" << out_path
            << ")\n";
  return acceptance_ok ? 0 : 1;
}
