// Harvest-efficiency and time-series report: one traced fib production
// day with the short/long FaaS mix under a data-driven routing policy,
// reported through the second observability tier.
//
// What it emits:
//  * a harvest-efficiency account (Sec. I's value proposition, made
//    measurable): how the node-time pilots occupied splits into serving
//    FaaS vs warm-up, drain and preempt-wasted overheads, plus the
//    node-seconds the commercial cloud absorbed;
//  * the sampled sim-time series (node timeline, container-pool
//    occupancy, invoker in-flight/queue depth) as a JSONL artifact and a
//    per-series summary in BENCH_obs_timeseries.json;
//  * the structured per-routing-decision "why" records as JSONL.
//
// The exit code enforces the tier's contracts: every series stays within
// its bounded capacity, sampling actually swept, the decision log holds
// self-consistent records (chosen is a real invoker, the runner-up —
// when present — differs and never beat the chosen cost), and the
// harvest ledger accrued serving time.
//
//   HW_BENCH_QUICK=1            quarter-scale run (CI smoke)
//   HW_SEED=<n>                 base RNG seed (default 1)
//   HW_OBS_TS_OUT=<p>           report path (default BENCH_obs_timeseries.json)
//   HW_OBS_TS_SERIES_OUT=<p>    series JSONL path (default obs_timeseries.jsonl)
//   HW_OBS_TS_DECISIONS_OUT=<p> decisions JSONL (default obs_decisions.jsonl)

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <string>

#include "common/bench_json.hpp"
#include "common/experiment.hpp"
#include "hpcwhisk/obs/export.hpp"

using namespace hpcwhisk;

namespace {

std::string fmt_num(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.6g", v);
  return buf;
}

const char* env_or(const char* name, const char* fallback) {
  const char* v = std::getenv(name);
  return v != nullptr ? v : fallback;
}

}  // namespace

int main() {
  const bool quick = std::getenv("HW_BENCH_QUICK") != nullptr;
  const std::string out_path =
      env_or("HW_OBS_TS_OUT", "BENCH_obs_timeseries.json");
  const std::string series_path =
      env_or("HW_OBS_TS_SERIES_OUT", "obs_timeseries.jsonl");
  const std::string decisions_path =
      env_or("HW_OBS_TS_DECISIONS_OUT", "obs_decisions.jsonl");

  // The canonical fib day with the heterogeneous FaaS mix, routed by the
  // data-driven policy so every decision carries a full "why" record.
  check::ScenarioSpec cfg = bench::base_scenario();
  cfg.supply = core::SupplyModel::kFib;
  cfg.faas_qps = 10.0;
  cfg.faas_functions = 100;
  cfg.faas_long_share = 0.3;
  cfg.faas_long_duration = sim::SimTime::seconds(45);
  cfg.route_mode = whisk::RouteMode::kLeastExpectedWork;
  cfg = bench::apply_env(cfg);

  const bench::ExperimentResult result =
      bench::run_experiment(cfg, obs::TraceCollector::kDefaultCapacity);
  const obs::Observability& obs = *result.obs;
  const core::JobManager::HarvestStats& hv = result.system->manager().harvest();
  sim::SimTime cloud_offload;
  for (const cloud::LambdaService::InvocationRecord& inv :
       result.system->commercial().invocations()) {
    cloud_offload += inv.internal_duration;
  }

  obs::ExportInfo info;
  info.run = "obs_timeseries";
  info.seed = cfg.seed;
  {
    std::ofstream os{series_path};
    obs::write_timeseries_jsonl(os, obs.series, info);
  }
  {
    std::ofstream os{decisions_path};
    obs::write_decisions_jsonl(os, obs.decisions, info);
  }

  // ---- contracts -------------------------------------------------------
  bool series_ok = !obs.series.series().empty() && obs.series.sweeps() > 0;
  for (const obs::Series& s : obs.series.series()) {
    if (s.samples().size() > obs::TimeSeriesRecorder::kDefaultCapacity ||
        s.appended() == 0) {
      series_ok = false;
      std::cerr << "series contract violated: " << s.name() << " ("
                << s.samples().size() << " stored, " << s.appended()
                << " appended)\n";
    }
  }

  bool decisions_ok = obs.decisions.recorded() > 0;
  for (const obs::RouteDecision& d : obs.decisions.decisions()) {
    const bool has_runner = d.runner_up != obs::RouteDecision::kNone;
    if (d.chosen == obs::RouteDecision::kNone ||
        (has_runner && d.runner_up == d.chosen) ||
        (has_runner && d.runner_up_cost_ticks < d.chosen_cost_ticks)) {
      decisions_ok = false;
      std::cerr << "decision contract violated: call " << d.call
                << " chosen " << d.chosen << " runner_up " << d.runner_up
                << " costs " << d.chosen_cost_ticks << "/"
                << d.runner_up_cost_ticks << "\n";
      break;
    }
  }

  const double total_node_s =
      (hv.harvested + hv.warmup_overhead + hv.drain_overhead +
       hv.preempt_wasted)
          .to_seconds();
  const bool harvest_ok = hv.harvested.to_seconds() > 0 &&
                          hv.pilots_served > 0 && hv.efficiency() > 0.0 &&
                          hv.efficiency() <= 1.0;

  // ---- report ----------------------------------------------------------
  std::cout << "harvest efficiency (" << (quick ? "quick" : "full")
            << " fib day, least-expected-work)\n"
            << "  harvested (serving FaaS)  " << fmt_num(hv.harvested.to_seconds())
            << " node-s\n"
            << "  warm-up overhead          "
            << fmt_num(hv.warmup_overhead.to_seconds()) << " node-s\n"
            << "  drain overhead            "
            << fmt_num(hv.drain_overhead.to_seconds()) << " node-s\n"
            << "  preempt-wasted            "
            << fmt_num(hv.preempt_wasted.to_seconds()) << " node-s\n"
            << "  efficiency                " << fmt_num(hv.efficiency() * 100)
            << "% of " << fmt_num(total_node_s) << " occupied node-s ("
            << hv.pilots_served << " pilots served, " << hv.pilots_never_served
            << " wasted)\n"
            << "  cloud offload             " << fmt_num(cloud_offload.to_seconds())
            << " node-s\n"
            << "series (" << obs.series.sweeps() << " sweeps):\n";
  for (const obs::Series& s : obs.series.series()) {
    std::cout << "  " << s.name() << ": " << s.samples().size()
              << " stored / " << s.appended() << " raw (stride " << s.stride()
              << "), last " << fmt_num(s.last()) << "\n";
  }
  std::cout << "decisions: " << obs.decisions.recorded() << " recorded ("
            << obs.decisions.dropped() << " dropped)\n";

  std::ofstream json{out_path};
  bench::write_meta_header(json, "obs_timeseries", quick, cfg.seed);
  json << "  \"route_mode\": \"" << whisk::to_string(cfg.route_mode)
       << "\",\n"
       << "  \"events\": " << result.simulation->executed_events() << ",\n"
       << "  \"harvest\": {"
       << "\"harvested_node_s\": " << fmt_num(hv.harvested.to_seconds())
       << ", \"warmup_overhead_s\": " << fmt_num(hv.warmup_overhead.to_seconds())
       << ", \"drain_overhead_s\": " << fmt_num(hv.drain_overhead.to_seconds())
       << ", \"preempt_wasted_s\": " << fmt_num(hv.preempt_wasted.to_seconds())
       << ", \"efficiency\": " << fmt_num(hv.efficiency())
       << ", \"pilots_served\": " << hv.pilots_served
       << ", \"pilots_never_served\": " << hv.pilots_never_served
       << ", \"cloud_offload_s\": " << fmt_num(cloud_offload.to_seconds())
       << "},\n"
       << "  \"sweeps\": " << obs.series.sweeps() << ",\n"
       << "  \"decisions_recorded\": " << obs.decisions.recorded() << ",\n"
       << "  \"decisions_dropped\": " << obs.decisions.dropped() << ",\n"
       << "  \"series\": [\n";
  const auto& all = obs.series.series();
  for (std::size_t i = 0; i < all.size(); ++i) {
    const obs::Series& s = all[i];
    json << "    {\"name\": \"" << s.name() << "\", \"points\": "
         << s.samples().size() << ", \"appended\": " << s.appended()
         << ", \"stride\": " << s.stride() << ", \"last\": "
         << fmt_num(s.last()) << "}" << (i + 1 < all.size() ? "," : "")
         << "\n";
  }
  json << "  ],\n"
       << "  \"series_ok\": " << (series_ok ? "true" : "false") << ",\n"
       << "  \"decisions_ok\": " << (decisions_ok ? "true" : "false") << ",\n"
       << "  \"harvest_ok\": " << (harvest_ok ? "true" : "false") << "\n}\n";
  json.close();

  std::cout << "wrote " << out_path << ", " << series_path << ", "
            << decisions_path << "\n";
  const bool ok = series_ok && decisions_ok && harvest_ok;
  if (!ok) std::cerr << "obs_timeseries: contract check FAILED\n";
  return ok ? 0 : 1;
}
