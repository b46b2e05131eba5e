// Table II + Figs. 5a/5c reproduction: a 24-hour production-day run with
// the fib job manager (set A1 lengths), compared across the paper's
// three perspectives:
//   Simulation  — a-posteriori clairvoyant bound on the day's own
//                 availability log (paper: ~92% of the idle surface);
//   Slurm-level — 10-second node-list sampling (paper: 90% coverage,
//                 avg 10.66 workers);
//   OW-level    — controller's view (paper: avg 10.39 healthy invokers,
//                 0.40 warming, 0.06 irresponsive).
//
// HW_BENCH_TRIALS=<n> sweeps seeds base..base+n-1; trials run in
// parallel under HW_BENCH_JOBS and print in seed order.

#include <iostream>

#include "common/experiment.hpp"

using namespace hpcwhisk;

namespace {

void run_one(const check::ScenarioSpec& cfg, std::ostream& os) {
  os << "bench: table2_fib (seed " << cfg.seed << ", " << cfg.nodes
     << " nodes, " << (cfg.horizon - cfg.measure_start).to_string()
     << " window)\n\n";

  const auto result = bench::run_experiment(cfg);
  const auto summary = bench::summarize_coverage(
      result, core::job_length_set("A1"), sim::SimTime::minutes(120));

  bench::print_coverage_table(os, "Table II: fib job manager", summary);

  analysis::print_table(
      os, "Table II headline comparison",
      {"metric", "paper", "measured"},
      {
          {"Slurm-level coverage", "90%",
           analysis::fmt_pct(summary.slurm_level.coverage)},
          {"surface lost vs clairvoyant bound",
           "~5% (fib) / ~16% (var)",
           analysis::fmt_pct(1.0 - summary.slurm_level.coverage -
                             (1.0 - summary.simulation.ready_share -
                              summary.simulation.warmup_share))},
          {"clairvoyant warm-up share", "2.61% (fib) / 3.18% (var)",
           analysis::fmt_pct(summary.simulation.warmup_share)},
          {"avg available nodes", "11.85",
           analysis::fmt(summary.slurm_level.available_nodes.avg, 2)},
          {"avg healthy invokers (OW)", "10.39",
           analysis::fmt(summary.ow_healthy.avg, 2)},
          {"avg warming invokers (OW)", "0.40",
           analysis::fmt(summary.ow_warming.avg, 2)},
          {"avg irresponsive (OW)", "0.06",
           analysis::fmt(summary.ow_unresponsive.avg, 2)},
          {"time with no healthy invoker", "24 min of 24 h (1.7%)",
           analysis::fmt_pct(summary.ow_zero_healthy_share)},
          {"longest no-invoker period", "7 min",
           summary.ow_longest_zero_healthy.to_string()},
      });

  // Pilot lifetime statistics (paper: invoker ready for avg > 23 min,
  // median ~11 min, P75 ~31 min on the fib day).
  std::vector<double> serving_min;
  for (const auto d : result.system->manager().serving_durations())
    serving_min.push_back(d.to_minutes());
  const auto serving = analysis::summarize(serving_min);
  analysis::print_table(
      os, "fib invoker serving durations [min]",
      {"metric", "paper", "measured"},
      {
          {"median", "~11", analysis::fmt(serving.p50, 1)},
          {"P75", "~31", analysis::fmt(serving.p75, 1)},
          {"mean", "> 23", analysis::fmt(serving.avg, 1)},
      });

  // ---- Fig. 5a: three-perspective worker time series --------------------
  std::vector<double> sim_series;
  for (const auto v : summary.simulation.ready_series)
    sim_series.push_back(v);
  analysis::print_series(os, "Fig 5a (Simulation): ready workers",
                         sim_series, 10.0, 96);
  std::vector<double> slurm_series, idle_series;
  for (const auto& s : result.samples) {
    slurm_series.push_back(s.pilot);
    idle_series.push_back(s.idle);
  }
  analysis::print_series(os, "Fig 5a (Slurm-level): worker jobs",
                         slurm_series, 10.0, 96);
  std::vector<double> ow_series;
  for (const auto& s : result.ow_samples) ow_series.push_back(s.healthy);
  analysis::print_series(os, "Fig 5a (OW-level): healthy invokers",
                         ow_series, 10.0, 96);
  analysis::print_series(os, "Fig 5a: remaining idle nodes",
                         idle_series, 10.0, 96);

  // ---- Fig. 5c: CDFs of node counts -------------------------------------
  std::vector<double> avail_series;
  for (const auto& s : result.samples) avail_series.push_back(s.available());
  analysis::print_cdf(os, "Fig 5c: idle nodes (green)",
                      analysis::cdf_points(idle_series, 30));
  analysis::print_cdf(os, "Fig 5c: OpenWhisk nodes (orange)",
                      analysis::cdf_points(slurm_series, 30));
  analysis::print_cdf(os, "Fig 5c: originally-idle nodes (black)",
                      analysis::cdf_points(avail_series, 30));
}

}  // namespace

int main() {
  check::ScenarioSpec base = bench::base_scenario();
  base.supply = core::SupplyModel::kFib;
  base = bench::apply_env(base);

  const auto configs = bench::seed_sweep(base, bench::trial_count());
  exec::parallel_trials(configs,
                        [](const check::ScenarioSpec& cfg,
                           std::ostream& os) { run_one(cfg, os); });
  return 0;
}
