// Fig. 1 reproduction: one week of the calibrated Prometheus-like
// workload WITHOUT pilots, analyzed exactly like the paper's initial
// study (Slurm-level 10-second sampling of node states).
//
//  (a) CDF of the number of idle nodes   — paper: P25 2, median 5,
//      80% of time <= 13, mean 9.23, ~10.11% of time zero idle nodes;
//  (b) CDF of idle-period lengths        — paper: median 2 min, P75
//      ~4 min, mean ~5 min, 5% longer than 23 min;
//  (c) idle-node time series             — paper: rapid changes, short
//      bursts up to ~150 idle nodes.

#include <iostream>

#include "common/experiment.hpp"

using namespace hpcwhisk;

int main() {
  check::ScenarioSpec cfg = bench::base_scenario();
  cfg.horizon = cfg.measure_start + sim::SimTime::days(7);
  cfg.supply.reset();  // baseline idleness: no HPC-Whisk
  cfg = bench::apply_env(cfg);

  std::cout << "bench: fig1_idleness (seed " << cfg.seed << ", "
            << cfg.nodes << " nodes, window "
            << (cfg.horizon - cfg.measure_start).to_string()
            << " after " << cfg.measure_start.to_string() << " burn-in)\n\n";

  const auto result = bench::run_experiment(cfg);

  // ---- Fig. 1a: CDF of idle node count ---------------------------------
  std::vector<double> idle_counts;
  std::size_t zero = 0;
  for (const auto& s : result.samples) {
    idle_counts.push_back(s.idle);
    if (s.idle == 0) ++zero;
  }
  const auto idle_summary = analysis::summarize(idle_counts);
  analysis::print_cdf(std::cout, "Fig 1a: number of idle nodes",
                      analysis::cdf_points(idle_counts, 40));
  analysis::print_table(
      std::cout, "Fig 1a summary (paper: P25 2 / P50 5 / ~P80 13, mean 9.23)",
      {"metric", "paper", "measured"},
      {
          {"idle nodes P25", "2", analysis::fmt(idle_summary.p25, 0)},
          {"idle nodes P50", "5", analysis::fmt(idle_summary.p50, 0)},
          {"idle nodes P75", "~13 (P80)", analysis::fmt(idle_summary.p75, 0)},
          {"idle nodes mean", "9.23", analysis::fmt(idle_summary.avg, 2)},
          {"zero-idle time", "10.11%",
           analysis::fmt_pct(static_cast<double>(zero) /
                             static_cast<double>(result.samples.size()))},
      });

  // ---- Fig. 1b: CDF of idle period lengths ------------------------------
  std::vector<double> periods_min;
  for (const auto len : result.log->sampled_periods(
           sim::SimTime::seconds(10), {slurm::ObservedNodeState::kIdle})) {
    periods_min.push_back(len.to_minutes());
  }
  const auto period_summary = analysis::summarize(periods_min);
  analysis::print_cdf(std::cout, "Fig 1b: idle period length [min]",
                      analysis::cdf_points(periods_min, 40));
  analysis::print_table(
      std::cout,
      "Fig 1b summary (paper: median 2 min, P75 4 min, mean ~5 min, 5% > 23)",
      {"metric", "paper", "measured"},
      {
          {"period P50 [min]", "2", analysis::fmt(period_summary.p50, 2)},
          {"period P75 [min]", "~4", analysis::fmt(period_summary.p75, 2)},
          {"period mean [min]", "~5", analysis::fmt(period_summary.avg, 2)},
          {"share > 23 min", "5%",
           analysis::fmt_pct(
               1.0 - analysis::fraction_at_most(periods_min, 23.0))},
          {"periods observed", "-",
           std::to_string(periods_min.size())},
      });

  // ---- Fig. 1c: idle-node time series -----------------------------------
  analysis::print_series(std::cout, "Fig 1c: idle nodes over time",
                         idle_counts, 10.0, 96);

  const double max_idle = idle_summary.max;
  std::cout << "Fig 1c burst peak: " << max_idle
            << " idle nodes (paper: short bursts up to ~150)\n";
  return 0;
}
