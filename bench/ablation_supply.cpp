// Ablation: the job-manager supply parameters (Sec. III-D b). The paper
// keeps 10 jobs of each fib length queued and replenishes every 15 s,
// capping the queue at 100 so Slurm's scheduler stays fast. We sweep the
// per-length depth and the replenish interval to show the design point
// is robust but not arbitrary: starving the queue loses coverage.

#include <iostream>

#include "common/experiment.hpp"

using namespace hpcwhisk;

int main() {
  struct Point {
    std::size_t per_length;
    double replenish_s;
  };
  const std::vector<Point> sweep{Point{1, 15}, Point{3, 15}, Point{10, 15},
                                 Point{10, 60}, Point{10, 240}};
  // Independent runs: fan out, gather rows in sweep order.
  const auto rows =
      exec::parallel_trials(sweep, [](const Point& p, std::ostream&) {
        check::ScenarioSpec cfg = bench::base_scenario();
        cfg.supply = core::SupplyModel::kFib;
        cfg.fib_per_length = p.per_length;
        cfg.replenish_interval = sim::SimTime::seconds(p.replenish_s);
        cfg.horizon = cfg.measure_start + sim::SimTime::hours(12);
        cfg = bench::apply_env(cfg);
        const auto result = bench::run_experiment(cfg);
        const auto report = analysis::slurm_level_report(result.samples);
        const auto& mc = result.system->manager().counters();
        return std::vector<std::string>{
            std::to_string(p.per_length),
            analysis::fmt(p.replenish_s, 0) + " s",
            analysis::fmt_pct(report.coverage),
            analysis::fmt(report.pilot_workers.avg, 2),
            std::to_string(mc.started),
        };
      });
  analysis::print_table(
      std::cout,
      "ablation: pilot supply (fib, 12 h; paper: 10 per length / 15 s)",
      {"jobs per length", "replenish", "coverage", "avg workers", "started"},
      rows);
  std::cout << "expected: coverage degrades when the queue is starved (1 per "
               "length)\nor replenished rarely (4 min) — freed nodes wait "
               "for supply.\n";
  return 0;
}
