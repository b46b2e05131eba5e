// Ablation: pilot placement policy. The faithful preempt-aware policy
// (Slurm with PreemptMode=CANCEL starts a pilot on any idle node and
// lets preemption resolve conflicts) versus a conservative hole-fitting
// policy that only places pilots whose declared length fits before the
// node's reservation. DESIGN.md calls this choice out: preempt-aware
// should win on coverage, at the cost of many more preemptions.

#include <iostream>

#include "common/experiment.hpp"

using namespace hpcwhisk;

int main() {
  const std::vector<slurm::PilotPlacement> sweep{
      slurm::PilotPlacement::kPreemptAware,
      slurm::PilotPlacement::kHoleFitting};
  // Independent runs: fan out, gather rows in sweep order.
  const auto rows = exec::parallel_trials(
      sweep, [](const slurm::PilotPlacement placement, std::ostream&) {
        check::ScenarioSpec cfg = bench::base_scenario();
        cfg.supply = core::SupplyModel::kFib;
        cfg.placement = placement;
        cfg.horizon = cfg.measure_start + sim::SimTime::hours(12);
        cfg = bench::apply_env(cfg);
        const auto result = bench::run_experiment(cfg);
        const auto report = analysis::slurm_level_report(result.samples);
        const auto& mc = result.system->manager().counters();
        return std::vector<std::string>{
            placement == slurm::PilotPlacement::kPreemptAware
                ? "preempt-aware"
                : "hole-fitting",
            analysis::fmt_pct(report.coverage),
            analysis::fmt(report.pilot_workers.avg, 2),
            std::to_string(mc.started),
            std::to_string(mc.preempted),
            std::to_string(mc.timed_out),
        };
      });
  analysis::print_table(
      std::cout, "ablation: pilot placement policy (fib, 12 h)",
      {"policy", "coverage", "avg workers", "started", "preempted",
       "ran to limit"},
      rows);
  std::cout << "expected: preempt-aware covers more surface but almost all "
               "its pilots\nend by preemption; hole-fitting wastes holes it "
               "cannot predict.\n";
  return 0;
}
