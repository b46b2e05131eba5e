// Extension experiment (the paper's future work, Sec. VII): an adaptive
// job manager that periodically re-derives its fib length set from the
// quantiles of observed pilot serving durations, versus the static
// simulation-tuned set A1. Evaluated under the conservative hole-fitting
// placement, where length choice actually binds (with preempt-aware
// placement any length works — that robustness is itself a finding of
// the placement ablation).

#include <iostream>

#include "common/experiment.hpp"

using namespace hpcwhisk;

namespace {

struct Variant {
  const char* name;
  bool adaptive;
  bool hole_observation;
};

}  // namespace

int main() {
  const std::vector<Variant> sweep{
      Variant{"static A1", false, false},
      Variant{"adaptive (serving durations)", true, false},
      Variant{"adaptive (hole observation)", true, true}};
  // Independent runs: fan out, gather rows in sweep order.
  const auto rows = exec::parallel_trials(
      sweep, [](const Variant& variant, std::ostream&) {
        check::ScenarioSpec cfg = bench::base_scenario();
        cfg.horizon = cfg.measure_start + sim::SimTime::hours(16);
        cfg = bench::apply_env(cfg);

        sim::Simulation simulation;
        core::HpcWhiskSystem::Config sys_cfg;
        sys_cfg.seed = cfg.seed;
        sys_cfg.slurm.node_count = cfg.nodes;
        sys_cfg.slurm.pilot_placement = slurm::PilotPlacement::kHoleFitting;
        sys_cfg.manager.model = core::SupplyModel::kFib;
        sys_cfg.manager.adaptive = variant.adaptive;
        sys_cfg.manager.adapt_interval = sim::SimTime::minutes(60);
        analysis::NodeStateLog log{cfg.nodes, sim::SimTime::zero()};
        if (variant.hole_observation) {
          // Online Table-I: the manager re-derives its lengths from the
          // availability periods observed by the Slurm-level sampler over
          // the run so far.
          sys_cfg.manager.hole_sampler = [&log] {
            std::vector<double> minutes;
            for (const auto len : log.sampled_periods(
                     sim::SimTime::seconds(10),
                     {slurm::ObservedNodeState::kIdle,
                      slurm::ObservedNodeState::kPilot})) {
              minutes.push_back(len.to_minutes());
            }
            return minutes;
          };
        }
        core::HpcWhiskSystem system{simulation, sys_cfg};
        trace::HpcWorkloadGenerator workload{
            simulation, system.slurm(), {},
            sim::Rng{cfg.hpc_seed}};
        system.slurm().set_node_observer(
            [&log](const slurm::NodeTransition& t) { log.record(t); });
        workload.start();
        system.start();
        const sim::SimTime end = cfg.horizon;
        simulation.run_until(end);
        log.finalize(end);

        std::vector<analysis::StateCounts> samples;
        for (const auto& s : log.sample_counts(sim::SimTime::seconds(10)))
          if (s.at >= cfg.measure_start) samples.push_back(s);
        const auto report = analysis::slurm_level_report(samples);

        std::string lengths;
        for (const auto len : system.manager().fib_lengths()) {
          if (!lengths.empty()) lengths += ",";
          lengths += analysis::fmt(len.to_minutes(), 0);
        }
        return std::vector<std::string>{
            variant.name,
            analysis::fmt_pct(report.coverage),
            analysis::fmt(report.pilot_workers.avg, 2),
            std::to_string(system.manager().counters().started),
            std::to_string(system.manager().adaptations()),
            lengths,
        };
      });
  analysis::print_table(
      std::cout,
      "extension: adaptive fib lengths vs static A1 (hole-fitting, 16 h)",
      {"manager", "coverage", "avg workers", "pilots started", "adaptations",
       "final lengths [min]"},
      rows);
  std::cout << "the adaptive manager learns the cluster's hole structure "
               "instead of\nrequiring the offline Table-I tuning pass.\n";
  return 0;
}
