// Fig. 2 reproduction: CDFs of user-declared time limits, actual
// runtimes, and slack (limit - runtime) for the synthetic job population
// (paper: 74k non-commercial jobs in the monitored week; median declared
// limit 60 min; 95% of jobs declare at least 15 min).

#include <iostream>

#include "common/experiment.hpp"

using namespace hpcwhisk;

int main() {
  const check::ScenarioSpec env = bench::apply_env(bench::base_scenario());
  const std::size_t kJobs =
      std::getenv("HW_BENCH_QUICK") != nullptr ? 10'000 : 74'000;

  std::cout << "bench: fig2_jobs (seed " << env.seed << ", " << kJobs
            << " jobs)\n\n";

  // Draw the job population through the same generator the system runs.
  sim::Simulation simulation;
  slurm::Slurmctld ctld{simulation,
                        {.node_count = 2239},
                        core::default_partitions()};
  trace::HpcWorkloadGenerator gen{simulation, ctld, {}, sim::Rng{env.seed}};

  std::vector<double> limits_min, runtimes_min, slack_min;
  limits_min.reserve(kJobs);
  std::size_t hit_limit = 0;
  for (std::size_t i = 0; i < kJobs; ++i) {
    const trace::TraceJob job = gen.draw_job();
    limits_min.push_back(job.time_limit.to_minutes());
    if (job.runtime == sim::SimTime::max()) {
      // Runs into its limit: runtime == limit, slack == 0.
      runtimes_min.push_back(job.time_limit.to_minutes());
      slack_min.push_back(0.0);
      ++hit_limit;
    } else {
      runtimes_min.push_back(job.runtime.to_minutes());
      slack_min.push_back((job.time_limit - job.runtime).to_minutes());
    }
  }

  analysis::print_cdf(std::cout, "Fig 2: declared time limit [min]",
                      analysis::cdf_points(limits_min, 40));
  analysis::print_cdf(std::cout, "Fig 2: actual runtime [min]",
                      analysis::cdf_points(runtimes_min, 40));
  analysis::print_cdf(std::cout, "Fig 2: slack = limit - runtime [min]",
                      analysis::cdf_points(slack_min, 40));

  const auto limit_summary = analysis::summarize(limits_min);
  const auto runtime_summary = analysis::summarize(runtimes_min);
  const auto slack_summary = analysis::summarize(slack_min);
  analysis::print_table(
      std::cout, "Fig 2 summary",
      {"metric", "paper", "measured"},
      {
          {"limit median [min]", "60", analysis::fmt(limit_summary.p50, 1)},
          {"share declaring >= 15 min", "95%",
           analysis::fmt_pct(
               1.0 - analysis::fraction_at_most(limits_min, 14.999))},
          {"runtime median [min]", "< limit median (blue left of green)",
           analysis::fmt(runtime_summary.p50, 1)},
          {"slack median [min]", "> 0 (orange)",
           analysis::fmt(slack_summary.p50, 1)},
          {"jobs hitting their limit", "(small share)",
           analysis::fmt_pct(static_cast<double>(hit_limit) /
                             static_cast<double>(kJobs))},
      });
  return 0;
}
