// Machine-readable perf baseline: runs the canonical experiments under a
// wall clock and emits BENCH_perf.json with the simulator's fundamental
// throughput numbers (events/sec, sched passes/sec), steady-state
// allocations per event (this binary links the counting operator new of
// bench/common/alloc_probe.cpp), per-experiment wall-clock, and the
// parallel-trial speedup of an 8-trial seed sweep versus jobs=1 —
// including a byte-identity check of the two outputs.
//
// Timing runs repeat HW_PERF_REPS times (default 3 quick, 1 full) and
// report the fastest: the experiment is deterministic, so the minimum
// wall time is the measurement least polluted by neighbors on a shared
// host. The parallel sweep leg runs on as many workers as the host has
// hardware threads (capped at the trial count); with a single hardware
// thread the speedup is skipped with a reason instead of reported as a
// meaningless ~1x.
//
//   HW_BENCH_QUICK=1  quarter-scale canonical runs (CI smoke)
//   HW_SEED=<n>       base RNG seed (default 1)
//   HW_BENCH_JOBS=<n> worker threads for the parallel leg of the sweep
//   HW_PERF_REPS=<n>  timing repetitions per experiment
//   HW_PERF_OUT=<p>   output path (default BENCH_perf.json)

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/alloc_probe.hpp"
#include "common/bench_json.hpp"
#include "common/experiment.hpp"

using namespace hpcwhisk;

namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

std::size_t rep_count(bool quick) {
  if (const char* env = std::getenv("HW_PERF_REPS")) {
    const unsigned long n = std::strtoul(env, nullptr, 10);
    if (n > 0) return static_cast<std::size_t>(n);
  }
  return quick ? 3 : 1;
}

struct ExperimentPerf {
  std::string name;
  double wall_s{0};
  std::uint64_t events{0};
  std::uint64_t sched_passes{0};
  std::uint64_t events_in_window{0};
  std::uint64_t allocs_in_window{0};
  double allocs_per_event{0};
};

ExperimentPerf measure(const std::string& name,
                       const check::ScenarioSpec& cfg, std::size_t reps) {
  ExperimentPerf perf;
  perf.name = name;
  for (std::size_t rep = 0; rep < reps; ++rep) {
    const auto start = Clock::now();
    const auto result = bench::run_experiment(cfg);
    const double wall = seconds_since(start);
    if (rep == 0 || wall < perf.wall_s) perf.wall_s = wall;
    // Event counts and the alloc profile are deterministic — identical
    // across reps — so taking them from the last rep loses nothing.
    perf.events = result.simulation->executed_events();
    perf.sched_passes = result.system->slurm().counters().sched_passes;
    perf.events_in_window = result.events_in_window;
    perf.allocs_in_window = result.allocs_in_window;
  }
  perf.allocs_per_event =
      perf.events_in_window > 0
          ? static_cast<double>(perf.allocs_in_window) /
                static_cast<double>(perf.events_in_window)
          : 0.0;
  return perf;
}

struct SweepPerf {
  std::size_t trials{0};
  std::size_t jobs_parallel{0};
  double wall_serial_s{0};
  double wall_parallel_s{0};
  bool outputs_identical{false};
  /// On a single-hardware-thread host a "parallel" leg is timeslicing,
  /// not parallelism: the sweep still runs (the byte-identity check is
  /// scheduling-order-sensitive and stays meaningful) but the speedup is
  /// reported as skipped so nobody trends a meaningless 0.9x.
  bool speedup_meaningful{true};
};

/// Times the same 8-trial seed sweep serial (jobs=1) and parallel
/// (hardware threads, capped at the trial count; HW_BENCH_JOBS
/// overrides), asserting byte-identical serialized output.
SweepPerf measure_sweep(const check::ScenarioSpec& base) {
  SweepPerf sweep;
  sweep.trials = 8;
  const std::size_t hw = std::max<std::size_t>(
      1, static_cast<std::size_t>(std::thread::hardware_concurrency()));
  // Real cores only: the parallel leg uses every hardware thread the
  // host offers, up to one worker per trial. On a 1-thread host the leg
  // still runs (byte-identity check) with the historical 8 workers.
  sweep.jobs_parallel = std::getenv("HW_BENCH_JOBS") != nullptr
                            ? exec::job_count()
                            : (hw > 1 ? std::min(hw, sweep.trials)
                                      : std::size_t{8});
  const auto configs = bench::seed_sweep(base, sweep.trials);
  const auto trial = [](const check::ScenarioSpec& cfg,
                        std::ostream& os) {
    const auto result = bench::run_experiment(cfg);
    const auto report = analysis::slurm_level_report(result.samples);
    os << "seed " << cfg.seed << " coverage "
       << analysis::fmt_pct(report.coverage) << " events "
       << result.simulation->executed_events() << "\n";
  };

  std::ostringstream serial_out;
  auto start = Clock::now();
  exec::parallel_trials(configs, trial, 1, serial_out);
  sweep.wall_serial_s = seconds_since(start);

  std::ostringstream parallel_out;
  start = Clock::now();
  exec::parallel_trials(configs, trial, sweep.jobs_parallel, parallel_out);
  sweep.wall_parallel_s = seconds_since(start);

  sweep.outputs_identical = serial_out.str() == parallel_out.str();
  sweep.speedup_meaningful = std::thread::hardware_concurrency() > 1;
  return sweep;
}

std::string fmt_num(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.6g", v);
  return buf;
}

}  // namespace

int main() {
  const bool quick = std::getenv("HW_BENCH_QUICK") != nullptr;
  const char* out_env = std::getenv("HW_PERF_OUT");
  const std::string out_path = out_env != nullptr ? out_env : "BENCH_perf.json";
  const std::size_t reps = rep_count(quick);

  // Canonical experiments: the fib production day (table2) and the var
  // production day (table3) — the two headline runs of the paper.
  std::vector<ExperimentPerf> experiments;
  {
    check::ScenarioSpec cfg = bench::base_scenario();
    cfg.supply = core::SupplyModel::kFib;
    cfg = bench::apply_env(cfg);
    experiments.push_back(measure("table2_fib", cfg, reps));
  }
  {
    check::ScenarioSpec cfg = bench::base_scenario();
    cfg.supply = core::SupplyModel::kVar;
    cfg = bench::apply_env(cfg);
    experiments.push_back(measure("table3_var", cfg, reps));
  }

  // The sweep always runs at quarter scale so the serial leg stays
  // tractable (8 full production days would dominate the report).
  check::ScenarioSpec sweep_base = bench::base_scenario();
  sweep_base.supply = core::SupplyModel::kFib;
  sweep_base.nodes = std::max<std::uint32_t>(64, sweep_base.nodes / 4);
  sweep_base.measure_start = sim::SimTime::hours(2);
  sweep_base.horizon = sweep_base.measure_start + sim::SimTime::hours(6);
  if (const auto seed = bench::env_uint("HW_SEED")) {
    bench::reseed(sweep_base, *seed);
  }
  const SweepPerf sweep = measure_sweep(sweep_base);
  const double speedup = sweep.wall_parallel_s > 0
                             ? sweep.wall_serial_s / sweep.wall_parallel_s
                             : 0.0;

  std::ofstream json{out_path};
  bench::write_meta_header(json, "perf_report", quick, sweep_base.seed);
  json << "  \"reps\": " << reps << ",\n"
       << "  \"alloc_probe\": "
       << (bench::alloc_probe_enabled() ? "true" : "false") << ",\n"
       << "  \"hardware_concurrency\": "
       << std::thread::hardware_concurrency() << ",\n"
       << "  \"jobs\": " << exec::job_count() << ",\n"
       << "  \"experiments\": [\n";
  for (std::size_t i = 0; i < experiments.size(); ++i) {
    const auto& e = experiments[i];
    json << "    {\"name\": \"" << e.name << "\", \"wall_s\": "
         << fmt_num(e.wall_s) << ", \"events\": " << e.events
         << ", \"events_per_sec\": "
         << fmt_num(e.wall_s > 0 ? static_cast<double>(e.events) / e.wall_s
                                 : 0.0)
         << ", \"sched_passes\": " << e.sched_passes
         << ", \"sched_passes_per_sec\": "
         << fmt_num(e.wall_s > 0
                        ? static_cast<double>(e.sched_passes) / e.wall_s
                        : 0.0)
         << ", \"events_in_window\": " << e.events_in_window
         << ", \"allocs_in_window\": " << e.allocs_in_window
         << ", \"allocs_per_event\": " << fmt_num(e.allocs_per_event)
         << "}" << (i + 1 < experiments.size() ? "," : "") << "\n";
  }
  json << "  ],\n"
       << "  \"sweep\": {\"trials\": " << sweep.trials
       << ", \"jobs_serial\": 1, \"jobs_parallel\": " << sweep.jobs_parallel
       << ", \"wall_serial_s\": " << fmt_num(sweep.wall_serial_s)
       << ", \"wall_parallel_s\": " << fmt_num(sweep.wall_parallel_s);
  if (sweep.speedup_meaningful) {
    json << ", \"speedup\": " << fmt_num(speedup)
         << ", \"speedup_skipped\": false";
  } else {
    json << ", \"speedup\": null, \"speedup_skipped\": true"
         << ", \"speedup_skipped_reason\": \"single hardware thread\"";
  }
  json << ", \"outputs_identical\": "
       << (sweep.outputs_identical ? "true" : "false") << "}\n"
       << "}\n";
  json.close();

  std::vector<std::vector<std::string>> rows;
  for (const auto& e : experiments) {
    rows.push_back({e.name, analysis::fmt(e.wall_s, 2),
                    std::to_string(e.events),
                    fmt_num(e.wall_s > 0
                                ? static_cast<double>(e.events) / e.wall_s
                                : 0.0),
                    fmt_num(e.allocs_per_event),
                    std::to_string(e.sched_passes)});
  }
  analysis::print_table(std::cout, "perf baseline (see BENCH_perf.json)",
                        {"experiment", "wall s", "events", "events/s",
                         "allocs/event", "sched passes"},
                        rows);
  std::cout << "sweep: " << sweep.trials << " trials, serial "
            << analysis::fmt(sweep.wall_serial_s, 2) << " s, parallel (x"
            << sweep.jobs_parallel << ") "
            << analysis::fmt(sweep.wall_parallel_s, 2) << " s, speedup ";
  if (sweep.speedup_meaningful) {
    std::cout << analysis::fmt(speedup, 2);
  } else {
    std::cout << "skipped (1 hw thread)";
  }
  std::cout << ", outputs "
            << (sweep.outputs_identical ? "byte-identical" : "DIVERGED")
            << "\nwrote " << out_path << "\n";
  return sweep.outputs_identical ? 0 : 1;
}
