#include "experiment.hpp"

#include <algorithm>
#include <charconv>
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <ostream>
#include <stdexcept>

#include "common/alloc_probe.hpp"
#include "hpcwhisk/check/runner.hpp"

namespace hpcwhisk::bench {

// Weak fallbacks: binaries that don't link alloc_probe.cpp (everything
// except the perf benches) see a dead probe. The strong definitions in
// alloc_probe.cpp win at link time.
__attribute__((weak)) std::uint64_t alloc_probe_count() { return 0; }
__attribute__((weak)) bool alloc_probe_enabled() { return false; }

namespace {

[[noreturn]] void reject_env(const char* name, const char* value,
                             const char* accepted) {
  std::cerr << name << "=\"" << value << "\" is not valid; accepted: "
            << accepted << "\n";
  std::exit(2);
}

}  // namespace

check::ScenarioSpec base_scenario() {
  check::ScenarioSpec spec;
  spec.nodes = 2239;
  spec.supply.reset();
  spec.length_set = "A1";
  spec.fib_per_length = 10;
  spec.measure_start = sim::SimTime::hours(4);
  spec.horizon = spec.measure_start + sim::SimTime::hours(24);
  spec.settle = sim::SimTime::zero();
  spec.faas_qps = 0.0;
  spec.faas_functions = 100;
  spec.faas_duration = sim::SimTime::millis(10);
  spec.hpc_backlog = trace::HpcWorkloadGenerator::Config{}.backlog_target;
  spec.pilot_cpus = 2;
  spec.pilot_mem_mb = 8000;
  reseed(spec, 1);
  return spec;
}

void reseed(check::ScenarioSpec& spec, std::uint64_t seed) {
  spec.seed = seed;
  spec.hpc_seed = seed ^ 0x9E3779B9ULL;
  spec.faas_seed = seed ^ 0xC0FFEEULL;
}

std::optional<std::uint64_t> env_uint(const char* name) {
  const char* value = std::getenv(name);
  if (value == nullptr) return std::nullopt;
  std::uint64_t out = 0;
  const char* end = value + std::strlen(value);
  const auto [ptr, ec] = std::from_chars(value, end, out);
  if (ec != std::errc{} || ptr != end || ptr == value) {
    reject_env(name, value, "a non-negative integer");
  }
  return out;
}

check::ScenarioSpec apply_env(check::ScenarioSpec spec) {
  if (std::getenv("HW_BENCH_QUICK") != nullptr) {
    const sim::SimTime window = spec.horizon - spec.measure_start;
    spec.nodes = std::max<std::uint32_t>(64, spec.nodes / 4);
    spec.measure_start = sim::SimTime::hours(2);
    spec.horizon =
        spec.measure_start + sim::SimTime::seconds(window.to_seconds() / 4.0);
  }
  if (const auto seed = env_uint("HW_SEED")) reseed(spec, *seed);
  if (const char* mode = std::getenv("HW_ROUTE_MODE")) {
    const auto parsed = whisk::route_mode_from_string(mode);
    if (!parsed) {
      reject_env("HW_ROUTE_MODE", mode,
                 "hash-probing, hash-only, round-robin, least-loaded, "
                 "least-expected-work, sjf-affinity");
    }
    spec.route_mode = *parsed;
  }
  if (std::getenv("HW_LEASE") != nullptr) spec.lease_mode = true;
  if (const char* ka = std::getenv("HW_KEEPALIVE")) {
    const auto parsed = runtime::keep_alive_policy_from_string(ka);
    if (!parsed) reject_env("HW_KEEPALIVE", ka, "fixed, adaptive, hybrid");
    spec.keep_alive = *parsed;
  }
  if (std::getenv("HW_TRES") != nullptr) spec.tres_mode = true;
  if (std::getenv("HW_RESV") != nullptr) {
    // Rolling maintenance: every 2 h, the first nodes/16 nodes leave both
    // supplies for 15 min.
    spec.tres_mode = true;
    spec.reservation = true;
    spec.res_period = sim::SimTime::hours(2);
    spec.res_start = spec.res_period;
    spec.res_length = sim::SimTime::minutes(15);
    spec.res_nodes = std::max<std::uint32_t>(1, spec.nodes / 16);
  }
  if (std::getenv("HW_QOS") != nullptr) {
    spec.tres_mode = true;
    spec.qos_preempt = true;
  }
  return spec;
}

std::size_t trial_count() {
  const auto n = env_uint("HW_BENCH_TRIALS");
  if (n == 0u) {
    reject_env("HW_BENCH_TRIALS", "0", "a positive integer");
  }
  return static_cast<std::size_t>(n.value_or(1));
}

std::vector<check::ScenarioSpec> seed_sweep(check::ScenarioSpec base,
                                            std::size_t n) {
  std::vector<check::ScenarioSpec> specs(n, base);
  for (std::size_t i = 0; i < n; ++i) reseed(specs[i], base.seed + i);
  return specs;
}

ExperimentResult run_experiment(const check::ScenarioSpec& spec,
                                std::size_t trace_capacity) {
  if (spec.clusters != 1) {
    throw std::invalid_argument(
        "run_experiment: single-cluster scenarios only");
  }
  ExperimentResult result;
  result.simulation = std::make_unique<sim::Simulation>();
  sim::Simulation& simulation = *result.simulation;

  if (trace_capacity > 0) {
    obs::Observability::Config obs_cfg;
    obs_cfg.trace_capacity = trace_capacity;
    result.obs = std::make_unique<obs::Observability>(obs_cfg);
    result.obs->metrics.add_collector(
        [sim = &simulation](obs::MetricsRegistry& m) {
          m.gauge("sim.executed_events")
              .set(static_cast<double>(sim->executed_events()));
          m.gauge("sim.pending_events")
              .set(static_cast<double>(sim->pending_events()));
        });
  }

  check::Scenario scenario =
      check::build_scenario(simulation, spec, result.obs.get());
  core::HpcWhiskSystem& system = *scenario.system;

  result.log = std::make_unique<analysis::NodeStateLog>(spec.nodes,
                                                       sim::SimTime::zero());
  system.slurm().set_node_observer(
      [log = result.log.get()](const slurm::NodeTransition& t) {
        log->record(t);
      });

  result.measure_start = spec.measure_start;
  result.measure_end = spec.horizon;

  // Time-series tier: sampled signals registered against the recorder,
  // polled by the existing 10 s OW sampler below. Sampling must never
  // schedule its own events — the executed-event count is part of the
  // decision log, so an obs-only event would break traced/untraced
  // identity.
  if (result.obs != nullptr) {
    obs::TimeSeriesRecorder& ts = result.obs->series;
    slurm::Slurmctld* ctld = &system.slurm();
    core::JobManager* mgr = &system.manager();
    whisk::Controller* ctrl = &system.controller();
    // Node timeline: the idle-capacity signal a predictive pilot supply
    // would forecast from (ROADMAP item 5).
    ts.add_sampled("slurm.nodes_idle", [ctld] {
      return static_cast<double>(ctld->state_totals().idle);
    });
    ts.add_sampled("slurm.nodes_hpc", [ctld] {
      return static_cast<double>(ctld->state_totals().hpc);
    });
    ts.add_sampled("slurm.nodes_pilot", [ctld] {
      return static_cast<double>(ctld->state_totals().pilot);
    });
    ts.add_sampled("slurm.nodes_available", [ctld] {
      return static_cast<double>(ctld->state_totals().available());
    });
    // Pilot phases and harvest accumulation.
    ts.add_sampled("pilot.warming", [mgr] {
      return static_cast<double>(mgr->phase_counts().warming_up);
    });
    ts.add_sampled("pilot.serving", [mgr] {
      return static_cast<double>(mgr->phase_counts().serving);
    });
    ts.add_sampled("pilot.draining", [mgr] {
      return static_cast<double>(mgr->phase_counts().draining);
    });
    ts.add_sampled("harvest.harvested_node_s", [mgr] {
      return mgr->harvest().harvested.to_seconds();
    });
    ts.add_sampled("harvest.preempt_wasted_s", [mgr] {
      return mgr->harvest().preempt_wasted.to_seconds();
    });
    // Container-pool occupancy across serving invokers.
    ts.add_sampled("pool.containers_total", [mgr] {
      double n = 0;
      for (const whisk::Invoker* inv : mgr->serving_invokers())
        n += static_cast<double>(inv->pool().total_containers());
      return n;
    });
    ts.add_sampled("pool.containers_busy", [mgr] {
      double n = 0;
      for (const whisk::Invoker* inv : mgr->serving_invokers())
        n += static_cast<double>(inv->pool().busy_containers());
      return n;
    });
    ts.add_sampled("pool.prewarmed", [mgr] {
      double n = 0;
      for (const whisk::Invoker* inv : mgr->serving_invokers())
        n += static_cast<double>(inv->pool().prewarmed_containers());
      return n;
    });
    // Invoker load as the controller sees it.
    ts.add_sampled("whisk.inflight", [ctrl] {
      return static_cast<double>(ctrl->total_in_flight());
    });
    ts.add_sampled("whisk.queue_depth", [ctrl] {
      return static_cast<double>(ctrl->queued_messages());
    });
    ts.add_sampled("whisk.healthy_invokers", [ctrl] {
      return static_cast<double>(ctrl->healthy_count());
    });
    // Cumulative cold/warm counts: registry counters are shared by name
    // across invokers, so they survive pilot churn (lease-tier signal,
    // ROADMAP item 3).
    obs::Counter* cold = &result.obs->metrics.counter("whisk.invoker.cold_starts");
    obs::Counter* warm = &result.obs->metrics.counter("whisk.invoker.warm_hits");
    ts.add_sampled("whisk.cold_starts_total", [cold] {
      return static_cast<double>(cold->value());
    });
    ts.add_sampled("whisk.warm_hits_total", [warm] {
      return static_cast<double>(warm->value());
    });
  }

  // Steady-state window baseline: captured when the clock crosses into
  // the measured window, so burn-in (slab growth, topic creation, scratch
  // sizing) doesn't count against allocs-per-event.
  auto window_base =
      std::make_shared<std::pair<std::uint64_t, std::uint64_t>>(0, 0);
  simulation.at(result.measure_start, [&simulation, window_base] {
    window_base->first = alloc_probe_count();
    window_base->second = simulation.executed_events();
  });

  // OW-level sampler (10 s) during the measurement window. All lambda
  // state is shared_ptr-owned: the result object is returned by value and
  // must not be captured by reference in pending events.
  auto ow_samples = std::make_shared<std::vector<ExperimentResult::OwSample>>();
  const sim::SimTime measure_end = result.measure_end;
  if (spec.supply) {
    obs::Observability* obs = result.obs.get();
    simulation.at(result.measure_start, [&simulation, &system, ow_samples,
                                         measure_end, obs] {
      auto sampler = std::make_shared<sim::PeriodicHandle>();
      *sampler = simulation.every(
          sim::SimTime::seconds(10),
          [&simulation, &system, ow_samples, measure_end, sampler, obs] {
            if (simulation.now() > measure_end) {
              sampler->stop();
              return;
            }
            // Piggyback the time-series sweep on this pre-existing tick:
            // it runs identically with obs off, so event counts match.
            if (obs != nullptr) obs->series.sample_all(simulation.now());
            ExperimentResult::OwSample s;
            s.at = simulation.now();
            const auto phases = system.manager().phase_counts();
            s.warming = static_cast<std::uint32_t>(phases.warming_up);
            s.healthy =
                static_cast<std::uint32_t>(system.controller().healthy_count());
            s.unresponsive =
                static_cast<std::uint32_t>(system.controller().count_with_health(
                    whisk::InvokerHealth::kUnresponsive));
            ow_samples->push_back(s);
          });
    });
  }

  // Start only now: the window baseline and the OW sampler must run
  // before the FaaS window opens at the same instant, so the opening
  // counts toward events_in_window.
  scenario.start();
  simulation.run_until(result.measure_end);
  result.alloc_probe_active = alloc_probe_enabled();
  result.allocs_in_window = alloc_probe_count() - window_base->first;
  result.events_in_window =
      simulation.executed_events() - window_base->second;
  result.log->finalize(result.measure_end);
  result.ow_samples = std::move(*ow_samples);
  if (scenario.faas) result.faas_issued = scenario.faas->issued();
  result.system = std::move(scenario.system);
  result.workload = std::move(scenario.hpc_load);

  const auto all = result.log->sample_counts(sim::SimTime::seconds(10));
  result.samples.reserve(all.size());
  for (const auto& s : all) {
    if (s.at >= result.measure_start) result.samples.push_back(s);
  }
  return result;
}

CoverageSummary summarize_coverage(const ExperimentResult& result,
                                   const std::vector<sim::SimTime>& lengths,
                                   sim::SimTime max_job_length) {
  CoverageSummary out;
  // A-posteriori clairvoyant bound over the run's own availability log,
  // restricted to the measurement window (paper Sec. IV-A "Simulation").
  analysis::ClairvoyantSimulator::Config sim_cfg;
  sim_cfg.job_lengths = lengths;
  sim_cfg.max_job_length = max_job_length;
  sim_cfg.allow_preemption_cut = true;  // pilots are preemptible
  analysis::ClairvoyantSimulator clairvoyant{sim_cfg};
  // Like the paper, the a-posteriori simulation works from the sampled
  // Slurm-level logs, not second-accurate ground truth.
  const auto periods = result.log->sampled_period_intervals(
      sim::SimTime::seconds(10),
      {slurm::ObservedNodeState::kIdle, slurm::ObservedNodeState::kPilot});
  out.simulation =
      clairvoyant.run(periods, result.measure_start, result.measure_end);

  out.slurm_level = analysis::slurm_level_report(result.samples);

  std::vector<double> healthy, warming, unresp;
  std::size_t zero = 0, zero_run = 0, longest = 0;
  for (const auto& s : result.ow_samples) {
    healthy.push_back(s.healthy);
    warming.push_back(s.warming);
    unresp.push_back(s.unresponsive);
    if (s.healthy == 0) {
      ++zero;
      longest = std::max(longest, ++zero_run);
    } else {
      zero_run = 0;
    }
  }
  out.ow_healthy = analysis::summarize(healthy);
  out.ow_warming = analysis::summarize(warming);
  out.ow_unresponsive = analysis::summarize(unresp);
  out.ow_zero_healthy_share =
      result.ow_samples.empty()
          ? 0.0
          : static_cast<double>(zero) /
                static_cast<double>(result.ow_samples.size());
  out.ow_longest_zero_healthy =
      sim::SimTime::seconds(10.0 * static_cast<double>(longest));
  return out;
}

void print_coverage_table(std::ostream& os, const std::string& title,
                          const CoverageSummary& s) {
  using analysis::fmt;
  using analysis::fmt_pct;
  analysis::print_table(
      os, title,
      {"perspective", "state", "25%", "50%", "75%", "avg", "share of idle",
       "not used"},
      {
          {"Simulation", "warm up", fmt(s.simulation.warming_workers.p25, 0),
           fmt(s.simulation.warming_workers.p50, 0),
           fmt(s.simulation.warming_workers.p75, 0),
           fmt(s.simulation.warming_workers.avg, 2),
           fmt_pct(s.simulation.warmup_share), ""},
          {"Simulation", "ready", fmt(s.simulation.ready_workers.p25, 0),
           fmt(s.simulation.ready_workers.p50, 0),
           fmt(s.simulation.ready_workers.p75, 0),
           fmt(s.simulation.ready_workers.avg, 2),
           fmt_pct(s.simulation.ready_share),
           fmt_pct(s.simulation.unused_share)},
          {"Slurm-level", "all states", fmt(s.slurm_level.pilot_workers.p25, 0),
           fmt(s.slurm_level.pilot_workers.p50, 0),
           fmt(s.slurm_level.pilot_workers.p75, 0),
           fmt(s.slurm_level.pilot_workers.avg, 2),
           fmt_pct(s.slurm_level.coverage), fmt_pct(s.slurm_level.unused)},
          {"OW-level", "warm up", fmt(s.ow_warming.p25, 0),
           fmt(s.ow_warming.p50, 0), fmt(s.ow_warming.p75, 0),
           fmt(s.ow_warming.avg, 2), "", ""},
          {"OW-level", "healthy", fmt(s.ow_healthy.p25, 0),
           fmt(s.ow_healthy.p50, 0), fmt(s.ow_healthy.p75, 0),
           fmt(s.ow_healthy.avg, 2), "", ""},
          {"OW-level", "irresp.", fmt(s.ow_unresponsive.p25, 0),
           fmt(s.ow_unresponsive.p50, 0), fmt(s.ow_unresponsive.p75, 0),
           fmt(s.ow_unresponsive.avg, 2), "", ""},
      });
}

}  // namespace hpcwhisk::bench
