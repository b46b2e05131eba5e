#include "hpcwhisk/check/runner.hpp"

#include <algorithm>
#include <cstdio>
#include <memory>
#include <stdexcept>
#include <utility>

#include "hpcwhisk/check/fidelity.hpp"

#include "hpcwhisk/obs/trace.hpp"
#include "hpcwhisk/whisk/function.hpp"

namespace hpcwhisk::check {
namespace {

// Per-cluster probes. The vector holding these is reserved up front:
// observer lambdas capture stable pointers into it.
struct ClusterProbe {
  std::map<slurm::JobId, JobInfo> jobs;
  std::string log;
  std::unique_ptr<analysis::NodeStateLog> node_log;
  std::unique_ptr<analysis::ConservationAudit> audit;
};

void append_job_event(std::string& log, std::size_t cluster,
                      const slurm::JobEvent& ev) {
  char buf[160];
  switch (ev.kind) {
    case slurm::JobEventKind::kSubmitted:
      std::snprintf(buf, sizeof buf, "c%zu Q %llu %lld\n", cluster,
                    static_cast<unsigned long long>(ev.id),
                    static_cast<long long>(ev.when.ticks()));
      break;
    case slurm::JobEventKind::kClaimed:
      std::snprintf(buf, sizeof buf, "c%zu C %llu %lld\n", cluster,
                    static_cast<unsigned long long>(ev.id),
                    static_cast<long long>(ev.when.ticks()));
      break;
    case slurm::JobEventKind::kLaunched:
      std::snprintf(buf, sizeof buf, "c%zu S %llu %lld %lld\n", cluster,
                    static_cast<unsigned long long>(ev.id),
                    static_cast<long long>(ev.when.ticks()),
                    static_cast<long long>(ev.job->granted_limit.ticks()));
      break;
    case slurm::JobEventKind::kSigterm:
      std::snprintf(buf, sizeof buf, "c%zu G %llu %lld %lld %s\n", cluster,
                    static_cast<unsigned long long>(ev.id),
                    static_cast<long long>(ev.when.ticks()),
                    static_cast<long long>(ev.deadline.ticks()),
                    slurm::to_string(ev.reason));
      break;
    case slurm::JobEventKind::kEnded:
      std::snprintf(buf, sizeof buf, "c%zu E %llu %lld %s\n", cluster,
                    static_cast<unsigned long long>(ev.id),
                    static_cast<long long>(ev.when.ticks()),
                    slurm::to_string(ev.reason));
      break;
  }
  log += buf;
  if (ev.kind == slurm::JobEventKind::kLaunched) {
    // Allocation is part of the decision; id order within the record.
    std::string& line = log;
    line.pop_back();  // rejoin the node list to the S line
    for (const slurm::NodeId n : ev.job->nodes) {
      std::snprintf(buf, sizeof buf, " %u", n);
      line += buf;
    }
    line += '\n';
  }
}

void record_job_event(std::map<slurm::JobId, JobInfo>& jobs,
                      const slurm::JobEvent& ev) {
  JobInfo& info = jobs[ev.id];
  const slurm::JobRecord& rec = *ev.job;
  switch (ev.kind) {
    case slurm::JobEventKind::kSubmitted:
      info.id = ev.id;
      info.partition = rec.spec.partition;
      info.tier = rec.priority_tier;
      info.fixed = rec.spec.time_min == sim::SimTime::zero();
      info.priority = rec.spec.priority;
      info.num_nodes = rec.spec.num_nodes;
      info.tres = rec.spec.tres_per_node;
      info.time_limit = rec.spec.time_limit;
      info.time_min = rec.spec.time_min;
      info.submit = ev.when;
      break;
    case slurm::JobEventKind::kClaimed:
      if (ev.when < info.decision) info.decision = ev.when;
      break;
    case slurm::JobEventKind::kLaunched:
      if (ev.when < info.decision) info.decision = ev.when;
      info.start = ev.when;
      info.granted_limit = rec.granted_limit;
      info.nodes = rec.nodes;
      break;
    case slurm::JobEventKind::kSigterm:
      info.got_sigterm = true;
      info.sigterm_at = ev.when;
      info.sigterm_deadline = ev.deadline;
      info.sigterm_grace = ev.grace;
      info.sigterm_reason = ev.reason;
      break;
    case slurm::JobEventKind::kEnded:
      info.ended = true;
      info.end = ev.when;
      info.end_reason = ev.reason;
      break;
  }
}

void attach_probe(ClusterProbe& probe, std::size_t cluster_index,
                  core::HpcWhiskSystem& system, sim::SimTime start) {
  probe.node_log = std::make_unique<analysis::NodeStateLog>(
      system.slurm().node_count(), start);
  system.slurm().set_node_observer(
      [&probe](const slurm::NodeTransition& t) { probe.node_log->record(t); });
  system.slurm().set_job_observer(
      [&probe, cluster_index](const slurm::JobEvent& ev) {
        record_job_event(probe.jobs, ev);
        append_job_event(probe.log, cluster_index, ev);
      });
  // The audit takes the controller's single terminal-observer slot; the
  // runner must not set another (it would displace the audit silently).
  probe.audit = std::make_unique<analysis::ConservationAudit>(
      system.controller());
}

ClusterObservation collect_cluster(ClusterProbe& probe,
                                   core::HpcWhiskSystem& system,
                                   sim::SimTime end) {
  probe.node_log->finalize(end);
  ClusterObservation co;
  co.node_count = system.slurm().node_count();
  co.jobs.reserve(probe.jobs.size());
  for (auto& [id, info] : probe.jobs) co.jobs.push_back(std::move(info));
  co.audit = probe.audit->finalize();
  co.controller = system.controller().counters();
  co.slurm = system.slurm().counters();
  co.manager = system.manager().counters();
  co.active_pilots = system.manager().active_pilots();
  co.node_intervals = probe.node_log->intervals();
  // Activation outcomes join the decision log post-hoc (the audit holds
  // the controller's only terminal-observer slot), in id order — which
  // is deterministic because the store is append-only.
  for (const whisk::ActivationRecord& rec :
       system.controller().activations()) {
    if (!whisk::is_terminal(rec.state)) ++co.nonterminal_activations;
    char buf[128];
    std::snprintf(buf, sizeof buf, "A %llu %s %lld %lld\n",
                  static_cast<unsigned long long>(rec.id),
                  whisk::to_string(rec.state),
                  static_cast<long long>(rec.submit_time.ticks()),
                  static_cast<long long>(rec.end_time.ticks()));
    probe.log += buf;
  }
  return co;
}

}  // namespace

void Scenario::start() {
  if (gateway) {
    gateway->start();
  } else {
    hpc_load->start();
    if (spec->supply) system->start();
  }
  if (!faas) return;
  if (spec->measure_start > simulation->now()) {
    simulation->at(spec->measure_start,
                   [faas = faas.get(), until = spec->horizon] {
                     faas->start(until);
                   });
  } else {
    faas->start(spec->horizon);
  }
}

Scenario build_scenario(sim::Simulation& simulation, const ScenarioSpec& spec,
                        obs::Observability* obs) {
  if (spec.clusters > 1 && !spec.supply) {
    throw std::invalid_argument(
        "build_scenario: a federated scenario needs a pilot supply");
  }
  // Everything but the seed and the fault plan is shared by the clusters.
  core::HpcWhiskSystem::Config sys;
  sys.obs = obs;
  sys.slurm.node_count = spec.nodes;
  sys.slurm.pilot_placement = spec.placement;
  sys.partitions = core::default_partitions(
      spec.plant == BugPlant::kTruncateGrace ? sim::SimTime::seconds(5)
                                             : spec.grace);
  sys.manager.model = spec.supply.value_or(core::SupplyModel::kFib);
  sys.manager.fib_lengths = core::job_length_set(spec.length_set);
  sys.manager.fib_per_length = spec.fib_per_length;
  sys.manager.replenish_interval = spec.replenish_interval;
  sys.manager.invoker.pool.keep_alive.policy = spec.keep_alive;
  sys.manager.invoker.pool.keep_alive.floor = spec.keep_alive_floor;
  sys.manager.invoker.pool.keep_alive.reap_interval = spec.keep_alive_reap;
  if (spec.invoker_concurrency > 0)
    sys.manager.invoker.max_concurrent = spec.invoker_concurrency;
  sys.controller.route_mode = spec.route_mode;
  sys.controller.sched.deadline_classes = spec.deadline_classes;
  sys.controller.lease.enabled = spec.lease_mode;
  if (spec.invoker_slots > 0) sys.controller.invoker_slots = spec.invoker_slots;

  trace::HpcWorkloadGenerator::Config hpc;
  hpc.backlog_target = spec.hpc_backlog;
  hpc.lull_probability_per_tick = spec.lull_probability;

  // Slurm-fidelity layer: nothing below runs unless tres_mode is on, so
  // legacy specs keep their exact construction (golden-pinned).
  if (spec.tres_mode) {
    auto& fid = sys.slurm.fidelity;
    fid.tres_mode = true;
    fid.node_capacity = promised_capacity(spec);
    const slurm::TresVector pilot_tres{spec.pilot_cpus, spec.pilot_mem_mb, 0};
    if (spec.plant == BugPlant::kTresOvercommit) {
      // Plant: build the nodes larger than the spec promises (one extra
      // pilot's worth), so the scheduler legitimately packs beyond the
      // promised capacity and the per-TRES invariant must catch it.
      fid.node_capacity += pilot_tres;
    }
    sys.manager.pilot_tres = pilot_tres;
    if (spec.qos_preempt) {
      // pilot-low is sacrificial (dies before plain tier-0 pilots);
      // pilot-high matches the HPC partition tier, so the longest-fib
      // pilots are protected from HPC preemption (DESIGN.md §17).
      fid.qos.push_back({"pilot-low", -1, 0, 1.0});
      fid.qos.push_back({"pilot-high", 1, 0, 1.0});
      sys.manager.pilot_qos = "pilot-low";
      sys.manager.pilot_qos_long = "pilot-high";
    }
    if (spec.reservation && spec.plant != BugPlant::kReservationIgnored) {
      fid.reservations = spec_reservations(spec);
    }
    // Whole/half/quarter-node HPC mix against the promised capacity: the
    // partial nodes whose leftover TRES the fractional pilots harvest.
    const slurm::TresVector full = promised_capacity(spec);
    const slurm::TresVector half{std::max(1u, full.cpus / 2),
                                 std::max(1u, full.mem_mb / 2), 0};
    const slurm::TresVector quarter{std::max(1u, full.cpus / 4),
                                    std::max(1u, full.mem_mb / 4), 0};
    hpc.tres_buckets = {{full, 0.5}, {half, 0.3}, {quarter, 0.2}};
  }
  const auto cluster_config = [&](std::uint32_t cluster) {
    core::HpcWhiskSystem::Config cfg = sys;
    cfg.seed = spec.seed + 1000003ULL * cluster;
    for (const ScenarioFault& f : spec.faults) {
      if (f.cluster == cluster) cfg.faults.add(f.event);
    }
    return cfg;
  };

  Scenario out;
  out.spec = &spec;
  out.simulation = &simulation;
  if (spec.clusters > 1) {
    fed::FederatedGateway::Config gcfg;
    gcfg.policy = fed::FedPolicy::kPowerOfTwo;
    gcfg.seed = spec.gateway_seed;
    gcfg.log_decisions = true;
    gcfg.obs = obs;
    for (std::uint32_t i = 0; i < spec.clusters; ++i) {
      fed::FederatedGateway::ClusterSpec cs;
      cs.system = cluster_config(i);
      cs.hpc_load = hpc;
      cs.hpc_seed = spec.hpc_seed + i;
      gcfg.clusters.push_back(std::move(cs));
    }
    out.gateway = std::make_unique<fed::FederatedGateway>(simulation, gcfg);
  } else {
    out.system =
        std::make_unique<core::HpcWhiskSystem>(simulation, cluster_config(0));
    out.hpc_load = std::make_unique<trace::HpcWorkloadGenerator>(
        simulation, out.system->slurm(), hpc, sim::Rng{spec.hpc_seed});
  }

  if (spec.faas_qps <= 0) return out;
  trace::FaasLoadGenerator::Config faas;
  faas.rate_qps = spec.faas_qps;
  faas.poisson = spec.faas_poisson;
  faas.hot_share = spec.faas_hot_share;
  faas.hot_count = spec.faas_hot_functions;
  // 128 MB sleep functions, except that the first faas_long_share of
  // them are re-registered as long-running interruptible actions (at
  // fixed_duration_function's default size, as the benches always ran
  // them): long executions are the ones live drains interrupt.
  whisk::FunctionRegistry functions;
  faas.functions = trace::register_sleep_functions(
      functions, spec.faas_functions, spec.faas_duration);
  const std::size_t n_long = std::min<std::size_t>(
      spec.faas_functions,
      static_cast<std::size_t>(spec.faas_long_share *
                               static_cast<double>(spec.faas_functions)));
  for (std::size_t i = 0; i < n_long; ++i) {
    functions.put(whisk::fixed_duration_function(faas.functions[i],
                                                 spec.faas_long_duration));
  }
  for (std::uint32_t i = 0; i < functions.size(); ++i) {
    if (out.gateway) {
      out.gateway->register_function(functions.spec(i));
    } else {
      out.system->functions().put(functions.spec(i));
    }
  }
  trace::FaasLoadGenerator::Sink sink;
  if (out.gateway) {
    sink = [gw = out.gateway.get()](const std::string& fn) {
      (void)gw->invoke(fn);
    };
  } else {
    sink = [sys = out.system.get()](const std::string& fn) {
      (void)sys->controller().submit(fn);
    };
  }
  out.faas = std::make_unique<trace::FaasLoadGenerator>(
      simulation, std::move(faas), std::move(sink), sim::Rng{spec.faas_seed});
  return out;
}

RunObservation run_scenario(const ScenarioSpec& spec) {
  sim::Simulation sim;
  Scenario scenario = build_scenario(sim, spec);
  std::vector<ClusterProbe> probes(spec.clusters);
  for (std::uint32_t i = 0; i < spec.clusters; ++i) {
    attach_probe(probes[i], i, scenario.cluster(i), sim.now());
  }
  scenario.start();
  sim.run_until(spec.horizon + spec.settle);

  RunObservation obs;
  obs.federated = scenario.gateway != nullptr;
  obs.end_time = sim.now();
  obs.faas_issued = scenario.faas ? scenario.faas->issued() : 0;
  if (scenario.gateway) {
    obs.gateway = scenario.gateway->counters();
    obs.per_cluster_calls = scenario.gateway->per_cluster_calls();
  }
  for (std::uint32_t i = 0; i < spec.clusters; ++i) {
    obs.clusters.push_back(
        collect_cluster(probes[i], scenario.cluster(i), sim.now()));
    if (spec.tres_mode) {
      obs.clusters.back().node_capacity = promised_capacity(spec);
    }
    obs.decision_log += probes[i].log;
  }
  if (scenario.gateway) obs.decision_log += scenario.gateway->decision_log();
  obs.decision_hash = obs::fnv1a(obs.decision_log);
  return obs;
}


}  // namespace hpcwhisk::check
