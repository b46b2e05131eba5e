#include "hpcwhisk/check/scenario.hpp"

#include <algorithm>
#include <sstream>
#include <stdexcept>

#include "hpcwhisk/sim/rng.hpp"

namespace hpcwhisk::check {

const char* to_string(BugPlant p) {
  switch (p) {
    case BugPlant::kNone: return "none";
    case BugPlant::kTruncateGrace: return "truncate-grace";
    case BugPlant::kTresOvercommit: return "tres-overcommit";
    case BugPlant::kReservationIgnored: return "reservation-ignored";
  }
  return "?";
}

BugPlant bug_plant_from_string(std::string_view name) {
  if (name == "none") return BugPlant::kNone;
  if (name == "truncate-grace") return BugPlant::kTruncateGrace;
  if (name == "tres-overcommit") return BugPlant::kTresOvercommit;
  if (name == "reservation-ignored") return BugPlant::kReservationIgnored;
  throw std::invalid_argument("unknown bug plant: " + std::string{name});
}

ScenarioSpec ScenarioSpec::sample(std::uint64_t seed,
                                  const SampleOptions& options) {
  // Draw order is part of the repro contract: new fields must append
  // draws, never reorder them, or existing seeds change meaning.
  sim::Rng rng{seed * 0x9E3779B97F4A7C15ULL + 0x5D1CC3ULL};
  ScenarioSpec s;
  s.seed = seed;
  check_streams(s);
  s.plant = options.plant;
  s.nodes = static_cast<std::uint32_t>(
      rng.uniform_int(options.min_nodes, options.max_nodes));
  s.clusters = 1;
  if (options.max_clusters > 1 && rng.bernoulli(options.fed_probability)) {
    s.clusters =
        static_cast<std::uint32_t>(rng.uniform_int(2, options.max_clusters));
  }
  s.supply = rng.bernoulli(0.5) ? core::SupplyModel::kFib
                                : core::SupplyModel::kVar;
  s.length_set = rng.bernoulli(0.5) ? "A1" : "C1";
  s.fib_per_length = static_cast<std::size_t>(rng.uniform_int(2, 4));
  s.horizon = sim::SimTime::minutes(
      static_cast<double>(rng.uniform_int(
          static_cast<std::int64_t>(options.min_horizon_minutes),
          static_cast<std::int64_t>(options.max_horizon_minutes))));
  s.faas_qps = 0.5 * static_cast<double>(rng.uniform_int(2, 12));
  s.faas_functions = static_cast<std::uint32_t>(rng.uniform_int(4, 16));
  s.faas_duration =
      sim::SimTime::seconds(static_cast<double>(rng.uniform_int(1, 4)));
  s.faas_poisson = rng.bernoulli(0.5);
  s.hpc_backlog = static_cast<std::size_t>(rng.uniform_int(8, 30));

  if (options.chaos) {
    fault::FaultProfile profile;
    profile.start = sim::SimTime::minutes(3);
    profile.horizon = s.horizon - sim::SimTime::minutes(5);
    profile.node_crash_rate_per_hour = 6.0;
    profile.invoker_stall_rate_per_hour = 9.0;
    profile.invoker_crash_rate_per_hour = 6.0;
    profile.mq_fault_rate_per_hour = 9.0;
    profile.mean_outage = sim::SimTime::minutes(2);
    profile.mean_stall = sim::SimTime::seconds(30);
    const fault::FaultPlan plan =
        fault::FaultPlan::sample(profile, rng.next_u64());
    s.faults.reserve(plan.size());
    for (const fault::FaultEvent& ev : plan.events()) {
      ScenarioFault f;
      f.cluster = s.clusters > 1 ? static_cast<std::uint32_t>(rng.uniform_int(
                                       0, s.clusters - 1))
                                 : 0;
      f.event = ev;
      s.faults.push_back(f);
    }
  }

  // Appended draws (route-mode coverage arrived after the first repro
  // format): per the draw-order contract above, new fields draw LAST so
  // every earlier field keeps its pre-existing value for old seeds.
  static constexpr whisk::RouteMode kRouteModes[] = {
      whisk::RouteMode::kHashProbing,
      whisk::RouteMode::kHashOnly,
      whisk::RouteMode::kRoundRobin,
      whisk::RouteMode::kLeastLoaded,
      whisk::RouteMode::kLeastExpectedWork,
      whisk::RouteMode::kSjfAffinity,
  };
  s.route_mode = kRouteModes[rng.uniform_int(0, 5)];
  s.deadline_classes = rng.bernoulli(0.5);
  s.lease_mode = rng.bernoulli(0.3);

  // Slurm fidelity regime (appended after lease_mode). Every draw is
  // unconditional — even when tres_mode comes up false — so the draw
  // count is fixed and future appended fields stay stable for old seeds.
  s.tres_mode = rng.bernoulli(0.45);
  s.node_cpus = static_cast<std::uint32_t>(rng.uniform_int(4, 16));
  s.node_mem_mb =
      static_cast<std::uint32_t>(rng.uniform_int(16, 64)) * 1000u;
  s.pilot_cpus = static_cast<std::uint32_t>(
      rng.uniform_int(1, std::max<std::int64_t>(1, s.node_cpus / 2)));
  // Pilot memory tracks its cpu share of the node, so neither axis is
  // trivially the sole binding constraint.
  s.pilot_mem_mb = s.node_mem_mb / s.node_cpus * s.pilot_cpus;
  s.qos_preempt = rng.bernoulli(0.4);
  s.reservation = rng.bernoulli(0.35);
  // One window opening at 20-60 % of the horizon, 4-10 minutes long.
  const double res_start_frac =
      0.2 + 0.05 * static_cast<double>(rng.uniform_int(0, 8));
  s.res_start = sim::SimTime::seconds(s.horizon.to_seconds() * res_start_frac);
  s.res_length =
      sim::SimTime::minutes(static_cast<double>(rng.uniform_int(4, 10)));
  s.res_nodes = static_cast<std::uint32_t>(
      rng.uniform_int(1, std::max<std::int64_t>(2, s.nodes / 4)));
  return s;
}

void check_streams(ScenarioSpec& spec) {
  spec.hpc_seed = spec.seed * 77 + 1;
  spec.faas_seed = spec.seed * 77 + 2;
  spec.gateway_seed = spec.seed * 77 + 5;
}

std::string ScenarioSpec::summary() const {
  std::ostringstream out;
  out << "seed=" << seed << " nodes=" << nodes;
  if (clusters > 1) out << "x" << clusters;
  out << " " << (supply ? core::to_string(*supply) : "none") << "/"
      << length_set << " horizon="
      << horizon.to_string() << " qps=" << faas_qps << " fns="
      << faas_functions << " route=" << whisk::to_string(route_mode);
  if (deadline_classes) out << "+dl";
  if (lease_mode) out << "+lease";
  if (tres_mode) {
    out << "+tres(" << node_cpus << "c/" << pilot_cpus << "c)";
    if (qos_preempt) out << "+qos";
    if (reservation) out << "+resv";
  }
  out << " faults=" << faults.size();
  if (plant != BugPlant::kNone) out << " plant=" << to_string(plant);
  return out.str();
}

}  // namespace hpcwhisk::check
