#pragma once
// Shared spec -> fidelity-regime derivations. build_scenario builds the
// system from these and the invariant suite re-derives the same values
// when checking, so the promised TRES capacity and the reservation
// windows never need to be smuggled through the observation — they are
// a pure function of the ScenarioSpec.

#include <algorithm>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "hpcwhisk/check/scenario.hpp"
#include "hpcwhisk/slurm/reservation.hpp"
#include "hpcwhisk/slurm/tres.hpp"

namespace hpcwhisk::check {

/// Per-node capacity the spec promises (TRES mode). The tres-overcommit
/// bug plant builds the system *larger* than this; the per-TRES
/// invariant checks against this promise, which is how it catches it.
[[nodiscard]] inline slurm::TresVector promised_capacity(
    const ScenarioSpec& s) {
  return {s.node_cpus, s.node_mem_mb, 0};
}

/// The maintenance windows a tres_mode+reservation spec declares, each
/// over the first min(res_nodes, nodes) node ids: one window at
/// res_start when res_period is zero, else one every res_period from
/// res_start while it opens before the horizon. (The node-count clamp
/// matters under shrinking: the ddmin geometry step halves spec.nodes
/// without touching res_nodes.)
[[nodiscard]] inline std::vector<slurm::Reservation> spec_reservations(
    const ScenarioSpec& s) {
  std::vector<slurm::Reservation> out;
  const bool rolling = s.res_period > sim::SimTime::zero();
  for (sim::SimTime at = s.res_start; !rolling || at < s.horizon;
       at += s.res_period) {
    slurm::Reservation r;
    r.name = "maint-" + std::to_string(at.ticks());
    r.start = at;
    r.end = at + s.res_length;
    r.nodes.resize(std::min(s.res_nodes, s.nodes));
    for (std::uint32_t n = 0; n < r.nodes.size(); ++n) r.nodes[n] = n;
    out.push_back(std::move(r));
    if (!rolling) break;
  }
  return out;
}

}  // namespace hpcwhisk::check
