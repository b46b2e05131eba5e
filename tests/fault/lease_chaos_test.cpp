// Lease tier under faults: killing the node (or the invoker process)
// that backs active leases must revoke them, re-route the hot functions,
// and never double-execute or lose an activation — the conservation
// audit is the arbiter.

#include <gtest/gtest.h>

#include "hpcwhisk/analysis/conservation.hpp"
#include "hpcwhisk/core/system.hpp"
#include "hpcwhisk/fault/chaos_engine.hpp"
#include "hpcwhisk/trace/faas_workload.hpp"

namespace hpcwhisk {
namespace {

using sim::SimTime;
using sim::Simulation;

core::HpcWhiskSystem::Config lease_system(std::uint32_t nodes,
                                          std::uint64_t seed) {
  core::HpcWhiskSystem::Config cfg;
  cfg.seed = seed;
  cfg.slurm.node_count = nodes;
  cfg.slurm.min_pass_gap = SimTime::zero();
  cfg.manager.fib_lengths = core::job_length_set("C1");
  cfg.manager.fib_per_length = 3;
  cfg.controller.lease.enabled = true;
  return cfg;
}

/// Two-function hot load over [2min, 20min); drains past every client
/// timeout before returning.
void run_with_hot_load(Simulation& simulation, core::HpcWhiskSystem& system,
                       std::uint64_t load_seed) {
  const auto functions =
      trace::register_sleep_functions(system.functions(), 2,
                                      SimTime::seconds(2));
  system.start();
  simulation.run_until(SimTime::minutes(2));
  trace::FaasLoadGenerator faas{
      simulation,
      // 8 QPS over 2 hot functions => ~0.25 s gaps, well under the
      // 500 ms hot bar (lease::kHotInterarrival).
      {.rate_qps = 8.0, .functions = functions},
      [&system](const std::string& fn) {
        (void)system.controller().submit(fn);
      },
      sim::Rng{load_seed}};
  faas.start(SimTime::minutes(20));
  simulation.run_until(SimTime::minutes(30));
}

TEST(LeaseChaos, NodeKillRevokesLeasesWithoutDoubleExecution) {
  Simulation simulation;
  auto cfg = lease_system(4, 7);
  // Kill every node once, staggered, so whichever invoker holds the
  // leases is guaranteed to die while they are active.
  for (std::uint32_t n = 0; n < 4; ++n) {
    fault::FaultEvent ev;
    ev.at = SimTime::minutes(5) + SimTime::seconds(30 * n);
    ev.kind = fault::FaultKind::kNodeCrash;
    ev.grace = SimTime::seconds(5);  // truncated: SIGKILL before hand-off
    ev.outage = SimTime::minutes(1);
    ev.target = n;
    cfg.faults.add(ev);
  }
  core::HpcWhiskSystem system{simulation, cfg};
  analysis::ConservationAudit audit{system.controller()};
  run_with_hot_load(simulation, system, 9);

  const auto* leases = system.controller().lease_manager();
  ASSERT_NE(leases, nullptr);
  EXPECT_GT(leases->stats().granted, 0u) << "the hot load never leased";
  EXPECT_GT(system.controller().counters().lease_hits, 0u);
  EXPECT_GE(leases->stats().revoked, 1u)
      << "killing every node must revoke the active leases";

  const auto result = audit.finalize();
  EXPECT_TRUE(result.ok()) << result.report();
  EXPECT_EQ(result.double_terminal, 0u);
  EXPECT_GT(result.completed, 0u);
}

TEST(LeaseChaos, GracefulPreemptionRevokesAndRelocatesLeases) {
  Simulation simulation;
  // No injected faults: C1 fib jobs preempt pilots naturally (Slurm
  // CANCEL with grace), each drain revoking the departing worker's
  // leases; the hot functions re-lease on the survivors.
  auto cfg = lease_system(3, 21);
  core::HpcWhiskSystem system{simulation, cfg};
  analysis::ConservationAudit audit{system.controller()};
  run_with_hot_load(simulation, system, 23);

  const auto* leases = system.controller().lease_manager();
  ASSERT_NE(leases, nullptr);
  EXPECT_GT(leases->stats().granted, 0u);
  EXPECT_GT(system.controller().counters().lease_hits, 0u);
  const auto result = audit.finalize();
  EXPECT_TRUE(result.ok()) << result.report();
  EXPECT_EQ(result.double_terminal, 0u);
}

TEST(LeaseChaos, InvokerCrashUnderLeaseLoadKeepsTheLedgerClean) {
  Simulation simulation;
  auto cfg = lease_system(4, 17);
  fault::FaultEvent ev;
  ev.at = SimTime::minutes(6);
  ev.kind = fault::FaultKind::kInvokerCrash;
  cfg.faults.add(ev);
  core::HpcWhiskSystem system{simulation, cfg};
  analysis::ConservationAudit audit{system.controller()};
  run_with_hot_load(simulation, system, 19);

  ASSERT_EQ(system.chaos()->counters().applied, 1u);
  EXPECT_GE(system.controller().counters().unresponsive_detected, 1u);
  const auto result = audit.finalize();
  EXPECT_TRUE(result.ok()) << result.report();
  EXPECT_EQ(result.double_terminal, 0u);
}

}  // namespace
}  // namespace hpcwhisk
