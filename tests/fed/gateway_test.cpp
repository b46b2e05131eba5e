// FederatedGateway unit tests: policy selection, the per-cluster
// cool-down table, spillover order, bounded-staleness health snapshots,
// and gateway-level observability. Clusters are owned but never started:
// invokers are registered directly on each cluster's controller, so every
// routing decision is exact and hand-checkable.

#include "hpcwhisk/fed/federated_gateway.hpp"

#include <gtest/gtest.h>

#include <string_view>

#include "hpcwhisk/obs/observability.hpp"

namespace hpcwhisk::fed {
namespace {

using sim::SimTime;
using sim::Simulation;

FederatedGateway::Config make_config(std::size_t clusters, FedPolicy policy) {
  FederatedGateway::Config cfg;
  cfg.policy = policy;
  cfg.log_decisions = true;
  for (std::size_t i = 0; i < clusters; ++i) {
    FederatedGateway::ClusterSpec spec;
    spec.system.seed = i + 1;
    spec.system.slurm.node_count = 4;
    spec.drive_hpc_load = false;
    cfg.clusters.push_back(std::move(spec));
  }
  return cfg;
}

whisk::FunctionSpec sleep_fn() {
  return whisk::fixed_duration_function("fn", SimTime::millis(10));
}

TEST(FederatedGateway, RoundRobinAlternates) {
  Simulation sim;
  FederatedGateway gw{sim, make_config(2, FedPolicy::kRoundRobin)};
  gw.register_function(sleep_fn());
  gw.cluster(0).controller().register_invoker();
  gw.cluster(1).controller().register_invoker();
  gw.refresh_health();

  for (int i = 0; i < 4; ++i) {
    const auto r = gw.invoke("fn");
    EXPECT_FALSE(r.cloud);
    EXPECT_EQ(r.cluster, static_cast<std::size_t>(i % 2));
  }
  EXPECT_EQ(gw.per_cluster_calls()[0], 2u);
  EXPECT_EQ(gw.per_cluster_calls()[1], 2u);
  EXPECT_EQ(gw.counters().cloud_calls, 0u);
}

TEST(FederatedGateway, LeastOutstandingPrefersIdleCluster) {
  Simulation sim;
  FederatedGateway gw{sim, make_config(2, FedPolicy::kLeastOutstanding)};
  gw.register_function(sleep_fn());
  gw.cluster(0).controller().register_invoker();
  gw.cluster(1).controller().register_invoker();
  // Load cluster 0 behind the gateway's back: 5 accepted activations
  // nobody executes (no live invoker pulls them).
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(gw.cluster(0).controller().submit("fn").accepted);
  }
  gw.refresh_health();
  EXPECT_EQ(gw.health()[0].outstanding, 5u);
  EXPECT_EQ(gw.health()[1].outstanding, 0u);

  const auto r = gw.invoke("fn");
  EXPECT_FALSE(r.cloud);
  EXPECT_EQ(r.cluster, 1u);
}

TEST(FederatedGateway, SnapshotIsBoundedStaleNotLive) {
  Simulation sim;
  FederatedGateway gw{sim, make_config(2, FedPolicy::kLeastOutstanding)};
  gw.register_function(sleep_fn());
  gw.cluster(0).controller().register_invoker();
  const whisk::InvokerId inv1 = gw.cluster(1).controller().register_invoker();
  // Tilt the snapshot towards cluster 1, then change live state without
  // refreshing: the gateway must keep routing on the stale snapshot.
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(gw.cluster(0).controller().submit("fn").accepted);
  }
  gw.refresh_health();
  gw.cluster(1).controller().begin_drain(inv1);  // live: c1 unroutable

  // The stale snapshot says c1 is the idle cluster; the live submit
  // 503s, so the call spills to c0 and c1 enters cool-down.
  const auto r = gw.invoke("fn");
  EXPECT_FALSE(r.cloud);
  EXPECT_EQ(r.cluster, 0u);
  EXPECT_EQ(r.spills, 1u);
  EXPECT_EQ(gw.counters().rejections_seen, 1u);
  EXPECT_EQ(gw.counters().spillovers, 1u);
  EXPECT_TRUE(gw.cooling(1, sim.now()));
  EXPECT_FALSE(gw.cooling(0, sim.now()));
}

TEST(FederatedGateway, CooldownTableGeneralizesAlg1) {
  Simulation sim;
  FederatedGateway gw{sim, make_config(2, FedPolicy::kRoundRobin)};
  gw.register_function(sleep_fn());
  gw.refresh_health();

  // No invokers anywhere: primary 503s, spill 503s, cloud takes it.
  const auto r1 = gw.invoke("fn");
  EXPECT_TRUE(r1.cloud);
  EXPECT_EQ(r1.spills, 2u);
  EXPECT_EQ(gw.counters().rejections_seen, 2u);
  EXPECT_EQ(gw.counters().cloud_calls, 1u);
  EXPECT_TRUE(gw.cooling(0, sim.now()));
  EXPECT_TRUE(gw.cooling(1, sim.now()));

  // Inside the cool-down neither cluster is probed again (Alg. 1's
  // "don't hammer a rejecting deployment", per cluster).
  sim.run_until(SimTime::seconds(30));
  const auto r2 = gw.invoke("fn");
  EXPECT_TRUE(r2.cloud);
  EXPECT_EQ(r2.spills, 0u);
  EXPECT_EQ(gw.counters().rejections_seen, 2u);  // unchanged
  EXPECT_EQ(gw.counters().cooldown_skips, 2u);

  // At exactly last_503 + cooldown the cluster is still cooling (the
  // same boundary the Alg. 1 wrapper pins); one tick later it is not.
  EXPECT_TRUE(gw.cooling(0, SimTime::seconds(60)));
  EXPECT_FALSE(gw.cooling(0, SimTime::seconds(60) + SimTime::micros(1)));

  // After expiry a healthy cluster takes traffic again.
  sim.run_until(SimTime::seconds(61));
  gw.cluster(1).controller().register_invoker();
  gw.refresh_health();
  const auto r3 = gw.invoke("fn");
  EXPECT_FALSE(r3.cloud);
  EXPECT_EQ(r3.cluster, 1u);
}

TEST(FederatedGateway, SpilloverPrefersHealthiestSnapshot) {
  Simulation sim;
  FederatedGateway gw{sim, make_config(3, FedPolicy::kRoundRobin)};
  gw.register_function(sleep_fn());
  // c0: no invokers (will 503). c1: one invoker, heavy backlog.
  // c2: two invokers, idle — the healthiest sibling.
  gw.cluster(1).controller().register_invoker();
  for (int i = 0; i < 6; ++i) {
    ASSERT_TRUE(gw.cluster(1).controller().submit("fn").accepted);
  }
  gw.cluster(2).controller().register_invoker();
  gw.cluster(2).controller().register_invoker();
  gw.refresh_health();

  // Round-robin starts at c0, which rejects; the spill must go to c2
  // (lowest load score), not the next-in-rotation c1.
  const auto r = gw.invoke("fn");
  EXPECT_FALSE(r.cloud);
  EXPECT_EQ(r.cluster, 2u);
  EXPECT_EQ(r.spills, 1u);
}

TEST(FederatedGateway, PowerOfTwoPicksLowerLoadedOfTwo) {
  Simulation sim;
  auto cfg = make_config(2, FedPolicy::kPowerOfTwo);
  cfg.seed = 7;
  FederatedGateway gw{sim, cfg};
  gw.register_function(sleep_fn());
  gw.cluster(0).controller().register_invoker();
  gw.cluster(1).controller().register_invoker();
  for (int i = 0; i < 8; ++i) {
    ASSERT_TRUE(gw.cluster(0).controller().submit("fn").accepted);
  }
  gw.refresh_health();
  // With two clusters, power-of-two always compares both: every call
  // must land on the idle cluster 1.
  for (int i = 0; i < 5; ++i) {
    const auto r = gw.invoke("fn");
    EXPECT_FALSE(r.cloud);
    EXPECT_EQ(r.cluster, 1u);
  }
}

TEST(FederatedGateway, RegisterFunctionReachesEveryRegistry) {
  Simulation sim;
  FederatedGateway gw{sim, make_config(2, FedPolicy::kRoundRobin)};
  gw.register_function(sleep_fn());
  EXPECT_NE(gw.cluster(0).functions().find("fn"), nullptr);
  EXPECT_NE(gw.cluster(1).functions().find("fn"), nullptr);
  EXPECT_NE(gw.cloud_functions().find("fn"), nullptr);
}

TEST(FederatedGateway, EmitsRoutingInstantsAndCooldownSpans) {
  obs::Observability obs;
  Simulation sim;
  auto cfg = make_config(2, FedPolicy::kRoundRobin);
  cfg.obs = &obs;
  FederatedGateway gw{sim, cfg};
  gw.register_function(sleep_fn());
  gw.refresh_health();

  (void)gw.invoke("fn");  // all 503 -> cooldowns open, cloud offload
  sim.run_until(SimTime::seconds(61));
  gw.cluster(0).controller().register_invoker();
  gw.cluster(1).controller().register_invoker();
  gw.refresh_health();
  (void)gw.invoke("fn");  // a cluster takes it; both cooldown spans close

  std::size_t routes = 0, offloads = 0, rejects = 0;
  std::size_t cooldown_begin = 0, cooldown_end = 0, cloud_spans = 0;
  for (const obs::TraceEvent& ev : obs.trace.events()) {
    const std::string_view name{ev.name};
    if (name == "fed_route") ++routes;
    if (name == "fed_offload") ++offloads;
    if (name == "fed_503") ++rejects;
    if (name == "fed_cooldown" && ev.phase == obs::Phase::kAsyncBegin)
      ++cooldown_begin;
    if (name == "fed_cooldown" && ev.phase == obs::Phase::kAsyncEnd)
      ++cooldown_end;
    if (name == "cloud_invoke" && ev.phase == obs::Phase::kAsyncBegin)
      ++cloud_spans;
  }
  EXPECT_EQ(routes, 1u);
  EXPECT_EQ(offloads, 1u);
  EXPECT_EQ(rejects, 2u);
  EXPECT_EQ(cooldown_begin, 2u);
  EXPECT_EQ(cooldown_end, 2u);  // both expired and were re-observed eligible
  EXPECT_EQ(cloud_spans, 1u);   // the shared cloud records into this sink

  obs.metrics.collect();
  EXPECT_EQ(obs.metrics.counter("fed.invocations").value(), 2u);
  EXPECT_EQ(obs.metrics.counter("fed.cloud_calls").value(), 1u);
  EXPECT_EQ(obs.metrics.counter("fed.rejections_seen").value(), 2u);
}

TEST(FederatedGateway, HealthSamplerTracksCoverage) {
  Simulation sim;
  auto cfg = make_config(2, FedPolicy::kRoundRobin);
  FederatedGateway gw{sim, cfg};
  gw.register_function(sleep_fn());
  gw.refresh_health();  // no invokers anywhere
  gw.cluster(0).controller().register_invoker();
  gw.refresh_health();  // c0 healthy
  gw.refresh_health();
  EXPECT_EQ(gw.health_samples(), 3u);
  EXPECT_EQ(gw.health_samples_any_healthy(), 2u);
  EXPECT_EQ(gw.health_samples_healthy()[0], 2u);
  EXPECT_EQ(gw.health_samples_healthy()[1], 0u);
}

}  // namespace
}  // namespace hpcwhisk::fed
