// Micro-benchmarks of the substrates: message-broker throughput, the
// container pool's fast paths, the event queue, and SeBS kernel scaling.
// These are performance benches for the library itself, not paper
// reproductions.

#include <benchmark/benchmark.h>

#include <memory>
#include <vector>

#include "hpcwhisk/mq/broker.hpp"
#include "hpcwhisk/runtime/container_pool.hpp"
#include "hpcwhisk/sebs/graph.hpp"
#include "hpcwhisk/sebs/kernels.hpp"
#include "hpcwhisk/sim/event_queue.hpp"
#include "hpcwhisk/sim/rng.hpp"
#include "hpcwhisk/sim/simulation.hpp"
#include "hpcwhisk/slurm/slurmctld.hpp"

namespace {

using namespace hpcwhisk;

void BM_topic_publish_poll(benchmark::State& state) {
  mq::Broker broker;
  mq::Topic& topic = broker.topic("bench");
  std::uint64_t id = 0;
  for (auto _ : state) {
    mq::Message m;
    m.id = id++;
    topic.publish(std::move(m), sim::SimTime::zero());
    benchmark::DoNotOptimize(topic.poll_one());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_topic_publish_poll);

void BM_topic_batch_poll(benchmark::State& state) {
  const std::size_t batch = static_cast<std::size_t>(state.range(0));
  mq::Broker broker;
  mq::Topic& topic = broker.topic("bench");
  std::vector<mq::Message> scratch;
  for (auto _ : state) {
    for (std::size_t i = 0; i < batch; ++i) {
      mq::Message m;
      m.id = i;
      topic.publish(std::move(m), sim::SimTime::zero());
    }
    scratch.clear();
    benchmark::DoNotOptimize(topic.poll_into(batch, scratch));
  }
  state.SetItemsProcessed(
      static_cast<std::int64_t>(state.iterations()) * batch);
}
BENCHMARK(BM_topic_batch_poll)->Arg(8)->Arg(64)->Arg(512);

/// The steady-state message hot path at production scale: one topic per
/// invoker on a 2,239-node cluster, topics resolved once at wiring time,
/// publishes and poll_into through the cached pointer — zero string
/// hashing and zero allocation per event once the scratch vector has
/// grown.
void BM_mq_publish_consume(benchmark::State& state) {
  constexpr std::size_t kTopics = 2239;
  mq::Broker broker;
  std::vector<mq::Topic*> topics;
  topics.reserve(kTopics);
  for (std::size_t i = 0; i < kTopics; ++i)
    topics.push_back(&broker.topic("invoker-" + std::to_string(i)));
  std::vector<mq::Message> scratch;
  std::uint64_t id = 0;
  std::size_t cursor = 0;
  for (auto _ : state) {
    mq::Topic& topic = *topics[cursor];
    cursor = (cursor + 1) % kTopics;
    mq::Message m;
    m.id = id++;
    topic.publish(std::move(m), sim::SimTime::zero());
    scratch.clear();
    benchmark::DoNotOptimize(topic.poll_into(4, scratch));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_mq_publish_consume);

/// Schedule + cancel against a heap already holding 2,239 live events —
/// the queue depth a full-cluster production day sustains. Exercises
/// sift-up on insert and the tombstone/compaction machinery on cancel.
void BM_event_queue_schedule(benchmark::State& state) {
  constexpr std::int64_t kLive = 2239;
  sim::EventQueue queue;
  for (std::int64_t i = 0; i < kLive; ++i)
    queue.schedule(sim::SimTime::micros(1'000'000 + i), [] {});
  std::int64_t t = 0;
  for (auto _ : state) {
    const auto id = queue.schedule(sim::SimTime::micros(t++ % 1'000'000), [] {});
    queue.cancel(id);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_event_queue_schedule);

void BM_event_queue_schedule_pop(benchmark::State& state) {
  sim::EventQueue queue;
  std::int64_t t = 0;
  for (auto _ : state) {
    queue.schedule(sim::SimTime::micros(t++), [] {});
    benchmark::DoNotOptimize(queue.pop());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_event_queue_schedule_pop);

/// The invoker fleet's timer shape at 2,239 nodes: one 100 ms poll
/// series and one 2 s heartbeat series per invoker, started at
/// staggered instants, plus 256 chains of one-shot events at random
/// delays (the calls, timeouts and Slurm timers that stay on the heap).
/// Each iteration runs one simulated second through Simulation::run_until;
/// `ns_per_event` is wall time per executed event.
void BM_event_queue_periodic(benchmark::State& state) {
  constexpr int kInvokers = 2239;
  constexpr int kChains = 256;
  sim::Simulation simulation;
  sim::Rng rng{7};
  std::uint64_t work = 0;
  std::vector<sim::PeriodicHandle> series;
  series.reserve(2 * kInvokers);
  for (int i = 0; i < kInvokers; ++i) {
    simulation.at(sim::SimTime::micros(rng.uniform_int(0, 2'000'000)), [&] {
      series.push_back(simulation.every(sim::SimTime::millis(100), [&work] { ++work; }));
      series.push_back(simulation.every(sim::SimTime::seconds(2), [&work] { ++work; }));
    });
  }
  struct Chain {
    sim::Simulation* simulation;
    sim::Rng* rng;
    std::uint64_t* work;
    void fire() {
      ++*work;
      simulation->after(sim::SimTime::micros(rng->uniform_int(1'000, 500'000)),
                        [this] { fire(); });
    }
  };
  std::vector<Chain> chains(kChains, Chain{&simulation, &rng, &work});
  for (Chain& c : chains) {
    simulation.after(sim::SimTime::micros(rng.uniform_int(1'000, 500'000)),
                     [&c] { c.fire(); });
  }
  simulation.run_until(sim::SimTime::seconds(3));  // every series armed
  const std::uint64_t start = simulation.executed_events();
  for (auto _ : state) {
    simulation.run_until(simulation.now() + sim::SimTime::seconds(1));
    benchmark::DoNotOptimize(work);
  }
  const auto events =
      static_cast<double>(simulation.executed_events() - start);
  state.SetItemsProcessed(static_cast<std::int64_t>(events));
  state.counters["ns_per_event"] = benchmark::Counter(
      events, benchmark::Counter::kIsRate | benchmark::Counter::kInvert);
}
BENCHMARK(BM_event_queue_periodic);

/// Prometheus-scale scheduler fixture: 2,239 nodes mostly occupied by
/// long-limit HPC jobs, a deep pending backlog (beyond backfill_depth)
/// and a tier-0 pilot queue, so every pass exercises the full scan,
/// reservation and pilot-placement machinery in steady state.
struct SchedFixture {
  sim::Simulation simulation;
  std::unique_ptr<slurm::Slurmctld> ctld;

  SchedFixture() {
    slurm::Slurmctld::Config cfg;
    cfg.node_count = 2239;
    std::vector<slurm::Partition> partitions{
        {.name = "main", .priority_tier = 1},
        {.name = "pilot",
         .priority_tier = 0,
         .preempt_mode = slurm::PreemptMode::kCancel}};
    ctld = std::make_unique<slurm::Slurmctld>(simulation, cfg,
                                              std::move(partitions));
    sim::Rng rng{42};
    // Fill the cluster: jobs that never exit on their own, declared
    // limits 2-12 h. ~2100 nodes end up busy; the rest stay idle.
    for (int i = 0; i < 700; ++i) {
      slurm::JobSpec spec;
      spec.partition = "main";
      spec.num_nodes = static_cast<std::uint32_t>(rng.uniform_int(1, 4));
      spec.time_limit = sim::SimTime::hours(rng.uniform_int(2, 12));
      ctld->submit(std::move(spec));
    }
    simulation.run_until(sim::SimTime::minutes(10));
    // Pending backlog deeper than backfill_depth, too wide to start.
    for (int i = 0; i < 300; ++i) {
      slurm::JobSpec spec;
      spec.partition = "main";
      spec.num_nodes = static_cast<std::uint32_t>(rng.uniform_int(8, 16));
      spec.time_limit = sim::SimTime::hours(rng.uniform_int(1, 6));
      ctld->submit(std::move(spec));
    }
    // A tier-0 pilot queue competing for the remaining idle nodes.
    for (int i = 0; i < 50; ++i) {
      slurm::JobSpec spec;
      spec.partition = "pilot";
      spec.num_nodes = 1;
      spec.time_limit = sim::SimTime::minutes(13);
      ctld->submit(std::move(spec));
    }
    simulation.run_until(sim::SimTime::minutes(12));
  }
};

void BM_slurm_build_availability(benchmark::State& state) {
  SchedFixture fx;
  for (auto _ : state) {
    benchmark::DoNotOptimize(fx.ctld->availability_snapshot(1));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          fx.ctld->node_count());
}
BENCHMARK(BM_slurm_build_availability);

void BM_slurm_sched_pass(benchmark::State& state) {
  SchedFixture fx;
  for (auto _ : state) {
    fx.ctld->schedule_now();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_slurm_sched_pass);

/// A full invoker pool (24 containers over 8 functions, 16 of them
/// busy). Each step probes another function for a warm idle container
/// (the lease seam's ready() check), retires the oldest busy container
/// and acquires one for the next function: mostly warm hits, some cold
/// starts that evict the LRU idle container.
void BM_container_pool_warm_path(benchmark::State& state) {
  constexpr std::uint32_t kFunctions = 8;
  constexpr std::size_t kBusy = 16;
  runtime::ContainerPool::Config cfg;
  cfg.memory_mb = 8 * 1024;
  cfg.max_containers = 24;
  cfg.prewarm_count = 0;
  runtime::ContainerPool pool{cfg, runtime::RuntimeProfile::singularity(),
                              sim::Rng{1}};
  sim::Rng pick{3};
  sim::SimTime now = sim::SimTime::zero();
  std::vector<runtime::ContainerId> busy(kBusy);
  const auto start = [&](std::uint32_t fn) {
    const auto r = pool.acquire(fn, 256, now);
    pool.mark_running(r.container, now);
    return r.container;
  };
  // Three containers per function; the first 8 go idle at once.
  for (std::uint32_t k = 0; k < 24; ++k) {
    const runtime::ContainerId id = start(k % kFunctions);
    if (k < 24 - kBusy) {
      pool.release(id, now);
    } else {
      busy[k - (24 - kBusy)] = id;
    }
  }
  std::size_t oldest = 0;
  std::uint64_t warm = 0;
  for (auto _ : state) {
    now += sim::SimTime::millis(1);
    const auto fn = static_cast<std::uint32_t>(pick.uniform_int(0, kFunctions - 1));
    warm += pool.has_warm_idle((fn + 1) % kFunctions, 256) ? 1 : 0;
    pool.release(busy[oldest], now);
    busy[oldest] = start(fn);
    oldest = (oldest + 1) % kBusy;
  }
  benchmark::DoNotOptimize(warm);
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
  state.counters["warm_share"] =
      static_cast<double>(pool.counters().warm_hits) /
      static_cast<double>(pool.counters().warm_hits + pool.counters().cold_starts);
}
BENCHMARK(BM_container_pool_warm_path);

/// Activation timeouts at hot_lease's peak: 26,000 calls open, each
/// with a 5 min timeout. Each iteration is one call: the oldest open
/// call completes (its timeout is cancelled), a new call arms one, and
/// two short execution events are scheduled and run, so every pop sees
/// the timeouts next to the heap.
void BM_timeout_arm_cancel(benchmark::State& state) {
  constexpr std::size_t kOpen = 26'000;
  const sim::SimTime timeout = sim::SimTime::minutes(5);
  sim::Simulation simulation;
  sim::Rng rng{5};
  std::uint64_t work = 0;
  std::vector<sim::EventId> open(kOpen);
  for (sim::EventId& id : open) {
    id = simulation.after_fixed(timeout, [&work] { ++work; });
    simulation.run_until(simulation.now() + sim::SimTime::millis(1));
  }
  std::size_t oldest = 0;
  for (auto _ : state) {
    simulation.cancel(open[oldest]);
    open[oldest] = simulation.after_fixed(timeout, [&work] { ++work; });
    oldest = (oldest + 1) % kOpen;
    for (int k = 0; k < 2; ++k) {
      simulation.after(sim::SimTime::micros(rng.uniform_int(100, 900)),
                       [&work] { ++work; });
    }
    simulation.run_until(simulation.now() + sim::SimTime::millis(1));
  }
  benchmark::DoNotOptimize(work);
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
  state.counters["pending"] = static_cast<double>(simulation.pending_events());
}
BENCHMARK(BM_timeout_arm_cancel);

void BM_bfs_scaling(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  const sebs::Graph graph = sebs::make_uniform_graph(n, 8.0, 7);
  for (auto _ : state) {
    benchmark::DoNotOptimize(sebs::bfs(graph, 0));
  }
  state.SetComplexityN(static_cast<std::int64_t>(n));
}
BENCHMARK(BM_bfs_scaling)->Range(1 << 12, 1 << 17)->Complexity(benchmark::oN);

void BM_pagerank_scaling(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  const sebs::Graph graph = sebs::make_preferential_graph(n, 6, 8);
  for (auto _ : state) {
    benchmark::DoNotOptimize(sebs::pagerank(graph, 0.85, 10));
  }
  state.SetComplexityN(static_cast<std::int64_t>(n));
}
BENCHMARK(BM_pagerank_scaling)->Range(1 << 12, 1 << 16)->Complexity(benchmark::oN);

void BM_mst_scaling(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  const auto edges = sebs::make_weighted_edges(n, 6.0, 1'000'000, 9);
  for (auto _ : state) {
    auto copy = edges;  // Kruskal sorts in place
    benchmark::DoNotOptimize(sebs::mst(n, std::move(copy)));
  }
  state.SetComplexityN(static_cast<std::int64_t>(n));
}
BENCHMARK(BM_mst_scaling)->Range(1 << 12, 1 << 16)->Complexity(benchmark::oNLogN);

}  // namespace

BENCHMARK_MAIN();
