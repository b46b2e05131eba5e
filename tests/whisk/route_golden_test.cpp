// Golden decision-log pin for controller routing: a seeded closed-loop
// trace (5 invokers, 12 functions of mixed length, fake executors that
// pull, start, and complete work) drives Controller::submit under each
// legacy route mode, and every routing decision plus every terminal
// outcome folds into an FNV-1a hash captured before the src/sched
// subsystem existed. The data-driven modes (kLeastExpectedWork,
// kSjfAffinity) are deliberately NOT pinned to a constant — they are new
// in this PR — but they must be seed-deterministic, which the
// SameSeedTwice tests cover for all modes.
//
// If a legacy-mode hash changes, the sched integration leaked into the
// pre-existing routing paths — exactly the regression this test exists
// to catch.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "hpcwhisk/obs/trace.hpp"
#include "hpcwhisk/sim/rng.hpp"
#include "hpcwhisk/whisk/controller.hpp"

namespace hpcwhisk::whisk {
namespace {

using sim::Rng;
using sim::SimTime;
using sim::Simulation;

struct TraceOutcome {
  std::uint64_t hash{0};
  std::size_t log_bytes{0};
  std::string head;
  Controller::Counters counters;
};

/// Runs the seeded closed-loop trace. All randomness flows through one
/// Rng in a fixed draw order, so the log is a pure function of
/// (mode, seed, controller behavior).
TraceOutcome run_trace(RouteMode mode, std::uint64_t seed) {
  Simulation sim;
  mq::Broker broker;
  FunctionRegistry registry;

  // 12 functions: 8 short (10..45 ms) and 4 long (2..8 s), the
  // heterogeneous mix that makes routing decisions matter.
  std::vector<std::string> functions;
  for (int i = 0; i < 8; ++i) {
    const std::string name = "short-" + std::to_string(i);
    registry.put(fixed_duration_function(name, SimTime::millis(10 + 5 * i)));
    functions.push_back(name);
  }
  for (int i = 0; i < 4; ++i) {
    const std::string name = "long-" + std::to_string(i);
    registry.put(fixed_duration_function(name, SimTime::seconds(2 * (i + 1))));
    functions.push_back(name);
  }

  Controller::Config cfg;
  cfg.route_mode = mode;
  cfg.invoker_slots = 4;
  Controller controller{sim, broker, registry, cfg};

  constexpr int kInvokers = 5;
  for (int i = 0; i < kInvokers; ++i) controller.register_invoker();
  sim.every(SimTime::seconds(1), [&controller] {
    for (InvokerId id = 0; id < kInvokers; ++id) controller.heartbeat(id);
  });

  std::string log;
  log.reserve(1 << 15);
  Rng exec_rng{seed ^ 0xABCDULL};  // fixed durations never draw from it

  // Fake executors: each invoker polls its topic (fast lane first, like
  // the real pull loop) every 100 ms and completes up to 4 messages per
  // poll after the function's fixed duration.
  for (InvokerId inv = 0; inv < kInvokers; ++inv) {
    sim.every(SimTime::millis(100), [&, inv] {
      for (int k = 0; k < 4; ++k) {
        auto msg = broker.fast_lane().poll_one();
        if (!msg.has_value()) {
          msg = broker.topic(Controller::invoker_topic_name(inv)).poll_one();
        }
        if (!msg.has_value()) return;
        if (!controller.deliverable(msg->id)) continue;
        const ActivationId act = msg->id;
        controller.activation_started(act, inv, /*cold_start=*/false);
        const SimTime d =
            registry.spec(controller.activation(act).function_index)
                .duration(exec_rng);
        sim.after(d, [&controller, act] {
          controller.activation_completed(act);
        });
      }
    });
  }

  // Open-loop arrivals: 400 submissions, exponential gaps (mean 60 ms),
  // zipf-ish function choice skewed toward the short fleet.
  Rng rng{seed};
  std::function<void(int)> arrive = [&](int remaining) {
    if (remaining == 0) return;
    const std::size_t fn_idx = static_cast<std::size_t>(
        rng.bernoulli(0.75) ? rng.uniform_int(0, 7) : rng.uniform_int(8, 11));
    const std::string& fn = functions[fn_idx];
    const SubmitResult res = controller.submit(fn);
    log += 'R';
    log += ' ';
    log += std::to_string(res.activation);
    log += ' ';
    log += fn;
    log += ' ';
    log += res.accepted
               ? std::to_string(controller.activation(res.activation).routed_to)
               : std::string{"503"};
    log += '\n';
    sim.after(SimTime::millis(static_cast<double>(rng.uniform_int(20, 100))),
              [&arrive, remaining] { arrive(remaining - 1); });
  };
  sim.at(SimTime::zero(), [&arrive] { arrive(400); });

  sim.run_until(SimTime::minutes(10));

  for (const ActivationRecord& rec : controller.activations()) {
    log += 'T';
    log += ' ';
    log += std::to_string(rec.id);
    log += ' ';
    log += to_string(rec.state);
    log += ' ';
    log += std::to_string(rec.end_time.ticks());
    log += '\n';
  }

  TraceOutcome out;
  out.hash = obs::fnv1a(log);
  out.log_bytes = log.size();
  out.head = log.substr(0, 300);
  out.counters = controller.counters();
  return out;
}

// Captured from the pre-sched controller (PR 6 baseline): the legacy
// modes' decisions must survive the sched subsystem byte-for-byte.
struct Golden {
  RouteMode mode;
  std::uint64_t hash;
  std::size_t log_bytes;
};

constexpr Golden kGolden[] = {
    {RouteMode::kHashProbing, 0x93ee1d3b7a7335dbULL, 15922},
    {RouteMode::kHashOnly, 0x3a2156de9940b517ULL, 15922},
    {RouteMode::kRoundRobin, 0x60e35b21d7eb1272ULL, 15922},
    {RouteMode::kLeastLoaded, 0xabb6bfb26bdeceddULL, 15922},
};

TEST(RouteGolden, LegacyModeDecisionLogsMatchBaseline) {
  for (const Golden& g : kGolden) {
    const TraceOutcome out = run_trace(g.mode, 42);
    EXPECT_EQ(out.hash, g.hash)
        << to_string(g.mode) << ": decision log diverged (" << out.log_bytes
        << " bytes, expected " << g.log_bytes << ").\nactual hash: 0x"
        << std::hex << out.hash << std::dec << "\nlog head:\n"
        << out.head;
    EXPECT_EQ(out.log_bytes, g.log_bytes) << to_string(g.mode);
    EXPECT_GT(out.counters.completed, 300u) << to_string(g.mode);
  }
}

TEST(RouteGolden, SameSeedTwiceIsIdentical) {
  for (const RouteMode mode :
       {RouteMode::kHashProbing, RouteMode::kLeastLoaded}) {
    const TraceOutcome a = run_trace(mode, 7);
    const TraceOutcome b = run_trace(mode, 7);
    EXPECT_EQ(a.hash, b.hash) << to_string(mode);
    EXPECT_EQ(a.log_bytes, b.log_bytes) << to_string(mode);
  }
}

}  // namespace
}  // namespace hpcwhisk::whisk
