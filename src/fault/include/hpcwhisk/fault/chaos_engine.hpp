#pragma once
// The chaos engine: replays a FaultPlan against a live simulation.
//
// Fault injection goes through three seams, none of which bypasses the
// system's own protocols — the point is to exercise exactly the recovery
// machinery the paper describes (watchdog, fast-lane rescue, Alg. 1):
//  * slurm:  Slurmctld::fail_node() — a pilot's node dies with a
//    truncated grace, then returns to service after an outage;
//  * whisk:  Invoker::stall()/hard_kill() — an invoker goes silent
//    (watchdog marks it unresponsive) or vanishes mid-execution;
//  * mq:     a broker-wide topic fault filter — publishes are dropped,
//    delayed or duplicated inside timed windows, exercising the
//    at-least-once delivery semantics end to end.
//
// Every random draw comes from one forked sim::Rng, so a given
// (plan, workload, seed) triple replays bit-identically; report() is
// correspondingly byte-stable.

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "hpcwhisk/fault/fault_plan.hpp"
#include "hpcwhisk/mq/broker.hpp"
#include "hpcwhisk/sim/rng.hpp"
#include "hpcwhisk/sim/simulation.hpp"
#include "hpcwhisk/slurm/slurmctld.hpp"
#include "hpcwhisk/whisk/controller.hpp"
#include "hpcwhisk/whisk/invoker.hpp"

namespace hpcwhisk::obs {
struct Observability;
}

namespace hpcwhisk::fault {

/// One fault the engine actually applied, with its observed recovery.
struct AppliedFault {
  sim::SimTime at;
  FaultKind kind{};
  std::uint32_t target{kAutoTarget};  ///< node id or invoker id
  /// Healthy invokers just before the fault: the recovery baseline.
  std::size_t healthy_before{0};
  /// Fault time -> healthy_count() back at healthy_before. mq windows
  /// report their window length. SimTime::max() = never recovered
  /// within the recovery timeout.
  sim::SimTime recovery{sim::SimTime::max()};
};

class ChaosEngine {
 public:
  /// How the engine reaches live invokers without depending on the core
  /// layer: the owner supplies the current serving set on demand.
  using InvokerDirectory = std::function<std::vector<whisk::Invoker*>()>;

  struct Config {
    FaultPlan plan;
    /// Optional trace/metrics sink; null disables all instrumentation.
    obs::Observability* obs{nullptr};
  };

  ChaosEngine(sim::Simulation& simulation, slurm::Slurmctld& slurm,
              whisk::Controller& controller, mq::Broker& broker,
              Config config, InvokerDirectory directory, sim::Rng rng);

  ChaosEngine(const ChaosEngine&) = delete;
  ChaosEngine& operator=(const ChaosEngine&) = delete;

  /// Schedules every plan event on the virtual clock and, if the plan
  /// contains mq faults, installs the broker-wide fault filter. Call
  /// once, before Simulation::run().
  void arm();

  struct Counters {
    std::uint64_t applied{0};
    std::uint64_t skipped{0};  ///< fired with no eligible target
  };
  [[nodiscard]] const Counters& counters() const { return counters_; }
  [[nodiscard]] const std::vector<AppliedFault>& applied() const {
    return applied_;
  }

  /// Deterministic multi-line report of every applied fault and its
  /// recovery time — byte-identical across same-seed runs.
  [[nodiscard]] std::string report() const;

 private:
  struct MqWindow {
    FaultKind kind{};
    sim::SimTime until;
    double probability{1.0};
    sim::SimTime delay;
    std::uint32_t copies{1};
  };

  void fire(const FaultEvent& ev);
  void fire_node_crash(const FaultEvent& ev);
  void fire_invoker(const FaultEvent& ev);
  void open_mq_window(const FaultEvent& ev);
  [[nodiscard]] mq::Topic::FaultAction decide(const mq::Message& msg);
  /// Starts the recovery probe for applied_[index].
  void watch_recovery(std::size_t index);
  [[nodiscard]] whisk::Invoker* pick_invoker(std::uint32_t target);

  sim::Simulation& sim_;
  slurm::Slurmctld& slurm_;
  whisk::Controller& controller_;
  mq::Broker& broker_;
  Config config_;
  InvokerDirectory directory_;
  sim::Rng rng_;
  std::vector<MqWindow> windows_;
  std::vector<AppliedFault> applied_;
  Counters counters_;
  bool armed_{false};
};

}  // namespace hpcwhisk::fault
