#include "hpcwhisk/fault/chaos_engine.hpp"

#include <algorithm>
#include <sstream>
#include <stdexcept>

#include "hpcwhisk/obs/observability.hpp"
#include "hpcwhisk/slurm/node.hpp"

namespace hpcwhisk::fault {

namespace {
/// Cadence of the capacity-recovered probe after node/invoker faults.
constexpr sim::SimTime kRecoveryPoll = sim::SimTime::seconds(1);
/// Give up calling a fault "recovered" after this long.
constexpr sim::SimTime kRecoveryTimeout = sim::SimTime::minutes(30);
}  // namespace

ChaosEngine::ChaosEngine(sim::Simulation& simulation, slurm::Slurmctld& slurm,
                         whisk::Controller& controller, mq::Broker& broker,
                         Config config, InvokerDirectory directory,
                         sim::Rng rng)
    : sim_{simulation},
      slurm_{slurm},
      controller_{controller},
      broker_{broker},
      config_{std::move(config)},
      directory_{std::move(directory)},
      rng_{rng} {}

void ChaosEngine::arm() {
  if (armed_) throw std::logic_error("ChaosEngine::arm: already armed");
  armed_ = true;
  HW_OBS_IF(config_.obs) {
    config_.obs->metrics.add_collector([this](obs::MetricsRegistry& m) {
      m.counter("fault.applied").set(counters_.applied);
      m.counter("fault.skipped").set(counters_.skipped);
    });
  }

  std::vector<FaultEvent> events = config_.plan.events();
  std::stable_sort(
      events.begin(), events.end(),
      [](const FaultEvent& a, const FaultEvent& b) { return a.at < b.at; });

  bool has_mq = false;
  for (const FaultEvent& ev : events) {
    has_mq = has_mq || ev.kind == FaultKind::kMqDrop ||
             ev.kind == FaultKind::kMqDelay ||
             ev.kind == FaultKind::kMqDuplicate;
    sim_.at(ev.at, [this, ev] { fire(ev); });
  }
  // The filter is installed only when the plan needs it: a chaos-free
  // run keeps the zero-overhead publish path.
  if (has_mq) {
    broker_.set_topic_hook([this](mq::Topic& topic) {
      topic.set_fault_filter(
          [this](const mq::Message& msg) { return decide(msg); }, &sim_);
    });
  }
}

void ChaosEngine::fire(const FaultEvent& ev) {
  switch (ev.kind) {
    case FaultKind::kNodeCrash:
      fire_node_crash(ev);
      return;
    case FaultKind::kInvokerStall:
    case FaultKind::kInvokerCrash:
      fire_invoker(ev);
      return;
    case FaultKind::kMqDrop:
    case FaultKind::kMqDelay:
    case FaultKind::kMqDuplicate:
      open_mq_window(ev);
      return;
  }
}

void ChaosEngine::fire_node_crash(const FaultEvent& ev) {
  slurm::NodeId node = ev.target;
  if (ev.target == kAutoTarget) {
    // Crash where it hurts: a node currently hosting a pilot. (Crashing
    // HPC-only nodes exercises nothing of the serving path.)
    std::vector<slurm::NodeId> pilots;
    const auto states = slurm_.observed_states();
    for (slurm::NodeId id = 0; id < states.size(); ++id)
      if (states[id] == slurm::ObservedNodeState::kPilot) pilots.push_back(id);
    if (pilots.empty()) {
      ++counters_.skipped;
      HW_OBS_IF(config_.obs) {
        config_.obs->trace.record(obs::Cat::kFault, obs::Phase::kInstant,
                                  "fault_skipped", obs::Track::kChaos, 0,
                                  obs::kNoCorr, sim_.now());
      }
      return;
    }
    node = pilots[static_cast<std::size_t>(
        rng_.uniform_int(0, static_cast<std::int64_t>(pilots.size()) - 1))];
  }

  AppliedFault fault;
  fault.at = sim_.now();
  fault.kind = ev.kind;
  fault.target = node;
  fault.healthy_before = controller_.healthy_count();
  applied_.push_back(fault);
  ++counters_.applied;
  HW_OBS_IF(config_.obs) {
    // corr is the applied-fault index so the later "recovered" instant
    // chains back to the injection; arg0 = unavailability window (s),
    // arg1 = target node.
    config_.obs->trace.record_chained(
        obs::Cat::kFault, obs::Phase::kInstant, to_string(ev.kind),
        obs::Track::kChaos, 0, applied_.size() - 1, sim_.now(),
        (ev.grace + ev.outage).to_seconds(), static_cast<double>(node));
  }

  slurm_.fail_node(node, ev.grace);
  sim_.after(ev.grace + ev.outage, [this, node] { slurm_.set_node_up(node); });
  watch_recovery(applied_.size() - 1);
}

whisk::Invoker* ChaosEngine::pick_invoker(std::uint32_t target) {
  std::vector<whisk::Invoker*> eligible;
  for (whisk::Invoker* inv : directory_()) {
    if (inv == nullptr) continue;
    if (!inv->started() || inv->dead() || inv->draining() || inv->stalled())
      continue;
    eligible.push_back(inv);
  }
  if (eligible.empty()) return nullptr;
  std::sort(eligible.begin(), eligible.end(),
            [](const whisk::Invoker* a, const whisk::Invoker* b) {
              return a->id() < b->id();
            });
  if (target != kAutoTarget) {
    for (whisk::Invoker* inv : eligible)
      if (inv->id() == target) return inv;
    return nullptr;
  }
  return eligible[static_cast<std::size_t>(
      rng_.uniform_int(0, static_cast<std::int64_t>(eligible.size()) - 1))];
}

void ChaosEngine::fire_invoker(const FaultEvent& ev) {
  whisk::Invoker* inv = pick_invoker(ev.target);
  if (inv == nullptr) {
    ++counters_.skipped;
    HW_OBS_IF(config_.obs) {
      config_.obs->trace.record(obs::Cat::kFault, obs::Phase::kInstant,
                                "fault_skipped", obs::Track::kChaos, 0,
                                obs::kNoCorr, sim_.now());
    }
    return;
  }

  AppliedFault fault;
  fault.at = sim_.now();
  fault.kind = ev.kind;
  fault.target = inv->id();
  fault.healthy_before = controller_.healthy_count();
  applied_.push_back(fault);
  ++counters_.applied;
  HW_OBS_IF(config_.obs) {
    config_.obs->trace.record_chained(
        obs::Cat::kFault, obs::Phase::kInstant, to_string(ev.kind),
        obs::Track::kChaos, 0, applied_.size() - 1, sim_.now(),
        ev.kind == FaultKind::kInvokerStall ? ev.stall.to_seconds() : 0.0,
        static_cast<double>(inv->id()));
  }

  if (ev.kind == FaultKind::kInvokerStall) {
    inv->stall(ev.stall);
  } else {
    inv->hard_kill();
  }
  watch_recovery(applied_.size() - 1);
}

void ChaosEngine::open_mq_window(const FaultEvent& ev) {
  MqWindow w;
  w.kind = ev.kind;
  w.until = sim_.now() + ev.window;
  w.probability = ev.probability;
  w.delay = ev.delay;
  w.copies = ev.copies;
  windows_.push_back(w);

  AppliedFault fault;
  fault.at = sim_.now();
  fault.kind = ev.kind;
  fault.healthy_before = controller_.healthy_count();
  // An mq window does not remove capacity; its "recovery" is the window
  // closing.
  fault.recovery = ev.window;
  applied_.push_back(fault);
  ++counters_.applied;
  HW_OBS_IF(config_.obs) {
    // Instants cannot span; arg0 carries the window length (s) so
    // consumers reconstruct [at, at + arg0] as the disturbance window.
    config_.obs->trace.record_chained(
        obs::Cat::kFault, obs::Phase::kInstant, to_string(ev.kind),
        obs::Track::kChaos, 0, applied_.size() - 1, sim_.now(),
        ev.window.to_seconds(), ev.probability);
  }
}

mq::Topic::FaultAction ChaosEngine::decide(const mq::Message& msg) {
  (void)msg;
  const sim::SimTime now = sim_.now();
  windows_.erase(std::remove_if(windows_.begin(), windows_.end(),
                                [now](const MqWindow& w) {
                                  return w.until <= now;
                                }),
                 windows_.end());
  mq::Topic::FaultAction action;
  for (const MqWindow& w : windows_) {
    if (!rng_.bernoulli(w.probability)) continue;
    switch (w.kind) {
      case FaultKind::kMqDrop:
        action.drop = true;
        break;
      case FaultKind::kMqDelay:
        action.delay = w.delay;
        break;
      case FaultKind::kMqDuplicate:
        action.extra_copies = w.copies;
        break;
      default:
        break;
    }
    break;  // first matching window wins
  }
  return action;
}

void ChaosEngine::watch_recovery(std::size_t index) {
  sim_.after(kRecoveryPoll, [this, index] {
    AppliedFault& fault = applied_[index];
    if (fault.recovery != sim::SimTime::max()) return;
    if (controller_.healthy_count() >= fault.healthy_before) {
      fault.recovery = sim_.now() - fault.at;
      HW_OBS_IF(config_.obs) {
        config_.obs->trace.record_chained(
            obs::Cat::kFault, obs::Phase::kInstant, "recovered",
            obs::Track::kChaos, 0, index, sim_.now(),
            fault.recovery.to_seconds());
      }
      return;
    }
    if (sim_.now() - fault.at >= kRecoveryTimeout) return;
    watch_recovery(index);
  });
}

std::string ChaosEngine::report() const {
  std::ostringstream out;
  out << "chaos: " << counters_.applied << " applied, " << counters_.skipped
      << " skipped\n";
  for (std::size_t i = 0; i < applied_.size(); ++i) {
    const AppliedFault& f = applied_[i];
    out << "  [" << i << "] t=" << f.at.to_string() << " "
        << to_string(f.kind);
    if (f.target != kAutoTarget) out << " target=" << f.target;
    out << " healthy_before=" << f.healthy_before << " recovery=";
    if (f.recovery == sim::SimTime::max()) {
      out << "unrecovered";
    } else {
      out << f.recovery.to_string();
    }
    out << "\n";
  }
  return out.str();
}

}  // namespace hpcwhisk::fault
