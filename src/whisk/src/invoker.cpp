#include "hpcwhisk/whisk/invoker.hpp"

#include <algorithm>
#include <stdexcept>

#include "hpcwhisk/obs/observability.hpp"

namespace hpcwhisk::whisk {

namespace {
/// Pull-loop cadence.
constexpr sim::SimTime kPollInterval = sim::SimTime::millis(100);
/// Messages pulled per poll (fast lane + own topic combined); the buffer
/// holds at most four polls' worth.
constexpr std::size_t kPullBatch = 8;
}  // namespace

Invoker::Invoker(sim::Simulation& simulation, mq::Broker& broker,
                 const FunctionRegistry& registry, Controller& controller,
                 Config config, sim::Rng rng)
    : sim_{simulation},
      broker_{broker},
      registry_{registry},
      controller_{controller},
      config_{config},
      rng_{rng},
      pool_{config.pool, runtime::RuntimeProfile::singularity(), rng.fork()} {
  HW_OBS_IF(config_.obs) {
    // Shared-by-name across invokers, so the counts are monotone across
    // pilot churn (a per-pilot pool counter dies with its pilot).
    obs::MetricsRegistry& m = config_.obs->metrics;
    h_exec_us_ = &m.histogram("whisk.invoker.exec_us");
    c_executed_ = &m.counter("whisk.invoker.executed");
    c_dropped_ = &m.counter("whisk.invoker.dropped_undeliverable");
    c_capacity_ = &m.counter("whisk.invoker.capacity_failures");
    c_interrupted_ = &m.counter("whisk.invoker.interrupted");
    c_cold_starts_ = &m.counter("whisk.invoker.cold_starts");
    c_warm_hits_ = &m.counter("whisk.invoker.warm_hits");
    c_prewarm_hits_ = &m.counter("whisk.invoker.prewarm_hits");
  }
}

Invoker::~Invoker() {
  // The owner (pilot) must have ended the lifecycle; be safe regardless.
  if (started_ && !dead_) {
    stop_loops();
    controller_.clear_direct_invoke(id_);
  }
}

void Invoker::start() {
  if (started_) throw std::logic_error("Invoker::start: already started");
  started_ = true;
  id_ = controller_.register_invoker();
  // Both handles resolved once here; every poll tick afterwards is
  // broker-free.
  own_topic_ = &broker_.topic(Controller::invoker_topic_name(id_));
  fast_lane_ = &broker_.fast_lane();
  // Install the lease bypass seam. Only consulted when the controller
  // runs with leasing enabled; installing it unconditionally keeps the
  // invoker oblivious to the controller's lease config.
  controller_.set_direct_invoke(
      id_, Controller::DirectSeam{
               [this](const FunctionSpec& spec) {
                 return can_direct_invoke(spec);
               },
               [this](mq::Message msg) { direct_invoke(std::move(msg)); }});
  start_loops();
}

void Invoker::direct_invoke(mq::Message msg) {
  ++counters_.direct_invocations;
  HW_OBS_IF(config_.obs) {
    config_.obs->trace.record_chained(
        obs::Cat::kActivation, obs::Phase::kInstant, "direct_invoke",
        obs::Track::kInvoker, id_, msg.id, sim_.now());
  }
  begin_execution(std::move(msg));
}

void Invoker::start_loops() {
  poll_loop_ = sim_.every(kPollInterval, [this] { poll(); });
  heartbeat_loop_ =
      sim_.every(kHeartbeatInterval, [this] { controller_.heartbeat(id_); });
}

void Invoker::poll() {
  if (draining_ || dead_) return;
  pool_.maintain_prewarm(sim_.now());
  const sim::SimTime reap_every = config_.pool.keep_alive.reap_interval;
  if (reap_every > sim::SimTime::zero() &&
      sim_.now() - last_reap_ >= reap_every) {
    last_reap_ = sim_.now();
    (void)pool_.reap_idle(sim_.now());
  }
  // Fast lane first (highest priority), then the invoker's own topic.
  // Steady state — both empty — is decided by two size checks, with no
  // allocation, on the simulation's most frequent event (every invoker,
  // every poll tick).
  mq::Topic& fast = *fast_lane_;
  const bool fast_has = !fast.empty();
  const bool own_has = !own_topic_->empty();
  if (!fast_has && !own_has) {
    dispatch_buffer();
    return;
  }
  std::size_t budget = kPullBatch;
  const std::size_t room =
      buffer_.size() >= kPullBatch * 4 ? 0 : kPullBatch * 4 - buffer_.size();
  budget = std::min(budget, room);
  if (budget == 0) {
    dispatch_buffer();
    return;
  }
  pull_scratch_.clear();
  const std::size_t from_fast =
      fast_has ? fast.poll_into(budget, pull_scratch_) : 0;
  if (from_fast < budget && own_has)
    (void)own_topic_->poll_into(budget - from_fast, pull_scratch_);
  for (std::size_t i = 0; i < pull_scratch_.size(); ++i) {
    HW_OBS_IF(config_.obs) {
      config_.obs->trace.record_chained(
          obs::Cat::kActivation, obs::Phase::kInstant, "pull",
          obs::Track::kInvoker, id_, pull_scratch_[i].id, sim_.now(),
          /*arg0=*/i < from_fast ? 1.0 : 0.0);
    }
    buffer_.push_back(pull_scratch_[i]);
  }
  pull_scratch_.clear();
  dispatch_buffer();
}

void Invoker::dispatch_buffer() {
  while (!buffer_.empty() && running_count_ < config_.max_concurrent) {
    const mq::Message msg = buffer_.front();
    buffer_.pop_front();
    begin_execution(msg);
  }
}

void Invoker::begin_execution(mq::Message msg) {
  if (!controller_.deliverable(msg.id)) {
    ++counters_.dropped_undeliverable;
    HW_OBS_IF(config_.obs) {
      config_.obs->trace.record_chained(
          obs::Cat::kActivation, obs::Phase::kInstant, "drop_undeliverable",
          obs::Track::kInvoker, id_, msg.id, sim_.now());
      c_dropped_->add();
    }
    return;
  }
  // One scan finds a free slot and any slot already running this id.
  std::size_t slot = slots_.size();
  for (std::size_t i = 0; i < slots_.size(); ++i) {
    if (!slots_[i].live) {
      if (slot == slots_.size()) slot = i;
    } else if (slots_[i].msg.id == msg.id) {
      // Duplicate delivery of work we are already executing (an mq
      // duplication fault, or a watchdog rescue racing our own thaw).
      ++counters_.dropped_undeliverable;
      HW_OBS_IF(config_.obs) { c_dropped_->add(); }
      return;
    }
  }
  // The record carries the registry index resolved at submit: no name
  // lookup on the execution path.
  const FunctionSpec& spec =
      registry_.spec(controller_.activation(msg.id).function_index);
  const auto acquired =
      pool_.acquire(spec.index, spec.kind, spec.memory_mb, sim_.now());
  if (acquired.kind == runtime::AcquireResult::Kind::kRejected) {
    // Node-level container saturation: the invocation fails (the episode
    // of Sec. V-C where invokers hit the concurrent-container limit).
    ++counters_.capacity_failures;
    HW_OBS_IF(config_.obs) {
      config_.obs->trace.record_chained(
          obs::Cat::kActivation, obs::Phase::kInstant, "capacity_reject",
          obs::Track::kInvoker, id_, msg.id, sim_.now());
      c_capacity_->add();
    }
    controller_.activation_failed(msg.id);
    return;
  }

  const ActivationId act = msg.id;
  if (slot == slots_.size()) slots_.emplace_back();
  Exec& exec = slots_[slot];
  exec.msg = msg;
  exec.spec = &spec;
  exec.container = acquired.container;
  exec.cold = acquired.kind == runtime::AcquireResult::Kind::kCold;
  exec.phase = ExecPhase::kStarting;
  exec.live = true;
  ++running_count_;
  HW_OBS_IF(config_.obs) {
    config_.obs->trace.record_chained(
        obs::Cat::kActivation, obs::Phase::kAsyncBegin, "exec",
        obs::Track::kInvoker, id_, act, sim_.now(),
        /*arg0=*/exec.cold ? 1.0 : 0.0);
    switch (acquired.kind) {
      case runtime::AcquireResult::Kind::kWarm: c_warm_hits_->add(); break;
      case runtime::AcquireResult::Kind::kPrewarmed:
        c_prewarm_hits_->add();
        break;
      case runtime::AcquireResult::Kind::kCold: c_cold_starts_->add(); break;
      case runtime::AcquireResult::Kind::kRejected: break;
    }
  }
  schedule_exec_event(slot, acquired.start_latency);
}

void Invoker::schedule_exec_event(std::size_t slot, sim::SimTime delay) {
  Exec& e = slots_[slot];
  const ActivationId act = e.msg.id;
  e.due = sim_.now() + delay;
  e.event =
      sim_.after(delay, [this, slot, act] { on_exec_event(slot, act); });
}

template <class Pred>
std::vector<std::size_t> Invoker::live_slots_by_id(Pred pred) const {
  std::vector<std::size_t> out;
  for (std::size_t i = 0; i < slots_.size(); ++i) {
    if (slots_[i].live && pred(slots_[i])) out.push_back(i);
  }
  std::sort(out.begin(), out.end(), [this](std::size_t a, std::size_t b) {
    return slots_[a].msg.id < slots_[b].msg.id;
  });
  return out;
}

void Invoker::on_exec_event(std::size_t slot, ActivationId act) {
  // Ending an execution cancels its event, so a firing event always
  // finds its execution; the check only guards that invariant.
  if (slot >= slots_.size() || !slots_[slot].live ||
      slots_[slot].msg.id != act)
    return;
  Exec& e = slots_[slot];
  if (e.phase == ExecPhase::kStarting) {
    e.phase = ExecPhase::kRunning;
    pool_.mark_running(e.container, sim_.now());
    controller_.activation_started(act, id_, e.cold);

    sim::SimTime duration = e.spec->duration(rng_);
    if (pool_.busy_containers() > kCores) {
      const double factor = static_cast<double>(pool_.busy_containers()) /
                            static_cast<double>(kCores);
      duration = sim::SimTime::seconds(duration.to_seconds() * factor);
    }
    HW_OBS_IF(config_.obs) {
      config_.obs->trace.record_chained(
          obs::Cat::kActivation, obs::Phase::kInstant, "exec_running",
          obs::Track::kInvoker, id_, act, sim_.now(),
          static_cast<double>(duration.ticks()), e.cold ? 1.0 : 0.0);
      h_exec_us_->observe(static_cast<double>(duration.ticks()));
    }
    schedule_exec_event(slot, duration);
    return;
  }
  pool_.release(e.container, sim_.now());
  e.live = false;
  --running_count_;
  ++counters_.executed;
  HW_OBS_IF(config_.obs) {
    config_.obs->trace.record_chained(
        obs::Cat::kActivation, obs::Phase::kAsyncEnd, "exec",
        obs::Track::kInvoker, id_, act, sim_.now(), /*arg0=*/1.0);
    c_executed_->add();
  }
  controller_.activation_completed(act);
  if (draining_) {
    finish_drain_if_idle();
  } else {
    dispatch_buffer();
  }
}

void Invoker::stall(sim::SimTime duration) {
  if (!started_ || dead_ || draining_ || stalled_) return;
  stalled_ = true;
  HW_OBS_IF(config_.obs) {
    config_.obs->trace.record(
        obs::Cat::kPilot, obs::Phase::kInstant, "stall", obs::Track::kInvoker,
        id_, id_, sim_.now(), duration.to_seconds(),
        static_cast<double>(running_count_));
  }
  stop_loops();
  for (Exec& exec : slots_) {
    if (!exec.live) continue;
    sim_.cancel(exec.event);
    exec.remaining = exec.due - sim_.now();
    if (exec.remaining < sim::SimTime::zero())
      exec.remaining = sim::SimTime::zero();
  }
  resume_event_ = sim_.after(duration, [this] { resume(); });
}

void Invoker::resume() {
  if (!stalled_ || dead_) return;
  stalled_ = false;
  HW_OBS_IF(config_.obs) {
    config_.obs->trace.record(
        obs::Cat::kPilot, obs::Phase::kInstant, "resume", obs::Track::kInvoker,
        id_, id_, sim_.now(), static_cast<double>(running_count_));
  }
  sim_.cancel(resume_event_);
  for (const std::size_t slot :
       live_slots_by_id([](const Exec&) { return true; }))
    schedule_exec_event(slot, slots_[slot].remaining);
  start_loops();
  // Announce liveness now rather than a heartbeat period later, so a
  // watchdog-flagged invoker is readmitted the moment it thaws.
  controller_.heartbeat(id_);
}

void Invoker::sigterm(std::function<void()> on_drained) {
  if (dead_) return;
  if (draining_) return;  // duplicate SIGTERM
  if (stalled_) return;   // frozen: the hand-off can't run; SIGKILL will land
  draining_ = true;
  on_drained_ = std::move(on_drained);

  if (!started_) {
    // SIGTERM during warm-up: nothing registered, nothing to hand off.
    dead_ = true;
    if (on_drained_) on_drained_();
    return;
  }

  HW_OBS_IF(config_.obs) {
    config_.obs->trace.record(obs::Cat::kPilot, obs::Phase::kBegin, "drain",
                              obs::Track::kInvoker, id_, id_, sim_.now(),
                              static_cast<double>(running_count_),
                              static_cast<double>(buffer_.size()));
  }

  // 1. Controller stops routing to us and rescues our unpulled backlog.
  controller_.begin_drain(id_);

  // 2. Pulled-but-not-started buffer goes to the fast lane.
  for (std::size_t k = 0; k < buffer_.size(); ++k)
    controller_.requeue_to_fast_lane(buffer_[k]);
  buffer_.reset();

  // 3. Interrupt running executions of interruptible functions, in
  // ascending activation id.
  for (const std::size_t slot : live_slots_by_id([](const Exec& exec) {
         return exec.spec->interruptible || exec.phase == ExecPhase::kStarting;
       })) {
    Exec& e = slots_[slot];
    const ActivationId act = e.msg.id;
    sim_.cancel(e.event);
    if (e.phase == ExecPhase::kRunning) {
      controller_.activation_interrupted(act);
      ++counters_.interrupted;
      HW_OBS_IF(config_.obs) { c_interrupted_->add(); }
    }
    HW_OBS_IF(config_.obs) {
      // Close the exec span as aborted (arg0=0) before the reroute event
      // so the causal chain reads exec -> interrupt -> fast_lane_reroute.
      config_.obs->trace.record_chained(
          obs::Cat::kActivation, obs::Phase::kAsyncEnd, "exec",
          obs::Track::kInvoker, id_, act, sim_.now(), /*arg0=*/0.0);
      config_.obs->trace.record_chained(
          obs::Cat::kActivation, obs::Phase::kInstant, "interrupt",
          obs::Track::kInvoker, id_, act, sim_.now());
    }
    controller_.requeue_to_fast_lane(e.msg);
    pool_.remove(e.container);
    e.live = false;
    --running_count_;
  }

  finish_drain_if_idle();
}

void Invoker::finish_drain_if_idle() {
  if (!draining_ || dead_) return;
  if (running_count_ > 0) return;  // non-interruptible work still going
  dead_ = true;
  HW_OBS_IF(config_.obs) {
    if (started_) {
      config_.obs->trace.record(obs::Cat::kPilot, obs::Phase::kEnd, "drain",
                                obs::Track::kInvoker, id_, id_, sim_.now());
    }
  }
  stop_loops();
  pool_.clear();
  controller_.deregister(id_);
  if (on_drained_) {
    auto cb = std::move(on_drained_);
    on_drained_ = nullptr;
    cb();
  }
}

void Invoker::hard_kill() {
  if (dead_) return;
  dead_ = true;
  HW_OBS_IF(config_.obs) {
    config_.obs->trace.record(
        obs::Cat::kPilot, obs::Phase::kInstant, "hard_kill",
        obs::Track::kInvoker, id_, id_, sim_.now(),
        static_cast<double>(running_count_),
        static_cast<double>(buffer_.size()));
    // A SIGKILL mid-drain leaves the drain span open; close it so the
    // timeline shows where the hand-off was cut short.
    if (draining_ && started_) {
      config_.obs->trace.record(obs::Cat::kPilot, obs::Phase::kEnd, "drain",
                                obs::Track::kInvoker, id_, id_, sim_.now());
    }
  }
  stop_loops();
  sim_.cancel(resume_event_);
  for (Exec& exec : slots_) {
    if (exec.live) sim_.cancel(exec.event);
  }
  slots_.clear();
  running_count_ = 0;
  buffer_.reset();
  pool_.clear();
  // No controller *protocol* interaction: the watchdog will notice the
  // silence (and revoke any leases then). Dropping the seam here is pure
  // memory safety — the callbacks captured `this`, and the pilot may
  // destroy a hard-killed invoker before the watchdog fires.
  if (started_) controller_.clear_direct_invoke(id_);
}

void Invoker::stop_loops() {
  poll_loop_.stop();
  heartbeat_loop_.stop();
}

}  // namespace hpcwhisk::whisk
