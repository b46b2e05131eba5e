#pragma once
// The (modified) OpenWhisk invoker that runs inside an HPC-Whisk pilot
// job.
//
// Consumption order implements the paper's fast-lane rule (Sec. III-C):
// before pulling from its own topic, the invoker first pulls from the
// global fast-lane topic, so requests re-issued by terminating workers
// execute with the highest priority.
//
// On SIGTERM the invoker performs the drain hand-off:
//   1. tells the controller it no longer accepts work (the controller
//      simultaneously rescues the unpulled backlog of its topic);
//   2. re-publishes its pulled-but-not-started buffer to the fast lane;
//   3. interrupts running executions of interruptible functions and
//      re-publishes them too; non-interruptible executions keep running
//      until they finish (or the pilot's SIGKILL arrives);
//   4. deregisters and reports drain completion to the pilot, which then
//      exits the Slurm job early — inside the grace period.
//
// hard_kill() models a SIGKILL with no hand-off (stock-OpenWhisk failure
// mode): buffered and running work is lost and the affected activations
// surface as client timeouts.

#include <cstdint>
#include <functional>
#include <vector>

#include "hpcwhisk/mq/broker.hpp"
#include "hpcwhisk/runtime/container_pool.hpp"
#include "hpcwhisk/sim/ring.hpp"
#include "hpcwhisk/sim/rng.hpp"
#include "hpcwhisk/sim/simulation.hpp"
#include "hpcwhisk/whisk/controller.hpp"
#include "hpcwhisk/whisk/function.hpp"

namespace hpcwhisk::obs {
class Counter;
class Histogram;
}

namespace hpcwhisk::whisk {

/// Physical cores of a node (Prometheus: 2x12): concurrent CPU-bound
/// executions beyond this dilate each other.
inline constexpr std::uint32_t kCores = 24;

class Invoker {
 public:
  struct Config {
    /// Dispatch gate: executions started concurrently; messages beyond
    /// it wait in the invoker buffer (drain hand-off material).
    std::size_t max_concurrent{32};
    runtime::ContainerPool::Config pool{
        .memory_mb = 8 * 1024,  // OpenWhisk invoker "user memory"
        .max_containers = 24,
    };
    /// Optional trace/metrics sink; null disables all instrumentation.
    obs::Observability* obs{nullptr};
  };

  Invoker(sim::Simulation& simulation, mq::Broker& broker,
          const FunctionRegistry& registry, Controller& controller,
          Config config, sim::Rng rng);

  Invoker(const Invoker&) = delete;
  Invoker& operator=(const Invoker&) = delete;
  ~Invoker();

  /// Registers with the controller and starts the pull + heartbeat loops.
  /// Call once, after the pilot's warm-up completed.
  void start();

  /// SIGTERM: runs the drain hand-off; `on_drained` fires when the last
  /// local work item left (immediately if there is none). A stalled
  /// invoker ignores SIGTERM — the frozen process cannot run the
  /// hand-off, so only the pilot's eventual SIGKILL ends it.
  void sigterm(std::function<void()> on_drained);

  /// SIGKILL without hand-off: everything local is lost.
  void hard_kill();

  /// Fault injection: freezes the invoker for `duration` — no polling, no
  /// heartbeats, running executions suspended with their remaining time
  /// preserved (a GC pause / NFS hang / CPU-starved node). The controller
  /// watchdog sees only silence and marks the invoker unresponsive.
  /// resume() fires automatically after `duration`. No-op if not started,
  /// draining, dead, or already stalled.
  void stall(sim::SimTime duration);

  /// Ends a stall early (or on schedule): restarts the loops, heartbeats
  /// immediately so the controller readmits us, and resumes suspended
  /// executions with their preserved remaining time.
  void resume();

  /// Whether a leased call for `spec` may be handed over right now:
  /// alive, not departing, under the dispatch gate, and the pool either
  /// holds a warm container for the function or can admit a new one
  /// without evicting — a direct call must not trigger eviction storms
  /// or capacity failures the queue path would have probed around.
  /// Checked by the controller's direct seam *before* any hand-over, so
  /// a refusal needs no rollback.
  [[nodiscard]] bool can_direct_invoke(const FunctionSpec& spec) const {
    return started_ && !draining_ && !dead_ && !stalled_ &&
           running_count_ < config_.max_concurrent &&
           (pool_.has_warm_idle(spec.index, spec.memory_mb) ||
            pool_.can_admit(spec.memory_mb));
  }
  /// Direct hand-over of a leased call: starts execution immediately,
  /// skipping the topic queue and the poll cadence entirely.
  void direct_invoke(mq::Message msg);

  [[nodiscard]] InvokerId id() const { return id_; }
  [[nodiscard]] bool started() const { return started_; }
  [[nodiscard]] bool draining() const { return draining_; }
  [[nodiscard]] bool dead() const { return dead_; }
  [[nodiscard]] bool stalled() const { return stalled_; }
  [[nodiscard]] std::size_t running_executions() const {
    return running_count_;
  }
  [[nodiscard]] const runtime::ContainerPool& pool() const { return pool_; }

  struct Counters {
    std::uint64_t executed{0};
    std::uint64_t capacity_failures{0};
    std::uint64_t interrupted{0};
    std::uint64_t dropped_undeliverable{0};
    std::uint64_t direct_invocations{0};  ///< leased calls handed over
  };
  [[nodiscard]] const Counters& counters() const { return counters_; }

 private:
  enum class ExecPhase : std::uint8_t { kStarting, kRunning };
  /// One execution slot; msg.id is the activation it runs.
  struct Exec {
    mq::Message msg;
    /// Resolved once in begin_execution().
    const FunctionSpec* spec{nullptr};
    runtime::ContainerId container{0};
    sim::EventId event;       ///< pending start or completion event
    sim::SimTime due{};       ///< absolute time `event` fires
    sim::SimTime remaining{}; ///< time left when suspended by stall()
    ExecPhase phase{ExecPhase::kStarting};
    bool cold{false};
    bool live{false};  ///< the slot holds a running execution
  };

  void poll();
  void dispatch_buffer();
  void begin_execution(mq::Message msg);
  /// Schedules slot `slot`'s next phase transition `delay` from now,
  /// recording the absolute due time so stall() can suspend it.
  void schedule_exec_event(std::size_t slot, sim::SimTime delay);
  /// Phase transition: kStarting -> kRunning (container warm, duration
  /// drawn) or kRunning -> done (release, report, dispatch next).
  void on_exec_event(std::size_t slot, ActivationId act);
  /// Live slots whose execution `pred` selects, ascending by activation
  /// id: SIGTERM and resume() act in this order, so outcomes never
  /// depend on which slot an execution happened to land in.
  template <class Pred>
  [[nodiscard]] std::vector<std::size_t> live_slots_by_id(Pred pred) const;
  void finish_drain_if_idle();
  void start_loops();
  void stop_loops();

  sim::Simulation& sim_;
  mq::Broker& broker_;
  const FunctionRegistry& registry_;
  Controller& controller_;
  Config config_;
  sim::Rng rng_;
  runtime::ContainerPool pool_;
  InvokerId id_{kNoInvoker};
  mq::Topic* own_topic_{nullptr};
  mq::Topic* fast_lane_{nullptr};
  /// Reused across poll ticks: pulling never allocates in steady state.
  std::vector<mq::Message> pull_scratch_;
  /// Pulled, not yet started; freed once the invoker drains or dies.
  sim::Ring<mq::Message> buffer_;
  /// Execution slots. Grown to the invoker's peak concurrency (at most
  /// max_concurrent: the dispatch gate and the direct seam both check
  /// it) and reused after, so a steady-state execution never allocates;
  /// an exec event carries its slot index.
  std::vector<Exec> slots_;
  std::size_t running_count_{0};
  sim::PeriodicHandle poll_loop_;
  sim::PeriodicHandle heartbeat_loop_;
  bool started_{false};
  bool draining_{false};
  bool dead_{false};
  bool stalled_{false};
  /// Last periodic reap_idle() sweep (keep-alive reap_interval > 0).
  sim::SimTime last_reap_;
  sim::EventId resume_event_;
  std::function<void()> on_drained_;
  Counters counters_;
  /// Registry instruments resolved once at construction (shared across
  /// invokers by name; monotone across pilot churn). Per-event string
  /// lookups here were the bulk of the traced-overhead regression.
  obs::Histogram* h_exec_us_{nullptr};
  obs::Counter* c_executed_{nullptr};
  obs::Counter* c_dropped_{nullptr};
  obs::Counter* c_capacity_{nullptr};
  obs::Counter* c_interrupted_{nullptr};
  obs::Counter* c_cold_starts_{nullptr};
  obs::Counter* c_warm_hits_{nullptr};
  obs::Counter* c_prewarm_hits_{nullptr};
};

}  // namespace hpcwhisk::whisk
