#pragma once
// The simulation driver: a virtual clock plus an event queue.
//
// Components schedule callbacks with at()/after()/every(); run() advances
// the clock event by event. The driver is strictly single-threaded; all
// determinism guarantees follow from EventQueue's FIFO tie-breaking.
//
// Periodic series live in the event queue: the run loop calls a series'
// callback where it is stored and then re-arms it, so a tick moves no
// callback and takes no slab slot.

#include <stdexcept>
#include <utility>

#include "hpcwhisk/sim/event_queue.hpp"
#include "hpcwhisk/sim/time.hpp"

namespace hpcwhisk::sim {

/// Handle controlling a periodic series created by Simulation::every().
/// Default-constructed handles are inert. Copyable: all copies control the
/// same series. A handle does not own its series and must not be used
/// after its Simulation is destroyed.
class PeriodicHandle {
 public:
  PeriodicHandle() = default;

  /// Stops the series before its next firing. Idempotent.
  void stop() {
    if (queue_ != nullptr) queue_->stop_series(id_);
  }
  [[nodiscard]] bool active() const {
    return queue_ != nullptr && queue_->series_active(id_);
  }

 private:
  friend class Simulation;
  PeriodicHandle(EventQueue* queue, EventQueue::SeriesId id)
      : queue_{queue}, id_{id} {}
  EventQueue* queue_{nullptr};
  EventQueue::SeriesId id_;
};

class Simulation {
 public:
  /// Inline-storage callable: scheduling typical closures never touches
  /// the heap (see InplaceCallback).
  using Callback = EventQueue::Callback;

  Simulation() = default;
  Simulation(const Simulation&) = delete;
  Simulation& operator=(const Simulation&) = delete;

  [[nodiscard]] SimTime now() const { return now_; }

  /// Schedules `cb` at absolute time `when` (must be >= now()).
  EventId at(SimTime when, Callback cb) {
    if (when < now_) throw std::invalid_argument("Simulation::at: time in the past");
    return queue_.schedule(when, std::move(cb));
  }

  /// Schedules `cb` to fire `delay` after the current time.
  EventId after(SimTime delay, Callback cb) {
    return at(now_ + delay, std::move(cb));
  }

  /// As after(), for a delay that many one-shots share (activation
  /// timeouts): the entry joins the FIFO lane of `delay`, which stays
  /// sorted because now() never goes backwards. Past the lane cap it
  /// takes the heap. Fires exactly when after() would.
  EventId after_fixed(SimTime delay, Callback cb) {
    if (delay < SimTime::zero())
      throw std::invalid_argument("Simulation::after_fixed: negative delay");
    return queue_.schedule(now_ + delay, std::move(cb), queue_.lane_for(delay));
  }

  /// Schedules `cb` every `interval`, starting one interval from now,
  /// until the returned handle is stopped or the simulation ends.
  PeriodicHandle every(SimTime interval, Callback cb) {
    if (interval <= SimTime::zero())
      throw std::invalid_argument("Simulation::every: non-positive interval");
    return PeriodicHandle{&queue_, queue_.start_series(now_, interval, std::move(cb))};
  }

  bool cancel(EventId id) { return queue_.cancel(id); }

  /// Runs events until the queue is empty or the clock would pass `until`.
  /// Events scheduled exactly at `until` do fire; afterwards now() == until
  /// (or the last event time if the queue drained early).
  void run_until(SimTime until);

  /// Runs until the event queue is fully drained.
  void run();

  /// Executes exactly one event if any is pending; returns whether it did.
  bool step();

  /// Moves the clock forward to `t` without executing anything (requires
  /// no pending events earlier than `t`).
  void settle_to(SimTime t);

  [[nodiscard]] std::size_t pending_events() const { return queue_.size(); }

  /// Total events executed so far (perf telemetry: events/sec is the
  /// simulator's fundamental throughput unit).
  [[nodiscard]] std::uint64_t executed_events() const { return executed_; }

 private:
  /// Advances the clock to a claimed event and runs it.
  void fire(EventQueue::Popped& p);

  SimTime now_{SimTime::zero()};
  EventQueue queue_;
  std::uint64_t executed_{0};
};

}  // namespace hpcwhisk::sim
