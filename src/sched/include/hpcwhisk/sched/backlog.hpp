#pragma once
// Per-worker expected-backlog accounting: the "state" half of the
// data-driven scheduler. Every outstanding call carries one charge — the
// predicted remaining work the worker still owes it — and the ledger
// guarantees by construction that a worker's backlog is exactly the sum
// of the charges currently attached to it: charges are integer ticks, so
// add/remove round-trips are exact and the leak test can assert == 0
// after arbitrary reroute/kill interleavings.
//
// The controller drives the transitions:
//   assign   submit routed the call to a worker           (+charge)
//   move     the call started executing somewhere else    (charge moves)
//   release  terminal state, or requeued to the fast lane (-charge)
//   forget   the worker vanished (hard kill): drop everything it held —
//            rescued calls re-charge at their next assign/move.
//
// Call ids are activation ids, which the controller hands out in
// ascending order, so the charges sit in a window indexed by
// id - base: a new call appends, an older call charged again (a
// requeued call that restarts) extends the window at the front, and
// empty slots drop off the front before the window would grow.

#include <cstdint>
#include <limits>
#include <vector>

#include "hpcwhisk/sim/ring.hpp"

namespace hpcwhisk::sched {

using CallId = std::uint64_t;
using WorkerId = std::uint32_t;

class BacklogLedger {
 public:
  struct Charge {
    WorkerId worker{0};
    std::int64_t cost_ticks{0};       ///< charged to `worker`
    std::int64_t predicted_ticks{0};  ///< the bare duration prediction
  };

  /// Charges `cost_ticks` of predicted work for `call` to `worker`.
  /// A call holds at most one charge: re-assigning an already-charged
  /// call moves it (keeping the *original* prediction for error
  /// reporting, so a reroute does not reset the forecast).
  void assign(CallId call, WorkerId worker, std::int64_t cost_ticks,
              std::int64_t predicted_ticks);

  /// Moves the call's charge to `worker` (no-op if uncharged or already
  /// there). Returns true if a charge moved.
  bool move(CallId call, WorkerId worker);

  /// Removes the call's charge. Returns the charge if one existed.
  [[nodiscard]] bool release(CallId call, Charge* out = nullptr);

  /// Drops every charge attached to `worker` (hard-kill path). Returns
  /// how many charges were dropped.
  std::size_t forget_worker(WorkerId worker);

  /// Predicted outstanding work on `worker`, in ticks (>= 0).
  [[nodiscard]] std::int64_t backlog(WorkerId worker) const;
  /// Sum over all workers, in ticks.
  [[nodiscard]] std::int64_t total() const { return total_; }
  [[nodiscard]] std::size_t charge_count() const { return charge_count_; }
  /// The call's charge, if any (prediction-error reporting).
  [[nodiscard]] const Charge* find(CallId call) const;

 private:
  /// Marks an empty slot: no real worker carries this id.
  static constexpr WorkerId kNoWorker = std::numeric_limits<WorkerId>::max();

  /// Charges `delta` to `worker`, growing backlog_ to reach it.
  void add(WorkerId worker, std::int64_t delta);
  /// The call's slot, or nullptr when the call holds no charge.
  [[nodiscard]] Charge* slot(CallId call);
  /// Empties a charged slot.
  void erase(Charge& charge);
  /// Drops the empty slots at the front of the window.
  void trim_front();

  /// Slot k holds the charge of call base_ + k (worker kNoWorker if
  /// none).
  sim::Ring<Charge> charges_;
  CallId base_{0};
  std::size_t charge_count_{0};
  /// Indexed by WorkerId (invoker ids are dense and sequential); workers
  /// past the end have never been charged.
  std::vector<std::int64_t> backlog_;
  std::int64_t total_{0};
};

}  // namespace hpcwhisk::sched
