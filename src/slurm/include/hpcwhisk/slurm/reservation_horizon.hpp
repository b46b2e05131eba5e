#pragma once
// Backfill reservation booking for the whole-node scheduling pass.
//
// Within one tier of a pass the scheduler keeps a planning timeline: for
// every node, when it is expected to be free (SimTime::max() for a down
// node, which can never be booked). A blocked job of k nodes is reserved
// on the k nodes that free earliest, ties broken by node id; the k-th of
// them sets the reservation start. ReservationHorizon answers that
// query from one min-heap of (planning time, node) built once per tier,
// instead of rescanning every node per blocked job:
//  * an entry is live iff its time equals the node's current planning
//    time; stale entries are dropped as they surface;
//  * within a tier a node's planning time only grows (a launch raises it,
//    a booking moves it from at most the start to start + limit), so
//    every node that is not down has exactly one live entry;
//  * (time, node) pairs are a strict total order, so the first k live
//    pops are exactly the k smallest pairs, the set a partial sort of the
//    whole timeline would pick.
// A pass costs one O(n) heap build per tier plus O(k log n) per booking.

#include <algorithm>
#include <cassert>
#include <cstdint>
#include <functional>
#include <utility>
#include <vector>

#include "hpcwhisk/sim/time.hpp"
#include "hpcwhisk/slurm/job.hpp"

namespace hpcwhisk::slurm {

class ReservationHorizon {
 public:
  using Timeline = std::vector<sim::SimTime>;

  /// Starts a tier over `timeline`, the per-node planning times the tier
  /// then advances only through raise() and book(). The heap is built by
  /// the first booking, so a tier that books nothing never pays for it.
  void reset(Timeline& timeline) {
    timeline_ = &timeline;
    built_ = false;
  }

  /// A launch or claim holds node `n` until at least `until`.
  void raise(NodeId n, sim::SimTime until) {
    sim::SimTime& t = (*timeline_)[n];
    if (until <= t) return;
    t = until;
    if (built_) push(n);
  }

  /// Books a `length`-long reservation on the `nodes` nodes that free
  /// earliest, if that many can be booked and the last of them frees by
  /// `latest_start`. On success marks each booked node reserved from the
  /// start (keeping an earlier reservation), moves its planning time to
  /// start + length and returns true; otherwise changes nothing.
  bool book(std::uint32_t nodes, sim::SimTime length,
            sim::SimTime latest_start, Timeline& reserved_from) {
    assert(nodes > 0);
    if (!built_) build();
    Timeline& timeline = *timeline_;
    popped_.clear();
    while (popped_.size() < nodes && !heap_.empty()) {
      std::pop_heap(heap_.begin(), heap_.end(), std::greater<>{});
      const Entry e = heap_.back();
      heap_.pop_back();
      if (timeline[e.second] == e.first) popped_.push_back(e);
    }
    if (popped_.size() < nodes || popped_.back().first > latest_start) {
      for (const Entry& e : popped_) {
        heap_.push_back(e);
        std::push_heap(heap_.begin(), heap_.end(), std::greater<>{});
      }
      return false;
    }
    const sim::SimTime start = popped_.back().first;
    for (const Entry& e : popped_) {
      const NodeId n = e.second;
      reserved_from[n] = std::min(reserved_from[n], start);
      timeline[n] = start + length;
      push(n);
    }
    return true;
  }

 private:
  using Entry = std::pair<sim::SimTime, NodeId>;

  void build() {
    const Timeline& timeline = *timeline_;
    heap_.clear();
    for (std::size_t n = 0; n < timeline.size(); ++n) {
      if (timeline[n] == sim::SimTime::max()) continue;
      heap_.emplace_back(timeline[n], static_cast<NodeId>(n));
    }
    std::make_heap(heap_.begin(), heap_.end(), std::greater<>{});
    built_ = true;
  }

  /// Adds node `n`'s current planning time; a node pushed to max() is
  /// never bookable and stays out.
  void push(NodeId n) {
    const sim::SimTime t = (*timeline_)[n];
    if (t == sim::SimTime::max()) return;
    heap_.emplace_back(t, n);
    std::push_heap(heap_.begin(), heap_.end(), std::greater<>{});
  }

  Timeline* timeline_{nullptr};
  bool built_{false};
  std::vector<Entry> heap_;
  std::vector<Entry> popped_;
};

}  // namespace hpcwhisk::slurm
