#pragma once
// Backfill reservation booking for the whole-node scheduling pass.
//
// Within one tier of a pass the scheduler keeps a planning timeline: for
// every node, when it is expected to be free (SimTime::max() for a down
// node, which can never be booked). A blocked job of k nodes is reserved
// on the k nodes that free earliest, ties broken by node id; the k-th of
// them sets the reservation start, which must be no later than the tier's
// latest start (the end of the backfill window). ReservationHorizon
// answers that query from one min-heap of (planning time, node) built
// once per tier, instead of rescanning every node per blocked job:
//  * the heap holds only entries at or before the latest start. A node
//    that frees later can never be among the k earliest of a booking that
//    succeeds, so leaving it out changes no answer: a booking that finds
//    fewer than k entries fails exactly when the k-th earliest pair over
//    the whole timeline starts too late (or does not exist);
//  * an entry is live iff its time equals the node's current planning
//    time; stale entries are dropped as they surface;
//  * within a tier a node's planning time only grows (a launch raises it,
//    a booking moves it from at most the start to start + limit), so
//    every bookable node within the window has exactly one live entry;
//  * (time, node) pairs are a strict total order, so the first k live
//    pops are exactly the k smallest pairs, the set a partial sort of the
//    whole timeline would pick.
// A pass costs one O(n) scan per tier to build the heap over the m nodes
// inside the window, plus O(k log m) per booking.

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
  /// then advances only through raise() and book(); every booking of the
  /// tier must start by `latest_start`. The heap is built by the first
  /// booking, so a tier that books nothing never pays for it.
  void reset(Timeline& timeline, sim::SimTime latest_start) {
    assert(latest_start < sim::SimTime::max() && "down nodes stay out");
    timeline_ = &timeline;
    latest_start_ = latest_start;
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
  /// the tier's latest start. On success marks each booked node reserved
  /// from the start (keeping an earlier reservation), moves its planning
  /// time to start + length and returns true; otherwise changes nothing.
  bool book(std::uint32_t nodes, sim::SimTime length, Timeline& reserved_from) {
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
    // Every entry starts by latest_start_, so only a shortfall fails.
    if (popped_.size() < nodes) {
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
      if (timeline[n] > latest_start_) continue;
      heap_.emplace_back(timeline[n], static_cast<NodeId>(n));
    }
    std::make_heap(heap_.begin(), heap_.end(), std::greater<>{});
    built_ = true;
  }

  /// Adds node `n`'s current planning time unless it is past the latest
  /// start, where no booking of this tier can use it.
  void push(NodeId n) {
    const sim::SimTime t = (*timeline_)[n];
    if (t > latest_start_) return;
    heap_.emplace_back(t, n);
    std::push_heap(heap_.begin(), heap_.end(), std::greater<>{});
  }

  Timeline* timeline_{nullptr};
  sim::SimTime latest_start_{};
  bool built_{false};
  std::vector<Entry> heap_;
  std::vector<Entry> popped_;
};

}  // namespace hpcwhisk::slurm
