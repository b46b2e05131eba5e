#include "hpcwhisk/sim/event_queue.hpp"

#include <algorithm>
#include <cassert>
#include <utility>

namespace hpcwhisk::sim {

// --- 4-ary heap primitives ---------------------------------------------------

void EventQueue::sift_up(std::size_t i) {
  const Entry e = heap_[i];
  while (i > 0) {
    const std::size_t parent = (i - 1) >> 2;
    if (!entry_before(e, heap_[parent])) break;
    heap_[i] = heap_[parent];
    i = parent;
  }
  heap_[i] = e;
}

void EventQueue::sift_down(std::size_t i) {
  const std::size_t n = heap_.size();
  const Entry e = heap_[i];
  for (;;) {
    const std::size_t first = (i << 2) + 1;
    if (first >= n) break;
    std::size_t best = first;
    const std::size_t last = std::min(first + 4, n);
    for (std::size_t c = first + 1; c < last; ++c) {
      if (entry_before(heap_[c], heap_[best])) best = c;
    }
    if (!entry_before(heap_[best], e)) break;
    heap_[i] = heap_[best];
    i = best;
  }
  heap_[i] = e;
}

void EventQueue::push_entry(const Entry& e) {
  heap_.push_back(e);
  sift_up(heap_.size() - 1);
}

void EventQueue::pop_root() {
  const Entry e = heap_.back();
  heap_.pop_back();
  const std::size_t n = heap_.size();
  if (n == 0) return;
  // Bottom-up deletion: walk the hole from the root to a leaf along the
  // min-child path without comparing `e` at every level — `e` came from
  // the bottom of the heap, so it almost always belongs back near a
  // leaf, and the per-level compare a plain sift-down spends on it is
  // nearly always wasted. Then bubble `e` up from the leaf hole (rarely
  // more than one level).
  std::size_t i = 0;
  for (;;) {
    const std::size_t first = (i << 2) + 1;
    if (first >= n) break;
    std::size_t best = first;
    const std::size_t last = std::min(first + 4, n);
    for (std::size_t c = first + 1; c < last; ++c) {
      if (entry_before(heap_[c], heap_[best])) best = c;
    }
    heap_[i] = heap_[best];
    i = best;
  }
  while (i > 0) {
    const std::size_t parent = (i - 1) >> 2;
    if (!entry_before(e, heap_[parent])) break;
    heap_[i] = heap_[parent];
    i = parent;
  }
  heap_[i] = e;
}

void EventQueue::rebuild_heap() {
  if (heap_.size() < 2) return;
  // Floyd build: sift down every internal node, deepest parent first.
  for (std::size_t i = (heap_.size() - 2) >> 2;; --i) {
    sift_down(i);
    if (i == 0) break;
  }
}

// --- Lanes -------------------------------------------------------------------

EventQueue::Lane EventQueue::lane_for(SimTime interval) {
  for (std::size_t k = 0; k < lanes_.size(); ++k) {
    if (lanes_[k].interval == interval) return static_cast<Lane>(k);
  }
  if (lanes_.size() == kMaxLanes) return kNoLane;
  lanes_.push_back(LaneRing{.interval = interval, .ring = {}});
  return static_cast<Lane>(lanes_.size() - 1);
}

bool EventQueue::append_to_lane(Lane lane, const Entry& e) {
  if (lane >= lanes_.size()) return false;
  LaneRing& l = lanes_[lane];
  // seq only grows, so the lane stays sorted iff `when` does not go
  // backwards; an out-of-order entry takes the heap instead.
  if (!l.ring.empty() && e.when < l.ring.back().when) return false;
  l.ring.push_back(e);
  ++lane_entries_;
  if (l.ring.size() == 1) admit_lane_head(lane, e);
  return true;
}

void EventQueue::admit_lane_head(Lane lane, const Entry& head) {
  if (best_lane_ == kNoLane || entry_before(head, lane_head_)) {
    runner_lane_ = best_lane_;
    runner_head_ = lane_head_;
    best_lane_ = lane;
    lane_head_ = head;
  } else if (runner_lane_ == kNoLane || entry_before(head, runner_head_)) {
    runner_lane_ = lane;
    runner_head_ = head;
  }
}

void EventQueue::rescan_lanes() {
  best_lane_ = kNoLane;
  runner_lane_ = kNoLane;
  for (std::size_t k = 0; k < lanes_.size(); ++k) {
    const LaneRing& l = lanes_[k];
    if (!l.ring.empty()) admit_lane_head(static_cast<Lane>(k), l.ring.front());
  }
}

void EventQueue::pop_lane_front() {
  Ring<Entry>& ring = lanes_[best_lane_].ring;
  ring.pop_front();
  --lane_entries_;
  // Only the lead lane's head moved, so the runner-up still heads every
  // other lane: while the lead's next head beats it, the lead holds.
  if (!ring.empty() &&
      (runner_lane_ == kNoLane || entry_before(ring.front(), runner_head_))) {
    lane_head_ = ring.front();
    return;
  }
  rescan_lanes();
}

// --- Scheduling --------------------------------------------------------------

// Shared by schedule() and rearm(); `inline` ahead of both so neither pays
// a call per event.
inline void EventQueue::enqueue(const Entry& e, Lane lane) {
  if (lane == kNoLane || !append_to_lane(lane, e)) push_entry(e);
}

EventId EventQueue::schedule(SimTime when, Callback cb, Lane lane) {
  const std::uint64_t seq = next_seq_++;
  std::uint32_t slot;
  if (free_head_ != kNoSlot) {
    slot = free_head_;
    free_head_ = slots_[slot].next_free;
  } else {
    slot = static_cast<std::uint32_t>(slots_.size());
    slots_.emplace_back();
  }
  Slot& s = slots_[slot];
  s.cb = std::move(cb);
  s.seq = seq;
  s.next_free = kNoSlot;
  ++live_;
  enqueue(Entry{when, seq, slot}, lane);
  return EventId{seq, slot};
}

bool EventQueue::cancel(EventId id) {
  if (id.seq_ == 0 || id.slot_ >= slots_.size()) return false;
  Slot& s = slots_[id.slot_];
  if (s.seq != id.seq_) return false;  // already fired or cancelled
  // Eager reclamation: the callback (and its captures) dies now; only
  // the 24-byte heap or lane entry lingers as a tombstone until drained.
  s.cb = nullptr;
  s.seq = 0;
  s.next_free = free_head_;
  free_head_ = id.slot_;
  --live_;
  maybe_compact();
  return true;
}

void EventQueue::release_slot(std::uint32_t slot) {
  Slot& s = slots_[slot];
  s.cb = nullptr;
  s.seq = 0;
  s.next_free = free_head_;
  free_head_ = slot;
}

// --- Periodic series ---------------------------------------------------------

EventQueue::SeriesId EventQueue::start_series(SimTime now, SimTime interval,
                                              Callback cb) {
  std::uint32_t index;
  if (free_series_ != kNoSlot) {
    index = free_series_;
    free_series_ = series_[index].next_free;
  } else {
    index = static_cast<std::uint32_t>(series_.size());
    series_.emplace_back();
  }
  Series& s = series_[index];
  s.cb = std::move(cb);
  s.interval = interval;
  s.index = index;
  s.lane = lane_for(interval);
  s.active = true;
  rearm(s, now);
  return SeriesId{index, s.gen};
}

void EventQueue::rearm(Series& s, SimTime now) {
  if (!s.active) {
    release_series(s);
    return;
  }
  // Drawn after the callback returned, as a one-shot re-armed from inside
  // it would be: events that callback scheduled for the same instant
  // fire before the next tick.
  s.seq = next_seq_++;
  ++live_;
  enqueue(Entry{now + s.interval, s.seq, s.index | kSeriesBit}, s.lane);
}

bool EventQueue::stop_series(SeriesId id) {
  if (id.index >= series_.size()) return false;
  Series& s = series_[id.index];
  if (s.gen != id.gen || !s.active) return false;
  s.active = false;
  // seq 0: the series is firing, and rearm() releases it afterwards.
  if (s.seq == 0) return true;
  s.seq = 0;  // its queued entry is a tombstone from here on
  --live_;
  release_series(s);
  maybe_compact();
  return true;
}

bool EventQueue::series_active(SeriesId id) const {
  if (id.index >= series_.size()) return false;
  const Series& s = series_[id.index];
  return s.gen == id.gen && s.active;
}

void EventQueue::release_series(Series& s) {
  // The callback dies first: a capture's destructor that starts a series
  // cannot be handed this storage while it is still being torn down.
  s.cb = nullptr;
  ++s.gen;
  s.next_free = free_series_;
  free_series_ = s.index;
}

// --- Tombstone handling ------------------------------------------------------

void EventQueue::drain_cancelled() {
  // Cancelled entries' slots were already returned to the free list by
  // cancel(), so a tombstone is any entry whose slot has moved on to a
  // different seq (or none).
  while (!heap_.empty() && !entry_live(heap_.front())) pop_root();
}

void EventQueue::maybe_compact() {
  // Every live entry sits in the heap or a lane, so the rest are
  // tombstones.
  const std::size_t dead = heap_.size() + lane_entries_ - live_;
  if (dead <= kCompactFloor || dead <= live_) return;
  std::erase_if(heap_, [this](const Entry& e) { return !entry_live(e); });
  rebuild_heap();
  // Lanes compact in place, keeping their order: the write cursor
  // trails the read cursor around the ring.
  lane_entries_ = 0;
  for (LaneRing& l : lanes_) {
    std::size_t kept = 0;
    for (std::size_t i = 0; i < l.ring.size(); ++i) {
      const Entry e = l.ring[i];
      if (entry_live(e)) l.ring[kept++] = e;
    }
    l.ring.truncate(kept);
    lane_entries_ += kept;
  }
  rescan_lanes();
}

// --- Popping -----------------------------------------------------------------

// locate() and take() are the run loop's per-event path; defined
// `inline` ahead of their callers so pop_due() compiles to one body.
inline EventQueue::Source EventQueue::locate(Entry& e) {
  drain_cancelled();
  Source src = Source::kNone;
  if (!heap_.empty()) {
    e = heap_.front();
    src = Source::kHeap;
  }
  // Every lane is sorted, so the earliest lane head bounds every lane
  // entry: while it sorts first it wins if live, and is dropped as a
  // tombstone otherwise. Liveness is only checked for a head that wins.
  while (best_lane_ != kNoLane &&
         (src == Source::kNone || entry_before(lane_head_, e))) {
    if (entry_live(lane_head_)) {
      e = lane_head_;
      src = Source::kLane;
      break;
    }
    pop_lane_front();
  }
  return src;
}

inline void EventQueue::take(Source src) {
  switch (src) {
    case Source::kHeap: pop_root(); break;
    case Source::kLane: pop_lane_front(); break;
    case Source::kNone: break;
  }
}

SimTime EventQueue::next_time() {
  Entry e;
  return locate(e) == Source::kNone ? SimTime::max() : e.when;
}

void EventQueue::claim(const Entry& e, Popped& out) {
  out.when = e.when;
  --live_;
  if ((e.slot & kSeriesBit) != 0) {
    Series& s = series_[e.slot & ~kSeriesBit];
    s.seq = 0;  // firing: nothing queued until rearm()
    out.series = &s;
    return;
  }
  out.series = nullptr;
  out.cb = std::move(slots_[e.slot].cb);
  release_slot(e.slot);
}

bool EventQueue::pop_due(SimTime until, Popped& out) {
  Entry e;
  const Source src = locate(e);
  if (src == Source::kNone || e.when > until) return false;
  take(src);
  claim(e, out);
  return true;
}

EventQueue::Popped EventQueue::pop() {
  Popped out;
  [[maybe_unused]] const bool popped = pop_due(SimTime::max(), out);
  assert(popped && "pop() on empty EventQueue");
  return out;
}

}  // namespace hpcwhisk::sim
