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

void EventQueue::LaneRing::push_back(const Entry& e) {
  if (count == ring.size()) {
    // Grow by doubling, unrolling the ring so the head lands at 0.
    std::vector<Entry> grown(std::max<std::size_t>(16, 2 * ring.size()));
    for (std::size_t i = 0; i < count; ++i)
      grown[i] = ring[(head + i) & (ring.size() - 1)];
    ring = std::move(grown);
    head = 0;
  }
  ring[(head + count) & (ring.size() - 1)] = e;
  ++count;
}

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
  if (l.count != 0 && e.when < l.back().when) return false;
  l.push_back(e);
  ++lane_entries_;
  if (l.count == 1 &&
      (best_lane_ == kNoLane || entry_before(e, lane_head_))) {
    best_lane_ = lane;
    lane_head_ = e;
  }
  return true;
}

void EventQueue::rescan_lanes() const {
  best_lane_ = kNoLane;
  for (std::size_t k = 0; k < lanes_.size(); ++k) {
    const LaneRing& l = lanes_[k];
    if (l.count == 0) continue;
    if (best_lane_ == kNoLane || entry_before(l.front(), lane_head_)) {
      best_lane_ = static_cast<Lane>(k);
      lane_head_ = l.front();
    }
  }
}

void EventQueue::pop_lane_front() const {
  lanes_[best_lane_].pop_front();
  --lane_entries_;
  rescan_lanes();
}

// --- Scheduling --------------------------------------------------------------

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
  const Entry e{when, seq, slot};
  if (lane == kNoLane || !append_to_lane(lane, e)) push_entry(e);
  return EventId{seq, slot};
}

bool EventQueue::cancel(EventId id) {
  if (id.seq_ == 0 || id.slot_ >= slots_.size()) return false;
  Slot& s = slots_[id.slot_];
  if (s.seq != id.seq_) return false;  // already fired or cancelled
  // Eager reclamation: the callback (and its captures) dies now; only
  // the 24-byte heap (or stage) entry lingers as a tombstone until
  // drained.
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

// --- Tombstone handling ------------------------------------------------------

void EventQueue::drain_cancelled() const {
  // Const because callers like next_time() are logically const; dropping
  // tombstones never changes observable state. Cancelled entries' slots
  // were already returned to the free list by cancel(), so a tombstone
  // is any entry whose slot has moved on to a different seq (or none).
  while (!heap_.empty() && !entry_live(heap_.front())) {
    const_cast<EventQueue*>(this)->pop_root();
  }
}

void EventQueue::drain_stage() const {
  while (stage_pos_ < stage_.size() && !entry_live(stage_[stage_pos_]))
    ++stage_pos_;
  if (stage_pos_ == stage_.size() && !stage_.empty()) {
    stage_.clear();
    stage_pos_ = 0;
  }
}

void EventQueue::refill_stage() const {
  drain_cancelled();
  if (heap_.empty()) return;
  const SimTime t = heap_.front().when;
  do {
    stage_.push_back(heap_.front());
    const_cast<EventQueue*>(this)->pop_root();
    drain_cancelled();
  } while (!heap_.empty() && heap_.front().when == t &&
           stage_.size() < kMaxStage);
}

void EventQueue::maybe_compact() {
  // live_ counts staged entries too, so held - live_ is a lower bound on
  // the tombstones in heap and lanes (never an overcount); the guard
  // also keeps the subtraction from wrapping while the stage holds live
  // work.
  const std::size_t held = heap_.size() + lane_entries_;
  if (held <= live_) return;
  const std::size_t dead = held - live_;
  if (dead <= kCompactFloor || dead <= live_) return;
  std::erase_if(heap_, [this](const Entry& e) { return !entry_live(e); });
  rebuild_heap();
  // Lanes compact in place, keeping their order: the write cursor
  // trails the read cursor around the ring.
  lane_entries_ = 0;
  for (LaneRing& l : lanes_) {
    const std::size_t mask = l.ring.size() - 1;
    std::size_t kept = 0;
    for (std::size_t i = 0; i < l.count; ++i) {
      const Entry& e = l.ring[(l.head + i) & mask];
      if (entry_live(e)) l.ring[(l.head + kept++) & mask] = e;
    }
    l.count = kept;
    lane_entries_ += kept;
  }
  rescan_lanes();
}

// --- Popping -----------------------------------------------------------------

// locate() and take() are the run loop's per-event path; defined
// `inline` ahead of their callers so pop_due() compiles to one body.
inline EventQueue::Source EventQueue::locate(Entry& e) const {
  drain_stage();
  if (stage_pos_ == stage_.size()) {
    refill_stage();
  } else {
    drain_cancelled();
  }
  Source src = Source::kNone;
  if (stage_pos_ < stage_.size()) {
    e = stage_[stage_pos_];
    src = Source::kStage;
  }
  // Entries scheduled after staging can only sort before the stage when
  // the caller rewound past the staged deadline (settle_to + at); inside
  // the run loop the stage beats the heap.
  if (!heap_.empty() &&
      (src == Source::kNone || entry_before(heap_.front(), e))) {
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
    case Source::kStage: ++stage_pos_; break;
    case Source::kHeap: pop_root(); break;
    case Source::kLane: pop_lane_front(); break;
    case Source::kNone: break;
  }
}

SimTime EventQueue::next_time() const {
  Entry e;
  return locate(e) == Source::kNone ? SimTime::max() : e.when;
}

void EventQueue::claim(const Entry& e, Popped& out) {
  out.when = e.when;
  out.cb = std::move(slots_[e.slot].cb);
  release_slot(e.slot);
  --live_;
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

std::size_t EventQueue::pop_batch(std::size_t max_n, std::vector<Popped>& out) {
  // The first claim fixes the deadline; the rest are claimed while the
  // earliest live entry still sits at it.
  SimTime until = SimTime::max();
  std::size_t claimed = 0;
  while (claimed < max_n) {
    out.emplace_back();
    if (!pop_due(until, out.back())) {
      out.pop_back();
      break;
    }
    until = out.back().when;
    ++claimed;
  }
  return claimed;
}

}  // namespace hpcwhisk::sim
