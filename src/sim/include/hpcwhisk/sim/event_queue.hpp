#pragma once
// A cancellable, deterministic discrete-event queue.
//
// Events scheduled for the same instant fire in schedule order (FIFO),
// which makes every simulation run bit-reproducible for a fixed seed.
//
// Storage is a slab of callback slots indexed by a free list; the heap
// holds (time, seq, slot) triples only. The callbacks themselves are
// InplaceCallback<64>: typical closures (a this-pointer plus a couple of
// ids) live inline in the slab and scheduling never allocates.
//
// The heap is a 4-ary implicit min-heap: half the levels of a binary
// heap, and the four children of a node share at most two cache lines,
// so the sift-down that dominates pop() touches far less memory. Because
// (when, seq) is a total order, any correct priority queue pops the same
// sequence — the arity is invisible to simulation outcomes.
//
// pop() drains same-deadline runs in batches: the first pop of a
// deadline stages the whole run (up to kMaxStage) out of the heap in one
// tight drain, and the following pops serve the stage without touching
// the heap. Cancellation stays exact — staged entries are validated
// against the slab at claim time, so cancelling an event that is already
// staged (e.g. by an earlier event at the same instant) still prevents
// it from firing.
//
// Recurring events skip the heap. A periodic series re-arms at
// now + interval, so everything one interval's series schedule arrives
// already sorted by (when, seq). Such entries are appended to a FIFO
// ring ("lane") per interval; a pop takes the (when, seq) minimum over
// the stage, the heap front and the earliest lane head. The lane with
// the earliest head, and a copy of that head, are cached and rescanned
// only when a lane head moves; at most kMaxLanes lanes exist, and
// further intervals use the heap, so that rescan stays a bounded
// handful of compares.
//
// Cancellation is O(1): the slot's callback is destroyed eagerly (so
// captured state is reclaimed at once, not when the tombstone is
// eventually popped) and the heap or lane entry is dropped lazily. When
// tombstones outnumber live entries past a threshold the heap and the
// lanes are compacted in one O(n) sweep, so cancellation-heavy workloads
// (periodic handles, drain timers, grace windows) never accumulate dead
// entries.

#include <cstdint>
#include <vector>

#include "hpcwhisk/sim/inplace_callback.hpp"
#include "hpcwhisk/sim/time.hpp"

namespace hpcwhisk::sim {

/// Opaque handle identifying a scheduled event; used to cancel it.
class EventId {
 public:
  constexpr EventId() = default;
  [[nodiscard]] constexpr bool valid() const { return seq_ != 0; }
  constexpr bool operator==(const EventId&) const = default;

 private:
  friend class EventQueue;
  constexpr EventId(std::uint64_t seq, std::uint32_t slot)
      : seq_{seq}, slot_{slot} {}
  std::uint64_t seq_{0};
  std::uint32_t slot_{0};
};

/// 4-ary min-heap of (time, sequence) plus FIFO lanes for recurring
/// events, with slab-allocated callbacks, batched same-deadline draining
/// and lazy tombstone removal.
class EventQueue {
 public:
  using Callback = InplaceCallback<64>;
  /// Index of a FIFO lane, from lane_for().
  using Lane = std::uint8_t;
  /// "No lane": the entry goes on the heap.
  static constexpr Lane kNoLane = 0xFF;
  /// Most lanes one queue opens; further intervals use the heap.
  static constexpr std::size_t kMaxLanes = 8;

  /// Returns the lane of recurring events with period `interval`,
  /// opening one on first use; kNoLane once kMaxLanes lanes exist.
  Lane lane_for(SimTime interval);

  /// Schedules `cb` to fire at absolute time `when`. `when` must not be
  /// earlier than the last popped time (enforced by Simulation, not here).
  /// With a lane, the entry is appended to that lane's FIFO when `when`
  /// is not earlier than the lane's last entry, and goes on the heap
  /// otherwise — so the pop order never depends on the lane argument.
  EventId schedule(SimTime when, Callback cb, Lane lane = kNoLane);

  /// Cancels a previously scheduled event. Returns false if the event
  /// already fired or was already cancelled. The callback (and anything
  /// it captures) is destroyed before this returns.
  bool cancel(EventId id);

  [[nodiscard]] bool empty() const { return live_ == 0; }
  [[nodiscard]] std::size_t size() const { return live_; }

  /// Entries held by the queue including tombstones: the heap proper,
  /// the lanes and the staged same-deadline run. Heap plus lanes are
  /// bounded at max(live + kCompactFloor, 2 * live) + 1 by compaction;
  /// the stage adds at most kMaxStage.
  [[nodiscard]] std::size_t heap_entries() const {
    return heap_.size() + lane_entries_ + (stage_.size() - stage_pos_);
  }

  /// Time of the earliest live event; SimTime::max() when empty.
  [[nodiscard]] SimTime next_time() const;

  struct Popped {
    SimTime when;
    Callback cb;
  };

  /// Pops and returns the earliest live event. Precondition: !empty().
  Popped pop();

  /// Pops the earliest live event into `out` if its time is <= `until`.
  /// Returns false (leaving `out` untouched) when the queue is empty or
  /// the earliest event is later. One call does the work of
  /// next_time() + pop() — the run loop's fast path.
  bool pop_due(SimTime until, Popped& out);

  /// Claims every event sharing the earliest live deadline (up to
  /// `max_n`) across heap and lanes, appending to `out` in FIFO order.
  /// Returns the number claimed. Claimed events can no longer be
  /// cancelled — callers that may cancel same-instant events from within
  /// a callback (the simulation driver) must claim one event at a time
  /// via pop()/pop_due(), which stage the run internally but revalidate
  /// cancellation per event.
  std::size_t pop_batch(std::size_t max_n, std::vector<Popped>& out);

 private:
  static constexpr std::uint32_t kNoSlot = 0xFFFFFFFFu;
  /// Compaction triggers when tombstones exceed both this floor and the
  /// live count — amortized O(1) per cancellation.
  static constexpr std::size_t kCompactFloor = 64;
  /// Longest same-deadline run staged out of the heap in one drain.
  static constexpr std::size_t kMaxStage = 64;

  struct Entry {
    SimTime when;
    std::uint64_t seq;
    std::uint32_t slot;
  };
  /// Total (when, seq) order: the pop sequence is unique, whatever the
  /// container shape.
  static bool entry_before(const Entry& a, const Entry& b) {
    if (a.when != b.when) return a.when < b.when;
    return a.seq < b.seq;
  }

  /// Ring buffer of entries appended in (when, seq) order. Capacity is
  /// zero or a power of two.
  struct LaneRing {
    SimTime interval;
    std::vector<Entry> ring;
    std::size_t head{0};
    std::size_t count{0};

    [[nodiscard]] const Entry& front() const { return ring[head]; }
    [[nodiscard]] const Entry& back() const {
      return ring[(head + count - 1) & (ring.size() - 1)];
    }
    void push_back(const Entry& e);
    void pop_front() {
      head = (head + 1) & (ring.size() - 1);
      --count;
    }
  };

  /// Where the earliest live entry sits.
  enum class Source : std::uint8_t { kNone, kStage, kHeap, kLane };

  struct Slot {
    Callback cb;
    std::uint64_t seq{0};  ///< 0 while dead/free
    std::uint32_t next_free{kNoSlot};
  };

  [[nodiscard]] bool entry_live(const Entry& e) const {
    return slots_[e.slot].seq == e.seq;
  }
  void release_slot(std::uint32_t slot);
  void claim(const Entry& e, Popped& out);

  // 4-ary heap primitives over heap_.
  void sift_up(std::size_t i);
  void sift_down(std::size_t i);
  void push_entry(const Entry& e);
  void pop_root();
  void rebuild_heap();

  /// Finds the earliest live entry over stage, heap and lanes, dropping
  /// tombstones that block the way; take() then removes it.
  Source locate(Entry& e) const;
  void take(Source src);

  /// Appends `e` to `lane` if that keeps the lane sorted.
  bool append_to_lane(Lane lane, const Entry& e);
  /// Re-picks best_lane_ and lane_head_ after a lane head moved.
  void rescan_lanes() const;
  /// Drops the head of best_lane_.
  void pop_lane_front() const;

  void drain_cancelled() const;
  /// Skips staged entries cancelled after staging.
  void drain_stage() const;
  /// Precondition: stage empty. Moves the earliest same-deadline run
  /// (up to kMaxStage live entries) from the heap into the stage.
  void refill_stage() const;
  void maybe_compact();

  mutable std::vector<Entry> heap_;
  /// Staged same-deadline run, served FIFO from stage_pos_. Entries here
  /// are out of the heap but still cancellable (slab seq validation).
  mutable std::vector<Entry> stage_;
  mutable std::size_t stage_pos_{0};
  mutable std::vector<Slot> slots_;
  mutable std::uint32_t free_head_{kNoSlot};
  std::uint64_t next_seq_{1};
  std::size_t live_{0};
  /// FIFO lanes, indexed by Lane.
  mutable std::vector<LaneRing> lanes_;
  /// Entries held by the lanes, tombstones included.
  mutable std::size_t lane_entries_{0};
  /// Lane whose head (live or not) sorts first; kNoLane when every lane
  /// is empty.
  mutable Lane best_lane_{kNoLane};
  /// Copy of best_lane_'s head, so the per-pop compare stays on this
  /// object. Meaningless while best_lane_ is kNoLane.
  mutable Entry lane_head_{};
};

}  // namespace hpcwhisk::sim
