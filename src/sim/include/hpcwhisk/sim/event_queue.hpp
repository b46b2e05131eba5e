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
// Recurring events skip the heap. A periodic series re-arms at
// now + interval, so everything one interval's series schedule arrives
// already sorted by (when, seq); so do one-shots that share a fixed
// delay (Simulation::after_fixed, e.g. activation timeouts). Such
// entries are appended to a FIFO ring ("lane") per interval.
//
// A pop claims one event: the (when, seq) minimum of the heap root and
// the earliest lane head. Nothing is claimed ahead of its turn, so a
// callback can still cancel a later event of the same instant. The
// queue caches the lane with the earliest head and the runner-up lane,
// with a copy of each head: a lane pop compares the lane's next head
// against the runner-up's and rescans the lanes only when it loses. At
// most kMaxLanes lanes exist, and further intervals use the heap, so
// that rescan stays a bounded handful of compares.
//
// Periodic series live in the queue itself (start_series). A series
// keeps its callback for its whole life, in a sim::Chunked store whose
// addresses never move, and its queued entry is (when, seq, series):
// live while seq equals the series' current seq. pop_due() claims a tick
// without moving the callback; the run loop calls it in place and then
// rearm() queues the next tick with a newly drawn seq — so a tick costs
// no slot, no callback move and, mostly, no lane rescan.
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

#include "hpcwhisk/sim/chunked.hpp"
#include "hpcwhisk/sim/inplace_callback.hpp"
#include "hpcwhisk/sim/ring.hpp"
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
/// events, with slab-allocated callbacks, in-place periodic series and
/// lazy tombstone removal.
class EventQueue {
 public:
  using Callback = InplaceCallback<64>;
  /// Index of a FIFO lane, from lane_for().
  using Lane = std::uint8_t;
  /// "No lane": the entry goes on the heap.
  static constexpr Lane kNoLane = 0xFF;
  /// Most lanes one queue opens; further intervals use the heap.
  static constexpr std::size_t kMaxLanes = 8;

  /// Returns the lane of events scheduled `interval` after the current
  /// time (periodic re-arms, fixed-delay one-shots), opening one on
  /// first use; kNoLane once kMaxLanes lanes exist.
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

  /// Identifies a periodic series: its storage index and the generation
  /// of that storage, so an id that outlives its series never reaches
  /// the next series stored there.
  struct SeriesId {
    std::uint32_t index{0};
    std::uint32_t gen{0};
  };

  /// A periodic series. Its address never changes while the queue
  /// lives, so the run loop calls `cb` where it is stored.
  struct Series {
    Callback cb;
    SimTime interval;
    /// Seq of the series' queued entry; 0 while it fires or once stopped.
    std::uint64_t seq{0};
    std::uint32_t index{0};
    /// Bumped whenever the storage is released.
    std::uint32_t gen{0};
    std::uint32_t next_free{0};
    Lane lane{kNoLane};
    bool active{false};
  };

  /// Starts a series whose first tick is due at `now + interval`; it
  /// draws its seq now, as schedule() would.
  SeriesId start_series(SimTime now, SimTime interval, Callback cb);

  /// Stops a series before its next tick. From inside the series' own
  /// callback the storage is released by rearm() once the callback has
  /// returned. Returns false if the series was already stopped.
  bool stop_series(SeriesId id);

  [[nodiscard]] bool series_active(SeriesId id) const;

  /// Finishes a tick that pop_due() claimed, after its callback has
  /// returned: queues the next tick at `now + interval` with a newly
  /// drawn seq, or releases the series if it was stopped meanwhile.
  void rearm(Series& s, SimTime now);

  [[nodiscard]] bool empty() const { return live_ == 0; }
  [[nodiscard]] std::size_t size() const { return live_; }

  /// Entries held by the heap and the lanes, tombstones included;
  /// bounded at max(live + kCompactFloor, 2 * live) + 1 by compaction.
  [[nodiscard]] std::size_t heap_entries() const {
    return heap_.size() + lane_entries_;
  }

  /// Time of the earliest live event; SimTime::max() when empty. Drops
  /// the tombstones ahead of it.
  [[nodiscard]] SimTime next_time();

  /// A claimed event: a one-shot's callback, moved out of the slab, or
  /// a series tick (`series` set, `cb` empty) whose callback stays put.
  struct Popped {
    SimTime when;
    Callback cb;
    Series* series{nullptr};
  };

  /// Pops and returns the earliest live event. Precondition: !empty().
  Popped pop();

  /// Pops the earliest live event into `out` if its time is <= `until`.
  /// Returns false (leaving `out` untouched) when the queue is empty or
  /// the earliest event is later. One call does the work of
  /// next_time() + pop() — the run loop's fast path.
  bool pop_due(SimTime until, Popped& out);

 private:
  static constexpr std::uint32_t kNoSlot = 0xFFFFFFFFu;
  /// Set in Entry::slot when the entry is a series tick; the other bits
  /// are the series index.
  static constexpr std::uint32_t kSeriesBit = 0x80000000u;
  /// Series are stored in chunks of 2^kSeriesChunkBits.
  static constexpr unsigned kSeriesChunkBits = 6;
  /// Compaction triggers when tombstones exceed both this floor and the
  /// live count — amortized O(1) per cancellation.
  static constexpr std::size_t kCompactFloor = 64;

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

  /// Entries of one interval, appended in (when, seq) order.
  struct LaneRing {
    SimTime interval;
    Ring<Entry> ring;
  };

  /// Where the earliest live entry sits.
  enum class Source : std::uint8_t { kNone, kHeap, kLane };

  struct Slot {
    Callback cb;
    std::uint64_t seq{0};  ///< 0 while dead/free
    std::uint32_t next_free{kNoSlot};
  };

  [[nodiscard]] bool entry_live(const Entry& e) const {
    if ((e.slot & kSeriesBit) != 0)
      return series_[e.slot & ~kSeriesBit].seq == e.seq;
    return slots_[e.slot].seq == e.seq;
  }
  void release_slot(std::uint32_t slot);
  void release_series(Series& s);
  /// Puts `e` on `lane`, or on the heap past the lane cap or out of order.
  void enqueue(const Entry& e, Lane lane);
  void claim(const Entry& e, Popped& out);

  // 4-ary heap primitives over heap_.
  void sift_up(std::size_t i);
  void sift_down(std::size_t i);
  void push_entry(const Entry& e);
  void pop_root();
  void rebuild_heap();

  /// Finds the earliest live entry over heap and lanes, dropping
  /// tombstones that block the way; take() then removes it.
  Source locate(Entry& e);
  void take(Source src);

  /// Appends `e` to `lane` if that keeps the lane sorted.
  bool append_to_lane(Lane lane, const Entry& e);
  /// Ranks a new head of `lane` against the cached lead and runner-up.
  void admit_lane_head(Lane lane, const Entry& head);
  /// Re-picks the lead and runner-up lanes from every lane's head.
  void rescan_lanes();
  /// Drops the head of best_lane_; rescans only when the lane's next
  /// head no longer beats the runner-up.
  void pop_lane_front();

  /// Pops heap tombstones until a live entry (or nothing) is the root.
  void drain_cancelled();
  void maybe_compact();

  std::vector<Entry> heap_;
  std::vector<Slot> slots_;
  std::uint32_t free_head_{kNoSlot};
  std::uint64_t next_seq_{1};
  std::size_t live_{0};
  /// FIFO lanes, indexed by Lane.
  std::vector<LaneRing> lanes_;
  /// Entries held by the lanes, tombstones included.
  std::size_t lane_entries_{0};
  /// Lane whose head (live or not) sorts first; kNoLane when every lane
  /// is empty.
  Lane best_lane_{kNoLane};
  /// Lane whose head sorts first among the others; kNoLane when no other
  /// lane holds an entry.
  Lane runner_lane_{kNoLane};
  /// Copies of both heads, so the per-pop compares stay on this object.
  /// Meaningless while the matching lane is kNoLane.
  Entry lane_head_{};
  Entry runner_head_{};
  /// Series storage, indexed by Series::index; free indices are chained
  /// through Series::next_free.
  Chunked<Series, kSeriesChunkBits> series_;
  std::uint32_t free_series_{kNoSlot};
};

}  // namespace hpcwhisk::sim
