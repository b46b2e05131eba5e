#include "hpcwhisk/sim/event_queue.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <vector>

namespace hpcwhisk::sim {
namespace {

TEST(EventQueue, StartsEmpty) {
  EventQueue q;
  EXPECT_TRUE(q.empty());
  EXPECT_EQ(q.size(), 0u);
  EXPECT_EQ(q.next_time(), SimTime::max());
}

TEST(EventQueue, PopsInTimeOrder) {
  EventQueue q;
  std::vector<int> fired;
  q.schedule(SimTime::seconds(3), [&] { fired.push_back(3); });
  q.schedule(SimTime::seconds(1), [&] { fired.push_back(1); });
  q.schedule(SimTime::seconds(2), [&] { fired.push_back(2); });
  while (!q.empty()) q.pop().cb();
  EXPECT_EQ(fired, (std::vector<int>{1, 2, 3}));
}

TEST(EventQueue, SameTimeFifoOrder) {
  EventQueue q;
  std::vector<int> fired;
  for (int i = 0; i < 10; ++i) {
    q.schedule(SimTime::seconds(5), [&fired, i] { fired.push_back(i); });
  }
  while (!q.empty()) q.pop().cb();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(fired[i], i);
}

TEST(EventQueue, CancelPreventsFiring) {
  EventQueue q;
  bool fired = false;
  const EventId id = q.schedule(SimTime::seconds(1), [&] { fired = true; });
  EXPECT_TRUE(q.cancel(id));
  EXPECT_TRUE(q.empty());
  EXPECT_FALSE(fired);
}

TEST(EventQueue, CancelTwiceFails) {
  EventQueue q;
  const EventId id = q.schedule(SimTime::seconds(1), [] {});
  EXPECT_TRUE(q.cancel(id));
  EXPECT_FALSE(q.cancel(id));
}

TEST(EventQueue, CancelAfterFireFails) {
  EventQueue q;
  const EventId id = q.schedule(SimTime::seconds(1), [] {});
  q.pop().cb();
  EXPECT_FALSE(q.cancel(id));
}

TEST(EventQueue, NextTimeSkipsCancelled) {
  EventQueue q;
  const EventId early = q.schedule(SimTime::seconds(1), [] {});
  q.schedule(SimTime::seconds(2), [] {});
  q.cancel(early);
  EXPECT_EQ(q.next_time(), SimTime::seconds(2));
}

TEST(EventQueue, PopReturnsTime) {
  EventQueue q;
  q.schedule(SimTime::minutes(7), [] {});
  EXPECT_EQ(q.pop().when, SimTime::minutes(7));
}

TEST(EventQueue, DefaultEventIdInvalid) {
  EventId id;
  EXPECT_FALSE(id.valid());
  EventQueue q;
  EXPECT_FALSE(q.cancel(id));
}

TEST(EventQueue, CancelReclaimsCallbackEagerly) {
  EventQueue q;
  auto token = std::make_shared<int>(7);
  const EventId id = q.schedule(SimTime::seconds(1), [token] {});
  EXPECT_EQ(token.use_count(), 2);
  EXPECT_TRUE(q.cancel(id));
  // The capture must die at cancel() time, not when the tombstone is
  // eventually popped — cancellation-heavy runs must not hoard memory.
  EXPECT_EQ(token.use_count(), 1);
}

TEST(EventQueue, CompactionBoundsTombstones) {
  EventQueue q;
  std::vector<EventId> ids;
  ids.reserve(10000);
  for (int i = 0; i < 10000; ++i)
    ids.push_back(q.schedule(SimTime::micros(i), [] {}));
  for (const EventId id : ids) EXPECT_TRUE(q.cancel(id));
  EXPECT_TRUE(q.empty());
  // All 10k entries are dead; compaction must have swept nearly all of
  // them without a pop ever happening.
  EXPECT_LE(q.heap_entries(), 128u);
  EXPECT_EQ(q.next_time(), SimTime::max());
}

TEST(EventQueue, SlotReuseKeepsIdsDistinct) {
  EventQueue q;
  const EventId a = q.schedule(SimTime::seconds(1), [] {});
  ASSERT_TRUE(q.cancel(a));
  // The freed slot is recycled; the stale id must not cancel the new one.
  const EventId b = q.schedule(SimTime::seconds(2), [] {});
  EXPECT_FALSE(q.cancel(a));
  EXPECT_EQ(q.size(), 1u);
  EXPECT_TRUE(q.cancel(b));
  EXPECT_TRUE(q.empty());
}

TEST(EventQueue, CancelAllThenScheduleReusesFreeList) {
  EventQueue q;
  std::vector<EventId> ids;
  for (int i = 0; i < 512; ++i)
    ids.push_back(q.schedule(SimTime::micros(i), [] {}));
  for (const EventId id : ids) ASSERT_TRUE(q.cancel(id));
  ASSERT_TRUE(q.empty());
  // Refilling after a full cancel must recycle the freed slab slots: the
  // queue behaves exactly like a fresh one, stale ids stay dead, and the
  // tombstone sweep left no residue that a new population could trip on.
  std::vector<int> fired;
  for (int i = 0; i < 512; ++i)
    q.schedule(SimTime::micros(i), [&fired, i] { fired.push_back(i); });
  EXPECT_EQ(q.size(), 512u);
  for (const EventId stale : ids) EXPECT_FALSE(q.cancel(stale));
  EXPECT_EQ(q.size(), 512u);
  while (!q.empty()) q.pop().cb();
  ASSERT_EQ(fired.size(), 512u);
  for (int i = 0; i < 512; ++i) EXPECT_EQ(fired[i], i);
}

TEST(EventQueue, TombstoneBoundHoldsUnderAdversarialCancels) {
  // Worst-case cancellation pressure: keep a rolling window of pending
  // events and always cancel the oldest half, so tombstones are minted
  // as fast as possible. Every round also starts periodic series on two
  // lanes and stops the oldest half of them, so lane tombstones pile up
  // alongside heap ones. After every operation the documented bound must
  // hold: heap and lane entries (incl. tombstones) <= max(live + 64,
  // 2 * live), +1 slack for the entry being sifted during the triggering
  // insert.
  EventQueue q;
  const auto check_bound = [&q] {
    const std::size_t live = q.size();
    const std::size_t bound = std::max(live + 64, 2 * live) + 1;
    EXPECT_LE(q.heap_entries(), bound) << "live=" << live;
  };
  const EventQueue::Lane polls = q.lane_for(SimTime::millis(100));
  const EventQueue::Lane beats = q.lane_for(SimTime::seconds(2));
  std::vector<EventId> window;
  std::vector<EventId> series;
  std::int64_t t = 0;
  for (int round = 0; round < 50; ++round) {
    for (int i = 0; i < 40; ++i) {
      window.push_back(q.schedule(SimTime::micros(t), [] {}));
      const EventQueue::Lane lane = i % 2 == 0 ? polls : beats;
      series.push_back(q.schedule(SimTime::micros(t), [] {}, lane));
      ++t;
      check_bound();
    }
    const std::size_t half = window.size() / 2;
    for (std::size_t i = 0; i < half; ++i) {
      ASSERT_TRUE(q.cancel(window[i]));
      check_bound();
      ASSERT_TRUE(q.cancel(series[i]));
      check_bound();
    }
    window.erase(window.begin(),
                 window.begin() + static_cast<std::ptrdiff_t>(half));
    series.erase(series.begin(),
                 series.begin() + static_cast<std::ptrdiff_t>(half));
  }
  // Drain what's left; the live events must all still fire.
  std::size_t fired = 0;
  while (!q.empty()) {
    q.pop().cb();
    ++fired;
    check_bound();
  }
  EXPECT_EQ(fired, window.size() + series.size());
}

TEST(EventQueue, PopBatchKeepsFifoAcrossCompaction) {
  EventQueue q;
  // A same-deadline run of 100, plus enough cancellable filler to force
  // a tombstone compaction while the run is still pending.
  std::vector<int> fired;
  for (int i = 0; i < 100; ++i)
    q.schedule(SimTime::seconds(1), [&fired, i] { fired.push_back(i); });
  std::vector<EventId> filler;
  for (int i = 0; i < 400; ++i)
    filler.push_back(q.schedule(SimTime::seconds(2), [] {}));
  for (const EventId id : filler) ASSERT_TRUE(q.cancel(id));
  // 400 tombstones against 100 live guarantees a compaction happened.
  ASSERT_LE(q.heap_entries(), 2 * q.size() + 65);

  std::vector<EventQueue::Popped> out;
  std::size_t claimed = q.pop_batch(64, out);
  EXPECT_EQ(claimed, 64u);

  // Force a second compaction between the two batch claims, with the
  // tail of the run still in the heap.
  filler.clear();
  for (int i = 0; i < 400; ++i)
    filler.push_back(q.schedule(SimTime::seconds(3), [] {}));
  for (const EventId id : filler) ASSERT_TRUE(q.cancel(id));

  claimed += q.pop_batch(64, out);
  EXPECT_EQ(claimed, 100u);
  for (auto& p : out) {
    EXPECT_EQ(p.when, SimTime::seconds(1));
    p.cb();
  }
  ASSERT_EQ(fired.size(), 100u);
  // FIFO must survive both compactions: schedule order, exactly.
  for (int i = 0; i < 100; ++i) EXPECT_EQ(fired[i], i);
}

TEST(EventQueue, PopBatchStopsAtDeadlineBoundary) {
  EventQueue q;
  for (int i = 0; i < 5; ++i) q.schedule(SimTime::seconds(1), [] {});
  q.schedule(SimTime::seconds(2), [] {});
  std::vector<EventQueue::Popped> out;
  // max_n exceeds the run length: only the same-deadline run is claimed.
  EXPECT_EQ(q.pop_batch(100, out), 5u);
  EXPECT_EQ(q.size(), 1u);
  EXPECT_EQ(q.next_time(), SimTime::seconds(2));
}

TEST(EventQueue, LanesMergeWithHeapInScheduleOrder) {
  // Lane and heap entries at shared instants: the pop order is (when,
  // seq) — schedule order within an instant — whichever container holds
  // each entry.
  EventQueue q;
  const EventQueue::Lane a = q.lane_for(SimTime::millis(100));
  const EventQueue::Lane b = q.lane_for(SimTime::seconds(2));
  std::vector<int> fired;
  const auto log = [&fired](int tag) { return [&fired, tag] { fired.push_back(tag); }; };
  q.schedule(SimTime::seconds(1), log(0), a);
  q.schedule(SimTime::seconds(1), log(1));
  q.schedule(SimTime::seconds(1), log(2), b);
  q.schedule(SimTime::seconds(2), log(5), a);
  q.schedule(SimTime::micros(500), log(-1));
  q.schedule(SimTime::seconds(1), log(3), a);  // behind lane a's tail: heap
  q.schedule(SimTime::seconds(1), log(4));
  q.schedule(SimTime::seconds(2), log(6), b);
  EXPECT_EQ(q.size(), 8u);
  EXPECT_EQ(q.heap_entries(), 8u);
  EXPECT_EQ(q.next_time(), SimTime::micros(500));
  while (!q.empty()) q.pop().cb();
  EXPECT_EQ(fired, (std::vector<int>{-1, 0, 1, 2, 3, 4, 5, 6}));
}

TEST(EventQueue, OutOfOrderLaneEntryFallsBackToHeap) {
  // A lane only takes entries that keep it sorted; an earlier `when`
  // goes to the heap and still pops first.
  EventQueue q;
  const EventQueue::Lane lane = q.lane_for(SimTime::seconds(1));
  std::vector<int> fired;
  q.schedule(SimTime::seconds(5), [&fired] { fired.push_back(5); }, lane);
  q.schedule(SimTime::seconds(3), [&fired] { fired.push_back(3); }, lane);
  q.schedule(SimTime::seconds(5), [&fired] { fired.push_back(6); }, lane);
  EXPECT_EQ(q.next_time(), SimTime::seconds(3));
  while (!q.empty()) q.pop().cb();
  EXPECT_EQ(fired, (std::vector<int>{3, 5, 6}));
}

TEST(EventQueue, LaneCapFallsBackToHeap) {
  EventQueue q;
  for (std::size_t i = 0; i < EventQueue::kMaxLanes; ++i) {
    const EventQueue::Lane lane =
        q.lane_for(SimTime::millis(static_cast<std::int64_t>(i + 1)));
    EXPECT_EQ(lane, i);
  }
  // Known intervals keep their lane; a new one past the cap gets none.
  EXPECT_EQ(q.lane_for(SimTime::millis(3)), 2u);
  EXPECT_EQ(q.lane_for(SimTime::seconds(9)), EventQueue::kNoLane);
  std::vector<int> fired;
  q.schedule(SimTime::seconds(2), [&fired] { fired.push_back(2); },
             EventQueue::kNoLane);
  q.schedule(SimTime::seconds(1), [&fired] { fired.push_back(1); }, 7);
  while (!q.empty()) q.pop().cb();
  EXPECT_EQ(fired, (std::vector<int>{1, 2}));
}

TEST(EventQueue, CancelledLaneHeadIsSkipped) {
  EventQueue q;
  const EventQueue::Lane lane = q.lane_for(SimTime::seconds(1));
  const EventId head = q.schedule(SimTime::seconds(1), [] {}, lane);
  q.schedule(SimTime::seconds(2), [] {}, lane);
  q.schedule(SimTime::seconds(3), [] {});
  ASSERT_TRUE(q.cancel(head));
  EXPECT_FALSE(q.cancel(head));
  EXPECT_EQ(q.size(), 2u);
  EXPECT_EQ(q.next_time(), SimTime::seconds(2));
  EXPECT_EQ(q.pop().when, SimTime::seconds(2));
  EXPECT_EQ(q.pop().when, SimTime::seconds(3));
  EXPECT_TRUE(q.empty());
  EXPECT_EQ(q.heap_entries(), 0u);
}

TEST(EventQueue, LaneCompactionKeepsFifo) {
  // 300 series entries on one lane, every other one cancelled, plus heap
  // filler cancelled to force a compaction sweep over both: the survivors
  // still pop in schedule order, and the sweep leaves no tombstones.
  EventQueue q;
  const EventQueue::Lane lane = q.lane_for(SimTime::millis(100));
  std::vector<int> fired;
  std::vector<EventId> ids;
  for (int i = 0; i < 300; ++i) {
    ids.push_back(q.schedule(SimTime::millis(i / 3),
                             [&fired, i] { fired.push_back(i); }, lane));
  }
  for (std::size_t i = 0; i < ids.size(); i += 2) ASSERT_TRUE(q.cancel(ids[i]));
  std::vector<EventId> filler;
  for (int i = 0; i < 400; ++i)
    filler.push_back(q.schedule(SimTime::seconds(9), [] {}));
  for (const EventId id : filler) ASSERT_TRUE(q.cancel(id));
  ASSERT_LE(q.heap_entries(), 2 * q.size() + 65);
  // Appends after the sweep still land in order behind the survivors.
  q.schedule(SimTime::seconds(1), [&fired] { fired.push_back(1000); }, lane);
  while (!q.empty()) q.pop().cb();
  std::vector<int> expected;
  for (int i = 1; i < 300; i += 2) expected.push_back(i);
  expected.push_back(1000);
  EXPECT_EQ(fired, expected);
}

TEST(EventQueue, PopBatchMergesLaneAndHeapAtSharedDeadline) {
  // One deadline held by heap entries on both sides of a lane entry (and
  // a staged run in front): pop_batch claims all of them, in schedule
  // order, and stops before the next deadline.
  EventQueue q;
  const EventQueue::Lane lane = q.lane_for(SimTime::millis(100));
  std::vector<int> fired;
  const auto log = [&fired](int tag) { return [&fired, tag] { fired.push_back(tag); }; };
  const EventQueue::Lane other = q.lane_for(SimTime::seconds(2));
  q.schedule(SimTime::seconds(1), log(0));
  q.schedule(SimTime::seconds(1), log(1), lane);
  q.schedule(SimTime::seconds(1), log(2));
  q.schedule(SimTime::seconds(1), log(3), lane);
  q.schedule(SimTime::seconds(1), log(4), other);
  q.schedule(SimTime::seconds(1), log(5));
  q.schedule(SimTime::seconds(2), log(6), lane);
  EXPECT_EQ(q.next_time(), SimTime::seconds(1));  // stages the heap run
  std::vector<EventQueue::Popped> out;
  EXPECT_EQ(q.pop_batch(100, out), 6u);
  for (auto& p : out) {
    EXPECT_EQ(p.when, SimTime::seconds(1));
    p.cb();
  }
  EXPECT_EQ(fired, (std::vector<int>{0, 1, 2, 3, 4, 5}));
  EXPECT_EQ(q.size(), 1u);
  EXPECT_EQ(q.next_time(), SimTime::seconds(2));
}

TEST(EventQueue, ManyInterleavedCancellations) {
  EventQueue q;
  std::vector<EventId> ids;
  int fired = 0;
  for (int i = 0; i < 1000; ++i) {
    ids.push_back(q.schedule(SimTime::micros(i), [&] { ++fired; }));
  }
  for (std::size_t i = 0; i < ids.size(); i += 2) q.cancel(ids[i]);
  EXPECT_EQ(q.size(), 500u);
  while (!q.empty()) q.pop().cb();
  EXPECT_EQ(fired, 500);
}

}  // namespace
}  // namespace hpcwhisk::sim
