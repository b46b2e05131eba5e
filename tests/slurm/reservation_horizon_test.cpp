// Differential tests of the backfill reservation heap. ReservationHorizon
// must book exactly what the per-blocked-job rescan it replaced booked
// (rebuild every bookable node's (planning time, node) pair, partial-sort
// the first k), and exactly what a brute-force reference that sorts every
// pair books, over seeded random planning timelines and raise/book
// sequences.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <utility>
#include <vector>

#include "hpcwhisk/sim/rng.hpp"
#include "hpcwhisk/slurm/reservation_horizon.hpp"

namespace hpcwhisk::slurm {
namespace {

using sim::SimTime;
using Timeline = std::vector<SimTime>;

/// The rescan booking, as Slurmctld::run_sched_pass did it per blocked job.
struct RescanBooking {
  std::vector<std::pair<SimTime, NodeId>> horizon;

  bool book(Timeline& scratch, Timeline& reserved_from, std::uint32_t num_nodes,
            SimTime time_limit, SimTime latest_start) {
    horizon.clear();
    horizon.reserve(scratch.size());
    for (std::size_t id = 0; id < scratch.size(); ++id) {
      if (scratch[id] == SimTime::max()) continue;
      horizon.emplace_back(scratch[id], static_cast<NodeId>(id));
    }
    if (horizon.size() >= num_nodes) {
      std::nth_element(horizon.begin(), horizon.begin() + (num_nodes - 1),
                       horizon.end());
      const SimTime res_start = horizon[num_nodes - 1].first;
      if (res_start <= latest_start) {
        for (std::uint32_t k = 0; k < num_nodes; ++k) {
          const NodeId n = horizon[k].second;
          reserved_from[n] = std::min(reserved_from[n], res_start);
          scratch[n] = res_start + time_limit;
        }
        return true;
      }
    }
    return false;
  }
};

/// How often each case the test must cover came up over all seeds.
struct Coverage {
  std::uint64_t booked{0};
  std::uint64_t short_of_nodes{0};    ///< k above the bookable count
  std::uint64_t past_window{0};       ///< enough nodes, start too late
  std::uint64_t k_equals_live{0};     ///< booked every bookable node
  std::uint64_t unchanged_raise{0};   ///< a launch that left the time as is
  std::uint64_t raise_after_build{0}; ///< a launch once the heap exists
};

/// A planning timeline over a few distinct times (so ties are common)
/// with some nodes down.
Timeline random_timeline(sim::Rng& rng, std::size_t nodes) {
  Timeline t(nodes);
  for (SimTime& x : t) {
    x = rng.bernoulli(0.15) ? SimTime::max()
                            : SimTime::minutes(rng.uniform_int(0, 6) * 10);
  }
  return t;
}

std::uint32_t live_count(const Timeline& t) {
  return static_cast<std::uint32_t>(
      std::count_if(t.begin(), t.end(),
                    [](SimTime x) { return x != SimTime::max(); }));
}

/// One scheduling pass: a few tiers, each with a fresh timeline, and a
/// random mix of launches and bookings per tier. The reserved-from
/// picture carries over between tiers as it does in the pass.
void run_pass(std::uint64_t seed, Coverage& cov) {
  sim::Rng rng{seed};
  const auto nodes = static_cast<std::size_t>(rng.uniform_int(1, 40));
  const SimTime window = SimTime::minutes(rng.uniform_int(0, 8) * 10);
  Timeline ref_reserved(nodes, SimTime::max());
  Timeline heap_reserved = ref_reserved;
  std::size_t ref_made = 0;
  std::size_t heap_made = 0;
  RescanBooking rescan;
  ReservationHorizon horizon;

  const auto tiers = rng.uniform_int(1, 3);
  for (std::int64_t tier = 0; tier < tiers; ++tier) {
    Timeline ref_timeline = random_timeline(rng, nodes);
    Timeline heap_timeline = ref_timeline;
    horizon.reset(heap_timeline, window);
    bool booked_once = false;
    const auto steps = rng.uniform_int(1, 60);
    for (std::int64_t step = 0; step < steps; ++step) {
      SCOPED_TRACE(::testing::Message() << "seed " << seed << " tier " << tier
                                        << " step " << step);
      if (rng.bernoulli(0.5)) {
        // A launch on 1-3 nodes: raise to a time that is sometimes at or
        // below the node's current planning time.
        const auto count = rng.uniform_int(1, 3);
        for (std::int64_t i = 0; i < count; ++i) {
          const auto n = static_cast<NodeId>(rng.uniform_int(
              0, static_cast<std::int64_t>(nodes) - 1));
          const SimTime current = ref_timeline[n];
          SimTime until = SimTime::minutes(rng.uniform_int(0, 12) * 10);
          if (current != SimTime::max() && rng.bernoulli(0.25)) until = current;
          if (until <= current) ++cov.unchanged_raise;
          if (booked_once) ++cov.raise_after_build;
          ref_timeline[n] = std::max(ref_timeline[n], until);
          horizon.raise(n, until);
        }
      } else {
        // A blocked job: k at, one above, or anywhere up to the number of
        // bookable nodes.
        const std::uint32_t live = live_count(ref_timeline);
        std::uint32_t k = 0;
        switch (rng.uniform_int(0, 2)) {
          case 0: k = std::max<std::uint32_t>(live, 1); break;
          case 1: k = live + 1; break;
          default:
            k = static_cast<std::uint32_t>(
                rng.uniform_int(1, std::max<std::int64_t>(live, 1)));
        }
        const SimTime length = SimTime::minutes(rng.uniform_int(1, 6) * 10);
        const bool ref_ok =
            rescan.book(ref_timeline, ref_reserved, k, length, window);
        const bool heap_ok = horizon.book(k, length, heap_reserved);
        EXPECT_EQ(heap_ok, ref_ok);
        booked_once = true;
        if (ref_ok) {
          ++ref_made;
          ++cov.booked;
          if (k == live) ++cov.k_equals_live;
        } else if (k > live) {
          ++cov.short_of_nodes;
        } else {
          ++cov.past_window;
        }
        if (heap_ok) ++heap_made;
      }
      ASSERT_EQ(heap_timeline, ref_timeline);
      ASSERT_EQ(heap_reserved, ref_reserved);
      ASSERT_EQ(heap_made, ref_made);
    }
  }
}

TEST(ReservationHorizon, BooksExactlyWhatTheRescanBooked) {
  Coverage cov;
  for (std::uint64_t seed = 1; seed <= 2000; ++seed) {
    run_pass(seed, cov);
    if (::testing::Test::HasFatalFailure()) return;
  }
  // Every case the heap's exactness rests on was exercised.
  EXPECT_GT(cov.booked, 1000u);
  EXPECT_GT(cov.short_of_nodes, 100u);
  EXPECT_GT(cov.past_window, 100u);
  EXPECT_GT(cov.k_equals_live, 100u);
  EXPECT_GT(cov.unchanged_raise, 1000u);
  EXPECT_GT(cov.raise_after_build, 1000u);
}

/// The brute-force reference: sort every bookable (planning time, node)
/// pair and take the first k.
bool sorted_booking(Timeline& timeline, Timeline& reserved_from,
                    std::uint32_t num_nodes, SimTime length,
                    SimTime latest_start) {
  std::vector<std::pair<SimTime, NodeId>> pairs;
  for (std::size_t n = 0; n < timeline.size(); ++n) {
    if (timeline[n] != SimTime::max())
      pairs.emplace_back(timeline[n], static_cast<NodeId>(n));
  }
  std::sort(pairs.begin(), pairs.end());
  if (pairs.size() < num_nodes) return false;
  const SimTime start = pairs[num_nodes - 1].first;
  if (start > latest_start) return false;
  for (std::uint32_t k = 0; k < num_nodes; ++k) {
    const NodeId n = pairs[k].second;
    reserved_from[n] = std::min(reserved_from[n], start);
    timeline[n] = start + length;
  }
  return true;
}

/// The nodes a booking moved: a booked node's planning time always moves
/// (to start + length > start >= its old time), every other node's stays.
std::vector<NodeId> moved_nodes(const Timeline& before, const Timeline& after) {
  std::vector<NodeId> out;
  for (std::size_t n = 0; n < before.size(); ++n) {
    if (before[n] != after[n]) out.push_back(static_cast<NodeId>(n));
  }
  return out;
}

TEST(ReservationHorizon, MatchesASortedReferenceUnderRandomRaisesAndBookings) {
  // How often each case came up: entries that start past the tier's
  // latest start, raises and bookings that push a node past it, and both
  // ways a booking fails.
  std::uint64_t booked = 0;
  std::uint64_t failed_short = 0;
  std::uint64_t failed_late = 0;
  std::uint64_t late_at_reset = 0;
  std::uint64_t raised_late = 0;
  std::uint64_t booked_late = 0;
  for (std::uint64_t seed = 1; seed <= 1500; ++seed) {
    sim::Rng rng{seed};
    const auto nodes = static_cast<std::size_t>(rng.uniform_int(1, 48));
    Timeline ref_reserved(nodes, SimTime::max());
    Timeline heap_reserved = ref_reserved;
    ReservationHorizon horizon;
    const auto tiers = rng.uniform_int(1, 3);
    for (std::int64_t tier = 0; tier < tiers; ++tier) {
      // Planning times on a 5-minute grid over 0-3 h (many ties), a
      // latest start somewhere inside that span, some nodes down.
      const SimTime latest = SimTime::minutes(rng.uniform_int(0, 36) * 5);
      Timeline ref(nodes);
      for (SimTime& t : ref) {
        t = rng.bernoulli(0.1) ? SimTime::max()
                               : SimTime::minutes(rng.uniform_int(0, 36) * 5);
        if (t != SimTime::max() && t > latest) ++late_at_reset;
      }
      Timeline heap = ref;
      horizon.reset(heap, latest);
      const auto steps = rng.uniform_int(1, 80);
      for (std::int64_t step = 0; step < steps; ++step) {
        SCOPED_TRACE(::testing::Message() << "seed " << seed << " tier "
                                          << tier << " step " << step);
        if (rng.bernoulli(0.4)) {
          const auto n = static_cast<NodeId>(
              rng.uniform_int(0, static_cast<std::int64_t>(nodes) - 1));
          const SimTime until = SimTime::minutes(rng.uniform_int(0, 48) * 5);
          if (until > ref[n] && until > latest) ++raised_late;
          ref[n] = std::max(ref[n], until);
          horizon.raise(n, until);
        } else {
          const std::uint32_t live = live_count(ref);
          const auto k = static_cast<std::uint32_t>(rng.uniform_int(
              1, static_cast<std::int64_t>(std::max<std::uint32_t>(live, 1)) +
                     1));
          const SimTime length = SimTime::minutes(rng.uniform_int(1, 12) * 5);
          const Timeline before = ref;
          const bool ref_ok = sorted_booking(ref, ref_reserved, k, length, latest);
          const bool heap_ok = horizon.book(k, length, heap_reserved);
          ASSERT_EQ(heap_ok, ref_ok);
          ASSERT_EQ(moved_nodes(before, heap), moved_nodes(before, ref));
          if (!ref_ok) {
            ++(k > live ? failed_short : failed_late);
          } else {
            ++booked;
            for (const NodeId n : moved_nodes(before, ref)) {
              if (ref[n] > latest) ++booked_late;
            }
          }
        }
        ASSERT_EQ(heap, ref);
        ASSERT_EQ(heap_reserved, ref_reserved);
      }
    }
  }
  EXPECT_GT(booked, 1000u);
  EXPECT_GT(failed_short, 100u);
  EXPECT_GT(failed_late, 100u);
  EXPECT_GT(late_at_reset, 1000u);
  EXPECT_GT(raised_late, 1000u);
  EXPECT_GT(booked_late, 1000u);
}

TEST(ReservationHorizon, TiesGoToTheLowestNodeId) {
  Timeline timeline(4, SimTime::minutes(10));
  Timeline reserved(4, SimTime::max());
  ReservationHorizon horizon;
  horizon.reset(timeline, SimTime::hours(2));
  ASSERT_TRUE(horizon.book(2, SimTime::minutes(30), reserved));
  EXPECT_EQ(reserved, (Timeline{SimTime::minutes(10), SimTime::minutes(10),
                                SimTime::max(), SimTime::max()}));
  EXPECT_EQ(timeline[0], SimTime::minutes(40));
  EXPECT_EQ(timeline[2], SimTime::minutes(10));
}

TEST(ReservationHorizon, DownNodesAreNeverBooked) {
  Timeline timeline{SimTime::max(), SimTime::minutes(5), SimTime::max()};
  Timeline reserved(3, SimTime::max());
  ReservationHorizon horizon;
  horizon.reset(timeline, SimTime::hours(2));
  EXPECT_FALSE(horizon.book(2, SimTime::minutes(30), reserved));
  EXPECT_EQ(reserved, Timeline(3, SimTime::max()));
  // The failed booking gave its node back.
  EXPECT_TRUE(horizon.book(1, SimTime::minutes(30), reserved));
  EXPECT_EQ(reserved[1], SimTime::minutes(5));
}

TEST(ReservationHorizon, ALaunchMovesTheNodeBehindLaterOnes) {
  Timeline timeline{SimTime::minutes(0), SimTime::minutes(20),
                    SimTime::minutes(30)};
  Timeline reserved(3, SimTime::max());
  ReservationHorizon horizon;
  horizon.reset(timeline, SimTime::hours(2));
  // Build the heap with a booking wider than the cluster.
  EXPECT_FALSE(horizon.book(4, SimTime::minutes(10), reserved));
  horizon.raise(0, SimTime::minutes(60));
  ASSERT_TRUE(horizon.book(2, SimTime::minutes(10), reserved));
  EXPECT_EQ(reserved, (Timeline{SimTime::max(), SimTime::minutes(30),
                                SimTime::minutes(30)}));
}

}  // namespace
}  // namespace hpcwhisk::slurm
