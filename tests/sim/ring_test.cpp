#include "hpcwhisk/sim/ring.hpp"

#include <gtest/gtest.h>

#include <deque>

#include "hpcwhisk/sim/rng.hpp"

namespace hpcwhisk::sim {
namespace {

void expect_same(const Ring<int>& ring, const std::deque<int>& ref) {
  ASSERT_EQ(ring.size(), ref.size());
  ASSERT_EQ(ring.empty(), ref.empty());
  for (std::size_t k = 0; k < ref.size(); ++k) ASSERT_EQ(ring[k], ref[k]);
  if (!ref.empty()) {
    ASSERT_EQ(ring.front(), ref.front());
    ASSERT_EQ(ring.back(), ref.back());
  }
}

// Seeded mixes of pushes at both ends and pops from the front, checked
// against std::deque after every step. Pushes outweigh pops, so the ring
// grows from every head position, wrapped or not.
TEST(Ring, MatchesDequeUnderSeededMixes) {
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    Rng rng{seed};
    Ring<int> ring;
    std::deque<int> ref;
    int next = 0;
    for (int step = 0; step < 2000; ++step) {
      const std::int64_t roll = rng.uniform_int(0, 9);
      if (roll < 4) {
        ring.push_back(next);
        ref.push_back(next++);
      } else if (roll < 7) {
        ring.push_front(next);
        ref.push_front(next++);
      } else if (!ref.empty()) {
        ring.pop_front();
        ref.pop_front();
      }
      expect_same(ring, ref);
    }
  }
}

TEST(Ring, GrowsWhileWrapped) {
  Ring<int> ring;
  std::deque<int> ref;
  // Fill the first buffer, then rotate the head past the end of it.
  for (int i = 0; i < 16; ++i) {
    ring.push_back(i);
    ref.push_back(i);
  }
  const std::size_t first = ring.capacity();
  for (int i = 16; i < 26; ++i) {
    ring.pop_front();
    ref.pop_front();
    ring.push_back(i);
    ref.push_back(i);
  }
  ASSERT_EQ(ring.capacity(), first);
  // Full and wrapped: the next pushes at either end grow it.
  ring.push_front(-1);
  ref.push_front(-1);
  ring.push_back(26);
  ref.push_back(26);
  EXPECT_EQ(ring.capacity(), 2 * first);
  expect_same(ring, ref);
}

TEST(Ring, ResetFreesTheBufferAndAllowsReuse) {
  Ring<int> ring;
  for (int i = 0; i < 100; ++i) ring.push_back(i);
  ring.pop_front();
  ASSERT_GT(ring.capacity(), 0u);
  ring.reset();
  EXPECT_TRUE(ring.empty());
  EXPECT_EQ(ring.size(), 0u);
  EXPECT_EQ(ring.capacity(), 0u);

  ring.push_front(7);
  ring.push_back(8);
  ring.push_front(6);
  expect_same(ring, std::deque<int>{6, 7, 8});
  ring.pop_front();
  expect_same(ring, std::deque<int>{7, 8});
}

}  // namespace
}  // namespace hpcwhisk::sim
