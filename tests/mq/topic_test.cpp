#include "hpcwhisk/mq/topic.hpp"

#include <gtest/gtest.h>

#include <type_traits>
#include <vector>

namespace hpcwhisk::mq {
namespace {

using sim::SimTime;

// The per-call path copies messages on every publish, buffer move and
// requeue: keep them a small, trivially copyable id carrier.
static_assert(sizeof(Message) <= 24);
static_assert(std::is_trivially_copyable_v<Message>);

Message make(std::uint64_t id) {
  Message m;
  m.id = id;
  return m;
}

std::vector<Message> poll(Topic& t, std::size_t max_count) {
  std::vector<Message> out;
  (void)t.poll_into(max_count, out);
  return out;
}

TEST(Topic, FifoOrder) {
  Topic t{"t"};
  for (std::uint64_t i = 0; i < 5; ++i) t.publish(make(i), SimTime::zero());
  const auto msgs = poll(t, 5);
  ASSERT_EQ(msgs.size(), 5u);
  for (std::uint64_t i = 0; i < 5; ++i) EXPECT_EQ(msgs[i].id, i);
}

TEST(Topic, PollRespectsMaxCount) {
  Topic t{"t"};
  for (std::uint64_t i = 0; i < 10; ++i) t.publish(make(i), SimTime::zero());
  EXPECT_EQ(poll(t, 3).size(), 3u);
  EXPECT_EQ(t.size(), 7u);
}

TEST(Topic, PollOnEmptyReturnsNothing) {
  Topic t{"t"};
  EXPECT_TRUE(poll(t, 4).empty());
  EXPECT_FALSE(t.poll_one().has_value());
}

TEST(Topic, PublishStampsFirstPublishOnce) {
  Topic t{"t"};
  t.publish(make(1), SimTime::seconds(10));
  auto m = t.poll_one();
  ASSERT_TRUE(m);
  EXPECT_EQ(m->first_published, SimTime::seconds(10));
  EXPECT_EQ(m->delivery_count, 1u);

  // Re-publish (fast-lane reroute): first_published preserved, count bumped.
  t.publish(*m, SimTime::seconds(20));
  m = t.poll_one();
  ASSERT_TRUE(m);
  EXPECT_EQ(m->first_published, SimTime::seconds(10));
  EXPECT_EQ(m->delivery_count, 2u);
}

TEST(Topic, DrainRemovesEverythingInOrder) {
  Topic t{"t"};
  for (std::uint64_t i = 0; i < 4; ++i) t.publish(make(i), SimTime::zero());
  const auto drained = t.drain();
  ASSERT_EQ(drained.size(), 4u);
  EXPECT_EQ(drained.front().id, 0u);
  EXPECT_EQ(drained.back().id, 3u);
  EXPECT_TRUE(t.empty());
}

TEST(Topic, FrontPublishesLeadAndADrainedTopicIsReusable) {
  Topic t{"t"};
  for (std::uint64_t round = 0; round < 2; ++round) {
    for (std::uint64_t i = 0; i < 20; ++i) t.publish(make(i), SimTime::zero());
    t.publish_front(make(100), SimTime::zero());
    t.publish_front(make(101), SimTime::zero());
    std::vector<std::uint64_t> ids;
    for (const Message& m : poll(t, 3)) ids.push_back(m.id);
    EXPECT_EQ(ids, (std::vector<std::uint64_t>{101, 100, 0}));
    const auto drained = t.drain();
    ASSERT_EQ(drained.size(), 19u);
    EXPECT_EQ(drained.front().id, 1u);
    EXPECT_EQ(drained.back().id, 19u);
    EXPECT_TRUE(t.empty());
  }
  EXPECT_EQ(t.counters().front_published, 4u);
}

TEST(Topic, CountersTrackTraffic) {
  Topic t{"t"};
  for (std::uint64_t i = 0; i < 6; ++i) t.publish(make(i), SimTime::zero());
  (void)poll(t, 2);
  (void)t.poll_one();
  (void)t.drain();
  const auto c = t.counters();
  EXPECT_EQ(c.published, 6u);
  EXPECT_EQ(c.consumed, 3u);
  EXPECT_EQ(c.drained, 3u);
}

TEST(Topic, IdAndNamePreserved) {
  Topic t{"invoker-3"};
  EXPECT_EQ(t.name(), "invoker-3");
  t.publish(make(9), SimTime::zero());
  const auto m = t.poll_one();
  ASSERT_TRUE(m);
  EXPECT_EQ(m->id, 9u);
}

}  // namespace
}  // namespace hpcwhisk::mq
