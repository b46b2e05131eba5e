#include "hpcwhisk/mq/broker.hpp"

#include <gtest/gtest.h>

#include <string>
#include <vector>

namespace hpcwhisk::mq {
namespace {

TEST(Broker, FastLaneExistsOnConstruction) {
  Broker b;
  EXPECT_EQ(b.fast_lane().name(), Broker::kFastLane);
  EXPECT_NE(b.find(Broker::kFastLane), nullptr);
}

TEST(Broker, TopicCreatesOnDemand) {
  Broker b;
  EXPECT_EQ(b.find("x"), nullptr);
  Topic& t = b.topic("x");
  EXPECT_EQ(&b.topic("x"), &t);  // same instance on second access
  EXPECT_EQ(b.find("x"), &t);
}

TEST(Broker, TopicPointersStable) {
  Broker b;
  Topic& first = b.topic("a");
  for (int i = 0; i < 100; ++i) {
    std::string name{"t"};
    name += std::to_string(i);
    b.topic(name);
  }
  EXPECT_EQ(&b.topic("a"), &first);
}

TEST(Broker, TopicNamesListsAll) {
  Broker b;
  b.topic("b");
  b.topic("a");
  auto names = b.topic_names();
  EXPECT_EQ(names.size(), 3u);  // a, b, fast-lane
  // A topic created after an earlier listing shows up in the next one.
  b.topic("c");
  names = b.topic_names();
  EXPECT_EQ(names, (std::vector<std::string>{"a", "b", "c", "fast-lane"}));
}

TEST(Broker, ResolveReturnsStableHandle) {
  Broker b;
  Topic& queue = b.topic("queue");
  // topic() and find() reach the same instance, and the reference
  // survives arbitrary later topic creation.
  for (int i = 0; i < 100; ++i) b.topic("other" + std::to_string(i));
  EXPECT_EQ(&b.topic("queue"), &queue);
  EXPECT_EQ(b.find("queue"), &queue);
}

TEST(Topic, PollIntoAppendsWithoutClearing) {
  Broker b;
  Topic& t = b.topic("x");
  for (std::uint64_t i = 0; i < 6; ++i) {
    Message m;
    m.id = i;
    t.publish(std::move(m), sim::SimTime::zero());
  }
  std::vector<Message> scratch;
  EXPECT_EQ(t.poll_into(4, scratch), 4u);
  EXPECT_FALSE(t.empty());
  EXPECT_EQ(t.poll_into(4, scratch), 2u);  // drains the remainder
  EXPECT_TRUE(t.empty());
  EXPECT_EQ(t.poll_into(4, scratch), 0u);  // empty poll
  ASSERT_EQ(scratch.size(), 6u);
  for (std::uint64_t i = 0; i < 6; ++i) EXPECT_EQ(scratch[i].id, i);
}

}  // namespace
}  // namespace hpcwhisk::mq
