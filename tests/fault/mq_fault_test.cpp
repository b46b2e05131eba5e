// The mq injection seam in isolation: per-topic fault filters dropping,
// delaying and duplicating publishes, and broker-wide installation via
// the topic hook.

#include <gtest/gtest.h>

#include <algorithm>

#include "hpcwhisk/mq/broker.hpp"
#include "hpcwhisk/mq/topic.hpp"
#include "hpcwhisk/sim/simulation.hpp"

namespace hpcwhisk::mq {
namespace {

using sim::SimTime;
using sim::Simulation;

Message msg(std::uint64_t id) {
  Message m;
  m.id = id;
  return m;
}

TEST(TopicFault, DropSwallowsThePublish) {
  Topic topic{"t"};
  topic.set_fault_filter(
      [](const Message&) {
        Topic::FaultAction a;
        a.drop = true;
        return a;
      },
      nullptr);
  topic.publish(msg(1), SimTime::zero());
  EXPECT_EQ(topic.size(), 0u);
  EXPECT_EQ(topic.counters().published, 0u);
  EXPECT_EQ(topic.counters().fault_dropped, 1u);
}

TEST(TopicFault, DelayHoldsDeliveryOnTheVirtualClock) {
  Simulation sim;
  Topic topic{"t"};
  topic.set_fault_filter(
      [](const Message&) {
        Topic::FaultAction a;
        a.delay = SimTime::seconds(5);
        return a;
      },
      &sim);
  topic.publish(msg(1), sim.now());
  EXPECT_EQ(topic.size(), 0u) << "message must be in flight, not queued";
  EXPECT_EQ(topic.counters().fault_delayed, 1u);
  sim.run_until(SimTime::seconds(5));
  ASSERT_EQ(topic.size(), 1u);
  const auto m = topic.poll_one();
  ASSERT_TRUE(m.has_value());
  // The message materialized at delivery time.
  EXPECT_EQ(m->first_published, SimTime::seconds(5));
}

TEST(TopicFault, DelayWithoutSimulationDegradesToImmediate) {
  Topic topic{"t"};
  topic.set_fault_filter(
      [](const Message&) {
        Topic::FaultAction a;
        a.delay = SimTime::seconds(5);
        return a;
      },
      nullptr);
  topic.publish(msg(1), SimTime::zero());
  EXPECT_EQ(topic.size(), 1u);
  EXPECT_EQ(topic.counters().fault_delayed, 0u);
}

TEST(TopicFault, DuplicateEnqueuesExtraCopies) {
  Topic topic{"t"};
  topic.set_fault_filter(
      [](const Message&) {
        Topic::FaultAction a;
        a.extra_copies = 2;
        return a;
      },
      nullptr);
  topic.publish(msg(7), SimTime::zero());
  EXPECT_EQ(topic.size(), 3u);
  EXPECT_EQ(topic.counters().fault_duplicated, 2u);
  // All copies carry the same activation id: the consumer-side
  // deliverable() guard is what must dedup them.
  for (int i = 0; i < 3; ++i) {
    const auto m = topic.poll_one();
    ASSERT_TRUE(m.has_value());
    EXPECT_EQ(m->id, 7u);
  }
}

TEST(TopicFault, ClearedFilterRestoresNormalDelivery) {
  Topic topic{"t"};
  topic.set_fault_filter(
      [](const Message&) {
        Topic::FaultAction a;
        a.drop = true;
        return a;
      },
      nullptr);
  topic.publish(msg(1), SimTime::zero());
  topic.set_fault_filter(nullptr, nullptr);
  topic.publish(msg(2), SimTime::zero());
  EXPECT_EQ(topic.size(), 1u);
}

TEST(BrokerFault, TopicHookCoversExistingAndFutureTopics) {
  Broker broker;
  Topic& existing = broker.topic("pre");
  broker.set_topic_hook([](Topic& t) {
    t.set_fault_filter(
        [](const Message&) {
          Topic::FaultAction a;
          a.drop = true;
          return a;
        },
        nullptr);
  });
  Topic& later = broker.topic("post");
  existing.publish(msg(1), SimTime::zero());
  later.publish(msg(2), SimTime::zero());
  EXPECT_EQ(existing.counters().fault_dropped, 1u);
  EXPECT_EQ(later.counters().fault_dropped, 1u);
}

TEST(BrokerFault, TopicNamesAreSorted) {
  Broker broker;
  broker.topic("zeta");
  broker.topic("alpha");
  broker.topic("midway");
  const auto names = broker.topic_names();
  ASSERT_TRUE(std::is_sorted(names.begin(), names.end()));
  // fast-lane is created by the broker itself.
  EXPECT_EQ(names.size(), 4u);
}

}  // namespace
}  // namespace hpcwhisk::mq
