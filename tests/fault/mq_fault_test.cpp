// The mq injection seam in isolation: per-topic fault filters dropping,
// delaying and duplicating publishes, and broker-wide installation via
// the topic hook.

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

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

// Every TopicFault case runs on both publish sides: the fault filter
// must treat a head (deadline-class) publish exactly like a tail one,
// except where a copy lands.
constexpr bool kFronts[] = {false, true};

void publish_on(bool front, Topic& topic, Message m, SimTime now) {
  if (front) {
    topic.publish_front(m, now);
  } else {
    topic.publish(m, now);
  }
}

Topic::FaultFilter filter(Topic::FaultAction action) {
  return [action](const Message&) { return action; };
}

// Queued ids, head first; empties the topic.
std::vector<std::uint64_t> ids(Topic& topic) {
  std::vector<std::uint64_t> out;
  while (const auto m = topic.poll_one()) out.push_back(m->id);
  return out;
}

TEST(TopicFault, DropSwallowsThePublish) {
  for (const bool front : kFronts) {
    SCOPED_TRACE(front ? "publish_front" : "publish");
    Topic topic{"t"};
    topic.set_fault_filter(filter({.drop = true}), nullptr);
    publish_on(front, topic, msg(1), SimTime::zero());
    EXPECT_EQ(topic.size(), 0u);
    EXPECT_EQ(topic.counters().published, 0u);
    EXPECT_EQ(topic.counters().front_published, 0u);
    EXPECT_EQ(topic.counters().fault_dropped, 1u);
  }
}

TEST(TopicFault, DelayHoldsDeliveryOnTheVirtualClock) {
  for (const bool front : kFronts) {
    SCOPED_TRACE(front ? "publish_front" : "publish");
    Simulation sim;
    Topic topic{"t"};
    topic.publish(msg(1), sim.now());
    topic.set_fault_filter(filter({.delay = SimTime::seconds(5)}), &sim);
    publish_on(front, topic, msg(2), sim.now());
    EXPECT_EQ(topic.size(), 1u) << "message must be in flight, not queued";
    EXPECT_EQ(topic.counters().fault_delayed, 1u);
    sim.run_until(SimTime::seconds(5));
    ASSERT_EQ(topic.size(), 2u);
    // A delayed copy joins the tail when it fires, whichever side it was
    // published on, and is no front delivery.
    EXPECT_EQ(topic.counters().front_published, 0u);
    (void)topic.poll_one();
    const auto m = topic.poll_one();
    ASSERT_TRUE(m.has_value());
    EXPECT_EQ(m->id, 2u);
    // The message materialized at delivery time.
    EXPECT_EQ(m->first_published, SimTime::seconds(5));
  }
}

TEST(TopicFault, DelayWithoutSimulationDegradesToImmediate) {
  for (const bool front : kFronts) {
    SCOPED_TRACE(front ? "publish_front" : "publish");
    Topic topic{"t"};
    topic.publish(msg(1), SimTime::zero());
    topic.set_fault_filter(filter({.delay = SimTime::seconds(5)}), nullptr);
    publish_on(front, topic, msg(2), SimTime::zero());
    EXPECT_EQ(topic.counters().fault_delayed, 0u);
    EXPECT_EQ(topic.counters().front_published, front ? 1u : 0u);
    const std::vector<std::uint64_t> want =
        front ? std::vector<std::uint64_t>{2, 1}
              : std::vector<std::uint64_t>{1, 2};
    EXPECT_EQ(ids(topic), want);
  }
}

TEST(TopicFault, DuplicateEnqueuesExtraCopies) {
  for (const bool front : kFronts) {
    SCOPED_TRACE(front ? "publish_front" : "publish");
    Topic topic{"t"};
    topic.publish(msg(1), SimTime::zero());
    topic.set_fault_filter(filter({.extra_copies = 2}), nullptr);
    publish_on(front, topic, msg(7), SimTime::zero());
    EXPECT_EQ(topic.size(), 4u);
    EXPECT_EQ(topic.counters().fault_duplicated, 2u);
    // Every copy lands on the publish side and counts as a front delivery
    // there. All carry the same activation id: the consumer-side
    // deliverable() guard is what must dedup them.
    EXPECT_EQ(topic.counters().front_published, front ? 3u : 0u);
    const std::vector<std::uint64_t> want =
        front ? std::vector<std::uint64_t>{7, 7, 7, 1}
             : std::vector<std::uint64_t>{1, 7, 7, 7};
    EXPECT_EQ(ids(topic), want);
  }
}

TEST(TopicFault, ClearedFilterRestoresNormalDelivery) {
  for (const bool front : kFronts) {
    SCOPED_TRACE(front ? "publish_front" : "publish");
    Topic topic{"t"};
    topic.set_fault_filter(filter({.drop = true}), nullptr);
    publish_on(front, topic, msg(1), SimTime::zero());
    topic.set_fault_filter(nullptr, nullptr);
    publish_on(front, topic, msg(2), SimTime::zero());
    EXPECT_EQ(topic.size(), 1u);
    EXPECT_EQ(topic.counters().published, 1u);
  }
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
