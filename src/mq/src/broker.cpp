#include "hpcwhisk/mq/broker.hpp"

#include <algorithm>

#include "hpcwhisk/obs/observability.hpp"

namespace hpcwhisk::mq {

Broker::Broker() : fast_lane_{&topic(kFastLane)} {}

Topic& Broker::topic(const std::string& name) {
  auto [it, created] = by_name_.try_emplace(name);
  if (!created) return *it->second;
  it->second = std::make_unique<Topic>(name);
  Topic& t = *it->second;
  topics_.push_back(&t);
  if (topic_hook_) topic_hook_(t);
  return t;
}

Topic* Broker::find(const std::string& name) {
  const auto it = by_name_.find(name);
  return it == by_name_.end() ? nullptr : it->second.get();
}

void Broker::set_topic_hook(std::function<void(Topic&)> hook) {
  topic_hook_ = std::move(hook);
  if (!topic_hook_) return;
  for (Topic* t : topics_) topic_hook_(*t);
}

std::vector<std::string> Broker::topic_names() const {
  std::vector<std::string> names;
  names.reserve(topics_.size());
  for (const Topic* t : topics_) names.push_back(t->name());
  std::sort(names.begin(), names.end());
  return names;
}

void Broker::set_observability(obs::Observability* obs) {
  HW_OBS_IF(obs) {
    obs->metrics.add_collector([this](obs::MetricsRegistry& m) {
      Topic::Counters total;
      for (const Topic* t : topics_) {
        const Topic::Counters& c = t->counters();
        total.published += c.published;
        total.consumed += c.consumed;
        total.drained += c.drained;
        total.fault_dropped += c.fault_dropped;
        total.fault_delayed += c.fault_delayed;
        total.fault_duplicated += c.fault_duplicated;
      }
      const Topic::Counters& fast = fast_lane_->counters();
      m.counter("mq.published").set(total.published);
      m.counter("mq.consumed").set(total.consumed);
      m.counter("mq.drained").set(total.drained);
      m.counter("mq.fault_dropped").set(total.fault_dropped);
      m.counter("mq.fault_delayed").set(total.fault_delayed);
      m.counter("mq.fault_duplicated").set(total.fault_duplicated);
      m.counter("mq.fast_lane.published").set(fast.published);
      m.counter("mq.fast_lane.consumed").set(fast.consumed);
      m.gauge("mq.topics").set(static_cast<double>(topics_.size()));
    });
  }
}

}  // namespace hpcwhisk::mq
