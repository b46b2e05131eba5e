#include "hpcwhisk/mq/topic.hpp"

#include <algorithm>

#include "hpcwhisk/sim/simulation.hpp"

namespace hpcwhisk::mq {

void Topic::admit(Message msg, sim::SimTime now, bool front) {
  if (!fault_filter_) {
    deliver(msg, now, front);
    return;
  }
  const FaultAction action = fault_filter_(msg);
  if (action.drop) {
    ++counters_.fault_dropped;
    return;
  }
  const std::uint32_t copies = 1 + action.extra_copies;
  counters_.fault_duplicated += action.extra_copies;
  if (action.delay > sim::SimTime::zero() && sim_ != nullptr) {
    ++counters_.fault_delayed;
    // A delayed short-class message forfeits its head position: it joins
    // the tail when the delay fires, like any late arrival.
    sim::Simulation* simulation = sim_;
    for (std::uint32_t i = 0; i < copies; ++i) {
      simulation->after(action.delay, [this, simulation, msg] {
        deliver(msg, simulation->now(), false);
      });
    }
    return;
  }
  for (std::uint32_t i = 0; i < copies; ++i) deliver(msg, now, front);
}

void Topic::deliver(Message msg, sim::SimTime now, bool front) {
  if (msg.delivery_count == 0) msg.first_published = now;
  ++msg.delivery_count;
  ++counters_.published;
  if (front) {
    queue_.push_front(msg);
    ++counters_.front_published;
  } else {
    queue_.push_back(msg);
  }
}

void Topic::set_fault_filter(FaultFilter filter, sim::Simulation* simulation) {
  fault_filter_ = std::move(filter);
  sim_ = simulation;
}

std::size_t Topic::poll_into(std::size_t max_count, std::vector<Message>& out) {
  const std::size_t n = std::min(max_count, queue_.size());
  for (std::size_t i = 0; i < n; ++i) {
    out.push_back(queue_.front());
    queue_.pop_front();
  }
  counters_.consumed += n;
  return n;
}

std::optional<Message> Topic::poll_one() {
  if (queue_.empty()) return std::nullopt;
  const Message m = queue_.front();
  queue_.pop_front();
  ++counters_.consumed;
  return m;
}

std::vector<Message> Topic::drain() {
  std::vector<Message> out;
  out.reserve(queue_.size());
  for (std::size_t k = 0; k < queue_.size(); ++k) out.push_back(queue_[k]);
  counters_.drained += out.size();
  queue_.reset();
  return out;
}

}  // namespace hpcwhisk::mq
