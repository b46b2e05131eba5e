#include "hpcwhisk/sim/simulation.hpp"

#include <cstdio>
#include <utility>

namespace hpcwhisk::sim {

std::string SimTime::to_string() const {
  const bool neg = us_ < 0;
  std::int64_t us = neg ? -us_ : us_;
  const std::int64_t h = us / 3'600'000'000;
  us %= 3'600'000'000;
  const std::int64_t m = us / 60'000'000;
  us %= 60'000'000;
  const double s = static_cast<double>(us) / 1e6;
  char buf[64];
  if (h > 0) {
    std::snprintf(buf, sizeof buf, "%s%lldh%02lldm%04.1fs", neg ? "-" : "",
                  static_cast<long long>(h), static_cast<long long>(m), s);
  } else if (m > 0) {
    std::snprintf(buf, sizeof buf, "%s%lldm%04.1fs", neg ? "-" : "",
                  static_cast<long long>(m), s);
  } else {
    std::snprintf(buf, sizeof buf, "%s%.3fs", neg ? "-" : "", s);
  }
  return buf;
}

inline void Simulation::fire(EventQueue::Popped& p) {
  now_ = p.when;
  ++executed_;
  if (p.series == nullptr) {
    p.cb();
    // Captures die here, before the next event is claimed.
    p.cb.reset();
    return;
  }
  // Series storage never moves, so the callback runs where it lives even
  // if it starts or stops series; rearm() reads now_ after it returns.
  p.series->cb();
  queue_.rearm(*p.series, now_);
}

void Simulation::run_until(SimTime until) {
  // pop_due picks the earlier of the heap root and the lead lane head and
  // claims it in one call (no separate next_time() peek per event).
  EventQueue::Popped p;
  while (queue_.pop_due(until, p)) fire(p);
  if (now_ < until) now_ = until;
}

void Simulation::run() {
  while (step()) {
  }
}

bool Simulation::step() {
  EventQueue::Popped p;
  if (!queue_.pop_due(SimTime::max(), p)) return false;
  fire(p);
  return true;
}

void Simulation::settle_to(SimTime t) {
  if (t < now_) throw std::invalid_argument("Simulation::settle_to: time in the past");
  if (!queue_.empty() && queue_.next_time() < t)
    throw std::logic_error("Simulation::settle_to: pending earlier events");
  now_ = t;
}

}  // namespace hpcwhisk::sim
