#include "hpcwhisk/lease/lease_manager.hpp"

namespace hpcwhisk::lease {

const char* to_string(Tier t) {
  switch (t) {
    case Tier::kCold: return "cold";
    case Tier::kWarm: return "warm";
    case Tier::kHot: return "hot";
  }
  return "?";
}

LeaseManager::PerFunction& LeaseManager::entry(FunctionKey function) {
  if (function >= functions_.size()) functions_.resize(function + 1);
  return functions_[function];
}

Lease* LeaseManager::active(FunctionKey function) {
  if (function >= functions_.size() || !functions_[function].leased)
    return nullptr;
  return &functions_[function].lease;
}

void LeaseManager::observe_arrival(FunctionKey function, sim::SimTime now) {
  Arrival& a = entry(function).arrival;
  if (a.count > 0) {
    const auto gap = static_cast<double>((now - a.last).ticks());
    a.ewma_us = a.count == 1 ? gap : a.ewma_us + config_.alpha * (gap - a.ewma_us);
  }
  a.last = now;
  ++a.count;
}

Tier LeaseManager::tier(FunctionKey function) const {
  if (function >= functions_.size()) return Tier::kCold;
  const Arrival& a = functions_[function].arrival;
  if (a.count < config_.min_arrivals) return Tier::kCold;
  const auto ewma = sim::SimTime::micros(static_cast<std::int64_t>(a.ewma_us));
  if (ewma <= config_.hot_interarrival) return Tier::kHot;
  if (ewma <= config_.warm_interarrival) return Tier::kWarm;
  return Tier::kCold;
}

const Lease* LeaseManager::find(FunctionKey function, sim::SimTime now) {
  Lease* l = active(function);
  if (l == nullptr) return nullptr;
  if (l->expires_at < now) {
    ++stats_.expired;
    drop(functions_[function]);
    return nullptr;
  }
  return l;
}

const Lease* LeaseManager::acquire(FunctionKey function, WorkerId worker,
                                   sim::SimTime now) {
  PerFunction& f = entry(function);
  if (f.leased) return nullptr;
  if (worker >= per_worker_.size()) per_worker_.resize(worker + 1, 0);
  std::size_t& held = per_worker_[worker];
  if (held >= config_.max_leases_per_worker) return nullptr;
  Lease& l = f.lease;
  l = Lease{};
  l.id = next_id_++;
  l.function = function;
  l.worker = worker;
  l.granted_at = now;
  l.expires_at = now + config_.term;
  f.leased = true;
  ++held;
  ++lease_count_;
  ++stats_.granted;
  return &l;
}

bool LeaseManager::renew(FunctionKey function, sim::SimTime now) {
  Lease* l = active(function);
  if (l == nullptr) return false;
  l->expires_at = now + config_.term;
  ++l->renewals;
  ++stats_.renewed;
  return true;
}

void LeaseManager::on_hit(FunctionKey function, sim::SimTime now) {
  Lease* l = active(function);
  if (l == nullptr) return;
  ++l->hits;
  ++stats_.hits;
  l->expires_at = now + config_.term;
  ++l->renewals;
  ++stats_.renewed;
}

bool LeaseManager::revoke(FunctionKey function) {
  if (active(function) == nullptr) return false;
  ++stats_.revoked;
  drop(functions_[function]);
  return true;
}

std::size_t LeaseManager::revoke_worker(WorkerId worker) {
  std::size_t revoked = 0;
  for (PerFunction& f : functions_) {
    if (!f.leased || f.lease.worker != worker) continue;
    ++stats_.revoked;
    drop(f);
    ++revoked;
  }
  return revoked;
}

std::size_t LeaseManager::leases_on(WorkerId worker) const {
  return worker < per_worker_.size() ? per_worker_[worker] : 0;
}

sim::SimTime LeaseManager::interarrival(FunctionKey function) const {
  if (function >= functions_.size() || functions_[function].arrival.count < 2)
    return sim::SimTime::zero();
  return sim::SimTime::micros(
      static_cast<std::int64_t>(functions_[function].arrival.ewma_us));
}

void LeaseManager::drop(PerFunction& f) {
  std::size_t& held = per_worker_[f.lease.worker];
  if (held > 0) --held;
  f.leased = false;
  --lease_count_;
}

}  // namespace hpcwhisk::lease
