#include "hpcwhisk/runtime/container_pool.hpp"

#include <algorithm>
#include <stdexcept>

namespace hpcwhisk::runtime {

const char* to_string(KeepAlivePolicy p) {
  switch (p) {
    case KeepAlivePolicy::kFixed: return "fixed";
    case KeepAlivePolicy::kAdaptive: return "adaptive";
    case KeepAlivePolicy::kHybrid: return "hybrid";
  }
  return "?";
}

std::optional<KeepAlivePolicy> keep_alive_policy_from_string(
    const std::string& name) {
  for (const KeepAlivePolicy p :
       {KeepAlivePolicy::kFixed, KeepAlivePolicy::kAdaptive,
        KeepAlivePolicy::kHybrid}) {
    if (name == to_string(p)) return p;
  }
  return std::nullopt;
}

ContainerPool::ContainerPool(Config config, RuntimeProfile profile,
                             sim::Rng rng)
    : config_{config}, profile_{profile}, rng_{rng} {}

// --- Slab and intrusive lists -----------------------------------------------

void ContainerPool::push_back(List& list, std::uint32_t slot) {
  Slot& c = slots_[slot];
  c.prev = list.tail;
  c.next = kNil;
  if (list.tail == kNil) {
    list.head = slot;
  } else {
    slots_[list.tail].next = slot;
  }
  list.tail = slot;
  ++list.size;
}

void ContainerPool::unlink(List& list, std::uint32_t slot) {
  Slot& c = slots_[slot];
  if (c.prev == kNil) {
    list.head = c.next;
  } else {
    slots_[c.prev].next = c.next;
  }
  if (c.next == kNil) {
    list.tail = c.prev;
  } else {
    slots_[c.next].prev = c.prev;
  }
  c.prev = c.next = kNil;
  --list.size;
}

std::uint32_t ContainerPool::slot_of(ContainerId id) const {
  const auto slot = static_cast<std::uint32_t>(id);
  if (slot >= slots_.size() || slots_[slot].generation != id >> 32 ||
      slots_[slot].state == ContainerState::kRemoved)
    return kNil;
  return slot;
}

std::uint32_t ContainerPool::create(std::int64_t memory_mb) {
  std::uint32_t slot = free_head_;
  if (slot != kNil) {
    free_head_ = slots_[slot].next;
  } else {
    slot = static_cast<std::uint32_t>(slots_.size());
    slots_.emplace_back();
  }
  Slot& c = slots_[slot];
  c.memory_mb = memory_mb;
  c.prev = c.next = kNil;
  ++live_;
  memory_in_use_mb_ += memory_mb;
  return slot;
}

void ContainerPool::destroy(std::uint32_t slot) {
  Slot& c = slots_[slot];
  memory_in_use_mb_ -= c.memory_mb;
  --live_;
  c.state = ContainerState::kRemoved;
  c.function = kStemCell;
  // A new generation invalidates every handle to the old occupant.
  if (++c.generation == 0) c.generation = 1;
  c.next = free_head_;
  free_head_ = slot;
}

// --- Acquire and release -----------------------------------------------------

AcquireResult ContainerPool::acquire(FunctionKey function,
                                     std::int64_t memory_mb, sim::SimTime now) {
  return acquire(function, std::string{}, memory_mb, now);
}

std::uint32_t ContainerPool::find_warm(FunctionKey function,
                                       std::int64_t memory_mb) const {
  // Newest-first, so the hottest container is reused.
  for (std::uint32_t s = idle_.tail; s != kNil; s = slots_[s].prev) {
    const Slot& c = slots_[s];
    if (c.function == function && c.memory_mb >= memory_mb) return s;
  }
  return kNil;
}

AcquireResult ContainerPool::acquire(FunctionKey function,
                                     const std::string& kind,
                                     std::int64_t memory_mb, sim::SimTime now) {
  if (config_.keep_alive.policy != KeepAlivePolicy::kFixed)
    note_arrival(function, now);
  // 1. Warm hit: an idle container of the same function.
  if (const std::uint32_t s = find_warm(function, memory_mb); s != kNil) {
    unlink(idle_, s);
    Slot& c = slots_[s];
    c.state = ContainerState::kWarming;  // warm resume
    c.last_used = now;
    ++counters_.warm_hits;
    return AcquireResult{AcquireResult::Kind::kWarm, id_of(s),
                         profile_.sample_warm_start(rng_)};
  }

  // 2. Stem-cell hit: specialize a booted prewarmed container of the
  //    matching kind (OpenWhisk pays roughly a warm start here, not a
  //    cold one — the sandbox already exists).
  if (!kind.empty() && kind == config_.prewarm_kind) {
    for (std::uint32_t s = stem_.head; s != kNil; s = slots_[s].next) {
      Slot& c = slots_[s];
      if (c.usable_at > now || c.memory_mb < memory_mb) continue;
      unlink(stem_, s);
      c.function = function;
      c.state = ContainerState::kWarming;
      c.last_used = now;
      ++counters_.prewarm_hits;
      return AcquireResult{AcquireResult::Kind::kPrewarmed, id_of(s),
                           profile_.sample_warm_start(rng_)};
    }
  }

  // 3. Cold start, evicting idle containers if needed.
  const auto eviction_latency = make_room(memory_mb);
  if (!eviction_latency) {
    ++counters_.rejections;
    return AcquireResult{};  // kRejected
  }

  const std::uint32_t s = create(memory_mb);
  Slot& c = slots_[s];
  c.function = function;
  c.state = ContainerState::kWarming;
  c.last_used = now;
  ++counters_.cold_starts;
  return AcquireResult{AcquireResult::Kind::kCold, id_of(s),
                       *eviction_latency + profile_.sample_cold_start(rng_)};
}

std::optional<sim::SimTime> ContainerPool::make_room(std::int64_t memory_mb) {
  if (memory_mb > config_.memory_mb) return std::nullopt;  // can never fit
  sim::SimTime latency = sim::SimTime::zero();
  while (live_ >= config_.max_containers ||
         memory_in_use_mb_ + memory_mb > config_.memory_mb) {
    // Stem cells are the cheapest victims, then idle warm containers.
    std::uint32_t victim;
    if (stem_.head != kNil) {
      victim = stem_.head;
      unlink(stem_, victim);
    } else if (idle_.head != kNil) {
      victim = idle_.head;
      unlink(idle_, victim);
    } else {
      return std::nullopt;  // all remaining are busy
    }
    destroy(victim);
    latency += profile_.sample_remove(rng_);
    ++counters_.evictions;
  }
  return latency;
}

void ContainerPool::refill_prewarm(sim::SimTime now) {
  while (stem_.size < config_.prewarm_count) {
    // Never evict for stem cells: only use genuinely free capacity.
    if (live_ >= config_.max_containers) return;
    if (memory_in_use_mb_ + config_.prewarm_memory_mb > config_.memory_mb)
      return;
    const sim::SimTime usable_at = now + profile_.sample_cold_start(rng_);
    const std::uint32_t s = create(config_.prewarm_memory_mb);
    Slot& c = slots_[s];
    c.function = kStemCell;
    c.state = ContainerState::kIdle;
    c.last_used = now;
    c.usable_at = usable_at;
    push_back(stem_, s);
  }
}

void ContainerPool::mark_running(ContainerId id, sim::SimTime now) {
  const std::uint32_t s = slot_of(id);
  if (s == kNil) throw std::out_of_range("mark_running: unknown container");
  Slot& c = slots_[s];
  if (c.state != ContainerState::kWarming)
    throw std::logic_error("mark_running: container not warming");
  c.state = ContainerState::kBusy;
  c.last_used = now;
  ++busy_count_;
}

void ContainerPool::release(ContainerId id, sim::SimTime now) {
  const std::uint32_t s = slot_of(id);
  if (s == kNil) throw std::out_of_range("release: unknown container");
  Slot& c = slots_[s];
  if (c.state != ContainerState::kBusy)
    throw std::logic_error("release: container not busy");
  c.state = ContainerState::kIdle;
  c.last_used = now;
  --busy_count_;
  push_back(idle_, s);
}

void ContainerPool::remove(ContainerId id) {
  const std::uint32_t s = slot_of(id);
  if (s == kNil) return;
  const Slot& c = slots_[s];
  if (c.state == ContainerState::kBusy) {
    --busy_count_;
  } else if (c.state == ContainerState::kIdle) {
    unlink(c.function == kStemCell ? stem_ : idle_, s);
  }
  destroy(s);
}

// --- Keep-alive --------------------------------------------------------------

void ContainerPool::note_arrival(FunctionKey function, sim::SimTime now) {
  if (function >= arrivals_.size()) arrivals_.resize(function + 1);
  InterArrival& a = arrivals_[function];
  if (a.count > 0) {
    const auto gap = static_cast<double>((now - a.last).ticks());
    a.ewma_us =
        a.count == 1 ? gap : a.ewma_us + config_.keep_alive.alpha * (gap - a.ewma_us);
  }
  a.last = now;
  ++a.count;
}

sim::SimTime ContainerPool::effective_idle_timeout(FunctionKey function) const {
  const KeepAliveConfig& ka = config_.keep_alive;
  if (ka.policy == KeepAlivePolicy::kFixed) return config_.idle_timeout;
  sim::SimTime base = config_.idle_timeout;  // no history yet: old behavior
  if (function < arrivals_.size() && arrivals_[function].count >= 2) {
    base = std::clamp(sim::SimTime::micros(static_cast<std::int64_t>(
                          ka.margin * arrivals_[function].ewma_us)),
                      ka.floor, ka.ceiling);
  }
  if (ka.policy == KeepAlivePolicy::kAdaptive || base <= ka.floor) return base;
  // kHybrid: occupancy pressure eats the margin above the floor.
  const double by_count =
      config_.max_containers == 0
          ? 0.0
          : static_cast<double>(live_) /
                static_cast<double>(config_.max_containers);
  const double by_memory =
      config_.memory_mb <= 0
          ? 0.0
          : static_cast<double>(memory_in_use_mb_) /
                static_cast<double>(config_.memory_mb);
  const double occupancy = std::max(by_count, by_memory);
  const double band = std::max(1e-9, ka.pressure_high - ka.pressure_low);
  const double p =
      std::clamp((occupancy - ka.pressure_low) / band, 0.0, 1.0);
  const auto above_floor = static_cast<double>((base - ka.floor).ticks());
  return base - sim::SimTime::micros(static_cast<std::int64_t>(p * above_floor));
}

std::size_t ContainerPool::reap_idle(sim::SimTime now) {
  std::size_t reaped = 0;
  const bool fixed = config_.keep_alive.policy == KeepAlivePolicy::kFixed;
  // Oldest-first; under kHybrid each reap lowers the occupancy the next
  // container's timeout is computed from.
  for (std::uint32_t s = idle_.head; s != kNil;) {
    const std::uint32_t next = slots_[s].next;
    const Slot& c = slots_[s];
    const sim::SimTime timeout =
        fixed ? config_.idle_timeout : effective_idle_timeout(c.function);
    if (now - c.last_used > timeout) {
      unlink(idle_, s);
      destroy(s);
      ++reaped;
    }
    s = next;
  }
  return reaped;
}

void ContainerPool::clear() {
  for (std::uint32_t s = 0; s < slots_.size(); ++s) {
    if (slots_[s].state != ContainerState::kRemoved) destroy(s);
  }
  idle_ = List{};
  stem_ = List{};
  busy_count_ = 0;
  memory_in_use_mb_ = 0;
}

}  // namespace hpcwhisk::runtime
