// Differential test: ContainerPool against a list-based reference model.
//
// The reference keeps the pool's original layout — containers in a hash
// map, the idle LRU and the stem cells in std::list — and implements the
// same algorithm. Seeded random operation sequences drive both; after
// every step the acquire outcome (kind, reused container, start latency:
// the latency pins the order of random draws), the counters, the
// container counts and the memory in use must agree.

#include <gtest/gtest.h>

#include <algorithm>
#include <list>
#include <optional>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "hpcwhisk/runtime/container_pool.hpp"

namespace hpcwhisk::runtime {
namespace {

using sim::Rng;
using sim::SimTime;

class ReferencePool {
 public:
  ReferencePool(ContainerPool::Config config, RuntimeProfile profile, Rng rng)
      : config_{std::move(config)}, profile_{profile}, rng_{rng} {}

  AcquireResult acquire(FunctionKey function, const std::string& kind,
                        std::int64_t memory_mb, SimTime now) {
    if (config_.keep_alive.policy != KeepAlivePolicy::kFixed)
      note_arrival(function, now);
    for (auto it = idle_lru_.rbegin(); it != idle_lru_.rend(); ++it) {
      Container& c = containers_.at(*it);
      if (c.function == function && c.memory_mb >= memory_mb) {
        idle_lru_.erase(std::next(it).base());
        c.state = ContainerState::kWarming;
        c.last_used = now;
        ++counters_.warm_hits;
        return {AcquireResult::Kind::kWarm, c.id,
                profile_.sample_warm_start(rng_)};
      }
    }
    if (!kind.empty() && kind == config_.prewarm_kind) {
      for (auto it = prewarmed_.begin(); it != prewarmed_.end(); ++it) {
        Container& c = containers_.at(*it);
        if (c.usable_at > now || c.memory_mb < memory_mb) continue;
        prewarmed_.erase(it);
        c.function = function;
        c.state = ContainerState::kWarming;
        c.last_used = now;
        ++counters_.prewarm_hits;
        return {AcquireResult::Kind::kPrewarmed, c.id,
                profile_.sample_warm_start(rng_)};
      }
    }
    const std::optional<SimTime> eviction = make_room(memory_mb);
    if (!eviction) {
      ++counters_.rejections;
      return {};
    }
    Container c;
    c.id = next_id_++;
    c.function = function;
    c.memory_mb = memory_mb;
    c.state = ContainerState::kWarming;
    c.last_used = now;
    memory_in_use_mb_ += memory_mb;
    containers_.emplace(c.id, c);
    ++counters_.cold_starts;
    return {AcquireResult::Kind::kCold, c.id,
            *eviction + profile_.sample_cold_start(rng_)};
  }

  void maintain_prewarm(SimTime now) {
    if (config_.prewarm_kind.empty()) return;
    while (prewarmed_.size() < config_.prewarm_count) {
      if (containers_.size() >= config_.max_containers) return;
      if (memory_in_use_mb_ + config_.prewarm_memory_mb > config_.memory_mb)
        return;
      Container c;
      c.id = next_id_++;
      c.memory_mb = config_.prewarm_memory_mb;
      c.state = ContainerState::kIdle;
      c.last_used = now;
      c.usable_at = now + profile_.sample_cold_start(rng_);
      memory_in_use_mb_ += c.memory_mb;
      containers_.emplace(c.id, c);
      prewarmed_.push_back(c.id);
    }
  }

  void mark_running(ContainerId id, SimTime now) {
    Container& c = containers_.at(id);
    c.state = ContainerState::kBusy;
    c.last_used = now;
    ++busy_count_;
  }

  void release(ContainerId id, SimTime now) {
    Container& c = containers_.at(id);
    c.state = ContainerState::kIdle;
    c.last_used = now;
    --busy_count_;
    idle_lru_.push_back(id);
  }

  void remove(ContainerId id) {
    const auto it = containers_.find(id);
    if (it == containers_.end()) return;
    if (it->second.state == ContainerState::kBusy) {
      --busy_count_;
    } else if (it->second.state == ContainerState::kIdle) {
      idle_lru_.remove(id);
      prewarmed_.remove(id);
    }
    memory_in_use_mb_ -= it->second.memory_mb;
    containers_.erase(it);
  }

  std::size_t reap_idle(SimTime now) {
    std::size_t reaped = 0;
    for (auto it = idle_lru_.begin(); it != idle_lru_.end();) {
      const Container& c = containers_.at(*it);
      if (now - c.last_used > effective_idle_timeout(c.function)) {
        memory_in_use_mb_ -= c.memory_mb;
        containers_.erase(*it);
        it = idle_lru_.erase(it);
        ++reaped;
      } else {
        ++it;
      }
    }
    return reaped;
  }

  [[nodiscard]] SimTime effective_idle_timeout(FunctionKey function) const {
    const KeepAliveConfig& ka = config_.keep_alive;
    if (ka.policy == KeepAlivePolicy::kFixed) return config_.idle_timeout;
    SimTime base = config_.idle_timeout;
    const auto it = arrivals_.find(function);
    if (it != arrivals_.end() && it->second.count >= 2) {
      base = std::clamp(SimTime::micros(static_cast<std::int64_t>(
                            ka.margin * it->second.ewma_us)),
                        ka.floor, ka.ceiling);
    }
    if (ka.policy == KeepAlivePolicy::kAdaptive || base <= ka.floor) return base;
    const double by_count = static_cast<double>(containers_.size()) /
                            static_cast<double>(config_.max_containers);
    const double by_memory = static_cast<double>(memory_in_use_mb_) /
                             static_cast<double>(config_.memory_mb);
    const double occupancy = std::max(by_count, by_memory);
    const double band = std::max(1e-9, ka.pressure_high - ka.pressure_low);
    const double p = std::clamp((occupancy - ka.pressure_low) / band, 0.0, 1.0);
    const auto above_floor = static_cast<double>((base - ka.floor).ticks());
    return base - SimTime::micros(static_cast<std::int64_t>(p * above_floor));
  }

  [[nodiscard]] bool has_warm_idle(FunctionKey function,
                                   std::int64_t memory_mb) const {
    return std::any_of(idle_lru_.begin(), idle_lru_.end(), [&](ContainerId id) {
      const Container& c = containers_.at(id);
      return c.function == function && c.memory_mb >= memory_mb;
    });
  }

  [[nodiscard]] bool can_admit(std::int64_t memory_mb) const {
    return containers_.size() < config_.max_containers &&
           memory_in_use_mb_ + memory_mb <= config_.memory_mb;
  }

  void clear() {
    containers_.clear();
    idle_lru_.clear();
    prewarmed_.clear();
    busy_count_ = 0;
    memory_in_use_mb_ = 0;
  }

  [[nodiscard]] ContainerState state(ContainerId id) const {
    const auto it = containers_.find(id);
    return it == containers_.end() ? ContainerState::kRemoved : it->second.state;
  }
  [[nodiscard]] std::size_t total_containers() const { return containers_.size(); }
  [[nodiscard]] std::size_t busy_containers() const { return busy_count_; }
  [[nodiscard]] std::size_t idle_containers() const { return idle_lru_.size(); }
  [[nodiscard]] std::size_t prewarmed_containers() const { return prewarmed_.size(); }
  [[nodiscard]] std::int64_t memory_in_use_mb() const { return memory_in_use_mb_; }
  [[nodiscard]] const ContainerPool::Counters& counters() const { return counters_; }

 private:
  struct Container {
    ContainerId id{0};
    FunctionKey function{0};
    std::int64_t memory_mb{0};
    ContainerState state{ContainerState::kWarming};
    SimTime last_used;
    SimTime usable_at;
  };
  struct InterArrival {
    SimTime last;
    double ewma_us{0.0};
    std::uint64_t count{0};
  };

  std::optional<SimTime> make_room(std::int64_t memory_mb) {
    if (memory_mb > config_.memory_mb) return std::nullopt;
    SimTime latency = SimTime::zero();
    while (containers_.size() >= config_.max_containers ||
           memory_in_use_mb_ + memory_mb > config_.memory_mb) {
      ContainerId victim;
      if (!prewarmed_.empty()) {
        victim = prewarmed_.front();
        prewarmed_.pop_front();
      } else if (!idle_lru_.empty()) {
        victim = idle_lru_.front();
        idle_lru_.pop_front();
      } else {
        return std::nullopt;
      }
      memory_in_use_mb_ -= containers_.at(victim).memory_mb;
      containers_.erase(victim);
      latency += profile_.sample_remove(rng_);
      ++counters_.evictions;
    }
    return latency;
  }

  void note_arrival(FunctionKey function, SimTime now) {
    InterArrival& a = arrivals_[function];
    if (a.count > 0) {
      const auto gap = static_cast<double>((now - a.last).ticks());
      a.ewma_us = a.count == 1
                      ? gap
                      : a.ewma_us + config_.keep_alive.alpha * (gap - a.ewma_us);
    }
    a.last = now;
    ++a.count;
  }

  ContainerPool::Config config_;
  RuntimeProfile profile_;
  Rng rng_;
  std::unordered_map<ContainerId, Container> containers_;
  std::list<ContainerId> idle_lru_;
  std::list<ContainerId> prewarmed_;
  std::unordered_map<FunctionKey, InterArrival> arrivals_;
  std::size_t busy_count_{0};
  std::int64_t memory_in_use_mb_{0};
  ContainerId next_id_{1};
  ContainerPool::Counters counters_;
};

ContainerPool::Config diff_config(KeepAlivePolicy policy) {
  ContainerPool::Config cfg;
  cfg.memory_mb = 2048;
  cfg.max_containers = 6;
  cfg.idle_timeout = SimTime::minutes(2);
  cfg.keep_alive.policy = policy;
  cfg.keep_alive.margin = 3.0;
  cfg.keep_alive.floor = SimTime::seconds(10);
  cfg.keep_alive.ceiling = SimTime::minutes(5);
  cfg.keep_alive.pressure_low = 0.3;
  cfg.keep_alive.pressure_high = 0.8;
  cfg.prewarm_kind = "python:3";
  cfg.prewarm_count = 2;
  cfg.prewarm_memory_mb = 256;
  return cfg;
}

/// One container as both pools know it.
struct Handle {
  ContainerId pool;
  ContainerId ref;
};

/// What a run exercised, so a sequence that never reaches a path fails.
struct Coverage {
  std::uint64_t warm_hits{0};
  std::uint64_t prewarm_hits{0};
  std::uint64_t evictions{0};
  std::uint64_t rejections{0};
  std::size_t reaped{0};
  std::size_t removed{0};
};

void run_differential(KeepAlivePolicy policy, std::uint64_t seed, int steps,
                      Coverage& cov) {
  constexpr FunctionKey kFunctions = 5;
  const std::int64_t sizes[] = {128, 256, 512};
  const std::string kinds[] = {"", "python:3", "go:1"};
  const ContainerPool::Config cfg = diff_config(policy);
  ContainerPool pool{cfg, RuntimeProfile::singularity(), Rng{seed}};
  ReferencePool ref{cfg, RuntimeProfile::singularity(), Rng{seed}};
  Rng ops{seed * 7919 + 1};
  SimTime now = SimTime::zero();
  // Every container handed out so far; stale handles stay, so remove()
  // and the state checks also see containers that are already gone.
  std::vector<Handle> handles;
  const auto pick_in_state = [&](ContainerState s) -> const Handle* {
    std::vector<const Handle*> match;
    for (const Handle& h : handles)
      if (ref.state(h.ref) == s) match.push_back(&h);
    if (match.empty()) return nullptr;
    return match[static_cast<std::size_t>(
        ops.uniform_int(0, static_cast<std::int64_t>(match.size()) - 1))];
  };

  for (int step = 0; step < steps; ++step) {
    SCOPED_TRACE("step " + std::to_string(step));
    // Mostly short gaps, with an occasional lull long enough to reap.
    now += ops.uniform_int(0, 19) == 0
               ? SimTime::millis(ops.uniform_int(0, 600'000))
               : SimTime::millis(ops.uniform_int(0, 20'000));
    const std::int64_t op = ops.uniform_int(0, 99);
    if (op < 40) {
      const auto fn = static_cast<FunctionKey>(ops.uniform_int(0, kFunctions - 1));
      const std::int64_t mem = sizes[ops.uniform_int(0, 2)];
      const std::string& kind = kinds[ops.uniform_int(0, 2)];
      const AcquireResult a = kind.empty() ? pool.acquire(fn, mem, now)
                                           : pool.acquire(fn, kind, mem, now);
      const AcquireResult b = ref.acquire(fn, kind, mem, now);
      ASSERT_EQ(a.kind, b.kind);
      ASSERT_EQ(a.start_latency, b.start_latency);
      if (a.kind == AcquireResult::Kind::kWarm) {
        // The same container is reused: newest idle of the function.
        const auto it = std::find_if(handles.begin(), handles.end(),
                                     [&](const Handle& h) { return h.ref == b.container; });
        ASSERT_NE(it, handles.end());
        ASSERT_EQ(it->pool, a.container);
      } else if (a.kind != AcquireResult::Kind::kRejected) {
        handles.push_back({a.container, b.container});
      }
    } else if (op < 60) {
      if (const Handle* h = pick_in_state(ContainerState::kWarming)) {
        pool.mark_running(h->pool, now);
        ref.mark_running(h->ref, now);
      }
    } else if (op < 80) {
      if (const Handle* h = pick_in_state(ContainerState::kBusy)) {
        pool.release(h->pool, now);
        ref.release(h->ref, now);
      }
    } else if (op < 85) {
      // remove() in a random state, a gone container included.
      static constexpr ContainerState kStates[] = {
          ContainerState::kWarming, ContainerState::kBusy,
          ContainerState::kIdle, ContainerState::kRemoved};
      if (const Handle* h = pick_in_state(kStates[ops.uniform_int(0, 3)])) {
        if (ref.state(h->ref) != ContainerState::kRemoved) ++cov.removed;
        pool.remove(h->pool);
        ref.remove(h->ref);
      }
    } else if (op < 92) {
      pool.maintain_prewarm(now);
      ref.maintain_prewarm(now);
    } else if (op < 98) {
      const std::size_t reaped = ref.reap_idle(now);
      ASSERT_EQ(pool.reap_idle(now), reaped);
      cov.reaped += reaped;
    } else {
      pool.clear();
      ref.clear();
    }

    const ContainerPool::Counters& c = pool.counters();
    const ContainerPool::Counters& r = ref.counters();
    ASSERT_EQ(c.warm_hits, r.warm_hits);
    ASSERT_EQ(c.prewarm_hits, r.prewarm_hits);
    ASSERT_EQ(c.cold_starts, r.cold_starts);
    ASSERT_EQ(c.rejections, r.rejections);
    ASSERT_EQ(c.evictions, r.evictions);
    ASSERT_EQ(pool.idle_containers(), ref.idle_containers());
    ASSERT_EQ(pool.total_containers(), ref.total_containers());
    ASSERT_EQ(pool.busy_containers(), ref.busy_containers());
    ASSERT_EQ(pool.prewarmed_containers(), ref.prewarmed_containers());
    ASSERT_EQ(pool.memory_in_use_mb(), ref.memory_in_use_mb());
    for (FunctionKey fn = 0; fn < kFunctions; ++fn) {
      ASSERT_EQ(pool.effective_idle_timeout(fn), ref.effective_idle_timeout(fn));
      for (const std::int64_t mem : sizes)
        ASSERT_EQ(pool.has_warm_idle(fn, mem), ref.has_warm_idle(fn, mem));
    }
    for (const std::int64_t mem : sizes)
      ASSERT_EQ(pool.can_admit(mem), ref.can_admit(mem));
  }
  cov.warm_hits += pool.counters().warm_hits;
  cov.prewarm_hits += pool.counters().prewarm_hits;
  cov.evictions += pool.counters().evictions;
  cov.rejections += pool.counters().rejections;
}

class ContainerPoolDiff : public ::testing::TestWithParam<KeepAlivePolicy> {};

TEST_P(ContainerPoolDiff, MatchesListReference) {
  Coverage cov;
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    run_differential(GetParam(), seed, 1500, cov);
    if (HasFatalFailure()) return;
  }
  EXPECT_GT(cov.warm_hits, 0u);
  EXPECT_GT(cov.prewarm_hits, 0u);
  EXPECT_GT(cov.evictions, 0u);
  EXPECT_GT(cov.rejections, 0u);
  EXPECT_GT(cov.reaped, 0u);
  EXPECT_GT(cov.removed, 0u);
}

INSTANTIATE_TEST_SUITE_P(
    Policies, ContainerPoolDiff,
    ::testing::Values(KeepAlivePolicy::kFixed, KeepAlivePolicy::kAdaptive,
                      KeepAlivePolicy::kHybrid),
    [](const ::testing::TestParamInfo<KeepAlivePolicy>& policy) {
      return std::string{to_string(policy.param)};
    });

}  // namespace
}  // namespace hpcwhisk::runtime
