// Reference-model test of the simulation's firing order.
//
// The same random script drives sim::Simulation and RefSim, a plain
// std::set ordered by (when, seq). The script's choices come from its own
// RNG, drawn as events fire, so the two runs stay in step only while they
// fire the same events at the same times; the logs must match exactly.
// The mix covers what the event queue's lanes must get right: periodic
// series at more distinct intervals than there are lanes, one-shots at
// the same instant as a lane head, cancel() and PeriodicHandle::stop()
// from inside callbacks (including a series stopping itself), a series
// stopped and another started in the same callback (the new one reuses
// the stopped one's storage while its dead entry is still queued),
// settle_to() followed by same-instant scheduling, fixed-delay one-shots
// (after_fixed) at three delays — one shared with a series interval, so a
// lane holds both — cancelled from inside callbacks, and bursts of 65 to
// 160 events at one instant, interleaved with lane entries at that
// instant, whose members cancel pending members of the latest burst, one
// at a time or a whole tail at once (enough tombstones to compact).

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <set>
#include <stdexcept>
#include <tuple>
#include <utility>
#include <vector>

#include "hpcwhisk/sim/rng.hpp"
#include "hpcwhisk/sim/simulation.hpp"

namespace hpcwhisk::sim {
namespace {

/// The simulation contract on a single ordered set: no heap, no lanes.
class RefSim {
 public:
  using Id = std::uint64_t;

  struct Series {
    RefSim* sim{nullptr};
    SimTime interval;
    std::function<void()> cb;
    Id pending{0};
    bool stopped{false};
  };

  class Handle {
   public:
    void stop() {
      if (!s_ || s_->stopped) return;
      s_->stopped = true;
      s_->sim->cancel(s_->pending);
    }

   private:
    friend class RefSim;
    std::shared_ptr<Series> s_;
  };

  [[nodiscard]] SimTime now() const { return now_; }

  Id at(SimTime when, std::function<void()> cb) {
    if (when < now_) throw std::invalid_argument("RefSim::at: time in the past");
    const Id id = next_id_++;
    pending_.emplace(when, id);
    calls_.emplace(id, std::make_pair(when, std::move(cb)));
    return id;
  }
  Id after(SimTime delay, std::function<void()> cb) {
    return at(now_ + delay, std::move(cb));
  }
  Id after_fixed(SimTime delay, std::function<void()> cb) {
    return after(delay, std::move(cb));
  }
  bool cancel(Id id) {
    const auto it = calls_.find(id);
    if (it == calls_.end()) return false;
    pending_.erase({it->second.first, id});
    calls_.erase(it);
    return true;
  }

  Handle every(SimTime interval, std::function<void()> cb) {
    Handle h;
    h.s_ = std::make_shared<Series>();
    h.s_->sim = this;
    h.s_->interval = interval;
    h.s_->cb = std::move(cb);
    series_.push_back(h.s_);
    arm(h.s_.get());
    return h;
  }

  void run_until(SimTime until) {
    while (!pending_.empty() && pending_.begin()->first <= until) {
      const auto [when, id] = *pending_.begin();
      pending_.erase(pending_.begin());
      auto node = calls_.extract(id);
      now_ = when;
      ++executed_;
      node.mapped().second();
    }
    if (now_ < until) now_ = until;
  }

  void settle_to(SimTime t) {
    if (t < now_) throw std::invalid_argument("RefSim::settle_to: time in the past");
    if (!pending_.empty() && pending_.begin()->first < t)
      throw std::logic_error("RefSim::settle_to: pending earlier events");
    now_ = t;
  }

  [[nodiscard]] std::uint64_t executed_events() const { return executed_; }

 private:
  void arm(Series* s) {
    s->pending = after(s->interval, [this, s] {
      s->cb();
      if (!s->stopped) arm(s);
    });
  }

  SimTime now_{SimTime::zero()};
  Id next_id_{1};
  std::set<std::pair<SimTime, Id>> pending_;
  std::map<Id, std::pair<SimTime, std::function<void()>>> calls_;
  std::vector<std::shared_ptr<Series>> series_;
  std::uint64_t executed_{0};
};

/// One firing: which actor fired, and when.
using Firing = std::tuple<int, std::int64_t>;

/// Ten distinct intervals: more than EventQueue::kMaxLanes, so the last
/// intervals a run opens ride the heap.
constexpr std::int64_t kIntervalsMs[] = {100, 2000, 250, 1000, 50,
                                         700, 3000, 150, 400, 1300};

/// Delays of the fixed-delay one-shots; 1300 ms is also a series interval.
constexpr std::int64_t kFixedDelaysMs[] = {300, 1300, 5000};

template <class Sim>
class Script {
 public:
  using Handle = decltype(std::declval<Sim&>().every(SimTime::seconds(1), [] {}));
  using Id = decltype(std::declval<Sim&>().at(SimTime::zero(), [] {}));

  Script(Sim& sim, std::uint64_t seed) : sim_{sim}, rng_{seed} {}

  std::vector<Firing> run(SimTime horizon) {
    // Fixed delays first, so they open lanes before the series take the
    // rest; later series intervals then ride the heap.
    for (int i = 0; i < 8; ++i) start_fixed();
    for (int i = 0; i < 12; ++i) start_series();
    for (int i = 0; i < 8; ++i) start_oneshot();
    const SimTime chunk = SimTime::millis(1'700);
    for (SimTime t = chunk; t <= horizon; t = t + chunk) {
      sim_.run_until(t);
      // Jump ahead when nothing is due in between, then schedule at the
      // new instant: such an entry sorts before everything the queue
      // held past `t` when it stopped.
      try {
        sim_.settle_to(t + SimTime::millis(rng_.uniform_int(0, 120)));
      } catch (const std::logic_error&) {
        log_.emplace_back(-2, sim_.now().ticks());
      }
      sim_.at(sim_.now(), [this] { fire(-3); });
      if (rng_.uniform_int(0, 1) == 0) start_series();
      if (rng_.uniform_int(0, 2) == 0) start_burst();
    }
    log_.emplace_back(-4, static_cast<std::int64_t>(sim_.executed_events()));
    return log_;
  }

  [[nodiscard]] int fixed_started() const { return fixed_started_; }
  [[nodiscard]] int fixed_cancelled() const { return fixed_cancelled_; }
  [[nodiscard]] int bursts() const { return bursts_; }
  [[nodiscard]] int burst_cancelled() const { return burst_cancelled_; }

 private:
  void start_series() {
    const int tag = next_tag_++;
    const std::int64_t ms = kIntervalsMs[rng_.uniform_int(0, 9)];
    series_.push_back(sim_.every(SimTime::millis(ms), [this, tag] { fire(tag); }));
    series_tags_.push_back(tag);
  }

  void start_oneshot() {
    const int tag = next_tag_++;
    // Delays of 0 and of a series interval land on the same instant as
    // pending lane entries (the next lane head, among others).
    const std::int64_t roll = rng_.uniform_int(0, 3);
    const SimTime delay =
        roll == 0   ? SimTime::zero()
        : roll == 1 ? SimTime::millis(kIntervalsMs[rng_.uniform_int(0, 9)])
                    : SimTime::micros(rng_.uniform_int(1, 3'000'000));
    oneshots_.push_back(sim_.after(delay, [this, tag] { fire(tag); }));
  }

  void start_fixed() {
    const int tag = next_tag_++;
    const SimTime delay = SimTime::millis(kFixedDelaysMs[rng_.uniform_int(0, 2)]);
    const Id id = sim_.after_fixed(delay, [this, tag] { fire(tag); });
    oneshots_.push_back(id);
    fixed_.push_back(id);
    ++fixed_started_;
  }

  // A long same-instant run (longer than a 64-entry batch a queue might
  // drain it in) at a fixed delay: about one in eight members goes
  // through after_fixed, so the lane holds entries at the burst's instant
  // interleaved in seq with the heap's.
  void start_burst() {
    ++bursts_;
    const SimTime delay = SimTime::millis(kFixedDelaysMs[rng_.uniform_int(0, 2)]);
    const auto n = rng_.uniform_int(65, 160);
    burst_.clear();
    for (std::int64_t i = 0; i < n; ++i) {
      const int tag = next_tag_++;
      if (rng_.uniform_int(0, 7) == 0) {
        fixed_.push_back(sim_.after_fixed(delay, [this, tag] { fire(tag); }));
        ++fixed_started_;
      } else {
        burst_.push_back(sim_.after(delay, [this, tag] { fire_burst(tag); }));
      }
    }
  }

  void fire_burst(int tag) {
    log_.emplace_back(tag, sim_.now().ticks());
    if (burst_.empty()) return;
    const std::int64_t roll = rng_.uniform_int(0, 19);
    const auto i = static_cast<std::size_t>(
        rng_.uniform_int(0, static_cast<std::int64_t>(burst_.size()) - 1));
    if (roll < 6) {  // cancel a member, often still pending
      cancel_burst(i, i + 1);
    } else if (roll < 8) {  // same instant, behind the rest of the burst
      start_oneshot_at_now();
    } else if (roll < 9) {  // cancel a tail at once: tombstones pile up
      cancel_burst(i, burst_.size());
    }
  }

  void cancel_burst(std::size_t from, std::size_t to) {
    int cancelled = 0;
    for (std::size_t i = from; i < to; ++i) cancelled += sim_.cancel(burst_[i]) ? 1 : 0;
    burst_cancelled_ += cancelled;
    log_.emplace_back(-7, cancelled);
  }

  void start_oneshot_at_now() {
    const int tag = next_tag_++;
    oneshots_.push_back(sim_.after(SimTime::zero(), [this, tag] { fire(tag); }));
  }

  void fire(int tag) {
    log_.emplace_back(tag, sim_.now().ticks());
    if (log_.size() > 200'000) return;  // bound the run, keep the order
    const std::int64_t roll = rng_.uniform_int(0, 99);
    if (roll < 30) {
      start_oneshot();
    } else if (roll < 35) {  // cancel a one-shot (it may have fired already)
      const auto i = static_cast<std::size_t>(
          rng_.uniform_int(0, static_cast<std::int64_t>(oneshots_.size()) - 1));
      log_.emplace_back(-5, sim_.cancel(oneshots_[i]) ? 1 : 0);
    } else if (roll < 37) {  // stop a series; may be the one firing now
      const auto i = static_cast<std::size_t>(
          rng_.uniform_int(0, static_cast<std::int64_t>(series_.size()) - 1));
      series_[i].stop();
    } else if (roll < 38) {  // the firing series stops itself
      for (std::size_t i = 0; i < series_tags_.size(); ++i) {
        if (series_tags_[i] == tag) series_[i].stop();
      }
    } else if (roll < 39) {
      start_series();
    } else if (roll < 40) {  // stop a series, start another in its place
      const auto i = static_cast<std::size_t>(
          rng_.uniform_int(0, static_cast<std::int64_t>(series_.size()) - 1));
      series_[i].stop();
      start_series();
    } else if (roll < 55) {
      start_fixed();
    } else if (roll < 60) {  // cancel a recent fixed one-shot, often pending
      const std::size_t n = fixed_.size();
      const auto back = static_cast<std::size_t>(
          rng_.uniform_int(0, std::min<std::int64_t>(7, static_cast<std::int64_t>(n) - 1)));
      const bool cancelled = sim_.cancel(fixed_[n - 1 - back]);
      fixed_cancelled_ += cancelled ? 1 : 0;
      log_.emplace_back(-6, cancelled ? 1 : 0);
    }
  }

  Sim& sim_;
  Rng rng_;
  int next_tag_{0};
  std::vector<Handle> series_;
  std::vector<int> series_tags_;
  std::vector<Id> oneshots_;
  std::vector<Id> fixed_;
  int fixed_started_{0};
  int fixed_cancelled_{0};
  /// The latest burst's heap members.
  std::vector<Id> burst_;
  int bursts_{0};
  int burst_cancelled_{0};
  std::vector<Firing> log_;
};

TEST(EventOrderReference, SimulationFiresInWhenSeqOrder) {
  for (std::uint64_t seed = 1; seed <= 12; ++seed) {
    Simulation sim;
    RefSim ref;
    const SimTime horizon = SimTime::seconds(90);
    Script<Simulation> got_script{sim, seed};
    Script<RefSim> want_script{ref, seed};
    const std::vector<Firing> got = got_script.run(horizon);
    const std::vector<Firing> want = want_script.run(horizon);
    ASSERT_GT(want.size(), 1'000u) << "seed " << seed;
    ASSERT_GT(want_script.fixed_started(), 100) << "seed " << seed;
    ASSERT_GT(want_script.fixed_cancelled(), 10) << "seed " << seed;
    ASSERT_GT(want_script.bursts(), 10) << "seed " << seed;
    ASSERT_GT(want_script.burst_cancelled(), 100) << "seed " << seed;
    ASSERT_EQ(got.size(), want.size()) << "seed " << seed;
    for (std::size_t i = 0; i < got.size(); ++i) {
      ASSERT_EQ(got[i], want[i]) << "seed " << seed << ", firing " << i;
    }
    EXPECT_EQ(sim.executed_events(), ref.executed_events());
  }
}

}  // namespace
}  // namespace hpcwhisk::sim
