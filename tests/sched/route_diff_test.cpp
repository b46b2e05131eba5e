// Differential test for the call scheduler: the function-index-keyed
// scheduler, which looks a function's model and warm set up once per
// decision, must decide exactly as the name-keyed scheduler it replaced,
// which looked both up again for every candidate. The reference below is
// that scheduler (estimator, backlog ledger and policies) kept verbatim
// apart from its namespace and the knobs and per-worker models retired
// since (their values are the shared constants now). Seeded random histories drive both through
// routes, starts, requeues, completions and worker kills; every Decision,
// Outcome, stats() block and prior_hits tally must agree at every step.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "hpcwhisk/sched/scheduler.hpp"
#include "hpcwhisk/sim/rng.hpp"

namespace hpcwhisk::sched {
namespace {

using sim::SimTime;

// --- Reference: the name-keyed scheduler --------------------------------

class RefEstimator {
 public:
  void observe(const std::string& function, sim::SimTime duration,
               bool cold_start) {
    Model& model = models_[function];
    const auto sample = static_cast<double>(duration.ticks());
    (cold_start ? model.cold : model.warm).fold(sample, kDurationAlpha);
    ++observations_;
    if (cold_start) ++cold_observations_;
  }

  sim::SimTime predict(const std::string& function) const {
    const auto it = models_.find(function);
    if (it == models_.end()) {
      ++prior_hits_;
      return kDurationPrior;
    }
    const Model& m = it->second;
    const Ewma& e = m.warm.count > 0 ? m.warm : m.cold;
    return sim::SimTime::micros(static_cast<std::int64_t>(e.mean));
  }

  sim::SimTime predict_cold(const std::string& function) const {
    const auto it = models_.find(function);
    if (it == models_.end()) {
      ++prior_hits_;
      return kDurationPrior;
    }
    const Model& m = it->second;
    const Ewma& e = m.cold.count > 0 ? m.cold : m.warm;
    return sim::SimTime::micros(static_cast<std::int64_t>(e.mean));
  }

  std::size_t tracked_functions() const { return models_.size(); }

  std::uint64_t observations_{0};
  std::uint64_t cold_observations_{0};
  mutable std::uint64_t prior_hits_{0};

 private:
  struct Ewma {
    double mean{0};
    std::uint64_t count{0};

    void fold(double sample, double alpha) {
      if (count == 0) {
        mean = sample;
      } else {
        const double err = sample - mean;
        mean += alpha * err;
      }
      ++count;
    }
  };
  struct Model {
    Ewma warm;
    Ewma cold;
  };

  std::unordered_map<std::string, Model> models_;
};

class RefLedger {
 public:
  void assign(CallId call, WorkerId worker, std::int64_t cost_ticks,
              std::int64_t predicted_ticks) {
    const auto it = charges_.find(call);
    if (it != charges_.end()) {
      backlog_[it->second.worker] -= it->second.cost_ticks;
      total_ -= it->second.cost_ticks;
      it->second.worker = worker;
      it->second.cost_ticks = cost_ticks;
      backlog_[worker] += cost_ticks;
      total_ += cost_ticks;
      return;
    }
    charges_.emplace(call,
                     BacklogLedger::Charge{worker, cost_ticks, predicted_ticks});
    backlog_[worker] += cost_ticks;
    total_ += cost_ticks;
  }

  bool move(CallId call, WorkerId worker) {
    const auto it = charges_.find(call);
    if (it == charges_.end() || it->second.worker == worker) return false;
    backlog_[it->second.worker] -= it->second.cost_ticks;
    backlog_[worker] += it->second.cost_ticks;
    it->second.worker = worker;
    return true;
  }

  bool release(CallId call, BacklogLedger::Charge* out = nullptr) {
    const auto it = charges_.find(call);
    if (it == charges_.end()) return false;
    if (out != nullptr) *out = it->second;
    backlog_[it->second.worker] -= it->second.cost_ticks;
    total_ -= it->second.cost_ticks;
    charges_.erase(it);
    return true;
  }

  std::size_t forget_worker(WorkerId worker) {
    std::size_t dropped = 0;
    for (auto it = charges_.begin(); it != charges_.end();) {
      if (it->second.worker == worker) {
        total_ -= it->second.cost_ticks;
        it = charges_.erase(it);
        ++dropped;
      } else {
        ++it;
      }
    }
    backlog_.erase(worker);
    return dropped;
  }

  std::int64_t backlog(WorkerId worker) const {
    const auto it = backlog_.find(worker);
    return it == backlog_.end() ? 0 : it->second;
  }
  std::int64_t total() const { return total_; }
  std::size_t charge_count() const { return charges_.size(); }
  const BacklogLedger::Charge* find(CallId call) const {
    const auto it = charges_.find(call);
    return it == charges_.end() ? nullptr : &it->second;
  }

 private:
  std::unordered_map<CallId, BacklogLedger::Charge> charges_;
  std::unordered_map<WorkerId, std::int64_t> backlog_;
  std::int64_t total_{0};
};

class RefScheduler {
 public:
  using Decision = CallScheduler::Decision;
  using Outcome = CallScheduler::Outcome;

  explicit RefScheduler(SchedConfig config) : config_{config} {}

  Decision route_least_expected_work(const std::string& function,
                                     const std::vector<WorkerId>& workers) {
    WorkerId best = workers.front();
    Cost best_cost = cost_at(function, best);
    WorkerId second = Decision::kNoRunnerUp;
    std::int64_t second_cost = 0;
    for (std::size_t i = 1; i < workers.size(); ++i) {
      const Cost c = cost_at(function, workers[i]);
      if (c.cost < best_cost.cost ||
          (c.cost == best_cost.cost && best_cost.cold && !c.cold)) {
        second = best;
        second_cost = best_cost.cost;
        best = workers[i];
        best_cost = c;
      } else if (second == Decision::kNoRunnerUp || c.cost < second_cost) {
        second = workers[i];
        second_cost = c.cost;
      }
    }
    return finalize(function, best, best_cost, workers.size(), second,
                    second_cost);
  }

  Decision route_sjf_affinity(const std::string& function,
                              const std::vector<WorkerId>& workers,
                              std::size_t home_index) {
    home_index %= workers.size();
    const WorkerId home = workers[home_index];
    const Cost home_cost = cost_at(function, home);
    WorkerId best = home;
    Cost best_cost = home_cost;
    for (std::size_t i = 0; i < workers.size(); ++i) {
      if (i == home_index) continue;
      const Cost c = cost_at(function, workers[i]);
      if (c.cost < best_cost.cost ||
          (c.cost == best_cost.cost && best_cost.cold && !c.cold)) {
        best = workers[i];
        best_cost = c;
      }
    }
    const double slack =
        kSjfAffinitySlack *
            static_cast<double>(
                std::max<std::int64_t>(home_cost.predicted, 1)) +
        static_cast<double>(kColdOverhead.ticks());
    if (best != home &&
        static_cast<double>(home_cost.cost - best_cost.cost) > slack) {
      ++stats_.affinity_escaped;
      return finalize(function, best, best_cost, workers.size(), home,
                      home_cost.cost);
    }
    ++stats_.affinity_kept;
    const WorkerId runner_up = best != home ? best : Decision::kNoRunnerUp;
    return finalize(function, home, home_cost, workers.size(), runner_up,
                    best != home ? best_cost.cost : 0);
  }

  void on_routed(CallId call, const Decision& decision) {
    ledger_.assign(call, decision.worker, decision.cost_ticks,
                   decision.predicted_ticks);
  }

  void on_started(CallId call, WorkerId by, const std::string& function) {
    if (ledger_.find(call) != nullptr) {
      ledger_.move(call, by);
    } else {
      const std::int64_t predicted = estimator_.predict(function).ticks();
      ledger_.assign(call, by, predicted, predicted);
      ++stats_.rescue_charges;
    }
    auto& warm = warm_[function];
    const auto it = std::lower_bound(warm.begin(), warm.end(), by);
    if (it == warm.end() || *it != by) warm.insert(it, by);
  }

  void on_requeued(CallId call) { (void)ledger_.release(call); }

  Outcome on_finished(CallId call, const std::string& function,
                      std::int64_t actual_ticks, bool cold_start) {
    Outcome out;
    BacklogLedger::Charge charge;
    out.had_charge = ledger_.release(call, &charge);
    if (actual_ticks < 0) return out;
    out.predicted_ticks = out.had_charge
                              ? charge.predicted_ticks
                              : estimator_.predict(function).ticks();
    estimator_.observe(function, sim::SimTime::micros(actual_ticks),
                       cold_start);
    out.observed = true;
    out.actual_ticks = actual_ticks;
    out.abs_error_ticks = out.actual_ticks >= out.predicted_ticks
                              ? out.actual_ticks - out.predicted_ticks
                              : out.predicted_ticks - out.actual_ticks;
    ++stats_.error_observations;
    stats_.sum_abs_error_ticks += out.abs_error_ticks;
    return out;
  }

  void forget_worker(WorkerId worker) {
    stats_.forgotten += ledger_.forget_worker(worker);
    for (auto& [fn, warm] : warm_) {
      const auto it = std::lower_bound(warm.begin(), warm.end(), worker);
      if (it != warm.end() && *it == worker) warm.erase(it);
    }
  }

  bool is_warm(WorkerId worker, const std::string& function) const {
    const auto it = warm_.find(function);
    if (it == warm_.end()) return false;
    return std::binary_search(it->second.begin(), it->second.end(), worker);
  }

  const RefEstimator& estimator() const { return estimator_; }
  const RefLedger& ledger() const { return ledger_; }
  const CallScheduler::Stats& stats() const { return stats_; }

 private:
  struct Cost {
    std::int64_t cost{0};
    std::int64_t predicted{0};
    std::int64_t backlog{0};
    bool cold{false};
  };

  Cost cost_at(const std::string& function, WorkerId worker) const {
    Cost c;
    c.cold = !is_warm(worker, function);
    c.backlog = ledger_.backlog(worker);
    if (c.cold) {
      c.predicted = estimator_.predict_cold(function).ticks();
      c.cost = c.backlog + c.predicted + kColdOverhead.ticks();
    } else {
      c.predicted = estimator_.predict(function).ticks();
      c.cost = c.backlog + c.predicted;
    }
    return c;
  }

  Decision finalize(const std::string& function, WorkerId worker,
                    const Cost& cost, std::size_t candidates,
                    WorkerId runner_up, std::int64_t runner_up_cost) {
    Decision d;
    d.worker = worker;
    d.predicted_ticks = cost.predicted;
    d.cost_ticks = cost.predicted +
                   (cost.cold ? kColdOverhead.ticks() : std::int64_t{0});
    d.expected_cold = cost.cold;
    d.runner_up = runner_up;
    d.runner_up_cost_ticks = runner_up_cost;
    d.backlog_ticks = cost.backlog;
    d.candidates = static_cast<std::uint32_t>(candidates);
    if (config_.deadline_classes) {
      const sim::SimTime metric = estimator_.predict(function);
      if (metric <= kShortClassBound) {
        d.short_class = true;
        ++stats_.short_class;
      }
    }
    ++stats_.decisions;
    if (d.expected_cold) ++stats_.cold_routed;
    return d;
  }

  SchedConfig config_;
  RefEstimator estimator_;
  RefLedger ledger_;
  std::unordered_map<std::string, std::vector<WorkerId>> warm_;
  CallScheduler::Stats stats_;
};

// --- The differential driver --------------------------------------------

constexpr std::uint32_t kFunctions = 6;
constexpr WorkerId kWorkerPool = 12;

std::string name_of(FunctionKey f) { return "fn-" + std::to_string(f); }

/// Uniform in [0, n).
std::size_t pick(sim::Rng& rng, std::size_t n) {
  return static_cast<std::size_t>(
      rng.uniform_int(0, static_cast<std::int64_t>(n) - 1));
}

void expect_same(const CallScheduler::Decision& got,
                 const CallScheduler::Decision& want) {
  EXPECT_EQ(got.worker, want.worker);
  EXPECT_EQ(got.predicted_ticks, want.predicted_ticks);
  EXPECT_EQ(got.cost_ticks, want.cost_ticks);
  EXPECT_EQ(got.expected_cold, want.expected_cold);
  EXPECT_EQ(got.short_class, want.short_class);
  EXPECT_EQ(got.runner_up, want.runner_up);
  EXPECT_EQ(got.runner_up_cost_ticks, want.runner_up_cost_ticks);
  EXPECT_EQ(got.backlog_ticks, want.backlog_ticks);
  EXPECT_EQ(got.candidates, want.candidates);
}

void expect_same(const CallScheduler::Outcome& got,
                 const CallScheduler::Outcome& want) {
  EXPECT_EQ(got.had_charge, want.had_charge);
  EXPECT_EQ(got.observed, want.observed);
  EXPECT_EQ(got.predicted_ticks, want.predicted_ticks);
  EXPECT_EQ(got.actual_ticks, want.actual_ticks);
  EXPECT_EQ(got.abs_error_ticks, want.abs_error_ticks);
}

void expect_same_state(const CallScheduler& got, const RefScheduler& want) {
  const CallScheduler::Stats& gs = got.stats();
  const CallScheduler::Stats& ws = want.stats();
  EXPECT_EQ(gs.decisions, ws.decisions);
  EXPECT_EQ(gs.cold_routed, ws.cold_routed);
  EXPECT_EQ(gs.short_class, ws.short_class);
  EXPECT_EQ(gs.affinity_kept, ws.affinity_kept);
  EXPECT_EQ(gs.affinity_escaped, ws.affinity_escaped);
  EXPECT_EQ(gs.rescue_charges, ws.rescue_charges);
  EXPECT_EQ(gs.forgotten, ws.forgotten);
  EXPECT_EQ(gs.error_observations, ws.error_observations);
  EXPECT_EQ(gs.sum_abs_error_ticks, ws.sum_abs_error_ticks);
  EXPECT_EQ(got.estimator().stats().prior_hits, want.estimator().prior_hits_);
  EXPECT_EQ(got.estimator().stats().observations,
            want.estimator().observations_);
  EXPECT_EQ(got.estimator().stats().cold_observations,
            want.estimator().cold_observations_);
  EXPECT_EQ(got.estimator().tracked_functions(),
            want.estimator().tracked_functions());
  EXPECT_EQ(got.ledger().total(), want.ledger().total());
  EXPECT_EQ(got.ledger().charge_count(), want.ledger().charge_count());
  for (WorkerId w = 0; w < kWorkerPool; ++w) {
    EXPECT_EQ(got.ledger().backlog(w), want.ledger().backlog(w)) << "w " << w;
    for (FunctionKey f = 0; f < kFunctions; ++f)
      EXPECT_EQ(got.is_warm(w, f), want.is_warm(w, name_of(f)));
  }
}

/// Which situations one history reached; the test asserts each occurred
/// somewhere in the campaign, so a generator change cannot silently stop
/// covering one.
struct Coverage {
  std::uint64_t unseen_decisions{0};
  std::uint64_t lew_decisions{0};
  std::uint64_t sjf_decisions{0};
  std::uint64_t escapes{0};
  std::uint64_t short_class{0};
  std::uint64_t warm_picks{0};
  std::uint64_t forgets_with_charges{0};
  std::uint64_t rescue_charges{0};
};

void run_history(std::uint64_t seed, Coverage& cov) {
  sim::Rng rng{seed};
  SchedConfig config;
  config.deadline_classes = rng.bernoulli(0.5);
  CallScheduler got{config};
  RefScheduler want{config};

  // Per-function base durations spanning the short-class bound.
  std::vector<std::int64_t> base_ms(kFunctions);
  for (auto& ms : base_ms) ms = rng.uniform_int(5, 2000);

  struct Live {
    CallId call;
    FunctionKey function;
  };
  std::vector<Live> live;
  CallId next_call = 1;
  std::vector<WorkerId> workers;

  for (int step = 0; step < 400; ++step) {
    const double op = rng.uniform();
    if (op < 0.45 || live.empty()) {
      // Route a new call over a random ascending candidate subset.
      workers.clear();
      for (WorkerId w = 0; w < kWorkerPool; ++w)
        if (rng.bernoulli(0.4)) workers.push_back(w);
      if (workers.empty())
        workers.push_back(static_cast<WorkerId>(pick(rng, kWorkerPool)));
      const auto f = static_cast<FunctionKey>(pick(rng, kFunctions));
      if (!got.estimator().seen(f)) ++cov.unseen_decisions;
      CallScheduler::Decision g, w;
      if (rng.bernoulli(0.5)) {
        g = got.route_least_expected_work(f, workers);
        w = want.route_least_expected_work(name_of(f), workers);
        ++cov.lew_decisions;
      } else {
        const std::size_t home = pick(rng, 50);
        const std::uint64_t escaped = got.stats().affinity_escaped;
        g = got.route_sjf_affinity(f, workers, home);
        w = want.route_sjf_affinity(name_of(f), workers, home);
        ++cov.sjf_decisions;
        if (got.stats().affinity_escaped > escaped) ++cov.escapes;
      }
      expect_same(g, w);
      if (g.short_class) ++cov.short_class;
      if (!g.expected_cold) ++cov.warm_picks;
      if (rng.bernoulli(0.9)) {
        got.on_routed(next_call, g);
        want.on_routed(next_call, w);
      }
      live.push_back({next_call++, f});
    } else if (op < 0.65) {
      const Live& l = live[pick(rng, live.size())];
      const auto by = static_cast<WorkerId>(pick(rng, kWorkerPool));
      const std::uint64_t rescues = got.stats().rescue_charges;
      got.on_started(l.call, by, l.function);
      want.on_started(l.call, by, name_of(l.function));
      if (got.stats().rescue_charges > rescues) ++cov.rescue_charges;
    } else if (op < 0.72) {
      const Live& l = live[pick(rng, live.size())];
      got.on_requeued(l.call);
      want.on_requeued(l.call);
    } else if (op < 0.96) {
      const std::size_t k = pick(rng, live.size());
      const Live l = live[k];
      live.erase(live.begin() + static_cast<std::ptrdiff_t>(k));
      const std::int64_t actual =
          rng.bernoulli(0.15)
              ? -1
              : SimTime::millis(base_ms[l.function] +
                                rng.uniform_int(0, base_ms[l.function] / 2))
                    .ticks();
      const bool cold = rng.bernoulli(0.3);
      expect_same(got.on_finished(l.call, l.function, actual, cold),
                  want.on_finished(l.call, name_of(l.function), actual,
                                   cold));
    } else {
      const auto w = static_cast<WorkerId>(pick(rng, kWorkerPool));
      const std::uint64_t forgotten = got.stats().forgotten;
      got.forget_worker(w);
      want.forget_worker(w);
      if (got.stats().forgotten > forgotten) ++cov.forgets_with_charges;
    }
    expect_same_state(got, want);
    if (::testing::Test::HasFailure()) {
      ADD_FAILURE() << "seed " << seed << " step " << step;
      return;
    }
  }
}

TEST(RouteDiff, IndexKeyedSchedulerDecidesAsTheNameKeyedOne) {
  Coverage cov;
  for (std::uint64_t seed = 1; seed <= 300; ++seed) {
    run_history(seed, cov);
    if (::testing::Test::HasFailure()) return;
  }
  EXPECT_GT(cov.unseen_decisions, 0u);
  EXPECT_GT(cov.lew_decisions, 0u);
  EXPECT_GT(cov.sjf_decisions, 0u);
  EXPECT_GT(cov.escapes, 0u);
  EXPECT_GT(cov.short_class, 0u);
  EXPECT_GT(cov.warm_picks, 0u);
  EXPECT_GT(cov.forgets_with_charges, 0u);
  EXPECT_GT(cov.rescue_charges, 0u);
}

}  // namespace
}  // namespace hpcwhisk::sched
