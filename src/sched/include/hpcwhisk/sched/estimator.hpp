#pragma once
// Online per-function execution-duration models — the "observation" half
// of the data-driven call scheduler (Żuk & Rzadca: *Call Scheduling to
// Reduce Response Time of a FaaS System* / *Data-driven scheduling in
// serverless computing*, PAPERS.md).
//
// Per function, an EWMA of the execution duration, kept separately for
// cold-start and warm-start executions (cold executions dilate and should
// not pollute the steady-state estimate, and vice versa). O(1) per
// observation and fully deterministic (no RNG, state is a pure fold over
// the observation sequence — which is what lets SimCheck replay-hash runs
// that route on these estimates).
//
// Functions never seen before fall back to kDurationPrior — the papers'
// "no history" case. The estimator tells callers when it did
// (prior_hits), so benches can report how long the cold-history window
// lasted.
//
// Functions are keyed by their dense registry index (FunctionKey), so
// the models live in one vector and a lookup is an array read.

#include <cstdint>
#include <vector>

#include "hpcwhisk/sim/time.hpp"

namespace hpcwhisk::sched {

/// Dense function index (whisk::FunctionSpec::index): sched sits below
/// whisk, so functions arrive as their registry index, never by name.
using FunctionKey = std::uint32_t;

/// EWMA smoothing factor of the duration models.
inline constexpr double kDurationAlpha = 0.25;
/// Duration assumed for a function with no history (the papers use the
/// fleet median).
inline constexpr sim::SimTime kDurationPrior = sim::SimTime::millis(100);

/// Per-function online duration model fed from activation completions.
class DurationEstimator {
  struct Model;

 public:
  /// One function's model, looked up once: a routing decision asks it
  /// for every candidate worker without another lookup. Valid until the
  /// next observe().
  class ModelRef {
   public:
    /// Warm EWMA if warm history exists, else cold EWMA, else the prior.
    [[nodiscard]] sim::SimTime predict() const;
    /// Cold EWMA if cold history exists, else warm EWMA, else the prior.
    [[nodiscard]] sim::SimTime predict_cold() const;

   private:
    friend class DurationEstimator;
    ModelRef(const DurationEstimator& estimator, const Model* model)
        : estimator_{&estimator}, model_{model} {}

    const DurationEstimator* estimator_;
    const Model* model_;  ///< null: never observed (answers the prior)
  };

  [[nodiscard]] ModelRef model(FunctionKey function) const {
    return ModelRef{*this, find(function)};
  }

  /// Folds one completed execution into the function's model.
  void observe(FunctionKey function, sim::SimTime duration, bool cold_start);

  /// Best single-point prediction for one execution of `function`:
  /// warm EWMA if warm history exists, else cold EWMA, else the prior.
  /// Reads never mutate state (prior_hits is the only, explicit, tally).
  [[nodiscard]] sim::SimTime predict(FunctionKey function) const {
    return model(function).predict();
  }
  /// Prediction for a cold execution (cold EWMA, falling back like
  /// predict()). The cold-start *overhead* is the router's
  /// kColdOverhead (scheduler.hpp).
  [[nodiscard]] sim::SimTime predict_cold(FunctionKey function) const {
    return model(function).predict_cold();
  }

  [[nodiscard]] bool seen(FunctionKey function) const {
    return find(function) != nullptr;
  }
  [[nodiscard]] std::uint64_t observations(FunctionKey function) const;
  [[nodiscard]] std::size_t tracked_functions() const { return tracked_; }

  struct Stats {
    std::uint64_t observations{0};
    std::uint64_t cold_observations{0};
    /// predict() calls answered by the never-seen prior.
    mutable std::uint64_t prior_hits{0};
  };
  [[nodiscard]] const Stats& stats() const { return stats_; }

 private:
  struct Ewma {
    double mean{0};
    std::uint64_t count{0};

    void fold(double sample);
  };

  struct Model {
    Ewma warm;
    Ewma cold;
  };

  /// The function's model, or null if it was never observed.
  [[nodiscard]] const Model* find(FunctionKey function) const {
    if (function >= models_.size()) return nullptr;
    const Model& m = models_[function];
    return m.warm.count + m.cold.count > 0 ? &m : nullptr;
  }

  /// Indexed by FunctionKey; grown to the largest key observed.
  std::vector<Model> models_;
  std::size_t tracked_{0};
  Stats stats_;
};

}  // namespace hpcwhisk::sched
