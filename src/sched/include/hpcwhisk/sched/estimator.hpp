#pragma once
// Online per-function execution-duration models — the "observation" half
// of the data-driven call scheduler (Żuk & Rzadca: *Call Scheduling to
// Reduce Response Time of a FaaS System* / *Data-driven scheduling in
// serverless computing*, PAPERS.md).
//
// Two complementary models per function, both O(1) per observation and
// fully deterministic (no RNG, state is a pure fold over the observation
// sequence — which is what lets SimCheck replay-hash runs that route on
// these estimates):
//
//  * an EWMA mean + mean-absolute-deviation pair, kept separately for
//    cold-start and warm-start executions (cold executions dilate and
//    should not pollute the steady-state estimate, and vice versa);
//  * a log-bucketed quantile sketch using the same bucketing scheme as
//    obs::MetricsRegistry histograms (8 sub-buckets per octave,
//    <= 12.5 % relative quantile error) so routing policies can ask for
//    a tail estimate (e.g. p95) without storing raw samples.
//
// Functions never seen before fall back to a configurable prior — the
// papers' "no history" case. The estimator tells callers when it did
// (prior_hits), so benches can report how long the cold-history window
// lasted.
//
// Functions are keyed by their dense registry index (FunctionKey), so
// the models live in one vector and a lookup is an array read.

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "hpcwhisk/sim/time.hpp"

namespace hpcwhisk::sched {

/// Dense function index (whisk::FunctionSpec::index): sched sits below
/// whisk, so functions arrive as their registry index, never by name.
using FunctionKey = std::uint32_t;

/// Log-bucketed quantile sketch over non-negative tick counts. Mirrors
/// the bucketing of obs::Histogram (kSubBuckets linear slices per
/// octave) but stays dependency-free: sched sits *below* whisk and obs
/// in the layer order, so it cannot link against them.
class QuantileSketch {
 public:
  static constexpr int kSubBuckets = 8;
  static constexpr int kOctaves = 60;

  void observe(double v);

  [[nodiscard]] std::uint64_t count() const { return count_; }
  [[nodiscard]] double min() const { return count_ == 0 ? 0.0 : min_; }
  [[nodiscard]] double max() const { return count_ == 0 ? 0.0 : max_; }
  /// Quantile estimate from bucket boundaries, clamped to the observed
  /// [min, max]. q in [0, 1]; 0 with no samples.
  [[nodiscard]] double quantile(double q) const;

 private:
  static std::size_t bucket_index(double v);
  static double bucket_mid(std::size_t idx);

  // 480 buckets x 2 bytes would be enough at sim scale, but keep u32 for
  // soak runs; ~2 KB per tracked function.
  std::uint32_t buckets_[static_cast<std::size_t>(kOctaves) * kSubBuckets]{};
  std::uint64_t count_{0};
  double min_{0};
  double max_{0};
};

struct EstimatorConfig {
  /// EWMA smoothing factor for mean and mean-absolute-deviation.
  double alpha{0.25};
  /// Duration assumed for a function with no history (the papers use the
  /// fleet median; we make it a knob so benches can mis-set it on
  /// purpose and measure how fast the model recovers).
  sim::SimTime prior{sim::SimTime::millis(100)};
  /// Additionally keep a (function, worker) EWMA pair and let the
  /// worker-qualified predict overloads answer from it when it has
  /// history. Captures per-node heterogeneity (CPU dilation under
  /// co-location, slow nodes) that the global model averages away.
  /// Off by default: the overloads then delegate to the global model
  /// and routing decisions are byte-identical.
  bool per_worker{false};
};

/// Per-function online duration model fed from activation completions.
class DurationEstimator {
  struct Model;

 public:
  /// Worker id meaning "not attributable to a worker" (matches the
  /// controller's kNoInvoker sentinel, ~0u): per-worker folding and
  /// lookups are skipped for it.
  static constexpr std::uint32_t kAnyWorker = ~std::uint32_t{0};

  explicit DurationEstimator(EstimatorConfig config = {})
      : config_{config} {}

  /// One function's model, looked up once: a routing decision asks it
  /// for every candidate worker without another lookup. Valid until the
  /// next observe().
  class ModelRef {
   public:
    /// Worker-qualified prediction: the (function, worker) warm EWMA
    /// when per_worker is on and that pair has history; otherwise the
    /// function's predict() (same value, same prior_hits accounting).
    [[nodiscard]] sim::SimTime predict(std::uint32_t worker = kAnyWorker) const;
    /// Worker-qualified prediction for a cold execution, falling back
    /// like predict(worker).
    [[nodiscard]] sim::SimTime predict_cold(
        std::uint32_t worker = kAnyWorker) const;

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
  /// As above, additionally folding the (function, worker) model when
  /// EstimatorConfig::per_worker is set and `worker` != kAnyWorker.
  void observe(FunctionKey function, sim::SimTime duration, bool cold_start,
               std::uint32_t worker);

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
  /// Tail estimate from the quantile sketch; predict() with no samples.
  [[nodiscard]] sim::SimTime predict_quantile(FunctionKey function,
                                              double q) const;
  /// EWMA of |sample - mean| for the warm model (0 with no history):
  /// a dispersion signal for deadline classification.
  [[nodiscard]] sim::SimTime deviation(FunctionKey function) const;

  [[nodiscard]] bool seen(FunctionKey function) const {
    return find(function) != nullptr;
  }
  [[nodiscard]] std::uint64_t observations(FunctionKey function) const;
  [[nodiscard]] std::size_t tracked_functions() const { return tracked_; }
  [[nodiscard]] const EstimatorConfig& config() const { return config_; }

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
    double abs_dev{0};
    std::uint64_t count{0};

    void fold(double sample, double alpha);
  };

  struct WorkerEwmas {
    Ewma warm;
    Ewma cold;
  };

  struct Model {
    Ewma warm;
    Ewma cold;
    /// Every observation lands here, so count() > 0 marks a seen model.
    QuantileSketch sketch;
    /// Populated only when EstimatorConfig::per_worker is set.
    std::unordered_map<std::uint32_t, WorkerEwmas> per_worker;
  };

  /// The function's model, or null if it was never observed.
  [[nodiscard]] const Model* find(FunctionKey function) const {
    return function < models_.size() && models_[function].sketch.count() > 0
               ? &models_[function]
               : nullptr;
  }

  EstimatorConfig config_;
  /// Indexed by FunctionKey; grown to the largest key observed.
  std::vector<Model> models_;
  std::size_t tracked_{0};
  Stats stats_;
};

}  // namespace hpcwhisk::sched
