#include "hpcwhisk/sched/estimator.hpp"

#include <algorithm>
#include <cmath>

namespace hpcwhisk::sched {

// --- QuantileSketch --------------------------------------------------------
// Same bucket geometry as obs::Histogram: octave = floor(log2 v), each
// octave split into kSubBuckets linear slices.

std::size_t QuantileSketch::bucket_index(double v) {
  if (!(v >= 1.0)) return 0;  // negatives, zeros, NaNs: first bucket
  int exp = 0;
  const double mant = std::frexp(v, &exp);  // v = mant * 2^exp, mant in [0.5,1)
  const int octave = std::min(exp - 1, kOctaves - 1);
  const int sub = std::min(kSubBuckets - 1,
                           static_cast<int>((mant - 0.5) * 2.0 * kSubBuckets));
  return static_cast<std::size_t>(octave) * kSubBuckets +
         static_cast<std::size_t>(sub);
}

double QuantileSketch::bucket_mid(std::size_t idx) {
  const double octave = static_cast<double>(idx / kSubBuckets);
  const double sub = static_cast<double>(idx % kSubBuckets);
  const double lo =
      std::ldexp(1.0 + sub / kSubBuckets, static_cast<int>(octave));
  const double hi =
      std::ldexp(1.0 + (sub + 1.0) / kSubBuckets, static_cast<int>(octave));
  return (lo + hi) / 2.0;
}

void QuantileSketch::observe(double v) {
  ++buckets_[bucket_index(v)];
  if (count_ == 0) {
    min_ = max_ = v;
  } else {
    min_ = std::min(min_, v);
    max_ = std::max(max_, v);
  }
  ++count_;
}

double QuantileSketch::quantile(double q) const {
  if (count_ == 0) return 0.0;
  q = std::clamp(q, 0.0, 1.0);
  const std::uint64_t rank = std::max<std::uint64_t>(
      1,
      static_cast<std::uint64_t>(std::ceil(q * static_cast<double>(count_))));
  std::uint64_t seen = 0;
  constexpr std::size_t kBuckets =
      static_cast<std::size_t>(kOctaves) * kSubBuckets;
  for (std::size_t i = 0; i < kBuckets; ++i) {
    seen += buckets_[i];
    if (seen >= rank) return std::clamp(bucket_mid(i), min_, max_);
  }
  return max_;
}

// --- DurationEstimator -----------------------------------------------------

void DurationEstimator::Ewma::fold(double sample, double alpha) {
  if (count == 0) {
    mean = sample;
    abs_dev = 0.0;
  } else {
    const double err = sample - mean;
    mean += alpha * err;
    abs_dev += alpha * (std::abs(err) - abs_dev);
  }
  ++count;
}

void DurationEstimator::observe(FunctionKey function, sim::SimTime duration,
                                bool cold_start) {
  observe(function, duration, cold_start, kAnyWorker);
}

void DurationEstimator::observe(FunctionKey function, sim::SimTime duration,
                                bool cold_start, std::uint32_t worker) {
  if (function >= models_.size()) models_.resize(std::size_t{function} + 1);
  Model& model = models_[function];
  if (model.sketch.count() == 0) ++tracked_;
  const auto sample = static_cast<double>(duration.ticks());
  (cold_start ? model.cold : model.warm).fold(sample, config_.alpha);
  model.sketch.observe(sample);
  if (config_.per_worker && worker != kAnyWorker) {
    WorkerEwmas& w = model.per_worker[worker];
    (cold_start ? w.cold : w.warm).fold(sample, config_.alpha);
  }
  ++stats_.observations;
  if (cold_start) ++stats_.cold_observations;
}

sim::SimTime DurationEstimator::ModelRef::predict(std::uint32_t worker) const {
  if (model_ == nullptr) {
    ++estimator_->stats_.prior_hits;
    return estimator_->config_.prior;
  }
  if (estimator_->config_.per_worker && worker != kAnyWorker) {
    const auto w = model_->per_worker.find(worker);
    if (w != model_->per_worker.end() && w->second.warm.count > 0)
      return sim::SimTime::micros(
          static_cast<std::int64_t>(w->second.warm.mean));
  }
  const Ewma& e = model_->warm.count > 0 ? model_->warm : model_->cold;
  return sim::SimTime::micros(static_cast<std::int64_t>(e.mean));
}

sim::SimTime DurationEstimator::ModelRef::predict_cold(
    std::uint32_t worker) const {
  if (model_ == nullptr) {
    ++estimator_->stats_.prior_hits;
    return estimator_->config_.prior;
  }
  if (estimator_->config_.per_worker && worker != kAnyWorker) {
    const auto w = model_->per_worker.find(worker);
    if (w != model_->per_worker.end() && w->second.cold.count > 0)
      return sim::SimTime::micros(
          static_cast<std::int64_t>(w->second.cold.mean));
  }
  const Ewma& e = model_->cold.count > 0 ? model_->cold : model_->warm;
  return sim::SimTime::micros(static_cast<std::int64_t>(e.mean));
}

sim::SimTime DurationEstimator::predict_quantile(FunctionKey function,
                                                 double q) const {
  const Model* m = find(function);
  if (m == nullptr) return predict(function);
  return sim::SimTime::micros(
      static_cast<std::int64_t>(m->sketch.quantile(q)));
}

sim::SimTime DurationEstimator::deviation(FunctionKey function) const {
  const Model* m = find(function);
  if (m == nullptr) return sim::SimTime::zero();
  return sim::SimTime::micros(static_cast<std::int64_t>(m->warm.abs_dev));
}

std::uint64_t DurationEstimator::observations(FunctionKey function) const {
  const Model* m = find(function);
  return m == nullptr ? 0 : m->warm.count + m->cold.count;
}

}  // namespace hpcwhisk::sched
