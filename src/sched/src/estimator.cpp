#include "hpcwhisk/sched/estimator.hpp"

namespace hpcwhisk::sched {

void DurationEstimator::Ewma::fold(double sample) {
  mean = count == 0 ? sample : mean + kDurationAlpha * (sample - mean);
  ++count;
}

void DurationEstimator::observe(FunctionKey function, sim::SimTime duration,
                                bool cold_start) {
  if (function >= models_.size()) models_.resize(std::size_t{function} + 1);
  Model& model = models_[function];
  if (model.warm.count + model.cold.count == 0) ++tracked_;
  (cold_start ? model.cold : model.warm)
      .fold(static_cast<double>(duration.ticks()));
  ++stats_.observations;
  if (cold_start) ++stats_.cold_observations;
}

sim::SimTime DurationEstimator::ModelRef::predict() const {
  if (model_ == nullptr) {
    ++estimator_->stats_.prior_hits;
    return kDurationPrior;
  }
  const Ewma& e = model_->warm.count > 0 ? model_->warm : model_->cold;
  return sim::SimTime::micros(static_cast<std::int64_t>(e.mean));
}

sim::SimTime DurationEstimator::ModelRef::predict_cold() const {
  if (model_ == nullptr) {
    ++estimator_->stats_.prior_hits;
    return kDurationPrior;
  }
  const Ewma& e = model_->cold.count > 0 ? model_->cold : model_->warm;
  return sim::SimTime::micros(static_cast<std::int64_t>(e.mean));
}

std::uint64_t DurationEstimator::observations(FunctionKey function) const {
  const Model* m = find(function);
  return m == nullptr ? 0 : m->warm.count + m->cold.count;
}

}  // namespace hpcwhisk::sched
