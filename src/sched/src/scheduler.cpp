#include "hpcwhisk/sched/scheduler.hpp"

#include <algorithm>

namespace hpcwhisk::sched {

CallScheduler::Cost CallScheduler::cost_at(
    const DurationEstimator::ModelRef& model, std::span<const WorkerId> warm,
    WorkerId worker) const {
  Cost c;
  c.cold = !std::binary_search(warm.begin(), warm.end(), worker);
  c.backlog = ledger_.backlog(worker);
  // Worker-qualified predictions: identical to the global model unless
  // per-worker models are enabled and this (function, worker) pair has
  // history of its own.
  if (c.cold) {
    c.predicted = model.predict_cold(worker).ticks();
    c.cost = c.backlog + c.predicted + kColdOverhead.ticks();
  } else {
    c.predicted = model.predict(worker).ticks();
    c.cost = c.backlog + c.predicted;
  }
  return c;
}

CallScheduler::Decision CallScheduler::finalize(
    const DurationEstimator::ModelRef& model, FunctionKey function,
    WorkerId worker, const Cost& cost, std::size_t candidates,
    WorkerId runner_up, std::int64_t runner_up_cost) {
  Decision d;
  d.worker = worker;
  d.predicted_ticks = cost.predicted;
  d.cost_ticks =
      cost.predicted + (cost.cold ? kColdOverhead.ticks() : std::int64_t{0});
  d.expected_cold = cost.cold;
  d.runner_up = runner_up;
  d.runner_up_cost_ticks = runner_up_cost;
  d.backlog_ticks = cost.backlog;
  d.candidates = static_cast<std::uint32_t>(candidates);
  if (config_.deadline_classes) {
    sim::SimTime metric = model.predict();
    if (config_.short_class_deviation_factor > 0.0) {
      // Dispersion guard: high-variance functions must predict well
      // under the bound before they may jump queues.
      metric = metric + sim::SimTime::micros(static_cast<std::int64_t>(
                            config_.short_class_deviation_factor *
                            static_cast<double>(
                                estimator_.deviation(function).ticks())));
    }
    if (metric <= kShortClassBound) {
      d.short_class = true;
      ++stats_.short_class;
    }
  }
  ++stats_.decisions;
  if (d.expected_cold) ++stats_.cold_routed;
  return d;
}

CallScheduler::Decision CallScheduler::route_least_expected_work(
    FunctionKey function, const std::vector<WorkerId>& workers) {
  const DurationEstimator::ModelRef model = estimator_.model(function);
  const std::span<const WorkerId> warm = warm_set(function);
  WorkerId best = workers.front();
  Cost best_cost = cost_at(model, warm, best);
  // Second-best tracking is explainability bookkeeping only: the chosen
  // worker comes out of exactly the comparison chain this always ran.
  WorkerId second = Decision::kNoRunnerUp;
  std::int64_t second_cost = 0;
  for (std::size_t i = 1; i < workers.size(); ++i) {
    const Cost c = cost_at(model, warm, workers[i]);
    // Strict < keeps the lowest id on exact ties; on a cost tie a warm
    // worker beats a cold one even at a higher id (same expected finish,
    // fewer containers spawned).
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
  return finalize(model, function, best, best_cost, workers.size(), second,
                  second_cost);
}

CallScheduler::Decision CallScheduler::route_sjf_affinity(
    FunctionKey function, const std::vector<WorkerId>& workers,
    std::size_t home_index) {
  const DurationEstimator::ModelRef model = estimator_.model(function);
  const std::span<const WorkerId> warm = warm_set(function);
  home_index %= workers.size();
  const WorkerId home = workers[home_index];
  const Cost home_cost = cost_at(model, warm, home);

  WorkerId best = home;
  Cost best_cost = home_cost;
  for (std::size_t i = 0; i < workers.size(); ++i) {
    if (i == home_index) continue;
    const Cost c = cost_at(model, warm, workers[i]);
    if (c.cost < best_cost.cost ||
        (c.cost == best_cost.cost && best_cost.cold && !c.cold)) {
      best = workers[i];
      best_cost = c;
    }
  }

  // SJF-flavored escape: leave the warm home only when its excess
  // queueing exceeds a cold start (what an escape risks paying at the
  // destination) plus a duration-proportional term — short calls flee
  // real overload quickly, long calls tolerate proportionally more, and
  // nobody trades a warm home for sub-cold-start noise.
  const double slack =
      config_.sjf_affinity_slack *
          static_cast<double>(std::max<std::int64_t>(home_cost.predicted, 1)) +
      static_cast<double>(kColdOverhead.ticks());
  if (best != home && static_cast<double>(home_cost.cost - best_cost.cost) >
                          slack) {
    ++stats_.affinity_escaped;
    // The rejected alternative is the warm home the call abandoned.
    return finalize(model, function, best, best_cost, workers.size(), home,
                    home_cost.cost);
  }
  ++stats_.affinity_kept;
  const WorkerId runner_up = best != home ? best : Decision::kNoRunnerUp;
  return finalize(model, function, home, home_cost, workers.size(),
                  runner_up, best != home ? best_cost.cost : 0);
}

void CallScheduler::on_routed(CallId call, const Decision& decision) {
  ledger_.assign(call, decision.worker, decision.cost_ticks,
                 decision.predicted_ticks);
}

void CallScheduler::on_started(CallId call, WorkerId by,
                               FunctionKey function) {
  if (ledger_.find(call) != nullptr) {
    ledger_.move(call, by);
  } else {
    // Charge was dropped (forget_worker after a hard kill) or the call
    // predates the scheduler: re-charge against the executing worker so
    // its in-flight work is visible again.
    const std::int64_t predicted = estimator_.predict(function).ticks();
    ledger_.assign(call, by, predicted, predicted);
    ++stats_.rescue_charges;
  }
  if (function >= warm_.size()) warm_.resize(std::size_t{function} + 1);
  std::vector<WorkerId>& warm = warm_[function];
  const auto it = std::lower_bound(warm.begin(), warm.end(), by);
  if (it == warm.end() || *it != by) warm.insert(it, by);
}

void CallScheduler::on_requeued(CallId call) { (void)ledger_.release(call); }

CallScheduler::Outcome CallScheduler::on_finished(CallId call,
                                                  FunctionKey function,
                                                  std::int64_t actual_ticks,
                                                  bool cold_start) {
  return on_finished(call, function, actual_ticks, cold_start,
                     DurationEstimator::kAnyWorker);
}

CallScheduler::Outcome CallScheduler::on_finished(CallId call,
                                                  FunctionKey function,
                                                  std::int64_t actual_ticks,
                                                  bool cold_start,
                                                  WorkerId worker) {
  Outcome out;
  BacklogLedger::Charge charge;
  out.had_charge = ledger_.release(call, &charge);
  if (actual_ticks < 0) return out;  // never executed (timeout, 503, kill)
  // Pin the prediction *before* folding the sample in, so the reported
  // error is a genuine forecast error even on the uncharged path.
  out.predicted_ticks = out.had_charge ? charge.predicted_ticks
                                       : estimator_.predict(function).ticks();
  estimator_.observe(function, sim::SimTime::micros(actual_ticks), cold_start,
                     worker);
  out.observed = true;
  out.actual_ticks = actual_ticks;
  out.abs_error_ticks = out.actual_ticks >= out.predicted_ticks
                            ? out.actual_ticks - out.predicted_ticks
                            : out.predicted_ticks - out.actual_ticks;
  ++stats_.error_observations;
  stats_.sum_abs_error_ticks += out.abs_error_ticks;
  return out;
}

void CallScheduler::forget_worker(WorkerId worker) {
  stats_.forgotten += ledger_.forget_worker(worker);
  for (std::vector<WorkerId>& warm : warm_) {
    const auto it = std::lower_bound(warm.begin(), warm.end(), worker);
    if (it != warm.end() && *it == worker) warm.erase(it);
  }
}

}  // namespace hpcwhisk::sched
