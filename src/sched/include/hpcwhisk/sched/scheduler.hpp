#pragma once
// CallScheduler: duration estimators + backlog ledger + routing policies
// — the decision layer between observation (completed activations) and
// dispatch (which invoker topic a call is published to).
//
// Policies (Żuk & Rzadca, PAPERS.md: least-expected-work / SJF-style
// dispatch cut FaaS tail latency under heterogeneous mixes):
//
//  * least-expected-work: route to the worker minimizing predicted
//    completion time  backlog(w) + E[duration | warm/cold at w],
//    where a worker that never ran the function pays the cold-start
//    overhead prior. Ties prefer warm workers, then the lowest id.
//  * sjf-affinity: keep the hash-homed worker (warm-container reuse,
//    OpenWhisk Sec. II) unless its expected completion exceeds the best
//    worker's by more than `sjf_affinity_slack x predicted duration +
//    kColdOverhead` — an SJF-flavored escape: the shorter the predicted
//    duration, the smaller the queueing delay the call tolerates before
//    abandoning its warm home, with a cold-start hysteresis so nobody
//    trades a warm container for sub-cold-start noise.
//  * deadline classes (optional, both policies): calls whose predicted
//    duration is under `kShortClassBound` are published to the *front*
//    of the chosen worker's queue — they preempt queue position at
//    publish time, never a running execution.
//
// Everything is deterministic: decisions are pure functions of the
// observation history and the candidate list, so seeded runs replay
// byte-identically (SimCheck hashes decision logs over these policies).
//
// Functions are FunctionKeys (dense registry indices). A decision looks
// the function's duration model and warm list up once; each candidate
// then costs one binary search in the warm list and one backlog read.

#include <algorithm>
#include <cstdint>
#include <span>
#include <vector>

#include "hpcwhisk/sched/backlog.hpp"
#include "hpcwhisk/sched/estimator.hpp"
#include "hpcwhisk/sim/time.hpp"

namespace hpcwhisk::sched {

/// Extra cost charged when routing a function to an invoker that has
/// never run it (expected container cold-start overhead). Only a
/// routing-cost prior: the estimator's cold/warm duration models measure
/// execution time, which in this simulator excludes container setup.
inline constexpr sim::SimTime kColdOverhead = sim::SimTime::millis(500);
/// Predicted-duration bound under which a call is short-class.
inline constexpr sim::SimTime kShortClassBound = sim::SimTime::millis(250);

struct SchedConfig {
  EstimatorConfig estimator;
  /// sjf-affinity escape threshold, in units of the call's predicted
  /// duration (see header comment).
  double sjf_affinity_slack{2.0};
  /// Enables the short-class fast path (front-of-queue publish).
  bool deadline_classes{false};
  /// Deadline-class dispersion guard: the short-class test compares
  /// `predict + factor * deviation` against the bound, so a function
  /// whose durations swing wildly must predict well under the bound
  /// before it may jump queues. 0 (default) preserves the plain
  /// predicted <= bound test bit-for-bit.
  double short_class_deviation_factor{0.0};
};

class CallScheduler {
 public:
  explicit CallScheduler(SchedConfig config = {})
      : config_{config}, estimator_{config.estimator} {}

  CallScheduler(const CallScheduler&) = delete;
  CallScheduler& operator=(const CallScheduler&) = delete;

  // --- Routing -------------------------------------------------------------

  struct Decision {
    /// Sentinel runner_up: no alternative existed (single candidate).
    static constexpr WorkerId kNoRunnerUp = ~WorkerId{0};

    WorkerId worker{0};
    std::int64_t predicted_ticks{0};  ///< bare duration prediction
    std::int64_t cost_ticks{0};       ///< duration + cold overhead if cold
    bool expected_cold{false};        ///< worker outside the warm set
    bool short_class{false};          ///< publish to the queue front

    // Explainability (observation only — nothing below feeds back into a
    // routing choice, so decision logs are unchanged by its presence).
    WorkerId runner_up{kNoRunnerUp};       ///< the pick that lost
    std::int64_t runner_up_cost_ticks{0};  ///< its expected completion
    std::int64_t backlog_ticks{0};  ///< chosen worker's charge at decision
    std::uint32_t candidates{0};    ///< workers considered
  };

  /// Least-expected-work pick among `workers` (ascending, non-empty).
  [[nodiscard]] Decision route_least_expected_work(
      FunctionKey function, const std::vector<WorkerId>& workers);

  /// SJF-tiebroken hash affinity; `home_index` indexes into `workers`
  /// (the caller owns the hash — sched does not know function hashing).
  [[nodiscard]] Decision route_sjf_affinity(
      FunctionKey function, const std::vector<WorkerId>& workers,
      std::size_t home_index);

  // --- Lifecycle feedback (the controller drives these) --------------------

  /// The call was published to decision.worker: charge the ledger.
  void on_routed(CallId call, const Decision& decision);

  /// The call started executing on `by`. Moves (or re-creates, after a
  /// rescue) its charge and marks `by` warm for the function.
  void on_started(CallId call, WorkerId by, FunctionKey function);

  /// The call left its queue for the fast lane (drain hand-off, rescue):
  /// its predicted work no longer waits on the charged worker.
  void on_requeued(CallId call);

  struct Outcome {
    bool had_charge{false};
    bool observed{false};
    std::int64_t predicted_ticks{0};
    std::int64_t actual_ticks{0};
    /// |actual - predicted|, valid when observed.
    std::int64_t abs_error_ticks{0};
  };

  /// Terminal state: releases the charge and — for completed executions
  /// (`actual` >= 0) — folds the actual duration into the estimator.
  Outcome on_finished(CallId call, FunctionKey function,
                      std::int64_t actual_ticks, bool cold_start);
  /// As above, attributing the sample to the worker that executed the
  /// call (feeds the per-worker models when they are enabled; pass
  /// DurationEstimator::kAnyWorker when unknown).
  Outcome on_finished(CallId call, FunctionKey function,
                      std::int64_t actual_ticks, bool cold_start,
                      WorkerId worker);

  /// The worker vanished without hand-off: drop all its charges (the
  /// watchdog's rescue re-charges survivors when they restart).
  void forget_worker(WorkerId worker);

  // --- Introspection -------------------------------------------------------

  [[nodiscard]] const DurationEstimator& estimator() const {
    return estimator_;
  }
  [[nodiscard]] const BacklogLedger& ledger() const { return ledger_; }
  [[nodiscard]] bool is_warm(WorkerId worker, FunctionKey function) const {
    const std::span<const WorkerId> warm = warm_set(function);
    return std::binary_search(warm.begin(), warm.end(), worker);
  }
  [[nodiscard]] const SchedConfig& config() const { return config_; }

  struct Stats {
    std::uint64_t decisions{0};
    std::uint64_t cold_routed{0};      ///< decisions outside the warm set
    std::uint64_t short_class{0};      ///< front-of-queue publishes
    std::uint64_t affinity_kept{0};    ///< sjf-affinity stayed home
    std::uint64_t affinity_escaped{0}; ///< ... or fled to the best worker
    std::uint64_t rescue_charges{0};   ///< charges re-created at start
    std::uint64_t forgotten{0};        ///< charges dropped by forget_worker
    /// Prediction-error tallies over observed completions (benches read
    /// these; the obs histogram carries the full distribution).
    std::uint64_t error_observations{0};
    std::int64_t sum_abs_error_ticks{0};
  };
  [[nodiscard]] const Stats& stats() const { return stats_; }

 private:
  struct Cost {
    std::int64_t cost{0};
    std::int64_t predicted{0};
    std::int64_t backlog{0};
    bool cold{false};
  };
  /// The function's warm set (ascending; empty if it never started).
  [[nodiscard]] std::span<const WorkerId> warm_set(FunctionKey function) const {
    if (function >= warm_.size()) return {};
    return warm_[function];
  }
  /// Predicted completion of the call at `worker`, from the function's
  /// model and warm set as looked up once for the decision.
  [[nodiscard]] Cost cost_at(const DurationEstimator::ModelRef& model,
                             std::span<const WorkerId> warm,
                             WorkerId worker) const;
  [[nodiscard]] Decision finalize(const DurationEstimator::ModelRef& model,
                                  FunctionKey function, WorkerId worker,
                                  const Cost& cost, std::size_t candidates,
                                  WorkerId runner_up,
                                  std::int64_t runner_up_cost);

  SchedConfig config_;
  DurationEstimator estimator_;
  BacklogLedger ledger_;
  /// Warm sets, indexed by FunctionKey. Small sorted vectors: worker
  /// counts are tens-to-hundreds and the order makes iteration
  /// deterministic.
  std::vector<std::vector<WorkerId>> warm_;
  Stats stats_;
};

}  // namespace hpcwhisk::sched
