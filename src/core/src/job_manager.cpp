#include "hpcwhisk/core/job_manager.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "hpcwhisk/obs/observability.hpp"

namespace hpcwhisk::core {

namespace {
/// var model: every flexible pilot asks for --time-min 2 min and
/// --time 120 min; Slurm sizes it in between.
constexpr sim::SimTime kVarTimeMin = sim::SimTime::minutes(2);
constexpr sim::SimTime kVarTimeMax = sim::SimTime::minutes(120);
}  // namespace

const char* to_string(SupplyModel m) {
  switch (m) {
    case SupplyModel::kFib: return "fib";
    case SupplyModel::kVar: return "var";
  }
  return "?";
}

std::vector<sim::SimTime> job_length_set(const std::string& name) {
  const auto mins = [](std::initializer_list<int> xs) {
    std::vector<sim::SimTime> out;
    out.reserve(xs.size());
    for (const int x : xs) out.push_back(sim::SimTime::minutes(x));
    return out;
  };
  if (name == "A1") return mins({2, 4, 6, 8, 14, 22, 34, 56, 90});
  if (name == "A2") return mins({2, 4, 8, 12, 20, 34, 54, 88});
  if (name == "A3") return mins({2, 4, 6, 10, 16, 26, 42, 68, 110});
  if (name == "B") return mins({2, 4, 8, 16, 32, 64});
  if (name == "C1") return mins({2, 4, 6, 8, 10, 12, 14, 16, 18, 20});
  if (name == "C2") {
    std::vector<sim::SimTime> out;
    for (int m = 2; m <= 120; m += 2) out.push_back(sim::SimTime::minutes(m));
    return out;
  }
  throw std::invalid_argument("job_length_set: unknown set '" + name + "'");
}

JobManager::JobManager(sim::Simulation& simulation, slurm::Slurmctld& slurmctld,
                       mq::Broker& broker,
                       const whisk::FunctionRegistry& registry,
                       whisk::Controller& controller, Config config,
                       sim::Rng rng)
    : sim_{simulation},
      slurmctld_{slurmctld},
      broker_{broker},
      registry_{registry},
      controller_{controller},
      config_{std::move(config)},
      rng_{rng},
      warmup_{config_.warmup_median_s, config_.warmup_p95_s, 0.95} {
  if (config_.fib_lengths.empty()) config_.fib_lengths = job_length_set("A1");
  HW_OBS_IF(config_.obs) {
    config_.obs->metrics.add_collector([this](obs::MetricsRegistry& m) {
      m.counter("pilot.submitted").set(counters_.submitted);
      m.counter("pilot.started").set(counters_.started);
      m.counter("pilot.preempted").set(counters_.preempted);
      m.counter("pilot.timed_out").set(counters_.timed_out);
      m.counter("pilot.completed").set(counters_.completed);
      m.counter("pilot.hard_killed").set(counters_.hard_killed);
      m.gauge("pilot.active").set(static_cast<double>(pilots_.size()));
      m.gauge("pilot.queued").set(static_cast<double>(queued_.size()));
      m.gauge("harvest.harvested_node_s").set(harvest_.harvested.to_seconds());
      m.gauge("harvest.warmup_overhead_s")
          .set(harvest_.warmup_overhead.to_seconds());
      m.gauge("harvest.drain_overhead_s")
          .set(harvest_.drain_overhead.to_seconds());
      m.gauge("harvest.preempt_wasted_s")
          .set(harvest_.preempt_wasted.to_seconds());
      m.gauge("harvest.efficiency").set(harvest_.efficiency());
      m.counter("harvest.pilots_served").set(harvest_.pilots_served);
      m.counter("harvest.pilots_never_served")
          .set(harvest_.pilots_never_served);
    });
  }
}

void JobManager::start() {
  if (running_) return;
  running_ = true;
  replenish();
  replenish_loop_ =
      sim_.every(config_.replenish_interval, [this] { replenish(); });
  if (config_.adaptive && config_.model == SupplyModel::kFib) {
    adapt_loop_ =
        sim_.every(config_.adapt_interval, [this] { adapt_lengths(); });
  }
}

void JobManager::adapt_lengths() {
  if (!running_) return;
  std::vector<double> window_min;
  if (config_.hole_sampler) {
    window_min = config_.hole_sampler();
    if (window_min.size() < config_.adapt_min_samples) return;
  } else {
    // Fallback: this manager's own pilots' serving durations since the
    // previous adaptation.
    if (serving_durations_.size() <
        adapt_consumed_ + config_.adapt_min_samples)
      return;
    window_min.reserve(serving_durations_.size() - adapt_consumed_);
    for (std::size_t i = adapt_consumed_; i < serving_durations_.size(); ++i)
      window_min.push_back(serving_durations_[i].to_minutes());
    adapt_consumed_ = serving_durations_.size();
  }
  std::sort(window_min.begin(), window_min.end());

  // New lengths: serving-duration quantiles, quantized to the 2-minute
  // allocation slot, deduplicated, clamped to [2, 120] minutes. The top
  // quantiles keep long holes coverable; the low ones keep short holes
  // fillable.
  const auto quantile = [&window_min](double p) {
    const std::size_t idx = std::min(
        window_min.size() - 1,
        static_cast<std::size_t>(p * static_cast<double>(window_min.size())));
    return window_min[idx];
  };
  // Serving durations are censored by the current lengths (a pilot can
  // never serve longer than its own limit), so pure quantiles would only
  // ever ratchet the set downward. Two exploration anchors — the 2-min
  // slot and the 120-min window — keep both ends of the hole spectrum
  // probed, letting the quantiles grow back when long holes exist.
  std::vector<sim::SimTime> lengths{sim::SimTime::minutes(2)};
  for (const double p : {0.5, 0.75, 0.9, 0.95, 0.99}) {
    const double even_min =
        std::clamp(2.0 * std::round(quantile(p) / 2.0), 2.0, 120.0);
    const sim::SimTime len = sim::SimTime::minutes(even_min);
    if (lengths.back() < len) lengths.push_back(len);
  }
  if (lengths.back() < sim::SimTime::minutes(120))
    lengths.push_back(sim::SimTime::minutes(120));
  config_.fib_lengths = std::move(lengths);
  ++adaptations_;

  // Retire queued pilots with now-obsolete lengths; the next replenish
  // refills with the adapted set.
  std::vector<slurm::JobId> stale;
  for (const auto& [id, len] : queued_) {
    if (std::find(config_.fib_lengths.begin(), config_.fib_lengths.end(),
                  len) == config_.fib_lengths.end()) {
      stale.push_back(id);
    }
  }
  for (const slurm::JobId id : stale) slurmctld_.cancel(id);
}

void JobManager::stop() {
  if (!running_) return;
  running_ = false;
  replenish_loop_.stop();
  adapt_loop_.stop();
  // Cancel everything still queued; copy ids first because cancellation
  // mutates queued_ via on_pilot_end.
  std::vector<slurm::JobId> ids;
  ids.reserve(queued_.size());
  for (const auto& [id, len] : queued_) ids.push_back(id);
  for (const slurm::JobId id : ids) slurmctld_.cancel(id);
}

std::vector<whisk::Invoker*> JobManager::serving_invokers() {
  std::vector<whisk::Invoker*> out;
  for (auto& [id, pilot] : pilots_) {
    if (pilot->phase() == PilotJob::Phase::kServing)
      out.push_back(&pilot->invoker());
  }
  return out;
}

JobManager::PhaseCounts JobManager::phase_counts() const {
  PhaseCounts out;
  for (const auto& [id, pilot] : pilots_) {
    switch (pilot->phase()) {
      case PilotJob::Phase::kWarmingUp: ++out.warming_up; break;
      case PilotJob::Phase::kServing: ++out.serving; break;
      case PilotJob::Phase::kDraining: ++out.draining; break;
      case PilotJob::Phase::kExited: break;
    }
  }
  return out;
}

void JobManager::replenish() {
  if (!running_) return;
  graveyard_.clear();  // safe point: no pilot frames on the stack

  if (config_.model == SupplyModel::kFib) {
    // Count queued jobs per length; top each up to fib_per_length.
    std::map<std::int64_t, std::size_t> per_length;
    for (const auto& [id, len] : queued_) ++per_length[len.ticks()];
    for (const sim::SimTime len : config_.fib_lengths) {
      const std::size_t have = per_length[len.ticks()];
      for (std::size_t i = have; i < config_.fib_per_length; ++i) {
        if (queued_.size() >= config_.max_queued) return;
        submit_pilot(len, /*variable=*/false);
      }
    }
  } else {
    for (std::size_t i = queued_.size(); i < config_.var_target; ++i) {
      if (queued_.size() >= config_.max_queued) return;
      submit_pilot(kVarTimeMax, /*variable=*/true);
    }
  }
}

void JobManager::submit_pilot(sim::SimTime length, bool variable) {
  slurm::JobSpec spec;
  spec.name = variable ? "hpcwhisk-var" : "hpcwhisk-fib";
  spec.partition = config_.partition;
  spec.num_nodes = 1;
  spec.time_limit = length;
  spec.time_min = variable ? kVarTimeMin : sim::SimTime::zero();
  spec.actual_runtime = sim::SimTime::max();  // serves until terminated
  // Longer declared length => higher priority within the pilot tier,
  // making Slurm greedy towards long holes (Sec. III-D b).
  spec.priority = variable ? 0 : length / sim::SimTime::minutes(1);
  spec.tres_per_node = config_.pilot_tres;
  spec.qos = config_.pilot_qos;
  if (!config_.pilot_qos_long.empty() && !variable &&
      !config_.fib_lengths.empty() && length == config_.fib_lengths.back()) {
    spec.qos = config_.pilot_qos_long;
  }
  spec.on_start = [this](const slurm::JobRecord& rec) { on_pilot_start(rec); };
  spec.on_sigterm = [this](const slurm::JobRecord& rec) {
    on_pilot_sigterm(rec);
  };
  spec.on_end = [this](const slurm::JobRecord& rec, slurm::EndReason reason) {
    on_pilot_end(rec, reason);
  };
  const slurm::JobId id = slurmctld_.submit(std::move(spec));
  queued_.emplace(id, length);
  ++counters_.submitted;
  HW_OBS_IF(config_.obs) {
    config_.obs->trace.record_chained(
        obs::Cat::kPilot, obs::Phase::kAsyncBegin, "pilot", obs::Track::kPilot,
        id, id, sim_.now(), length.to_minutes(), variable ? 1.0 : 0.0);
  }
}

void JobManager::on_pilot_start(const slurm::JobRecord& rec) {
  queued_.erase(rec.id);
  ++counters_.started;
  auto invoker = std::make_unique<whisk::Invoker>(
      sim_, broker_, registry_, controller_, config_.invoker, rng_.fork());
  const sim::SimTime warmup = sim::SimTime::seconds(warmup_.sample(rng_));
  warmup_durations_.push_back(warmup);
  HW_OBS_IF(config_.obs) {
    config_.obs->trace.record_chained(
        obs::Cat::kPilot, obs::Phase::kInstant, "pilot_start",
        obs::Track::kPilot, rec.id, rec.id, sim_.now(), warmup.to_seconds());
    config_.obs->metrics.histogram("pilot.warmup_s")
        .observe(warmup.to_seconds());
  }
  pilots_.emplace(rec.id, std::make_unique<PilotJob>(
                              sim_, slurmctld_, rec.id, std::move(invoker),
                              warmup, config_.obs));
}

void JobManager::on_pilot_sigterm(const slurm::JobRecord& rec) {
  const auto it = pilots_.find(rec.id);
  if (it == pilots_.end()) return;
  it->second->on_sigterm();
}

void JobManager::on_pilot_end(const slurm::JobRecord& rec,
                              slurm::EndReason reason) {
  queued_.erase(rec.id);  // covers cancellation while pending
  const auto it = pilots_.find(rec.id);
  if (it == pilots_.end()) return;

  PilotJob& pilot = *it->second;
  sim::SimTime served = sim::SimTime::zero();
  if (pilot.serving_since() > sim::SimTime::zero()) {
    served = sim_.now() - pilot.serving_since();
    serving_durations_.push_back(served);
    HW_OBS_IF(config_.obs) {
      config_.obs->metrics.histogram("pilot.serving_min")
          .observe(served.to_minutes());
    }
    // Harvest ledger: serving time up to the drain hand-off is harvested
    // node-time; warm-up and drain bracket it as overhead.
    ++harvest_.pilots_served;
    const bool drained = pilot.draining_since() > sim::SimTime::zero();
    const sim::SimTime drain_start =
        drained ? pilot.draining_since() : sim_.now();
    harvest_.harvested += drain_start - pilot.serving_since();
    harvest_.warmup_overhead += pilot.serving_since() - pilot.started_at();
    if (drained) harvest_.drain_overhead += sim_.now() - pilot.draining_since();
  } else {
    // Preempted/killed before registering: its whole allocation warmed
    // up for nothing.
    ++harvest_.pilots_never_served;
    harvest_.preempt_wasted += sim_.now() - pilot.started_at();
  }
  HW_OBS_IF(config_.obs) {
    config_.obs->trace.record_chained(
        obs::Cat::kPilot, obs::Phase::kAsyncEnd, "pilot", obs::Track::kPilot,
        rec.id, rec.id, sim_.now(),
        static_cast<double>(static_cast<int>(reason)), served.to_minutes());
  }
  // Ending while still serving means no SIGTERM ever arrived (node
  // failure / forced kill): local state is lost.
  if (pilot.phase() == PilotJob::Phase::kServing) ++counters_.hard_killed;
  pilot.on_job_end();

  switch (reason) {
    case slurm::EndReason::kPreempted: ++counters_.preempted; break;
    case slurm::EndReason::kTimeLimit: ++counters_.timed_out; break;
    case slurm::EndReason::kCompleted: ++counters_.completed; break;
    case slurm::EndReason::kNodeFailed: ++counters_.node_failed; break;
    case slurm::EndReason::kCancelled: ++counters_.cancelled; break;
  }

  // This callback may be running inside the pilot's own drain-completion
  // chain; defer destruction to a safe point.
  graveyard_.push_back(std::move(it->second));
  pilots_.erase(it);
  if (graveyard_.size() == 1) {
    sim_.at(sim_.now(), [this] { graveyard_.clear(); });
  }
}

}  // namespace hpcwhisk::core
