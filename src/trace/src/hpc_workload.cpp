#include "hpcwhisk/trace/hpc_workload.hpp"

#include <algorithm>
#include <cmath>

namespace hpcwhisk::trace {

namespace {
/// Fraction of jobs that run into their declared limit (timeout).
constexpr double kTimeoutFraction = 0.03;
/// Powered-uniform runtime fraction exponents (see draw_job).
constexpr double kRuntimeAlpha = 2.0;
constexpr double kRuntimeBeta = 2.2;

std::vector<HpcWorkloadGenerator::Config::SizeBucket> default_buckets() {
  // Calibrated against the published Fig. 1 statistics. Small (1-2 node)
  // jobs are scarce: their scarcity is what leaves a persistent floor of
  // a few idle nodes (fragmentation friction). The rare large buckets
  // produce the accumulation bursts of Fig. 1c without dominating the
  // idle surface.
  return {
      {1, 1, 0.051},  {2, 2, 0.021},  {3, 4, 0.14},    {5, 8, 0.13},
      {9, 16, 0.10},  {17, 32, 0.07}, {33, 64, 0.005}, {65, 128, 0.002},
      {129, 240, 0.001},
  };
}
}  // namespace

sim::EmpiricalCdf HpcWorkloadGenerator::default_limit_cdf() {
  // Fig. 2 (green): median 60 min, 5 % below 15 min, long tail to 72 h.
  return sim::EmpiricalCdf{{
      {5.0, 0.01},
      {15.0, 0.05},
      {30.0, 0.25},
      {60.0, 0.50},
      {120.0, 0.68},
      {240.0, 0.80},
      {720.0, 0.92},
      {1440.0, 0.97},
      {4320.0, 1.00},
  }};
}

HpcWorkloadGenerator::HpcWorkloadGenerator(sim::Simulation& simulation,
                                           slurm::Slurmctld& ctld,
                                           Config config, sim::Rng rng)
    : sim_{simulation},
      ctld_{ctld},
      config_{std::move(config)},
      rng_{rng},
      limit_cdf_{default_limit_cdf()} {
  if (config_.size_buckets.empty()) config_.size_buckets = default_buckets();
}

TraceJob HpcWorkloadGenerator::draw_job() {
  TraceJob job;
  job.submit = sim_.now();

  std::vector<double> weights;
  weights.reserve(config_.size_buckets.size());
  for (const auto& b : config_.size_buckets) weights.push_back(b.weight);
  const auto& bucket = config_.size_buckets[rng_.weighted_index(weights)];
  job.num_nodes = static_cast<std::uint32_t>(
      rng_.uniform_int(bucket.lo, bucket.hi));
  // Small test clusters: a job can never exceed the machine.
  job.num_nodes = std::min(job.num_nodes, ctld_.node_count());

  // TRES mix: guarded on a non-empty bucket set so legacy configs keep
  // their exact RNG draw sequence (committed decision-log hashes).
  if (!config_.tres_buckets.empty()) {
    std::vector<double> tres_weights;
    tres_weights.reserve(config_.tres_buckets.size());
    for (const auto& b : config_.tres_buckets) tres_weights.push_back(b.weight);
    job.tres_per_node =
        config_.tres_buckets[rng_.weighted_index(tres_weights)].tres;
  }

  const double limit_min = limit_cdf_.sample(rng_) * config_.limit_scale;
  job.time_limit = sim::SimTime::minutes(std::max(2.0, limit_min));

  if (rng_.bernoulli(kTimeoutFraction)) {
    // Runs into the limit: model as "never finishes on its own".
    job.runtime = sim::SimTime::max();
  } else {
    // Runtime fraction: the product of two powered uniforms gives a
    // unimodal fraction with mean ~alpha/(alpha+1) * beta/(beta+1),
    // leaving substantial slack below the declared limit (Fig. 2).
    const double u1 = rng_.uniform();
    const double u2 = rng_.uniform();
    const double x = 0.05 + 0.9 * std::pow(u1, 1.0 / kRuntimeAlpha) *
                                std::pow(u2, 1.0 / kRuntimeBeta);
    job.runtime = sim::SimTime::seconds(
        std::max(30.0, job.time_limit.to_seconds() * std::min(1.0, x)));
  }
  return job;
}

void HpcWorkloadGenerator::start() {
  if (running_) return;
  running_ = true;
  if (config_.mode == Mode::kSaturated) {
    top_up();
    loop_ = sim_.every(config_.check_interval, [this] { top_up(); });
    return;
  }
  // kCalibrated: no pre-fill — the cluster warms up from empty through
  // the rate-limited top-up (give runs a burn-in of ~4 simulated hours
  // before measuring; the benches do). Pre-filling with an arrival-mix
  // batch was tried and rejected: it distorts the running-job length
  // mix (length-biased sampling) and suppresses the idle-period tail.
  top_up();
  loop_ = sim_.every(config_.check_interval, [this] { top_up(); });
}

void HpcWorkloadGenerator::stop() {
  running_ = false;
  loop_.stop();
}

void HpcWorkloadGenerator::top_up() {
  if (!running_) return;
  if (config_.mode == Mode::kSaturated) {
    while (pending_now_ < config_.backlog_target) submit_one();
    return;
  }
  const sim::SimTime now = sim_.now();
  const bool in_lull = now < lull_until_;
  if (!in_lull && rng_.uniform() < config_.lull_probability_per_tick) {
    lull_until_ =
        now + sim::SimTime::seconds(
                  rng_.exponential(config_.lull_mean.to_seconds()));
    ++lulls_entered_;
  }
  std::size_t budget = in_lull ? 1 : config_.max_submits_per_tick;
  while (pending_now_ < config_.backlog_target && budget-- > 0) submit_one();
}

void HpcWorkloadGenerator::submit_one() {
  const TraceJob job = draw_job();

  slurm::JobSpec spec;
  spec.partition = config_.partition;
  spec.num_nodes = job.num_nodes;
  spec.time_limit = job.time_limit;
  spec.actual_runtime = job.runtime;
  spec.tres_per_node = job.tres_per_node;
  spec.qos = config_.qos;
  ++pending_now_;
  spec.on_start = [this](const slurm::JobRecord&) {
    if (pending_now_ > 0) --pending_now_;
  };
  ctld_.submit(std::move(spec));
}

}  // namespace hpcwhisk::trace
