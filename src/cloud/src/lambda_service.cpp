#include "hpcwhisk/cloud/lambda_service.hpp"

#include <algorithm>
#include <stdexcept>

#include "hpcwhisk/obs/observability.hpp"

namespace hpcwhisk::cloud {

namespace {
/// Cold-start (sandbox provisioning) latency, median and P95.
constexpr double kColdStartMedianS = 0.25;
constexpr double kColdStartP95S = 0.60;
/// Per-invocation platform/network overhead, median and P95.
constexpr double kOverheadMedianS = 0.050;
constexpr double kOverheadP95S = 0.150;
}  // namespace

LambdaService::LambdaService(sim::Simulation& simulation,
                             const whisk::FunctionRegistry& registry,
                             Config config, sim::Rng rng)
    : sim_{simulation},
      registry_{registry},
      config_{config},
      rng_{rng},
      cold_start_{kColdStartMedianS, kColdStartP95S, 0.95},
      overhead_{kOverheadMedianS, kOverheadP95S, 0.95} {
  HW_OBS_IF(config_.obs) {
    config_.obs->metrics.add_collector([this](obs::MetricsRegistry& m) {
      m.counter("cloud.invocations").set(records_.size());
      m.counter("cloud.completed").set(completed_);
      std::uint64_t cold = 0;
      for (const InvocationRecord& rec : records_) cold += rec.cold_start;
      m.counter("cloud.cold_starts").set(cold);
    });
  }
}

double LambdaService::cpu_share(std::int64_t memory_mb) const {
  const double share = static_cast<double>(memory_mb) /
                       static_cast<double>(kFullVcpuMemoryMb);
  return std::min(1.0, share);
}

std::uint64_t LambdaService::invoke(const std::string& function,
                                    std::int64_t memory_mb) {
  const whisk::FunctionSpec& spec = registry_.at(function);
  const sim::SimTime now = sim_.now();

  InvocationRecord rec;
  rec.id = records_.size();
  rec.function = function;
  rec.submit_time = now;

  const auto warm = warm_until_.find(function);
  rec.cold_start = warm == warm_until_.end() || warm->second < now;

  sim::SimTime latency = sim::SimTime::seconds(overhead_.sample(rng_));
  if (rec.cold_start)
    latency += sim::SimTime::seconds(cold_start_.sample(rng_));

  // Internal execution: the function body, dilated by the CPU share and
  // the platform's compute slowdown relative to an HPC node.
  const double dilation = kComputeSlowdown / cpu_share(memory_mb);
  rec.internal_duration =
      sim::SimTime::seconds(spec.duration(rng_).to_seconds() * dilation);
  latency += rec.internal_duration;

  const std::uint64_t id = rec.id;
  const bool cold = rec.cold_start;
  records_.push_back(std::move(rec));
  warm_until_[function] = now + latency + kKeepWarm;

  HW_OBS_IF(config_.obs) {
    // One async span per invocation on the cloud track, chained so the
    // completion links back to the submission (corr = invocation id).
    config_.obs->trace.record_chained(
        obs::Cat::kClient, obs::Phase::kAsyncBegin, "cloud_invoke",
        obs::Track::kCloud, 0, id, now, cold ? 1.0 : 0.0,
        latency.to_seconds());
  }
  sim_.after(latency, [this, id] {
    records_[id].end_time = sim_.now();
    ++completed_;
    HW_OBS_IF(config_.obs) {
      const InvocationRecord& done = records_[id];
      config_.obs->trace.record_chained(
          obs::Cat::kClient, obs::Phase::kAsyncEnd, "cloud_invoke",
          obs::Track::kCloud, 0, id, done.end_time,
          done.cold_start ? 1.0 : 0.0,
          (done.end_time - done.submit_time).to_seconds());
      config_.obs->metrics.histogram("cloud.latency_ms")
          .observe((done.end_time - done.submit_time).to_seconds() * 1000.0);
    }
  });
  return id;
}

const LambdaService::InvocationRecord& LambdaService::invocation(
    std::uint64_t id) const {
  if (id >= records_.size())
    throw std::out_of_range("LambdaService::invocation: unknown id");
  return records_[id];
}

}  // namespace hpcwhisk::cloud
