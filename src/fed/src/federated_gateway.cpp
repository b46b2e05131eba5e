#include "hpcwhisk/fed/federated_gateway.hpp"

#include <algorithm>
#include <limits>
#include <stdexcept>

#include "hpcwhisk/core/client_wrapper.hpp"
#include "hpcwhisk/obs/observability.hpp"

namespace hpcwhisk::fed {

const char* to_string(FedPolicy p) {
  switch (p) {
    case FedPolicy::kRoundRobin: return "round_robin";
    case FedPolicy::kLeastOutstanding: return "least_outstanding";
    case FedPolicy::kPowerOfTwo: return "power_of_two";
  }
  return "?";
}

FederatedGateway::FederatedGateway(sim::Simulation& simulation, Config config)
    : sim_{simulation}, config_{std::move(config)}, rng_{config_.seed} {
  if (config_.clusters.empty()) {
    throw std::invalid_argument("FederatedGateway: no clusters configured");
  }
  const std::size_t n = config_.clusters.size();
  clusters_.reserve(n);
  for (ClusterSpec& spec : config_.clusters) {
    Cluster c;
    const std::uint64_t wl_seed =
        spec.hpc_seed != 0 ? spec.hpc_seed : spec.system.seed ^ 0x9E3779B9ULL;
    c.system =
        std::make_unique<core::HpcWhiskSystem>(sim_, std::move(spec.system));
    if (spec.drive_hpc_load) {
      c.workload = std::make_unique<trace::HpcWorkloadGenerator>(
          sim_, c.system->slurm(), spec.hpc_load, sim::Rng{wl_seed});
    }
    clusters_.push_back(std::move(c));
  }
  // The shared cloud fallback records into the gateway's sink: its
  // invocation ids are gateway-scoped, so no correlation collision.
  HW_OBS_IF(config_.obs) { config_.cloud.obs = config_.obs; }
  cloud_ = std::make_unique<cloud::LambdaService>(
      sim_, cloud_registry_, config_.cloud,
      sim::Rng{config_.seed ^ 0xC10DFA11ULL});

  health_.resize(n);
  per_cluster_calls_.assign(n, 0);
  samples_healthy_.assign(n, 0);
  refresh_health();
  // The construction-time snapshot is a bootstrap, not a sample.
  samples_total_ = 0;
  samples_any_healthy_ = 0;
  samples_healthy_.assign(n, 0);

  HW_OBS_IF(config_.obs) {
    config_.obs->metrics.add_collector([this](obs::MetricsRegistry& m) {
      m.counter("fed.invocations").set(counters_.invocations);
      m.counter("fed.cluster_calls").set(counters_.cluster_calls);
      m.counter("fed.cloud_calls").set(counters_.cloud_calls);
      m.counter("fed.rejections_seen").set(counters_.rejections_seen);
      m.counter("fed.spillovers").set(counters_.spillovers);
      m.counter("fed.cooldown_skips").set(counters_.cooldown_skips);
      for (std::size_t i = 0; i < clusters_.size(); ++i) {
        m.gauge("fed.cluster." + std::to_string(i) + ".healthy")
            .set(static_cast<double>(health_[i].healthy));
        m.gauge("fed.cluster." + std::to_string(i) + ".outstanding")
            .set(static_cast<double>(health_[i].outstanding));
      }
    });
  }
}

void FederatedGateway::register_function(const whisk::FunctionSpec& spec) {
  for (Cluster& c : clusters_) c.system->functions().put(spec);
  cloud_registry_.put(spec);
}

void FederatedGateway::start() {
  for (Cluster& c : clusters_) {
    if (c.workload) c.workload->start();
    c.system->start();
  }
  sampler_ = sim_.every(kHealthRefresh, [this] { refresh_health(); });
}

void FederatedGateway::refresh_health() {
  const sim::SimTime now = sim_.now();
  bool any_healthy = false;
  for (std::size_t i = 0; i < clusters_.size(); ++i) {
    const whisk::Controller& ctrl = clusters_[i].system->controller();
    const whisk::Controller::Counters& c = ctrl.counters();
    ClusterHealth& h = health_[i];
    h.healthy = ctrl.healthy_count();
    h.outstanding = c.accepted - c.completed - c.failed - c.timed_out;
    h.sampled_at = now;
    if (h.healthy > 0) {
      any_healthy = true;
      ++samples_healthy_[i];
    }
  }
  ++samples_total_;
  if (any_healthy) ++samples_any_healthy_;
}

bool FederatedGateway::cooling(std::size_t cluster, sim::SimTime at) const {
  const std::optional<sim::SimTime>& last = clusters_[cluster].last_503;
  return last.has_value() && at - *last <= core::kFallbackWindow;
}

double FederatedGateway::load_score(std::size_t i) const {
  const ClusterHealth& h = health_[i];
  if (h.healthy == 0) return std::numeric_limits<double>::infinity();
  return static_cast<double>(h.outstanding + 1) /
         static_cast<double>(h.healthy);
}

std::optional<std::size_t> FederatedGateway::pick_least(
    const std::vector<std::size_t>& candidates) const {
  std::optional<std::size_t> best;
  double best_score = 0.0;
  for (const std::size_t i : candidates) {
    const double score = load_score(i);
    if (!best.has_value() || score < best_score) {
      best = i;
      best_score = score;
    }
  }
  return best;
}

std::optional<std::size_t> FederatedGateway::pick(
    const std::vector<std::size_t>& candidates) {
  if (candidates.empty()) return std::nullopt;
  switch (config_.policy) {
    case FedPolicy::kRoundRobin: {
      const std::size_t n = clusters_.size();
      for (std::size_t k = 0; k < n; ++k) {
        const std::size_t idx = (rr_next_ + k) % n;
        if (std::find(candidates.begin(), candidates.end(), idx) !=
            candidates.end()) {
          rr_next_ = (idx + 1) % n;
          return idx;
        }
      }
      return std::nullopt;  // unreachable: candidates is non-empty
    }
    case FedPolicy::kLeastOutstanding: {
      // Outstanding work, not score: a supply-aware but size-blind
      // balancer (the middle rung of the ablation).
      std::optional<std::size_t> best;
      for (const std::size_t i : candidates) {
        if (!best.has_value() ||
            std::make_pair(health_[i].healthy == 0, health_[i].outstanding) <
                std::make_pair(health_[*best].healthy == 0,
                               health_[*best].outstanding)) {
          best = i;
        }
      }
      return best;
    }
    case FedPolicy::kPowerOfTwo: {
      const std::size_t n = candidates.size();
      if (n == 1) return candidates[0];
      const auto a = static_cast<std::size_t>(
          rng_.uniform_int(0, static_cast<std::int64_t>(n) - 1));
      auto b = static_cast<std::size_t>(
          rng_.uniform_int(0, static_cast<std::int64_t>(n) - 2));
      if (b >= a) ++b;
      const std::size_t ca = candidates[a];
      const std::size_t cb = candidates[b];
      const double sa = load_score(ca);
      const double sb = load_score(cb);
      if (sa == sb) return std::min(ca, cb);
      return sa < sb ? ca : cb;
    }
  }
  return std::nullopt;
}

void FederatedGateway::note_503(std::size_t i, sim::SimTime now) {
  ++counters_.rejections_seen;
  clusters_[i].last_503 = now;
  HW_OBS_IF(config_.obs) {
    config_.obs->trace.record(obs::Cat::kFed, obs::Phase::kInstant, "fed_503",
                              obs::Track::kGateway, 0, i, now,
                              static_cast<double>(i));
    if (!clusters_[i].cooldown_span_open) {
      clusters_[i].cooldown_span_open = true;
      config_.obs->trace.record_chained(
          obs::Cat::kFed, obs::Phase::kAsyncBegin, "fed_cooldown",
          obs::Track::kGateway, 0, i, now, core::kFallbackWindow.to_seconds());
    }
  }
}

void FederatedGateway::maybe_close_cooldown_span(std::size_t i,
                                                 sim::SimTime at) {
  if (!clusters_[i].cooldown_span_open || cooling(i, at)) return;
  clusters_[i].cooldown_span_open = false;
  HW_OBS_IF(config_.obs) {
    // Close at the semantic expiry (in the past by discovery time;
    // exported events carry explicit timestamps).
    config_.obs->trace.record_chained(
        obs::Cat::kFed, obs::Phase::kAsyncEnd, "fed_cooldown",
        obs::Track::kGateway, 0, i,
        *clusters_[i].last_503 + core::kFallbackWindow,
        core::kFallbackWindow.to_seconds());
  }
}

FederatedGateway::Result FederatedGateway::invoke(
    const std::string& function) {
  const sim::SimTime now = sim_.now();
  ++counters_.invocations;

  std::vector<std::size_t> candidates;
  candidates.reserve(clusters_.size());
  for (std::size_t i = 0; i < clusters_.size(); ++i) {
    if (cooling(i, now)) {
      ++counters_.cooldown_skips;
      continue;
    }
    maybe_close_cooldown_span(i, now);
    candidates.push_back(i);
  }

  Result out;
  std::optional<std::size_t> target = pick(candidates);
  while (target.has_value()) {
    const std::size_t i = *target;
    const whisk::SubmitResult res =
        clusters_[i].system->controller().submit(function);
    if (res.accepted) {
      ++counters_.cluster_calls;
      ++per_cluster_calls_[i];
      if (out.spills > 0) ++counters_.spillovers;
      out.cloud = false;
      out.cluster = i;
      out.id = res.activation;
      if (config_.log_decisions) {
        decision_log_ += std::to_string(now.ticks());
        decision_log_ += ' ';
        decision_log_ += function;
        decision_log_ += " c";
        decision_log_ += std::to_string(i);
        decision_log_ += " s";
        decision_log_ += std::to_string(out.spills);
        decision_log_ += '\n';
      }
      HW_OBS_IF(config_.obs) {
        config_.obs->trace.record(obs::Cat::kFed, obs::Phase::kInstant,
                                  "fed_route", obs::Track::kGateway, 0,
                                  counters_.invocations, now,
                                  static_cast<double>(i),
                                  static_cast<double>(out.spills));
      }
      return out;
    }
    // 503: cool the rejecting cluster down and spill to the sibling the
    // snapshot considers least loaded.
    note_503(i, now);
    ++out.spills;
    candidates.erase(std::find(candidates.begin(), candidates.end(), i));
    target = pick_least(candidates);
  }

  // Every cluster cooling or rejecting: the commercial fallback.
  ++counters_.cloud_calls;
  out.cloud = true;
  out.cluster = 0;
  out.id = cloud_->invoke(function, core::kOffloadMemoryMb);
  if (config_.log_decisions) {
    decision_log_ += std::to_string(now.ticks());
    decision_log_ += ' ';
    decision_log_ += function;
    decision_log_ += " cloud s";
    decision_log_ += std::to_string(out.spills);
    decision_log_ += '\n';
  }
  HW_OBS_IF(config_.obs) {
    config_.obs->trace.record(obs::Cat::kFed, obs::Phase::kInstant,
                              "fed_offload", obs::Track::kGateway, 0,
                              counters_.invocations, now,
                              static_cast<double>(out.spills));
  }
  return out;
}

}  // namespace hpcwhisk::fed
