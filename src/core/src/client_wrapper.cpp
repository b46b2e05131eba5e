#include "hpcwhisk/core/client_wrapper.hpp"

#include "hpcwhisk/obs/observability.hpp"

namespace hpcwhisk::core {

ClientWrapper::ClientWrapper(sim::Simulation& simulation,
                             whisk::Controller& controller,
                             cloud::LambdaService& commercial, Config config)
    : sim_{simulation},
      controller_{controller},
      commercial_{commercial},
      config_{config} {
  HW_OBS_IF(config_.obs) {
    config_.obs->metrics.add_collector([this](obs::MetricsRegistry& m) {
      m.counter("client.hpcwhisk_calls").set(counters_.hpcwhisk_calls);
      m.counter("client.commercial_calls").set(counters_.commercial_calls);
      m.counter("client.rejections_seen").set(counters_.rejections_seen);
      m.counter("client.windows_opened").set(counters_.windows_opened);
    });
  }
}

void ClientWrapper::close_window_span(sim::SimTime expiry) {
  if (!window_span_open_) return;
  window_span_open_ = false;
  HW_OBS_IF(config_.obs) {
    // The span closes at the window's semantic expiry, which is in the
    // past by the time the next invoke() observes it (exported events
    // carry explicit timestamps, so out-of-order appending is fine).
    config_.obs->trace.record_chained(
        obs::Cat::kClient, obs::Phase::kAsyncEnd, "fallback_window",
        obs::Track::kController, 0, counters_.windows_opened, expiry,
        kFallbackWindow.to_seconds());
  }
}

ClientWrapper::Result ClientWrapper::invoke(const std::string& function) {
  const sim::SimTime now = sim_.now();
  const bool in_fallback = in_fallback_window(now);
  if (!in_fallback) {
    if (last_503_.has_value()) {
      close_window_span(*last_503_ + kFallbackWindow);
    }
    const auto result = controller_.submit(function);
    if (result.accepted) {
      ++counters_.hpcwhisk_calls;
      return Result{Backend::kHpcWhisk, result.activation};
    }
    // 503: remember and fall through to the commercial backend (the
    // recursive call of Alg. 1, unrolled).
    ++counters_.rejections_seen;
    last_503_ = now;
    ++counters_.windows_opened;
    window_span_open_ = true;
    HW_OBS_IF(config_.obs) {
      config_.obs->trace.record_chained(
          obs::Cat::kClient, obs::Phase::kAsyncBegin, "fallback_window",
          obs::Track::kController, 0, counters_.windows_opened, now,
          kFallbackWindow.to_seconds());
    }
  }
  ++counters_.commercial_calls;
  HW_OBS_IF(config_.obs) {
    // Offload decision: instant tagged with the window ordinal and
    // whether this call opened the window (probe-503) or rode inside it.
    config_.obs->trace.record(obs::Cat::kClient, obs::Phase::kInstant,
                              "offload", obs::Track::kController, 0,
                              counters_.windows_opened, now,
                              in_fallback ? 0.0 : 1.0);
  }
  const std::uint64_t id =
      commercial_.invoke(function, kOffloadMemoryMb);
  return Result{Backend::kCommercial, id};
}

}  // namespace hpcwhisk::core
