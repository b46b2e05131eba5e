#pragma once
// The per-simulation observability context, and the zero-cost-when-off
// instrumentation gate.
//
// One Observability instance pairs one TraceCollector with one
// MetricsRegistry and belongs to exactly one simulation (one trial):
// parallel_trials stays byte-identical because trials never share a
// collector. Components receive a nullable pointer through their Config;
// a null pointer IS the runtime off switch.
//
// Instrumentation sites are written as
//
//   HW_OBS_IF(obs_) {
//     obs_->trace.record_chained(...);
//     obs_->metrics.counter("x").add();
//   }
//
// With observability compiled in (the default), that is a single
// predictable null-check per site — measured at <= 2 % of events/s on
// the canonical runs (bench/perf_report). Building with
// -DHPCWHISK_OBS=OFF defines HPCWHISK_OBS_COMPILED=0 and turns every
// site into `if constexpr (false)`, removing even the branch while still
// type-checking the body.

#include "hpcwhisk/obs/decisions.hpp"
#include "hpcwhisk/obs/metrics.hpp"
#include "hpcwhisk/obs/timeseries.hpp"
#include "hpcwhisk/obs/trace.hpp"

#ifndef HPCWHISK_OBS_COMPILED
#define HPCWHISK_OBS_COMPILED 1
#endif

#if HPCWHISK_OBS_COMPILED
#define HW_OBS_IF(obs) if ((obs) != nullptr)
#else
#define HW_OBS_IF(obs) if constexpr (false)
#endif

namespace hpcwhisk::obs {

struct Observability {
  struct Config {
    std::size_t trace_capacity{TraceCollector::kDefaultCapacity};
  };

  Observability() : Observability(Config{}) {}
  explicit Observability(Config config) : trace{config.trace_capacity} {}

  Observability(const Observability&) = delete;
  Observability& operator=(const Observability&) = delete;

  TraceCollector trace;
  MetricsRegistry metrics;
  /// Sim-time series (sampled by the run's owner, never by obs events),
  /// kDefaultCapacity points each before downsampling.
  TimeSeriesRecorder series;
  /// Per-routing-decision explainability records, kDefaultCapacity of
  /// them before counted drops.
  DecisionLog decisions;
};

}  // namespace hpcwhisk::obs
