#pragma once
// Alg. 1 of the paper: a client-side wrapper that shields FaaS users from
// the cluster's non-availability periods (Sec. III-E). Whenever HPC-Whisk
// answers 503 (no invoker), calls are offloaded to a commercial cloud for
// a cool-down window (60 s), then HPC-Whisk is retried.
//
// Window semantics (pinned by tests/core/client_wrapper_test.cpp): a call
// at exactly last_503 + kFallbackWindow is still offloaded; the first
// retry against the cluster happens strictly after the window closes.

#include <cstdint>
#include <optional>
#include <string>

#include "hpcwhisk/cloud/lambda_service.hpp"
#include "hpcwhisk/sim/simulation.hpp"
#include "hpcwhisk/whisk/controller.hpp"

namespace hpcwhisk::core {

/// Alg. 1's cool-down: how long to keep offloading after a 503. The
/// federation gateway applies the same window per cluster.
inline constexpr sim::SimTime kFallbackWindow = sim::SimTime::seconds(60);
/// Memory configuration of every commercial (cloud) invocation.
inline constexpr std::int64_t kOffloadMemoryMb = 2048;

class ClientWrapper {
 public:
  struct Config {
    /// Optional trace/metrics sink; null disables all instrumentation.
    obs::Observability* obs{nullptr};
  };

  ClientWrapper(sim::Simulation& simulation, whisk::Controller& controller,
                cloud::LambdaService& commercial, Config config);

  enum class Backend { kHpcWhisk, kCommercial };

  struct Result {
    Backend backend{Backend::kHpcWhisk};
    /// Activation id (HPC-Whisk) or invocation id (commercial).
    std::uint64_t id{0};
  };

  /// Invokes `function`, implementing Alg. 1: try HPC-Whisk unless inside
  /// the fallback window; on 503, remember the time and recurse into the
  /// commercial backend. Never fails to place the call.
  Result invoke(const std::string& function);

  struct Counters {
    std::uint64_t hpcwhisk_calls{0};
    std::uint64_t commercial_calls{0};
    std::uint64_t rejections_seen{0};
    /// Distinct fallback windows opened (a 503 outside any open window).
    std::uint64_t windows_opened{0};
  };
  [[nodiscard]] const Counters& counters() const { return counters_; }

  /// Time of the most recent 503 seen by this client; nullopt = never
  /// (Alg. 1 initializes Last_503 to "1970-01-01").
  [[nodiscard]] std::optional<sim::SimTime> last_503() const {
    return last_503_;
  }

  /// Whether a call issued at `at` (>= now) would be offloaded without
  /// probing the cluster — i.e. at <= last_503 + kFallbackWindow.
  [[nodiscard]] bool in_fallback_window(sim::SimTime at) const {
    return last_503_.has_value() && at - *last_503_ <= kFallbackWindow;
  }

 private:
  void close_window_span(sim::SimTime expiry);

  sim::Simulation& sim_;
  whisk::Controller& controller_;
  cloud::LambdaService& commercial_;
  Config config_;
  /// Alg. 1's Last_503 variable; nullopt = never rejected.
  std::optional<sim::SimTime> last_503_;
  /// Open fallback-window span awaiting its closing trace event (the
  /// window ordinal doubles as the span correlation id).
  bool window_span_open_{false};
  Counters counters_;
};

}  // namespace hpcwhisk::core
