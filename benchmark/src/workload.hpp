#pragma once
// The benchmark's workloads and one rep of each: wire a whole HPC-Whisk
// deployment through the library's public entry points, burn it in, run
// the measured window under an open-loop FaaS load, and reduce the run to
// named metrics plus a digest of every modelled outcome.
//
// Each workload replays one fixed cluster day: its HPC job stream is drawn
// from one fixed seed whatever the run's seed. The run's seed drives
// HPC-Whisk's own randomness (pilot warm-ups, container start latencies,
// hot-function draws). A varying HPC stream swings a day's idle supply,
// and with it simulated work and serving capacity, by 10-30 % from seed
// to seed (submission lulls are rare and long); no run short enough for
// the benchmark averages that out. See benchmark/README.md.

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "hpcwhisk/sim/time.hpp"
#include "hpcwhisk/whisk/controller.hpp"

namespace hwbench {

struct Workload {
  std::string_view name;
  std::uint32_t nodes{0};
  hpcwhisk::sim::SimTime burn_in;
  hpcwhisk::sim::SimTime window;

  // FaaS load: a constant-rate open loop in simulated time over
  // `functions` 10 ms sleeps.
  double qps{0};
  std::size_t functions{0};
  /// Share of calls drawn from the first `hot_functions` names.
  double hot_share{0};
  std::size_t hot_functions{8};
  /// Share of the functions re-registered as 30 s interruptible actions.
  double long_share{0};

  // Serving path.
  bool lease{false};  ///< lease tier plus hybrid keep-alive with reaping
  hpcwhisk::whisk::RouteMode route{hpcwhisk::whisk::RouteMode::kHashProbing};
  bool deadline_classes{false};
  std::size_t invoker_concurrency{0};  ///< 0 keeps the library default
  std::uint32_t invoker_slots{0};      ///< 0 keeps the library default

  // Slurm fidelity path: per-TRES fractional pilots, rolling maintenance
  // reservations on nodes/16 and two-tier pilot QOS.
  bool tres{false};
  hpcwhisk::sim::SimTime reservation_period;
  hpcwhisk::sim::SimTime reservation_length;
};

[[nodiscard]] const std::vector<Workload>& workloads();
/// nullptr when no workload has that name.
[[nodiscard]] const Workload* find_workload(std::string_view name);

/// Named values in report order.
using Values = std::vector<std::pair<std::string, double>>;

struct RepResult {
  Values values;
  /// FNV-1a over every activation outcome, the event count and the Slurm
  /// counters: equal digests mean equal modelled runs.
  std::string digest;
  /// Failed correctness checks, one line each.
  std::vector<std::string> failures;
  /// Phase spans of a traced rep, one JSON object per line.
  std::string spans_jsonl;
};

/// Runs one rep in this process. `length_scale` shrinks burn-in and
/// window (the smoke test uses 1/8); `traced` arms the sampler and the
/// bench-side timers.
[[nodiscard]] RepResult run_rep(const Workload& w, std::uint64_t seed,
                                double length_scale, bool traced);

}  // namespace hwbench
