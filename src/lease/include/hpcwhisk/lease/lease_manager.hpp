#pragma once
// Warm-executor leases — the rFaaS-style serving fast path (ROADMAP
// item 3; *rFaaS: Enabling High Performance Serverless with RDMA and
// Leases*, PAPERS.md).
//
// The controller→topic→pull path pays broker and poll latency on every
// activation, even for a hot function whose warm container sits idle on
// a known invoker. A lease pins a function to one invoker for a bounded
// term so the controller can invoke the pinned container directly,
// skipping the queue hop. Tiering is driven by per-function inter-arrival
// EWMAs: only functions arriving fast enough (kHot) earn a lease; kWarm
// functions keep containers but route normally; kCold pay the usual path.
//
// The manager is bookkeeping only — it never touches the invoker. The
// controller owns the lifecycle: it observes arrivals, consults find()
// before routing, grants on the routed target, and revokes when the
// backing pilot drains (Slurm preemption) or the watchdog declares the
// invoker unresponsive (ChaosEngine node kill). Everything is a pure
// fold over the call sequence — no RNG, no wall clock — so seeded runs
// replay byte-identically (SimCheck samples lease mode).
//
// This module sits *below* whisk in the layer order (the controller
// links against it), so worker ids are raw std::uint32_t, matching
// sched::WorkerId / whisk::InvokerId width, and functions are keyed by
// their dense registry index (whisk::FunctionSpec::index): per-function
// state lives in one vector, so the per-call lookups never hash.

#include <cstddef>
#include <cstdint>
#include <vector>

#include "hpcwhisk/sim/time.hpp"

namespace hpcwhisk::lease {

using WorkerId = std::uint32_t;
using LeaseId = std::uint64_t;
/// Dense function index (whisk::FunctionSpec::index).
using FunctionKey = std::uint32_t;

/// Per-function serving tier from arrival statistics.
enum class Tier : std::uint8_t {
  kCold,  ///< rare or unseen: normal path, no container guarantees
  kWarm,  ///< regular: normal path, warm containers likely
  kHot,   ///< frequent: eligible for a direct-invoke lease
};

[[nodiscard]] const char* to_string(Tier t);

struct LeaseConfig {
  /// Master switch. Off by default: with leases disabled the controller
  /// behaves bit-for-bit like before (legacy golden hashes depend on it).
  bool enabled{false};
  /// Lease term, renewed on every hit (rFaaS clients re-lease while
  /// hot); an expired lease lapses lazily on the next lookup.
  sim::SimTime term{sim::SimTime::seconds(30)};
  /// Inter-arrival EWMA at or below this => kHot (lease-eligible).
  sim::SimTime hot_interarrival{sim::SimTime::millis(500)};
  /// ... at or below this => kWarm; above => kCold.
  sim::SimTime warm_interarrival{sim::SimTime::seconds(5)};
  /// Arrivals before tiering applies (one gap needs two arrivals).
  std::uint64_t min_arrivals{3};
  /// Inter-arrival EWMA smoothing factor.
  double alpha{0.25};
  /// Cap on concurrent leases pinned to one invoker, so a membership
  /// collapse cannot funnel every hot function onto the last survivor.
  std::size_t max_leases_per_worker{8};
};

struct Lease {
  LeaseId id{0};
  FunctionKey function{0};
  WorkerId worker{0};
  sim::SimTime granted_at;
  sim::SimTime expires_at;
  std::uint64_t hits{0};
  std::uint64_t renewals{0};
};

class LeaseManager {
 public:
  explicit LeaseManager(LeaseConfig config = {}) : config_{config} {}

  LeaseManager(const LeaseManager&) = delete;
  LeaseManager& operator=(const LeaseManager&) = delete;

  /// Folds one arrival of `function` into its inter-arrival EWMA.
  void observe_arrival(FunctionKey function, sim::SimTime now);

  /// Current tier from the arrival stats (kCold until min_arrivals).
  [[nodiscard]] Tier tier(FunctionKey function) const;

  /// The active lease for `function`, or nullptr. An expired lease is
  /// lapsed here (counted in stats().expired) — expiry is lazy, there is
  /// no sweep event that could perturb the simulation's event count.
  /// The pointer stays valid until a call that sees a new, higher
  /// function key.
  [[nodiscard]] const Lease* find(FunctionKey function, sim::SimTime now);

  /// Grants a lease pinning `function` to `worker`. Returns nullptr if
  /// the function already holds a lease or the worker is at its cap.
  const Lease* acquire(FunctionKey function, WorkerId worker,
                       sim::SimTime now);

  /// Extends the lease term from `now`. False if no lease exists.
  bool renew(FunctionKey function, sim::SimTime now);

  /// A successful direct invoke through the lease: counts the hit and
  /// auto-renews when configured.
  void on_hit(FunctionKey function, sim::SimTime now);

  /// Drops the lease (backing invoker unusable). False if none existed.
  bool revoke(FunctionKey function);

  /// Drops every lease pinned to `worker` — the pilot was preempted,
  /// drained, or the node died. Returns how many were revoked.
  std::size_t revoke_worker(WorkerId worker);

  [[nodiscard]] std::size_t lease_count() const { return lease_count_; }
  [[nodiscard]] std::size_t leases_on(WorkerId worker) const;
  /// Smoothed inter-arrival gap (zero until two arrivals).
  [[nodiscard]] sim::SimTime interarrival(FunctionKey function) const;
  [[nodiscard]] const LeaseConfig& config() const { return config_; }

  struct Stats {
    std::uint64_t granted{0};
    std::uint64_t renewed{0};
    std::uint64_t expired{0};
    std::uint64_t revoked{0};
    std::uint64_t hits{0};
  };
  [[nodiscard]] const Stats& stats() const { return stats_; }

 private:
  struct Arrival {
    sim::SimTime last;
    double ewma_us{0.0};
    std::uint64_t count{0};
  };
  /// Everything the manager knows about one function.
  struct PerFunction {
    Arrival arrival;
    Lease lease;
    bool leased{false};
  };

  /// The function's entry, growing the table on first sight.
  PerFunction& entry(FunctionKey function);
  /// The function's active lease, or nullptr (never grows the table).
  [[nodiscard]] Lease* active(FunctionKey function);
  void drop(PerFunction& f);

  LeaseConfig config_;
  /// Indexed by FunctionKey.
  std::vector<PerFunction> functions_;
  /// Leases held per worker, indexed by WorkerId.
  std::vector<std::size_t> per_worker_;
  std::size_t lease_count_{0};
  LeaseId next_id_{1};
  Stats stats_;
};

}  // namespace hpcwhisk::lease
