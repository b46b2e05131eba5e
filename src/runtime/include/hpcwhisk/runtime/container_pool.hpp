#pragma once
// Per-node container pool: warm reuse, LRU eviction, concurrency cap.
//
// An OpenWhisk invoker keeps containers warm per function so repeated
// calls skip the cold start; when memory runs out it evicts idle
// containers. The node-wide cap on concurrently existing containers is
// load-bearing for reproduction: Sec. V-C reports an episode (14:30-17:00)
// where invokers hit "the upper limit of concurrently running container
// processes which resulted in an increased number of failed invocations".
//
// Containers live in a dense slab with a free list, and the idle LRU and
// the stem-cell FIFO are intrusive lists threaded through it: handles
// resolve without hashing, and release() never allocates.

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "hpcwhisk/runtime/runtime_profile.hpp"
#include "hpcwhisk/sim/rng.hpp"
#include "hpcwhisk/sim/time.hpp"

namespace hpcwhisk::runtime {

/// A container's slab slot (low 32 bits) and the slot's generation (high
/// 32 bits), so a handle to a destroyed container never finds its
/// slot's next occupant. Never 0.
using ContainerId = std::uint64_t;

/// Dense function index (whisk::FunctionSpec::index): the pool keys
/// warm reuse and keep-alive statistics by it, never by name.
using FunctionKey = std::uint32_t;

enum class ContainerState { kWarming, kIdle, kBusy, kRemoved };

/// Result of asking the pool for an execution slot.
struct AcquireResult {
  enum class Kind {
    kWarm,       ///< reusing a warm container specialized for the function
    kPrewarmed,  ///< specialized a matching stem-cell container
    kCold,       ///< new container; start after a full cold start
    kRejected,   ///< node is saturated (cap/memory) and nothing evictable
  };
  Kind kind{Kind::kRejected};
  ContainerId container{0};
  sim::SimTime start_latency;  ///< includes any eviction cost paid first
};

/// Idle containers older than this are reaped by reap_idle() under
/// KeepAlivePolicy::kFixed (and as the fallback before a function has
/// arrival history under the adaptive policies): OpenWhisk's 10 minutes.
inline constexpr sim::SimTime kIdleTimeout = sim::SimTime::minutes(10);

/// Container keep-alive (idle-timeout) policy family (*Has Your FaaS
/// Application Been Decommissioned Yet?*, PAPERS.md: the keep-alive
/// policy dominates cold-start rate under real traffic).
enum class KeepAlivePolicy : std::uint8_t {
  /// Every idle container lives kIdleTimeout — the historical single
  /// hardcoded constant (OpenWhisk's 10 minutes).
  kFixed,
  /// Per-function timeout proportional to the function's inter-arrival
  /// EWMA, clamped to [floor, kKeepAliveCeiling]: rarely-called functions
  /// release memory early, hot functions never lose their container to a
  /// timer.
  kAdaptive,
  /// kAdaptive further scaled down toward `floor` as pool occupancy
  /// (containers or memory, whichever is tighter) crosses
  /// [kPressureLow, kPressureHigh] — keep-alive generosity is a luxury
  /// of an empty node.
  kHybrid,
};

[[nodiscard]] const char* to_string(KeepAlivePolicy p);
[[nodiscard]] std::optional<KeepAlivePolicy> keep_alive_policy_from_string(
    const std::string& name);

/// kAdaptive/kHybrid: timeout = clamp(kKeepAliveMargin * interarrival
/// EWMA, floor, kKeepAliveCeiling).
inline constexpr double kKeepAliveMargin = 4.0;
inline constexpr sim::SimTime kKeepAliveCeiling = sim::SimTime::minutes(20);
/// Inter-arrival EWMA smoothing factor.
inline constexpr double kKeepAliveAlpha = 0.25;
/// kHybrid occupancy band: below kPressureLow the adaptive timeout
/// applies untouched, above kPressureHigh only `floor` remains.
inline constexpr double kPressureLow = 0.5;
inline constexpr double kPressureHigh = 0.9;

/// Stem-cell pool (OpenWhisk prewarm): generic containers of this kind
/// and size are kept booted so the first call of a new function pays
/// only a specialization latency instead of a full cold start.
inline constexpr std::string_view kPrewarmKind = "python:3";
inline constexpr std::int64_t kPrewarmMemoryMb = 256;

struct KeepAliveConfig {
  KeepAlivePolicy policy{KeepAlivePolicy::kFixed};
  /// Lower clamp of the adaptive timeout (must not exceed
  /// kKeepAliveCeiling).
  sim::SimTime floor{sim::SimTime::seconds(30)};
  /// Cadence of the invoker-side reap_idle() sweep. Zero (the default)
  /// disables periodic reaping — the historical behavior, where idle
  /// containers die only by eviction pressure.
  sim::SimTime reap_interval{sim::SimTime::zero()};
};

class ContainerPool {
 public:
  struct Config {
    /// Memory available to containers on the node (Prometheus node:
    /// 128 GB, minus system reserve).
    std::int64_t memory_mb{120 * 1024};
    /// Hard cap on concurrently existing containers on the node.
    std::size_t max_containers{64};
    /// Pluggable keep-alive policy; the default (kFixed) reproduces the
    /// historical behavior exactly.
    KeepAliveConfig keep_alive{};
    /// Stem cells (kPrewarmKind) kept booted; 0 disables the stem-cell
    /// pool.
    std::size_t prewarm_count{2};
  };

  ContainerPool(Config config, RuntimeProfile profile, sim::Rng rng);

  /// Requests a slot to run `function` (memory footprint `memory_mb`).
  /// Prefers a warm idle container for the same function; otherwise tries
  /// a cold start, evicting idle containers (oldest-first) if the cap or
  /// memory budget requires. Rejected iff the node cannot host the
  /// container even after evicting everything idle.
  AcquireResult acquire(FunctionKey function, std::int64_t memory_mb,
                        sim::SimTime now);
  /// As above, with the function's runtime kind: a booted stem cell of a
  /// matching kind is specialized in preference to a cold start.
  AcquireResult acquire(FunctionKey function, const std::string& kind,
                        std::int64_t memory_mb, sim::SimTime now);

  /// Tops the stem-cell pool back up to prewarm_count (capacity
  /// permitting; stem cells never evict warm containers). Call
  /// periodically (the invoker does so from its poll loop). The common
  /// case — pool already topped up — returns after one inline size
  /// check, so the per-tick cost is a compare, not a call.
  void maintain_prewarm(sim::SimTime now) {
    if (stem_.size >= config_.prewarm_count) return;
    refill_prewarm(now);
  }

  /// Marks a previously acquired container busy (call when its start
  /// latency elapsed and execution begins).
  void mark_running(ContainerId id, sim::SimTime now);

  /// Returns a busy container to the warm (idle) set.
  void release(ContainerId id, sim::SimTime now);

  /// Destroys a container outright (e.g. the execution was interrupted
  /// by a drain and the invoker is shutting down).
  void remove(ContainerId id);

  /// Evicts idle containers unused for longer than their keep-alive
  /// timeout (per-function under the adaptive policies). Returns how
  /// many were reaped.
  std::size_t reap_idle(sim::SimTime now);

  /// The keep-alive timeout currently in force for `function`: the
  /// fixed kIdleTimeout, or the per-function adaptive value (pressure-
  /// scaled under kHybrid). Exposed for tests and observability.
  [[nodiscard]] sim::SimTime effective_idle_timeout(FunctionKey function) const;

  /// True if an idle warm container for `function` (>= memory_mb) exists,
  /// i.e. an acquire right now would be a warm resume.
  [[nodiscard]] bool has_warm_idle(FunctionKey function,
                                   std::int64_t memory_mb) const {
    return find_warm(function, memory_mb) != kNil;
  }

  /// True if a new container of `memory_mb` fits without evicting
  /// anything (the same admission rule refill_prewarm uses). Conservative
  /// headroom probe for the direct-invoke seam: when it is false a direct
  /// call would evict warm containers or be rejected outright, so callers
  /// should fall back to the queue path instead.
  [[nodiscard]] bool can_admit(std::int64_t memory_mb) const {
    return live_ < config_.max_containers &&
           memory_in_use_mb_ + memory_mb <= config_.memory_mb;
  }

  /// Destroys every container (node handed back to the HPC workload).
  void clear();

  [[nodiscard]] std::size_t total_containers() const { return live_; }
  [[nodiscard]] std::size_t busy_containers() const { return busy_count_; }
  [[nodiscard]] std::size_t idle_containers() const { return idle_.size; }
  [[nodiscard]] std::size_t prewarmed_containers() const { return stem_.size; }
  [[nodiscard]] std::int64_t memory_in_use_mb() const { return memory_in_use_mb_; }

  struct Counters {
    std::uint64_t warm_hits{0};
    std::uint64_t prewarm_hits{0};
    std::uint64_t cold_starts{0};
    std::uint64_t rejections{0};
    std::uint64_t evictions{0};
  };
  [[nodiscard]] const Counters& counters() const { return counters_; }

 private:
  static constexpr std::uint32_t kNil = 0xFFFFFFFFu;
  /// FunctionKey of a stem cell: booted for a runtime kind, not yet
  /// specialized for any function.
  static constexpr FunctionKey kStemCell = 0xFFFFFFFFu;

  /// One slab slot. A container sits on at most one intrusive list: the
  /// idle LRU while idle and specialized, the stem-cell FIFO while an
  /// unspecialized stem cell. A free slot links the free list via next.
  struct Slot {
    FunctionKey function{kStemCell};
    std::uint32_t generation{1};
    std::int64_t memory_mb{0};
    sim::SimTime last_used;
    /// Stem cells finish booting at this instant.
    sim::SimTime usable_at;
    std::uint32_t prev{kNil};
    std::uint32_t next{kNil};
    ContainerState state{ContainerState::kRemoved};
  };

  /// Doubly linked list threaded through Slot::prev/next; front is the
  /// oldest entry.
  struct List {
    std::uint32_t head{kNil};
    std::uint32_t tail{kNil};
    std::size_t size{0};
  };
  void push_back(List& list, std::uint32_t slot);
  void unlink(List& list, std::uint32_t slot);

  /// The slot of `id`, or kNil when the container no longer exists.
  [[nodiscard]] std::uint32_t slot_of(ContainerId id) const;
  /// A free slot holding a new container of `memory_mb` (counted in
  /// live_ and memory_in_use_mb_); the caller fills in the rest.
  std::uint32_t create(std::int64_t memory_mb);
  /// Destroys the container in `slot` (already off every list).
  void destroy(std::uint32_t slot);
  [[nodiscard]] ContainerId id_of(std::uint32_t slot) const {
    return static_cast<ContainerId>(slots_[slot].generation) << 32 | slot;
  }

  /// Newest idle container of `function` with at least `memory_mb`, or
  /// kNil: the container a warm acquire would reuse.
  [[nodiscard]] std::uint32_t find_warm(FunctionKey function,
                                        std::int64_t memory_mb) const;

  /// Evicts idle containers until `memory_mb` fits and the count cap
  /// allows one more. Returns total removal latency, or nullopt if
  /// impossible.
  std::optional<sim::SimTime> make_room(std::int64_t memory_mb);

  /// Slow path of maintain_prewarm(): boots stem cells until the pool is
  /// full or capacity runs out.
  void refill_prewarm(sim::SimTime now);

  /// Folds an acquire into the function's inter-arrival EWMA (adaptive
  /// keep-alive policies only; kFixed never touches the table).
  void note_arrival(FunctionKey function, sim::SimTime now);

  struct InterArrival {
    sim::SimTime last;
    double ewma_us{0.0};
    std::uint64_t count{0};
  };

  Config config_;
  RuntimeProfile profile_;
  sim::Rng rng_;
  std::vector<Slot> slots_;
  std::uint32_t free_head_{kNil};
  /// Idle specialized containers in LRU order (front = least recently
  /// used).
  List idle_;
  /// Booted (or booting) stem cells awaiting specialization, oldest
  /// first.
  List stem_;
  std::size_t live_{0};
  std::size_t busy_count_{0};
  std::int64_t memory_in_use_mb_{0};
  /// Per-function arrival stats for the adaptive keep-alive policies,
  /// indexed by FunctionKey; empty (never populated) under kFixed.
  std::vector<InterArrival> arrivals_;
  Counters counters_;
};

}  // namespace hpcwhisk::runtime
