#pragma once
// Activation: one function invocation tracked from submission to a
// terminal outcome. The controller owns the authoritative store; every
// state transition is timestamped so benches can rebuild the paper's
// per-minute success/failure/lost series (Figs. 5b, 6b).
//
// One record per accepted or rejected call, so at hundreds of calls per
// second the record store is the simulator's largest structure. The
// record holds no string: the function is its registry index (the name
// is registry.spec(function_index).name), and the fields are laid out
// to fill exactly one 64-byte cache line.
//
// The store (ActivationStore) is chunked: records are appended into
// fixed 64 KiB chunks that are never copied or moved, so growing it
// needs no transient second copy and a record's address is stable for
// the controller's life.

#include <cstdint>

#include "hpcwhisk/sim/chunked.hpp"
#include "hpcwhisk/sim/time.hpp"

namespace hpcwhisk::whisk {

using ActivationId = std::uint64_t;
using InvokerId = std::uint32_t;

inline constexpr InvokerId kNoInvoker = static_cast<InvokerId>(-1);

enum class ActivationState : std::uint8_t {
  kQueued,       ///< accepted, waiting in a topic or invoker buffer
  kRunning,      ///< executing in a container
  kCompleted,    ///< finished successfully
  kFailed,       ///< execution failed (e.g. container-capacity rejection)
  kTimedOut,     ///< not completed within the function's timeout
  kRejected503,  ///< refused at submission: no healthy invoker
};

[[nodiscard]] constexpr bool is_terminal(ActivationState s) {
  return s != ActivationState::kQueued && s != ActivationState::kRunning;
}

[[nodiscard]] const char* to_string(ActivationState s);

struct ActivationRecord {
  ActivationId id{0};
  ActivationState state{ActivationState::kQueued};
  /// True cold start paid on the (last) execution.
  bool cold_start{false};
  /// FunctionSpec::index of the invoked function, resolved once at submit.
  std::uint32_t function_index{0};
  sim::SimTime submit_time;
  /// Most recent execution attempt began (zero if never executed). After
  /// a drain interruption + fast-lane reroute this is the restart time;
  /// use first_start_time / queue_wait() for client-perceived queueing.
  sim::SimTime start_time;
  /// First execution attempt began (zero if never executed). Set once.
  sim::SimTime first_start_time;
  sim::SimTime end_time;  ///< reached a terminal state
  InvokerId executed_by{kNoInvoker};
  /// Invoker the controller originally routed the message to (load
  /// accounting); may differ from executed_by after fast-lane reroutes.
  InvokerId routed_to{kNoInvoker};
  /// Times the activation was re-published (fast-lane reroutes).
  std::uint32_t requeues{0};
  /// Times a running execution was interrupted by a draining invoker.
  std::uint32_t interruptions{0};

  /// Client-visible response time; meaningful for terminal states.
  [[nodiscard]] sim::SimTime response_time() const {
    return end_time - submit_time;
  }

  /// Submission-to-first-execution wait; meaningful once the activation
  /// has started at least once (first_start_time != zero).
  [[nodiscard]] sim::SimTime queue_wait() const {
    return first_start_time - submit_time;
  }
};

/// 2^10 records (64 KiB) per chunk.
inline constexpr unsigned kActivationChunkBits = 10;
using ActivationStore = sim::Chunked<ActivationRecord, kActivationChunkBits>;

}  // namespace hpcwhisk::whisk
