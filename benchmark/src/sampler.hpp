#pragma once
// Sampling profiler for the traced rep: a CLOCK_MONOTONIC timer delivers
// SIGPROF to the main thread; the handler records the interrupted
// instruction pointer and walks the frame-pointer chain into a buffer
// allocated up front. It makes no calls, allocates nothing and reads only
// the live part of the main thread's stack.
//
// After the run, attribute() names each sample's layer: the innermost
// frame whose symbol lies in an `hpcwhisk::<module>::` scope (or in the
// runner's own `hwbench::` scope, layer "bench"). An InplaceCallback
// thunk counts for the module that wrote the lambda it invokes, so an
// event handler is charged to its component, not to the event loop.
// Limits: inlined code counts for the function it was inlined into, and
// frames in libc/libstdc++ count for their nearest named caller.

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include <signal.h>
#include <time.h>

namespace hwbench {

class Sampler {
 public:
  static constexpr std::size_t kMaxDepth = 48;

  /// Preallocates room for `capacity` samples.
  explicit Sampler(std::size_t capacity);
  ~Sampler();

  Sampler(const Sampler&) = delete;
  Sampler& operator=(const Sampler&) = delete;

  /// Arms the timer at `hz` samples per second of wall time. One sampler
  /// may run at a time; call from the main thread.
  void start(int hz);
  /// Disarms the timer; idempotent.
  void stop();

  [[nodiscard]] std::size_t samples() const {
    return count_.load(std::memory_order_relaxed);
  }
  /// Ticks that found the buffer full.
  [[nodiscard]] std::size_t overflowed() const {
    return overflow_.load(std::memory_order_relaxed);
  }

  /// Sample count per layer; samples with no named frame go to "other".
  [[nodiscard]] std::map<std::string, std::size_t> attribute() const;

 private:
  static void on_signal(int, siginfo_t*, void* context);

  std::size_t capacity_;
  std::vector<std::uintptr_t> frames_;  ///< capacity_ x kMaxDepth
  std::vector<std::uint8_t> depth_;     ///< frames recorded per sample
  std::atomic<std::size_t> count_{0};
  std::atomic<std::size_t> overflow_{0};
  std::uintptr_t text_lo_{0};
  std::uintptr_t text_hi_{0};
  std::uintptr_t stack_lo_{0};
  std::uintptr_t stack_hi_{0};
  timer_t timer_{};
  bool armed_{false};
};

/// Layer of one demangled symbol name, or "" when it names none.
[[nodiscard]] std::string layer_of_symbol(std::string_view name);

}  // namespace hwbench
