#pragma once
// Activation: one function invocation tracked from submission to a
// terminal outcome. The controller owns the authoritative store; every
// state transition is timestamped so benches can rebuild the paper's
// per-minute success/failure/lost series (Figs. 5b, 6b).
//
// One record per accepted or rejected call, so at hundreds of calls per
// second the record store is the simulator's largest structure. The
// record holds no string: the function is its registry index (the name
// is registry.spec(function_index).name), and a mutable record is 64
// bytes, one cache line.
//
// The store (ActivationStore) keeps every record readable, in two parts,
// as OpenWhisk writes an activation once, when it ends, and reads it back
// by id:
//  - the *window* holds full, mutable records from the 1,024-record
//    chunk that holds the oldest non-terminal id up to the newest id. Its
//    chunks never move, so a reference to a window record stays valid
//    until the next archive_terminal_prefix() (the controller calls it
//    only at the top of submit()) and, for a non-terminal record, for as
//    long as the record stays non-terminal;
//  - the *archive* holds every id below the window's base as a lossless
//    32-byte ArchivedRecord. Archived records are terminal and read-only:
//    they are read back by value, never by reference.

#include <cstddef>
#include <cstdint>
#include <deque>
#include <iterator>
#include <memory>
#include <vector>

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

  bool operator==(const ActivationRecord&) const = default;
};

/// A terminal record in 32 bytes. The id is the record's position in
/// the archive. Times after submission are µs offsets from it, stored
/// plus one so that 0 can mean "the field is zero"; start_time is
/// implied equal to first_start_time (it differs only after a drain
/// interruption restarted the call). A record with a time that does
/// not fit, start_time != first_start_time, or a counter above
/// kMaxCounter is kept whole in the store's exception list, and its
/// slot here is flagged kException.
struct ArchivedRecord {
  static constexpr std::uint8_t kStateMask = 0x07;
  static constexpr std::uint8_t kColdStart = 0x08;
  static constexpr std::uint8_t kException = 0x10;
  static constexpr std::uint32_t kMaxCounter = 254;
  static constexpr std::int64_t kMaxOffset = 0xFFFF'FFFE;  // 2^32 - 2 µs

  std::int64_t submit_ticks{0};
  std::uint32_t first_start{0};  ///< first_start_time offset + 1, 0 = zero
  std::uint32_t end{0};          ///< end_time offset + 1, 0 = zero
  std::uint32_t function_index{0};
  InvokerId executed_by{kNoInvoker};
  InvokerId routed_to{kNoInvoker};
  std::uint8_t flags{0};  ///< state, kColdStart, kException
  std::uint8_t requeues{0};
  std::uint8_t interruptions{0};

  /// Encodes `rec`. Every slot carries function_index; the other fields
  /// are meaningful only when the result has no kException flag.
  [[nodiscard]] static ArchivedRecord encode(const ActivationRecord& rec) {
    ArchivedRecord a;
    a.submit_ticks = rec.submit_time.ticks();
    a.function_index = rec.function_index;
    a.executed_by = rec.executed_by;
    a.routed_to = rec.routed_to;
    a.flags = static_cast<std::uint8_t>(rec.state) |
              (rec.cold_start ? kColdStart : 0);
    a.requeues = static_cast<std::uint8_t>(rec.requeues);
    a.interruptions = static_cast<std::uint8_t>(rec.interruptions);
    const bool fits =
        pack(rec.first_start_time, rec.submit_time, a.first_start) &&
        pack(rec.end_time, rec.submit_time, a.end) &&
        rec.start_time == rec.first_start_time &&
        rec.requeues <= kMaxCounter && rec.interruptions <= kMaxCounter;
    if (!fits) a.flags |= kException;
    return a;
  }

  [[nodiscard]] bool exception() const { return (flags & kException) != 0; }

  /// The record with id `id`; only for a slot without kException.
  [[nodiscard]] ActivationRecord decode(ActivationId id) const {
    ActivationRecord r;
    r.id = id;
    r.state = static_cast<ActivationState>(flags & kStateMask);
    r.cold_start = (flags & kColdStart) != 0;
    r.function_index = function_index;
    r.submit_time = sim::SimTime::micros(submit_ticks);
    r.first_start_time = unpack(first_start);
    r.start_time = r.first_start_time;
    r.end_time = unpack(end);
    r.executed_by = executed_by;
    r.routed_to = routed_to;
    r.requeues = requeues;
    r.interruptions = interruptions;
    return r;
  }

 private:
  static bool pack(sim::SimTime t, sim::SimTime submit, std::uint32_t& out) {
    out = 0;
    if (t == sim::SimTime::zero()) return true;
    const std::int64_t offset = (t - submit).ticks();
    if (offset < 0 || offset > kMaxOffset) return false;
    out = static_cast<std::uint32_t>(offset + 1);
    return true;
  }
  [[nodiscard]] sim::SimTime unpack(std::uint32_t v) const {
    return v == 0 ? sim::SimTime::zero()
                  : sim::SimTime::micros(submit_ticks + (v - 1));
  }
};
static_assert(sizeof(ArchivedRecord) <= 32);

/// Every record of a controller, in id order: a window of mutable
/// records over an archive of terminal ones (see the header comment).
class ActivationStore {
 public:
  /// 2^10 records (64 KiB) per window chunk.
  static constexpr std::size_t kChunkSize = std::size_t{1} << 10;

  [[nodiscard]] std::size_t size() const { return size_; }
  /// Ids below base() are archived; ids from base() to size() - 1 are in
  /// the window.
  [[nodiscard]] ActivationId base() const { return base_; }

  /// Appends a default-constructed record with id size() to the window
  /// and returns it.
  ActivationRecord& emplace_back();

  /// The window record `id` (base() <= id < size()).
  [[nodiscard]] ActivationRecord& live(ActivationId id) {
    const std::size_t k = id - base_;
    return window_[k / kChunkSize][k % kChunkSize];
  }
  [[nodiscard]] const ActivationRecord& live(ActivationId id) const {
    const std::size_t k = id - base_;
    return window_[k / kChunkSize][k % kChunkSize];
  }

  /// Record `id` (< size()), archived or not, by value.
  [[nodiscard]] ActivationRecord operator[](ActivationId id) const;
  /// FunctionSpec::index of record `id` (< size()), without decoding it.
  [[nodiscard]] std::uint32_t function_index(ActivationId id) const {
    return id < base_ ? archive_[id].function_index
                      : live(id).function_index;
  }

  /// Archives the window's chunks that lie wholly below its oldest
  /// non-terminal record, then frees them. Invalidates references to
  /// the archived records.
  void archive_terminal_prefix();

  /// Archived records kept whole because they do not fit 32 bytes.
  [[nodiscard]] std::size_t exception_count() const {
    return exceptions_.size();
  }

  /// Walks every record in id order, yielding each by value.
  class const_iterator {
   public:
    using iterator_category = std::input_iterator_tag;
    using value_type = ActivationRecord;
    using difference_type = std::ptrdiff_t;
    using pointer = void;
    using reference = ActivationRecord;

    const_iterator() = default;
    ActivationRecord operator*() const { return (*s_)[id_]; }
    const_iterator& operator++() {
      ++id_;
      return *this;
    }
    void operator++(int) { ++*this; }
    bool operator==(const const_iterator& o) const { return id_ == o.id_; }

   private:
    friend class ActivationStore;
    const_iterator(const ActivationStore* s, ActivationId id)
        : s_{s}, id_{id} {}
    const ActivationStore* s_{nullptr};
    ActivationId id_{0};
  };

  [[nodiscard]] const_iterator begin() const { return {this, 0}; }
  [[nodiscard]] const_iterator end() const { return {this, size_}; }

 private:
  /// Archived records, 2^11 (64 KiB) per chunk; index == id.
  sim::Chunked<ArchivedRecord, 11> archive_;
  /// The whole records of the archived slots flagged kException, by id.
  std::vector<ActivationRecord> exceptions_;
  /// Window chunk k holds ids base_ + k * kChunkSize onwards.
  std::deque<std::unique_ptr<ActivationRecord[]>> window_;
  ActivationId base_{0};
  std::size_t size_{0};
  /// No record below this id is non-terminal.
  ActivationId first_open_{0};
};

}  // namespace hpcwhisk::whisk
