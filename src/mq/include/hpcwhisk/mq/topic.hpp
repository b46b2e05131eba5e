#pragma once
// A FIFO topic with pull-based consumption, mirroring how OpenWhisk
// invokers consume their individual Kafka topics.
//
// Not thread-safe, and nothing needs it to be: a topic belongs to one
// Broker, which belongs to one HpcWhiskSystem driven by one
// sim::Simulation; parallel trials (exec::parallel_trials) each build
// their own. Consumers poll far more often than producers publish, so
// the empty case is the common case and an empty poll is one size
// check. poll_into() appends to a caller-owned scratch vector, so a
// steady-state poll tick performs zero allocations.
//
// The queue is a ring buffer (sim::Ring) that keeps its capacity while
// messages flow and is freed by drain(): an empty topic that was never
// published to, or a drained one, owns no buffer — only its name and
// counters.
//
// Fault injection: an optional fault filter intercepts every publish and
// may drop, delay, or duplicate the message — the broker-level failure
// modes an at-least-once pipeline must survive. The filter is consulted
// once per publish; delayed and duplicated copies are delivered through
// an internal path that bypasses it, so a fault decision never cascades.

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "hpcwhisk/mq/message.hpp"
#include "hpcwhisk/sim/ring.hpp"

namespace hpcwhisk::sim {
class Simulation;
}  // namespace hpcwhisk::sim

namespace hpcwhisk::mq {

class Topic {
 public:
  explicit Topic(std::string name) : name_{std::move(name)} {}

  Topic(const Topic&) = delete;
  Topic& operator=(const Topic&) = delete;

  [[nodiscard]] const std::string& name() const { return name_; }

  /// Appends a message to the tail. Stamps first_published on the first
  /// publish and bumps delivery_count. Subject to the fault filter.
  void publish(Message msg, sim::SimTime now) { admit(msg, now, false); }

  /// Like publish(), but enqueues at the *head*: the message preempts
  /// queue position (deadline-class dispatch), never a consumer that has
  /// already pulled. Subject to the fault filter; a fault-delayed copy
  /// loses its front position (it re-enters whenever the delay fires).
  void publish_front(Message msg, sim::SimTime now) { admit(msg, now, true); }

  /// Pops up to `max_count` messages from the head (FIFO), appending to
  /// `out`. Returns the number popped.
  std::size_t poll_into(std::size_t max_count, std::vector<Message>& out);

  /// Pops a single message, if any.
  [[nodiscard]] std::optional<Message> poll_one();

  /// Removes and returns *all* queued messages, and frees the queue's
  /// buffer. Used by the controller to move a draining invoker's unpulled
  /// backlog to the fast-lane topic.
  [[nodiscard]] std::vector<Message> drain();

  [[nodiscard]] std::size_t size() const { return queue_.size(); }
  [[nodiscard]] bool empty() const { return queue_.empty(); }

  // --- Fault injection -----------------------------------------------------

  /// What the fault filter decided for one publish. Default = deliver
  /// normally. `drop` wins over the other fields.
  struct FaultAction {
    bool drop{false};
    /// Extra copies enqueued beyond the original (at-least-once
    /// duplication, e.g. a producer retry after a lost ack).
    std::uint32_t extra_copies{0};
    /// Delivery delay; requires a simulation to schedule against (the
    /// message is delivered whole after the delay, copies included).
    sim::SimTime delay{sim::SimTime::zero()};
  };
  using FaultFilter = std::function<FaultAction(const Message&)>;

  /// Installs (or, with an empty function, removes) the fault filter.
  /// `simulation` is required for delayed delivery; without it, delays
  /// degrade to immediate delivery.
  void set_fault_filter(FaultFilter filter, sim::Simulation* simulation);

  /// Lifetime counters (monotonic).
  struct Counters {
    std::uint64_t published{0};
    std::uint64_t front_published{0};  ///< subset of published
    std::uint64_t consumed{0};
    std::uint64_t drained{0};
    std::uint64_t fault_dropped{0};
    std::uint64_t fault_delayed{0};
    std::uint64_t fault_duplicated{0};  ///< extra copies enqueued
  };
  [[nodiscard]] const Counters& counters() const { return counters_; }

 private:
  /// Runs the fault filter on one publish to the head (`front`) or tail.
  void admit(Message msg, sim::SimTime now, bool front);
  /// Enqueues one copy at the head or tail, bypassing the fault filter.
  void deliver(Message msg, sim::SimTime now, bool front);

  const std::string name_;
  sim::Ring<Message> queue_;
  FaultFilter fault_filter_;
  sim::Simulation* sim_{nullptr};
  Counters counters_;
};

}  // namespace hpcwhisk::mq
