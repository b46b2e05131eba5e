#pragma once
// Named-topic broker. HPC-Whisk uses one topic per invoker plus a single
// global "fast lane" topic that drained invokers re-publish into and that
// every invoker polls before its own topic (Sec. III-C of the paper).
//
// Not thread-safe, and nothing needs it to be: each HpcWhiskSystem owns
// its broker, one sim::Simulation drives it, and parallel trials
// (exec::parallel_trials) each build their own system. Components
// resolve their topics once at wiring time (invoker registration) and
// afterwards publish and consume through the Topic& — no name lookup
// per message.

#include <functional>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "hpcwhisk/mq/topic.hpp"

namespace hpcwhisk::obs {
struct Observability;
}

namespace hpcwhisk::mq {

class Broker {
 public:
  /// Conventional name of the global fast-lane topic.
  static constexpr const char* kFastLane = "fast-lane";

  Broker();

  /// Returns the topic, creating it if absent. The reference stays valid
  /// for the broker's lifetime (topics are never destroyed, matching
  /// Kafka's durable-topic semantics within a run). Wiring-time API:
  /// call once per consumer/producer and keep the reference.
  Topic& topic(const std::string& name);

  /// Returns the topic or nullptr if it was never created.
  [[nodiscard]] Topic* find(const std::string& name);

  Topic& fast_lane() { return *fast_lane_; }

  /// Runs `hook` on every existing topic and on each topic created later
  /// (invoker topics appear dynamically as pilots register), in creation
  /// order. The chaos engine uses this to install fault filters
  /// broker-wide. One hook at a time; an empty function clears it.
  void set_topic_hook(std::function<void(Topic&)> hook);

  /// Names of every topic ever created, sorted lexicographically so logs
  /// and reports read the same on every platform.
  [[nodiscard]] std::vector<std::string> topic_names() const;

  /// Registers a metrics collector on `obs` that sums every topic's
  /// counters into the mq.* instruments at snapshot time (publishes stay
  /// uninstrumented — the hot path is untouched). `mq.topics` counts the
  /// topics created so far. `obs` must not outlive the broker. Null is a
  /// no-op.
  void set_observability(obs::Observability* obs);

 private:
  /// Looked up by name, never iterated: its order is unspecified.
  std::unordered_map<std::string, std::unique_ptr<Topic>> by_name_;
  /// Creation order, for everything that walks the topics.
  std::vector<Topic*> topics_;
  std::function<void(Topic&)> topic_hook_;
  /// Declared last: the constructor creates it through topic().
  Topic* fast_lane_;
};

}  // namespace hpcwhisk::mq
