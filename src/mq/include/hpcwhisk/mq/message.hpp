#pragma once
// Messages carried by the broker. In OpenWhisk, per-invoker Kafka topics
// carry activation requests; we carry an opaque 64-bit id (the activation
// id) plus delivery diagnostics. Receivers resolve everything else from
// the id, so a message is 24 bytes and copies without allocating.

#include <cstdint>

#include "hpcwhisk/sim/time.hpp"

namespace hpcwhisk::mq {

struct Message {
  /// Application-level id (HPC-Whisk stores the activation id here).
  std::uint64_t id{0};
  /// First time this message was published to any topic.
  sim::SimTime first_published;
  /// How many times the message has been (re)published — 1 on first
  /// publish, +1 per fast-lane reroute. Diagnoses requeue storms.
  std::uint32_t delivery_count{0};
};

}  // namespace hpcwhisk::mq
