#pragma once
// Activation-conservation audit.
//
// The invariant under test: every activation the controller *accepted*
// reaches exactly one terminal state — completed, failed, or timed out —
// no matter what faults the run injected. Nothing is lost (a client
// always gets an answer, if only a timeout) and nothing is double-
// completed (at-least-once delivery plus the deliverable() guard must
// never yield two terminal transitions for one id).
//
// The audit attaches to the controller's terminal-observer hook at
// construction time (one observer per controller — constructing a second
// audit displaces the first) and counts every terminal transition as it
// happens; finalize() then reconciles those counts against the
// activation store and the controller's own counters. Run finalize()
// only after the simulation drained past the last client timeout, i.e.
// once every accepted activation had the chance to terminate.

#include <cstdint>
#include <string>
#include <vector>

#include "hpcwhisk/whisk/controller.hpp"

namespace hpcwhisk::obs {
struct Observability;
}  // namespace hpcwhisk::obs

namespace hpcwhisk::analysis {

class ConservationAudit {
 public:
  /// `obs` (optional) receives one kAudit instant event per violation
  /// (corr = offending activation id) plus audit.* counters whenever
  /// finalize() runs; it must outlive the audit.
  explicit ConservationAudit(whisk::Controller& controller,
                             obs::Observability* obs = nullptr);

  ConservationAudit(const ConservationAudit&) = delete;
  ConservationAudit& operator=(const ConservationAudit&) = delete;

  struct Result {
    std::uint64_t submitted{0};
    std::uint64_t accepted{0};
    std::uint64_t rejected_503{0};
    std::uint64_t completed{0};
    std::uint64_t failed{0};
    std::uint64_t timed_out{0};
    std::uint64_t in_flight{0};        ///< accepted, still non-terminal
    std::uint64_t double_terminal{0};  ///< ids with >1 terminal transition
    /// Human-readable invariant breaches, in activation-id order.
    std::vector<std::string> violations;

    [[nodiscard]] bool ok() const { return violations.empty(); }
    /// Deterministic multi-line report: byte-identical for identical
    /// runs (fixed field order, no timestamps, no addresses).
    [[nodiscard]] std::string report() const;
  };

  /// Reconciles observer counts, the activation store, and the
  /// controller counters. Idempotent; call after the run drained.
  [[nodiscard]] Result finalize() const;

 private:
  whisk::Controller& controller_;
  obs::Observability* obs_{nullptr};
  /// Terminal transitions seen per activation, indexed by id; grows with
  /// the highest id seen (ids past the end were seen zero times).
  std::vector<std::uint32_t> terminal_seen_;

  [[nodiscard]] std::uint32_t seen(whisk::ActivationId id) const {
    return id < terminal_seen_.size() ? terminal_seen_[id] : 0;
  }
};

}  // namespace hpcwhisk::analysis
