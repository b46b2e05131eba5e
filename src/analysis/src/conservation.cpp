#include "hpcwhisk/analysis/conservation.hpp"

#include <sstream>

#include "hpcwhisk/obs/observability.hpp"

namespace hpcwhisk::analysis {

namespace {
// Violation kinds, carried in arg0 of the kAudit instant so trace
// consumers can classify without parsing the human-readable string.
constexpr double kRejectedRefinished = 0.0;
constexpr double kNeverTerminated = 1.0;
constexpr double kUnobservedTerminal = 2.0;
constexpr double kDoubleTerminal = 3.0;
}  // namespace

ConservationAudit::ConservationAudit(whisk::Controller& controller,
                                     obs::Observability* obs)
    : controller_{controller}, obs_{obs} {
  controller_.set_terminal_observer(
      [this](const whisk::ActivationRecord& rec) {
        if (rec.id >= terminal_seen_.size()) terminal_seen_.resize(rec.id + 1);
        ++terminal_seen_[rec.id];
      });
}

ConservationAudit::Result ConservationAudit::finalize() const {
  Result r;
  const auto& counters = controller_.counters();
  r.submitted = counters.submitted;

  // Latest terminal timestamp seen; anchors ledger-level instants that
  // have no single offending activation.
  sim::SimTime latest = sim::SimTime::zero();
  const auto flag = [&](const whisk::ActivationRecord& rec, double kind,
                        std::string text) {
    HW_OBS_IF(obs_) {
      const sim::SimTime at =
          rec.end_time > sim::SimTime::zero() ? rec.end_time : rec.submit_time;
      obs_->trace.record(obs::Cat::kAudit, obs::Phase::kInstant,
                         "audit_violation", obs::Track::kController, 0, rec.id,
                         at, kind);
    }
    r.violations.push_back(std::move(text));
  };

  for (const whisk::ActivationRecord& rec : controller_.activations()) {
    if (rec.end_time > latest) latest = rec.end_time;
    std::ostringstream v;
    switch (rec.state) {
      case whisk::ActivationState::kRejected503:
        ++r.rejected_503;
        // 503s are terminal at submit() and never pass the observer; an
        // observer event for one means a rejected id was re-finished.
        if (seen(rec.id) > 0) {
          v << "activation " << rec.id << ": rejected-503 yet saw "
            << seen(rec.id) << " terminal transition(s)";
          flag(rec, kRejectedRefinished, v.str());
        }
        continue;
      case whisk::ActivationState::kCompleted:
        ++r.completed;
        break;
      case whisk::ActivationState::kFailed:
        ++r.failed;
        break;
      case whisk::ActivationState::kTimedOut:
        ++r.timed_out;
        break;
      case whisk::ActivationState::kQueued:
      case whisk::ActivationState::kRunning:
        ++r.accepted;
        ++r.in_flight;
        v << "activation " << rec.id << ": accepted but never terminated"
          << " (state=" << to_string(rec.state) << ")";
        flag(rec, kNeverTerminated, v.str());
        continue;
    }
    ++r.accepted;

    const std::uint32_t n = seen(rec.id);
    if (n == 0) {
      v << "activation " << rec.id << ": terminal ("
        << to_string(rec.state) << ") without an observed transition";
      flag(rec, kUnobservedTerminal, v.str());
    } else if (n > 1) {
      ++r.double_terminal;
      v << "activation " << rec.id << ": " << n
        << " terminal transitions (state=" << to_string(rec.state) << ")";
      flag(rec, kDoubleTerminal, v.str());
    }
  }

  // Conservation at the ledger level: the controller's own counters must
  // tell the same story as the per-record walk. These breaches have no
  // single offending activation, so their instants anchor at the latest
  // terminal timestamp with no correlation id.
  const auto flag_ledger = [&](std::string text) {
    HW_OBS_IF(obs_) {
      obs_->trace.record(obs::Cat::kAudit, obs::Phase::kInstant,
                         "audit_ledger_mismatch", obs::Track::kController, 0,
                         obs::kNoCorr, latest);
    }
    r.violations.push_back(std::move(text));
  };
  if (r.submitted != r.accepted + r.rejected_503) {
    std::ostringstream v;
    v << "counter mismatch: submitted=" << r.submitted << " != accepted="
      << r.accepted << " + rejected_503=" << r.rejected_503;
    flag_ledger(v.str());
  }
  if (r.accepted != r.completed + r.failed + r.timed_out + r.in_flight) {
    std::ostringstream v;
    v << "counter mismatch: accepted=" << r.accepted << " != completed="
      << r.completed << " + failed=" << r.failed << " + timed_out="
      << r.timed_out << " + in_flight=" << r.in_flight;
    flag_ledger(v.str());
  }
  if (counters.completed != r.completed || counters.failed != r.failed ||
      counters.timed_out != r.timed_out) {
    std::ostringstream v;
    v << "ledger mismatch: controller counted completed="
      << counters.completed << "/failed=" << counters.failed
      << "/timed_out=" << counters.timed_out << ", records show "
      << r.completed << "/" << r.failed << "/" << r.timed_out;
    flag_ledger(v.str());
  }
  HW_OBS_IF(obs_) {
    obs_->metrics.counter("audit.accepted").set(r.accepted);
    obs_->metrics.counter("audit.in_flight").set(r.in_flight);
    obs_->metrics.counter("audit.double_terminal").set(r.double_terminal);
    obs_->metrics.counter("audit.violations").set(r.violations.size());
  }
  return r;
}

std::string ConservationAudit::Result::report() const {
  std::ostringstream out;
  out << "conservation audit: " << (ok() ? "OK" : "VIOLATED") << "\n"
      << "  submitted=" << submitted << " accepted=" << accepted
      << " rejected_503=" << rejected_503 << "\n"
      << "  completed=" << completed << " failed=" << failed
      << " timed_out=" << timed_out << " in_flight=" << in_flight
      << " double_terminal=" << double_terminal << "\n";
  for (const std::string& v : violations) out << "  ! " << v << "\n";
  return out.str();
}

}  // namespace hpcwhisk::analysis
