#include "responsiveness.hpp"

#include <ostream>

namespace hpcwhisk::bench {

int run_responsiveness(std::ostream& os, core::SupplyModel model,
                       double paper_invoked_pct, double paper_success_pct) {
  check::ScenarioSpec cfg = base_scenario();
  cfg.supply = model;
  cfg.faas_qps = 10.0;
  cfg.faas_functions = 100;
  cfg = apply_env(cfg);

  os << "bench: responsiveness (" << core::to_string(model) << ", seed "
     << cfg.seed << ", " << cfg.nodes << " nodes, 10 QPS x "
     << (cfg.horizon - cfg.measure_start).to_string() << ")\n\n";

  const auto result = run_experiment(cfg);
  const auto& activations = result.system->controller().activations();

  // Per-minute aggregation over the measurement window.
  const std::size_t minutes = static_cast<std::size_t>(
      (result.measure_end - result.measure_start) / sim::SimTime::minutes(1));
  std::vector<double> ok(minutes, 0), failed(minutes, 0), lost(minutes, 0),
      rejected(minutes, 0);
  std::uint64_t total = 0, n_ok = 0, n_failed = 0, n_lost = 0, n_rejected = 0;
  std::vector<double> response_ms;
  std::vector<double> requeues;

  for (const auto& rec : activations) {
    if (rec.submit_time < result.measure_start) continue;
    const std::size_t minute = std::min(
        minutes - 1,
        static_cast<std::size_t>((rec.submit_time - result.measure_start) /
                                 sim::SimTime::minutes(1)));
    ++total;
    requeues.push_back(rec.requeues);
    switch (rec.state) {
      case whisk::ActivationState::kCompleted:
        ++n_ok;
        ok[minute] += 1;
        response_ms.push_back(rec.response_time().to_seconds() * 1e3);
        break;
      case whisk::ActivationState::kFailed:
        ++n_failed;
        failed[minute] += 1;
        break;
      case whisk::ActivationState::kRejected503:
        ++n_rejected;
        rejected[minute] += 1;
        break;
      case whisk::ActivationState::kTimedOut:
        ++n_lost;
        lost[minute] += 1;
        break;
      case whisk::ActivationState::kQueued:
      case whisk::ActivationState::kRunning:
        ++n_lost;  // still in flight at the end of the run: count lost
        lost[minute] += 1;
        break;
    }
  }

  const double invoked = total == 0 ? 0.0
                                    : 1.0 - static_cast<double>(n_rejected) /
                                                static_cast<double>(total);
  const std::uint64_t accepted = total - n_rejected;
  const double success = accepted == 0 ? 0.0
                                       : static_cast<double>(n_ok) /
                                             static_cast<double>(accepted);
  const double timeouts = accepted == 0 ? 0.0
                                        : static_cast<double>(n_lost) /
                                              static_cast<double>(accepted);
  const double exec_failed = accepted == 0
                                 ? 0.0
                                 : static_cast<double>(n_failed) /
                                       static_cast<double>(accepted);
  const auto rt = analysis::summarize(response_ms);
  const auto rq = analysis::summarize(requeues);

  analysis::print_table(
      os, "responsiveness summary",
      {"metric", "paper", "measured"},
      {
          {"requests issued", "864000 over 24h", std::to_string(total)},
          {"invoked (not 503)", analysis::fmt(paper_invoked_pct, 2) + "%",
           analysis::fmt_pct(invoked)},
          {"success of invoked", analysis::fmt(paper_success_pct, 2) + "%",
           analysis::fmt_pct(success)},
          {"timeout of invoked", "~2-3%", analysis::fmt_pct(timeouts)},
          {"failed of invoked", "~1-1.7%", analysis::fmt_pct(exec_failed)},
          {"median response [ms]", "865 (fib) / 1227 (var)",
           analysis::fmt(rt.p50, 0)},
          {"mean requeues per request", "-", analysis::fmt(rq.avg, 4)},
      });

  analysis::print_series(os, "Fig 5b/6b: successful per minute", ok, 60.0, 96);
  analysis::print_series(os, "Fig 5b/6b: failed per minute", failed, 60.0, 96);
  analysis::print_series(os, "Fig 5b/6b: lost (timeout) per minute", lost,
                         60.0, 96);
  analysis::print_series(os, "Fig 5b/6b: rejected (503) per minute", rejected,
                         60.0, 96);
  return 0;
}

}  // namespace hpcwhisk::bench
